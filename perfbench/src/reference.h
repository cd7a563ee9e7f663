// A fixed reference computation that gauges how fast the host runs while
// the simulation runs, so the benchmark can report the simulation's wall
// time rescaled to a nominal host speed (see perfbench/README.md, "Wall time
// on a shared host").
#ifndef SYMPHONY_PERFBENCH_SRC_REFERENCE_H_
#define SYMPHONY_PERFBENCH_SRC_REFERENCE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace symphony {
namespace perfbench {

// The kernel uses no code of the serving stack, so a change there never
// moves it. It looks up keys in a hash map of 32k entries and sorts a small
// array: of the kernels tried (pointer chasing through 1 and 16 MB, ordered
// map lookups, calls through std::function, a streaming scan), these two
// tracked the simulator's wall time from process to process most closely on
// a shared host. Its data is built once; a chunk allocates nothing, so it
// neither disturbs the simulation's heap nor pays for page faults.
class Reference {
 public:
  Reference();

  // Runs one chunk: a fixed amount of work, about 1 ms on a quiet host.
  void RunChunk();

 private:
  std::unordered_map<uint64_t, uint64_t> hash_;
  std::vector<uint64_t> unsorted_, scratch_;
  uint64_t round_ = 0;
  uint64_t checksum_ = 0;
};

// The process's reference, built on first use (before the first set-up).
Reference& reference();

}  // namespace perfbench
}  // namespace symphony

#endif  // SYMPHONY_PERFBENCH_SRC_REFERENCE_H_
