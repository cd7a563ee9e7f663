// One workload run of the Symphony benchmark, in its own process:
//
//   perfbench_workload --workload overload|rag|agents --seed N
//                      [--trace 0|1] [--trace-dir DIR]
//
// Prints human-readable progress on stderr and one `RESULT {...}` JSON line
// on stdout; exits nonzero when any check fails. perfbench/run.py repeats
// it and aggregates the results.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/src/reference.h"
#include "perfbench/src/workloads.h"

namespace {

// Builds per process; only the last one runs. The first builds run slower
// while caches and the allocator warm up, so set-up is reported as the
// fastest build.
constexpr int kSetupBuilds = 8;

}  // namespace

int main(int argc, char** argv) {
  using namespace symphony::perfbench;
  std::string workload;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  int (*run)(const RunOptions&) = workload == "overload" ? RunOverload
                                  : workload == "rag"    ? RunRag
                                  : workload == "agents" ? RunAgents
                                                         : nullptr;
  if (run == nullptr) {
    std::fprintf(stderr, "usage: %s --workload overload|rag|agents --seed N "
                 "[--trace 0|1] [--trace-dir DIR]\n", argv[0]);
    return 2;
  }
  if (options.trace) {
    probe().Enable();
  }
  // Built before the first set-up, so its memory is never part of one.
  reference();
  std::vector<double> setup_times;
  options.setup_times = &setup_times;
  options.setup_only = true;
  for (int i = 1; i < kSetupBuilds; ++i) {
    run(options);
  }
  options.setup_only = false;
  return run(options);
}
