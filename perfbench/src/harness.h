// Shared machinery of the Symphony benchmark (see perfbench/README.md).
//
// A workload builds a fleet from the public serving API, schedules seeded
// open-loop arrivals, and records what every request's LIPs generated and
// when. The harness turns those records into the end-to-end
// metrics, re-derives every generated token with the model alone (the output
// check), and — in a traced run — times the calls the benchmark's own code
// makes into each layer.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/runtime/lip_context.h"
#include "src/serve/cluster.h"
#include "src/serve/server.h"
#include "src/sim/event_queue.h"
#include "src/sim/trace.h"

namespace symphony {
namespace perfbench {

// Wall-clock nanoseconds since this process started (anchored by a static
// initializer, so the loader's work before it is not included).
int64_t WallNs();

// ---- Requests and their generated tokens -------------------------------

// One LIP's generated tokens, indexed by their position in its output.
// A replay after failover re-delivers tokens the first incarnation already
// produced: the first write wins, so a replay neither double-counts a token
// nor moves its timestamp, and a re-delivered token that differs is counted.
struct Stream {
  std::vector<TokenId> tokens;
  std::vector<SimTime> times;        // -1 until generated.
  std::vector<uint8_t> after_wait;   // The gap before it spans a tool call
                                     // or an IPC wait (excluded from ITL).
  uint32_t incarnations = 0;         // Program starts; > 1 means replayed.
  uint64_t replay_mismatches = 0;
  bool finished = false;             // The program ran to its end.
  bool exited = false;               // on_exit fired.

  void Record(size_t index, TokenId token, SimTime at, bool after_wait_gap);
  size_t generated() const;
};

struct Request {
  SimTime due = 0;
  SimTime launched = -1;
  SimTime exit = -1;      // When the last of its LIPs exited.
  bool shed = false;      // Refused at submission.
  std::vector<Stream> streams;

  bool Finished() const { return exit >= 0 || shed; }
  bool Succeeded() const;
  // Marks `stream` exited; sets `exit` once every stream has.
  void NoteExit(size_t stream, SimTime at);
};

// One step of a LIP's conversation: feed `input`, then generate `generate`
// tokens greedily. The last token of a piece is fed to the model together
// with the next piece's input, so a script's token positions are contiguous.
struct Piece {
  std::vector<TokenId> input;
  uint32_t generate = 0;
};

// Open-loop arrival schedule: a Poisson process conditioned on its count,
// i.e. round(rate x window) due times drawn uniformly over the window and
// sorted. Fixing the count keeps the offered load identical across seeds,
// so a seed varies only the arrival pattern and the inputs.
std::vector<SimTime> PoissonArrivals(uint64_t seed, double rate_per_s,
                                     double window_s);

// ---- End-to-end metrics ------------------------------------------------

struct Limits {
  double ttft_ms = 0.0;      // Goodput: TTFT at most this...
  double mean_itl_ms = 0.0;  // ...and mean ITL per request at most this.
};

struct EndToEnd {
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;       // Errored, cancelled or shed.
  uint64_t unfinished = 0;   // Never finished.
  uint64_t generated_tokens = 0;
  uint64_t ttft_n = 0, itl_n = 0, e2e_n = 0, good = 0;
  double ttft_p50_ms = 0, ttft_p99_ms = 0;
  double itl_p50_ms = 0, itl_p99_ms = 0;
  double e2e_p99_ms = 0;
  double goodput_rps = 0, output_tok_s = 0, fail_pct = 0;
  double lateness_max_ms = 0;  // Launch time minus due time.
  SimTime makespan = 0;        // Last exit.
};

EndToEnd Summarize(const std::vector<Request>& requests, const Limits& limits,
                   SimDuration window);

// Nearest-rank percentile (q in [0, 1]) of `values`; sorts in place.
double Percentile(std::vector<double>& values, double q);

// ---- Output check ------------------------------------------------------

// Re-derives the generated tokens of every completed request's streams by
// greedy Model::Advance / Model::Predict over `script(request, stream)`,
// with no serving stack involved. Returns the number of streams whose
// recorded tokens differ (or whose token count is wrong).
using ScriptFn = std::function<std::vector<Piece>(size_t request, size_t stream)>;
uint64_t CheckOutputs(const Model& model, const std::vector<Request>& requests,
                      const ScriptFn& script);

// Where a LIP is in its script: the next output index, and the last
// generated token, which is fed with the next piece's input.
struct Cursor {
  size_t request = 0;
  Stream* stream = nullptr;
  size_t next_index = 0;
  TokenId pending = -1;  // -1: nothing to feed.
};

// Runs `pieces` inside a LIP on `kv`, recording generated tokens through
// `cursor`. `after_wait` marks the first generated token as following a
// tool call or IPC wait. Returns the first error.
ValueTask<Status> RunPieces(LipContext& ctx, KvHandle kv,
                            std::vector<Piece> pieces, Cursor* cursor,
                            bool after_wait);

// ---- Wall-clock probe (traced runs) --------------------------------------

enum class Layer : uint8_t {
  kStep,      // One Simulator::Step (sim).
  kKvfs,      // A LipContext::kv_* call from a benchmark LIP.
  kSubmit,    // InferenceScheduler::Submit through the forwarding service.
  kLaunch,    // SymphonyServer/SymphonyCluster Launch or Submit.
  kSnapshot,  // SymphonyCluster::Snapshot.
  kTool,      // A tool handler registered by the benchmark.
};

// What happened inside a step, as seen from the benchmark's own code.
enum StepFlag : uint8_t {
  kLipResumed = 1,     // A benchmark LIP resumed.
  kBatchComplete = 2,  // A pred completion callback fired.
  kBatchLaunch = 4,    // A device batch was launched.
  kArrival = 8,        // A scheduled arrival launched LIPs.
  kOperator = 16,      // The operator loop took a snapshot.
};

struct Span {
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint32_t parent = 0;    // Index of the step span (steps: their own index).
  uint32_t request = 0;   // Request id + 1; 0 = none.
  Layer layer = Layer::kStep;
  uint8_t flags = 0;      // StepFlag bits (steps only).
};

// All spans of a traced run, kept in memory and written out once at the
// end. The workload process is single-threaded, so one global instance.
class Probe {
 public:
  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }

  void BeginStep();
  void EndStep(int64_t end_ns, uint8_t extra_flags);
  void CancelStep();  // The step dispatched nothing.
  void AddChild(Layer layer, int64_t start_ns, int64_t end_ns);
  void Mark(StepFlag flag) { step_flags_ |= flag; }
  // The request whose LIP is running (0 = none); tags child spans.
  void set_request(uint32_t request_plus_one) { request_ = request_plus_one; }
  void SampleQueueDepth(size_t depth) { queue_depths_.push_back(depth); }

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<double> queue_depths() const {
    return {queue_depths_.begin(), queue_depths_.end()};
  }
  Status WriteTsv(const std::string& path) const;

 private:
  bool enabled_ = false;
  uint32_t step_ = UINT32_MAX;  // The open step span; UINT32_MAX = none.
  int64_t step_start_ = 0;
  uint8_t step_flags_ = 0;
  uint32_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> queue_depths_;
};

Probe& probe();

// Calls `fn`, recording a child span of `layer` when tracing.
template <typename Fn>
auto Timed(Layer layer, Fn&& fn) -> decltype(fn()) {
  if (!probe().enabled()) {
    return fn();
  }
  int64_t start = WallNs();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    probe().AddChild(layer, start, WallNs());
  } else {
    auto result = fn();
    probe().AddChild(layer, start, WallNs());
    return result;
  }
}

// Called by benchmark LIPs right after every resumption.
void NoteResume(size_t request);

// ---- Fleet instrumentation ---------------------------------------------

// Every server incarnation a workload built (a readmitted replica slot is
// rebuilt, and the retired incarnation's counters must still be summed).
// In a traced run each server's pred path also goes through a forwarding
// PredService that times InferenceScheduler::Submit, samples the queue
// depth and marks the steps in which a pred completes.
class Fleet {
 public:
  Fleet();
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Registers `server`, the current incarnation of replica slot `slot`.
  void Add(SymphonyServer& server, size_t slot);
  const std::vector<SymphonyServer*>& servers() const { return servers_; }
  size_t slots() const { return slots_; }
  uint64_t DeviceBatches() const;

 private:
  class ProbedPredService;
  std::vector<SymphonyServer*> servers_;
  std::vector<std::unique_ptr<ProbedPredService>> services_;
  size_t slots_ = 0;
};

// ---- Report --------------------------------------------------------------

struct RunOptions {
  uint64_t seed = 1;
  bool trace = false;
  // Where a traced run writes its spans and the Chrome trace ("" = nowhere).
  std::string trace_dir;
  // Set-up takes milliseconds, too little for one sample to be steady, so
  // a process builds its workload several times: every build
  // appends its set-up time to `setup_times`, and a `setup_only` build stops
  // there instead of running.
  std::vector<double>* setup_times = nullptr;
  bool setup_only = false;
};

struct DriveResult {
  uint64_t events = 0;
  double setup_s = 0.0;   // Fastest set-up of the process's builds.
  double wall_s = 0.0;    // The simulation itself.
  // Mean time of the reference chunks run during an untraced simulation
  // (see reference.h); 0 in traced runs.
  double reference_s = 0.0;
  bool runaway = false;   // Virtual time passed the guard with work left.
};

struct Phase {
  std::string name;
  uint64_t offered = 0, succeeded = 0, failed = 0;
};

struct Report {
  // A workload constructs its Report first, so set-up (building the fleet
  // and the inputs, and scheduling the arrivals) is timed from here.
  int64_t start_ns = WallNs();
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  EndToEnd e2e;
  DriveResult drive;
  double window_s = 0.0;
  double guard_s = 0.0;
  double peak_rss_mb = 0.0;
  uint64_t output_mismatches = 0;
  uint64_t replay_mismatches = 0;
  uint64_t divergences = 0;        // recovery.divergences (also a layer metric)
  std::vector<Phase> phases;
  std::vector<std::string> errors;  // Non-empty => the run is not correct.
  // Per-layer metrics by name; the names and units are listed once, in
  // harness.cc, and a name missing here prints as 0.
  std::map<std::string, double> layers;
  std::map<std::string, double> notes;   // Printed, not gated.
};

// Records this build's set-up time, then — unless `options.setup_only` —
// runs until the event queue drains or virtual time passes the report's
// guard, filling `report.drive`. Traced runs step event by event and record
// one span per step. Untraced runs interleave reference chunks with the
// simulation — one before it, one every few ms of it, one after it — and
// leave their time out of `wall_s`. Returns false for a set-up-only build.
bool Drive(Report& report, Simulator& sim, const Fleet& fleet,
           const RunOptions& options);

// Fills the per-layer metrics every workload shares: wall-clock spans from
// the probe (traced runs), scheduler/device/runtime/KVFS counters summed
// over every server incarnation in `fleet`, and — when `cluster` is set —
// the recovery, store, net and ctrl counters. Layers a workload does not
// run stay 0.
void AddLayerMetrics(Report& report, const Fleet& fleet,
                     const SymphonyCluster* cluster,
                     const std::vector<Request>& requests);

// Writes a traced run's spans (TSV) and the serving stack's own virtual-time
// Chrome trace into `dir` (no-op when `dir` is empty).
void WriteTraces(const std::string& dir, const Report& report,
                 const TraceRecorder& trace);

// Applies the checks every workload shares, records peak RSS, prints the
// report as one JSON line, and returns the process exit code.
int Finish(Report& report, const std::vector<Request>& requests);

// Uniform word token from a hash (never a special or byte token).
TokenId WordToken(uint64_t hash, uint32_t vocab_size);

}  // namespace perfbench
}  // namespace symphony

#endif  // PERFBENCH_SRC_HARNESS_H_
