#include "perfbench/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "perfbench/src/reference.h"
#include "src/common/hash.h"
#include "src/common/rng.h"

namespace symphony {
namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

constexpr uint32_t kNoStep = UINT32_MAX;

// Every per-layer metric, in print order, with its unit and whether it is a
// wall-clock measurement (which varies run to run; the rest repeat exactly
// for a seed). This table is the only list: the RESULT line carries every
// entry (0 where the workload does not run the layer), and run.py reports
// what it receives.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool wall;
};
const LayerMetric kLayerMetrics[] = {
    {"sim.events", "count", false},
    {"sim.events_per_wall_s", "1/s", true},
    {"sim.step_wall_us_p99", "us", true},
    {"sched.batch_step_wall_us_total", "us", true},
    {"sched.batch_step_wall_us_p99", "us", true},
    {"sched.submit_wall_us_total", "us", true},
    {"sched.queue_depth_p99", "count", false},
    {"sched.queue_wait_p50_ms", "ms", false},
    {"sched.queue_wait_p99_ms", "ms", false},
    {"sched.batches", "count", false},
    {"sched.batch_size_mean", "count", false},
    {"sched.memory_requeues", "count", false},
    {"sched.prefix_reuse_tokens", "tok", false},
    {"gpu.busy_pct", "%", false},
    {"gpu.transfer_ms", "ms", false},
    {"gpu.new_tokens", "tok", false},
    {"runtime.context_switches", "count", false},
    {"runtime.preds_submitted", "count", false},
    {"runtime.lip_step_wall_us_total", "us", true},
    {"kvfs.call_wall_us_total", "us", true},
    {"kvfs.forks", "count", false},
    {"kvfs.offloaded_pages", "count", false},
    {"kvfs.restored_pages", "count", false},
    {"kvfs.evicted_files", "count", false},
    {"kvfs.cache_hit_pct", "%", false},
    {"serve.launch_wall_us_p99", "us", true},
    {"serve.snapshot_wall_us_p99", "us", true},
    {"serve.affinity_hit_pct", "%", false},
    {"tools.calls", "count", false},
    {"tools.retries", "count", false},
    {"tools.wait_p99_ms", "ms", false},
    {"tools.handler_wall_us_total", "us", true},
    {"recovery.failovers", "count", false},
    {"recovery.lips_replayed", "count", false},
    {"recovery.tokens_recomputed", "tok", false},
    {"recovery.tokens_imported", "tok", false},
    {"recovery.divergences", "count", false},
    {"recovery.stall_p99_ms", "ms", false},
    {"store.checkpoints", "count", false},
    {"store.ship_bytes", "B", false},
    {"store.delta_ships", "count", false},
    {"store.published_bytes", "B", false},
    {"net.transfers", "count", false},
    {"net.payload_bytes", "B", false},
    {"net.queue_delay_ms", "ms", false},
    {"net.ipc_cross_bytes", "B", false},
    {"ctrl.heartbeats_sent", "count", false},
    {"ctrl.detect_ms", "ms", false},
    {"ctrl.false_suspicions", "count", false},
    {"ctrl.readmissions", "count", false},
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

void PrintNumber(double value) {
  if (std::isfinite(value)) {
    std::printf("%.17g", value);
  } else {
    std::printf("null");
  }
}

void PrintMap(const char* key, const std::map<std::string, double>& values) {
  std::printf(",\"%s\":{", key);
  bool first = true;
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\":", first ? "" : ",", name.c_str());
    PrintNumber(value);
    first = false;
  }
  std::printf("}");
}

// {"name": [value, "unit", wall], ...} for every entry of kLayerMetrics.
void PrintLayers(const std::map<std::string, double>& values) {
  std::printf(",\"layers\":{");
  bool first = true;
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = values.find(m.name);
    std::printf("%s\"%s\":[", first ? "" : ",", m.name);
    PrintNumber(it == values.end() ? 0.0 : it->second);
    std::printf(",\"%s\",%s]", m.unit, m.wall ? "true" : "false");
    first = false;
  }
  std::printf("}");
}

}  // namespace

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

// ---- Requests -------------------------------------------------------------

void Stream::Record(size_t index, TokenId token, SimTime at,
                    bool after_wait_gap) {
  if (index >= times.size()) {
    tokens.resize(index + 1, -1);
    times.resize(index + 1, -1);
    after_wait.resize(index + 1, 0);
  }
  if (times[index] >= 0) {
    if (tokens[index] != token) {
      ++replay_mismatches;
    }
    return;
  }
  tokens[index] = token;
  times[index] = at;
  after_wait[index] = after_wait_gap ? 1 : 0;
}

size_t Stream::generated() const {
  return static_cast<size_t>(
      std::count_if(times.begin(), times.end(), [](SimTime t) { return t >= 0; }));
}

bool Request::Succeeded() const {
  if (shed || exit < 0) {
    return false;
  }
  return std::all_of(streams.begin(), streams.end(),
                     [](const Stream& s) { return s.finished; });
}

void Request::NoteExit(size_t stream, SimTime at) {
  streams[stream].exited = true;
  if (std::all_of(streams.begin(), streams.end(),
                  [](const Stream& s) { return s.exited; })) {
    exit = at;
  }
}

std::vector<SimTime> PoissonArrivals(uint64_t seed, double rate_per_s,
                                     double window_s) {
  Rng rng(seed);
  std::vector<SimTime> due(static_cast<size_t>(std::llround(rate_per_s * window_s)));
  for (SimTime& t : due) {
    t = DurationFromSeconds(rng.NextDouble() * window_s);
  }
  std::sort(due.begin(), due.end());
  return due;
}

// ---- End-to-end metrics -----------------------------------------------------

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

EndToEnd Summarize(const std::vector<Request>& requests, const Limits& limits,
                   SimDuration window) {
  EndToEnd e;
  e.offered = requests.size();
  std::vector<double> ttft, itl, e2e;
  for (const Request& r : requests) {
    if (r.launched >= 0) {
      e.lateness_max_ms = std::max(e.lateness_max_ms, ToMillis(r.launched - r.due));
    }
    for (const Stream& s : r.streams) {
      e.generated_tokens += s.generated();
    }
    if (!r.Finished()) {
      ++e.unfinished;
      continue;
    }
    if (!r.Succeeded()) {
      ++e.failed;
      continue;
    }
    ++e.completed;
    e.makespan = std::max(e.makespan, r.exit);
    double first_ms = ToMillis(r.streams[0].times[0] - r.due);
    ttft.push_back(first_ms);
    e2e.push_back(ToMillis(r.exit - r.due));
    double gap_sum = 0.0;
    size_t gaps = 0;
    for (const Stream& s : r.streams) {
      for (size_t i = 1; i < s.times.size(); ++i) {
        if (s.after_wait[i] != 0) {
          continue;
        }
        double gap = ToMillis(s.times[i] - s.times[i - 1]);
        itl.push_back(gap);
        gap_sum += gap;
        ++gaps;
      }
    }
    double mean_itl = gaps == 0 ? 0.0 : gap_sum / static_cast<double>(gaps);
    if (first_ms <= limits.ttft_ms && mean_itl <= limits.mean_itl_ms) {
      ++e.good;
    }
  }
  e.ttft_n = ttft.size();
  e.itl_n = itl.size();
  e.e2e_n = e2e.size();
  e.ttft_p50_ms = Percentile(ttft, 0.50);
  e.ttft_p99_ms = Percentile(ttft, 0.99);
  e.itl_p50_ms = Percentile(itl, 0.50);
  e.itl_p99_ms = Percentile(itl, 0.99);
  e.e2e_p99_ms = Percentile(e2e, 0.99);
  e.goodput_rps = static_cast<double>(e.good) / ToSeconds(window);
  if (e.makespan > 0) {
    e.output_tok_s = static_cast<double>(e.generated_tokens) / ToSeconds(e.makespan);
  }
  if (e.offered > 0) {
    e.fail_pct = 100.0 * static_cast<double>(e.failed + e.unfinished) /
                 static_cast<double>(e.offered);
  }
  return e;
}

// ---- Output check -----------------------------------------------------------

uint64_t CheckOutputs(const Model& model, const std::vector<Request>& requests,
                      const ScriptFn& script) {
  uint64_t mismatches = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (!r.Succeeded()) {
      continue;
    }
    for (size_t s = 0; s < r.streams.size(); ++s) {
      const Stream& stream = r.streams[s];
      HiddenState state = model.InitialState();
      int32_t position = 0;
      size_t g = 0;
      bool ok = true;
      for (const Piece& piece : script(i, s)) {
        for (TokenId t : piece.input) {
          state = model.Advance(state, t, position++);
        }
        for (uint32_t k = 0; k < piece.generate && ok; ++k) {
          TokenId want = model.Predict(state).Argmax();
          ok = g < stream.tokens.size() && stream.tokens[g] == want;
          state = model.Advance(state, want, position++);
          ++g;
        }
      }
      if (!ok || g != stream.tokens.size()) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

ValueTask<Status> RunPieces(LipContext& ctx, KvHandle kv,
                            std::vector<Piece> pieces, Cursor* cursor,
                            bool after_wait) {
  for (Piece& piece : pieces) {
    std::vector<TokenId> feed;
    feed.reserve(piece.input.size() + 1);
    if (cursor->pending >= 0) {
      feed.push_back(cursor->pending);
      cursor->pending = -1;
    }
    feed.insert(feed.end(), piece.input.begin(), piece.input.end());
    StatusOr<std::vector<Distribution>> prefill = co_await ctx.pred(kv, std::move(feed));
    NoteResume(cursor->request);
    if (!prefill.ok()) {
      co_return prefill.status();
    }
    TokenId next = prefill->back().Argmax();
    for (uint32_t k = 0; k < piece.generate; ++k) {
      cursor->stream->Record(cursor->next_index++, next, ctx.now(),
                             after_wait && k == 0);
      if (k + 1 == piece.generate) {
        cursor->pending = next;
        break;
      }
      StatusOr<std::vector<Distribution>> step = co_await ctx.pred1(kv, next);
      NoteResume(cursor->request);
      if (!step.ok()) {
        co_return step.status();
      }
      next = step->back().Argmax();
    }
    after_wait = false;
  }
  co_return Status::Ok();
}

// ---- Probe ------------------------------------------------------------------

Probe& probe() {
  static Probe instance;
  return instance;
}

void NoteResume(size_t request) {
  Probe& p = probe();
  if (p.enabled()) {
    p.Mark(kLipResumed);
    p.set_request(static_cast<uint32_t>(request + 1));
  }
}

void Probe::BeginStep() {
  step_ = static_cast<uint32_t>(spans_.size());
  spans_.emplace_back();
  step_flags_ = 0;
  request_ = 0;
  step_start_ = WallNs();
}

void Probe::EndStep(int64_t end_ns, uint8_t extra_flags) {
  Span& span = spans_[step_];
  span.start_ns = step_start_;
  span.dur_ns = end_ns - step_start_;
  span.parent = step_;
  span.request = request_;
  span.layer = Layer::kStep;
  span.flags = static_cast<uint8_t>(step_flags_ | extra_flags);
  step_ = kNoStep;
}

void Probe::CancelStep() {
  spans_.pop_back();
  step_ = kNoStep;
}

void Probe::AddChild(Layer layer, int64_t start_ns, int64_t end_ns) {
  Span span;
  span.start_ns = start_ns;
  span.dur_ns = end_ns - start_ns;
  span.parent = step_;
  span.request = request_;
  span.layer = layer;
  spans_.push_back(span);
}

Status Probe::WriteTsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return UnavailableError("cannot write " + path);
  }
  static const char* const kNames[] = {"step", "kvfs", "submit",
                                       "launch", "snapshot", "tool"};
  std::fprintf(file, "start_ns\tdur_ns\tlayer\tparent\trequest\tflags\n");
  for (const Span& s : spans_) {
    std::fprintf(file, "%" PRId64 "\t%" PRId64 "\t%s\t%u\t%u\t%u\n", s.start_ns,
                 s.dur_ns, kNames[static_cast<int>(s.layer)], s.parent,
                 s.request, static_cast<unsigned>(s.flags));
  }
  return std::fclose(file) == 0 ? Status::Ok() : UnavailableError("write failed");
}

// ---- Fleet ------------------------------------------------------------------

class Fleet::ProbedPredService : public PredService {
 public:
  explicit ProbedPredService(InferenceScheduler* scheduler)
      : scheduler_(scheduler) {}

  void Submit(PredRequest request) override {
    probe().SampleQueueDepth(scheduler_->queue_depth());
    request.complete = [inner = std::move(request.complete)](PredResult result) {
      probe().Mark(kBatchComplete);
      inner(std::move(result));
    };
    Timed(Layer::kSubmit, [&] { scheduler_->Submit(std::move(request)); });
  }

  void CancelLip(LipId lip) override { scheduler_->CancelLip(lip); }

 private:
  InferenceScheduler* scheduler_;
};

Fleet::Fleet() = default;
Fleet::~Fleet() = default;

void Fleet::Add(SymphonyServer& server, size_t slot) {
  servers_.push_back(&server);
  slots_ = std::max(slots_, slot + 1);
  if (probe().enabled()) {
    services_.push_back(std::make_unique<ProbedPredService>(&server.scheduler()));
    server.runtime().set_pred_service(services_.back().get());
  }
}

uint64_t Fleet::DeviceBatches() const {
  uint64_t batches = 0;
  for (SymphonyServer* server : servers_) {
    batches += server->device().stats().batches;
  }
  return batches;
}

// ---- Driving ----------------------------------------------------------------

namespace {

// Untraced runs look at the clock every kStepsPerCheck events and run a
// reference chunk after every kSliceNs of simulation.
constexpr int kStepsPerCheck = 64;
constexpr int64_t kSliceNs = 20'000'000;

}  // namespace

bool Drive(Report& report, Simulator& sim, const Fleet& fleet,
           const RunOptions& options) {
  int64_t start = WallNs();
  options.setup_times->push_back(static_cast<double>(start - report.start_ns) / 1e9);
  if (options.setup_only) {
    return false;
  }
  DriveResult& result = report.drive;
  result.setup_s = *std::min_element(options.setup_times->begin(),
                                     options.setup_times->end());
  SimTime guard = DurationFromSeconds(report.guard_s);
  Probe& p = probe();
  int64_t reference_ns = 0;
  if (!p.enabled()) {
    int chunks = 0;
    auto run_chunk = [&] {
      int64_t chunk_start = WallNs();
      reference().RunChunk();
      int64_t chunk_end = WallNs();
      reference_ns += chunk_end - chunk_start;
      ++chunks;
      return chunk_end;
    };
    int64_t slice_start = run_chunk();
    bool live = true;
    while (live) {
      for (int i = 0; i < kStepsPerCheck; ++i) {
        if (!sim.Step()) {
          live = false;
          break;
        }
        ++result.events;
        // Anything still live past the guard is a runaway.
        if (sim.now() > guard) {
          result.runaway = true;
          live = false;
          break;
        }
      }
      if (live && WallNs() - slice_start >= kSliceNs) {
        slice_start = run_chunk();
      }
    }
    run_chunk();
    result.reference_s = static_cast<double>(reference_ns) / 1e9 / chunks;
  } else {
    uint64_t batches = fleet.DeviceBatches();
    while (true) {
      p.BeginStep();
      bool dispatched = sim.Step();
      int64_t end = WallNs();
      if (!dispatched) {
        p.CancelStep();
        break;
      }
      uint64_t now_batches = fleet.DeviceBatches();
      p.EndStep(end, now_batches != batches ? kBatchLaunch : 0);
      batches = now_batches;
      ++result.events;
      if (sim.now() > guard) {
        result.runaway = true;
        break;
      }
    }
  }
  result.wall_s = static_cast<double>(WallNs() - start - reference_ns) / 1e9;
  return true;
}

// ---- Per-layer metrics ------------------------------------------------------

namespace {

// What a step's time outside its benchmark LIP's own code, KVFS calls and
// tool handlers is spent on, by priority. A LIP's pred can launch a batch
// inside its Submit call, so in a step where a LIP resumed only the Submit
// calls are charged to the step's class; the rest is the LIP's (runtime)
// self time.
enum StepClass { kClassComplete, kClassLaunch, kClassSubmit, kClassArrival,
                 kClassOperator, kClassOther, kClassCount };
const char* const kClassNames[kClassCount] = {
    "batch_complete", "batch_launch", "lip_submit", "arrival", "operator", "other"};

StepClass Classify(uint8_t flags) {
  if (flags & kBatchComplete) return kClassComplete;
  if (flags & kBatchLaunch) return kClassLaunch;
  if (flags & kLipResumed) return kClassSubmit;
  if (flags & kArrival) return kClassArrival;
  if (flags & kOperator) return kClassOperator;
  return kClassOther;
}

void AddProbeMetrics(Report& report) {
  const std::vector<Span>& spans = probe().spans();
  // Per step: wall time of its Submit calls, and of its KVFS calls and tool
  // handlers.
  std::vector<int64_t> submit_in(spans.size(), 0), callees_in(spans.size(), 0);
  std::vector<double> steps, batch_steps, launches, snapshots;
  int64_t class_ns[kClassCount] = {};
  int64_t kvfs_ns = 0, submit_ns = 0, tool_ns = 0, steps_ns = 0, lip_self_ns = 0;
  for (const Span& s : spans) {
    switch (s.layer) {
      case Layer::kStep:
        continue;
      case Layer::kKvfs:
        kvfs_ns += s.dur_ns;
        break;
      case Layer::kSubmit:
        submit_ns += s.dur_ns;
        break;
      case Layer::kTool:
        tool_ns += s.dur_ns;
        break;
      case Layer::kLaunch:
        launches.push_back(Us(s.dur_ns));
        continue;
      case Layer::kSnapshot:
        snapshots.push_back(Us(s.dur_ns));
        continue;
    }
    if (s.parent != kNoStep) {
      (s.layer == Layer::kSubmit ? submit_in : callees_in)[s.parent] += s.dur_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.layer != Layer::kStep) {
      continue;
    }
    steps_ns += s.dur_ns;
    steps.push_back(Us(s.dur_ns));
    int64_t charged = s.dur_ns - callees_in[i];
    if (s.flags & kLipResumed) {
      lip_self_ns += charged - submit_in[i];
      charged = submit_in[i];
    }
    StepClass c = Classify(s.flags);
    class_ns[c] += charged;
    if (c == kClassComplete || c == kClassLaunch) {
      batch_steps.push_back(Us(charged));
    }
  }
  double traced_ns = report.drive.wall_s * 1e9;
  std::map<std::string, double>& layers = report.layers;
  layers["sim.events_per_wall_s"] =
      steps_ns > 0 ? static_cast<double>(report.drive.events) /
                         (static_cast<double>(steps_ns) / 1e9)
                   : 0.0;
  layers["sim.step_wall_us_p99"] = Percentile(steps, 0.99);
  layers["sched.batch_step_wall_us_total"] =
      Us(class_ns[kClassComplete] + class_ns[kClassLaunch]);
  layers["sched.batch_step_wall_us_p99"] = Percentile(batch_steps, 0.99);
  layers["sched.submit_wall_us_total"] = Us(submit_ns);
  std::vector<double> depths = probe().queue_depths();
  layers["sched.queue_depth_p99"] = Percentile(depths, 0.99);
  layers["runtime.lip_step_wall_us_total"] = Us(lip_self_ns);
  layers["kvfs.call_wall_us_total"] = Us(kvfs_ns);
  layers["serve.launch_wall_us_p99"] = Percentile(launches, 0.99);
  layers["serve.snapshot_wall_us_p99"] = Percentile(snapshots, 0.99);
  layers["tools.handler_wall_us_total"] = Us(tool_ns);
  auto share = [traced_ns](double ns) {
    return traced_ns > 0 ? 100.0 * ns / traced_ns : 0.0;
  };
  for (int c = 0; c < kClassCount; ++c) {
    report.notes[std::string("wall_share.") + kClassNames[c] + "_pct"] =
        share(static_cast<double>(class_ns[c]));
  }
  report.notes["wall_share.lip_self_pct"] = share(static_cast<double>(lip_self_ns));
  report.notes["wall_share.kvfs_tool_pct"] =
      share(static_cast<double>(kvfs_ns + tool_ns));
  report.notes["wall_share.between_steps_pct"] =
      share(traced_ns - static_cast<double>(steps_ns));
}

}  // namespace

void AddLayerMetrics(Report& report, const Fleet& fleet,
                     const SymphonyCluster* cluster,
                     const std::vector<Request>& requests) {
  std::map<std::string, double>& layers = report.layers;
  layers["sim.events"] = static_cast<double>(report.drive.events);
  if (probe().enabled()) {
    AddProbeMetrics(report);
  }
  std::vector<double> waits;
  uint64_t sched_batches = 0, requeues = 0, reuse = 0;
  uint64_t device_batches = 0, items = 0, new_tokens = 0;
  SimDuration busy = 0, transfer = 0;
  uint64_t switches = 0, preds = 0, replayed = 0, recomputed = 0, imported = 0,
           divergences = 0;
  uint64_t forks = 0, offloaded = 0, restored = 0, evicted = 0;
  uint64_t tool_attempts = 0, tool_retries = 0;
  for (SymphonyServer* server : fleet.servers()) {
    const std::vector<double>& w = server->scheduler().queue_waits_ms().samples();
    waits.insert(waits.end(), w.begin(), w.end());
    const InferenceSchedulerStats& ss = server->scheduler().stats();
    sched_batches += ss.batches;
    requeues += ss.memory_requeues;
    reuse += ss.prefix_reuse_tokens;
    const DeviceStats& ds = server->device().stats();
    device_batches += ds.batches;
    items += ds.items;
    new_tokens += ds.new_tokens;
    busy += ds.busy_time;
    transfer += ds.transfer_time;
    const RuntimeStats& rs = server->runtime().stats();
    switches += rs.context_switches;
    preds += rs.preds_submitted;
    replayed += rs.lips_replayed;
    recomputed += rs.replay_tokens_recomputed;
    imported += rs.replay_tokens_imported;
    divergences += rs.replay_divergences;
    const KvfsStats& ks = server->kvfs().stats();
    forks += ks.forks;
    offloaded += ks.offloaded_pages;
    restored += ks.restored_pages;
    evicted += ks.evicted_files;
    tool_attempts += server->tool_stats().attempts;
    tool_retries += server->tool_stats().retries;
  }
  layers["sched.queue_wait_p50_ms"] = Percentile(waits, 0.50);
  layers["sched.queue_wait_p99_ms"] = Percentile(waits, 0.99);
  layers["sched.batches"] = static_cast<double>(sched_batches);
  layers["sched.batch_size_mean"] =
      device_batches > 0
          ? static_cast<double>(items) / static_cast<double>(device_batches)
          : 0.0;
  layers["sched.memory_requeues"] = static_cast<double>(requeues);
  layers["sched.prefix_reuse_tokens"] = static_cast<double>(reuse);
  double capacity_ns = static_cast<double>(report.e2e.makespan) *
                       static_cast<double>(std::max<size_t>(fleet.slots(), 1));
  layers["gpu.busy_pct"] =
      capacity_ns > 0 ? 100.0 * static_cast<double>(busy) / capacity_ns : 0.0;
  layers["gpu.transfer_ms"] = ToMillis(transfer);
  layers["gpu.new_tokens"] = static_cast<double>(new_tokens);
  layers["runtime.context_switches"] = static_cast<double>(switches);
  layers["runtime.preds_submitted"] = static_cast<double>(preds);
  layers["kvfs.forks"] = static_cast<double>(forks);
  layers["kvfs.offloaded_pages"] = static_cast<double>(offloaded);
  layers["kvfs.restored_pages"] = static_cast<double>(restored);
  layers["kvfs.evicted_files"] = static_cast<double>(evicted);
  layers["tools.calls"] = static_cast<double>(tool_attempts);
  layers["tools.retries"] = static_cast<double>(tool_retries);
  layers["recovery.lips_replayed"] = static_cast<double>(replayed);
  layers["recovery.tokens_recomputed"] = static_cast<double>(recomputed);
  layers["recovery.tokens_imported"] = static_cast<double>(imported);
  layers["recovery.divergences"] = static_cast<double>(divergences);
  report.divergences = divergences;

  // The stall of a failed-over request: its largest gap between tokens.
  std::vector<double> stalls;
  for (const Request& r : requests) {
    bool replayed_request = false;
    double worst = 0.0;
    for (const Stream& s : r.streams) {
      replayed_request = replayed_request || s.incarnations > 1;
      for (size_t i = 1; i < s.times.size(); ++i) {
        if (s.times[i] >= 0 && s.times[i - 1] >= 0 && s.after_wait[i] == 0) {
          worst = std::max(worst, ToMillis(s.times[i] - s.times[i - 1]));
        }
      }
    }
    if (replayed_request) {
      stalls.push_back(worst);
    }
  }
  report.notes["recovery.failed_over_requests"] = static_cast<double>(stalls.size());
  layers["recovery.stall_p99_ms"] = Percentile(stalls, 0.99);

  if (cluster == nullptr) {
    return;
  }
  SymphonyCluster::ClusterSnapshot snap = cluster->Snapshot();
  layers["recovery.failovers"] = static_cast<double>(snap.failovers);
  layers["store.checkpoints"] = static_cast<double>(snap.checkpoints);
  layers["store.ship_bytes"] = static_cast<double>(snap.ship_bytes);
  layers["store.delta_ships"] = static_cast<double>(snap.delta_ships);
  layers["store.published_bytes"] = static_cast<double>(snap.store.published_bytes);
  layers["net.transfers"] = static_cast<double>(snap.net_transfers);
  layers["net.payload_bytes"] = static_cast<double>(snap.net_payload_bytes);
  SimDuration queue_delay = 0;
  for (const TopoLinkReport& link : snap.net_links) {
    queue_delay += link.stats.queue_delay;
  }
  layers["net.queue_delay_ms"] = ToMillis(queue_delay);
  layers["net.ipc_cross_bytes"] = static_cast<double>(snap.ipc_cross_bytes);
  layers["ctrl.heartbeats_sent"] = static_cast<double>(snap.ctrl.heartbeats_sent);
  layers["ctrl.detect_ms"] =
      snap.ctrl.dead_declared > 0
          ? ToMillis(snap.ctrl.detection_age_total) /
                static_cast<double>(snap.ctrl.dead_declared)
          : 0.0;
  layers["ctrl.false_suspicions"] = static_cast<double>(snap.ctrl.false_suspicions);
  layers["ctrl.readmissions"] = static_cast<double>(snap.ctrl.readmissions);
}

// ---- Finish -----------------------------------------------------------------

TokenId WordToken(uint64_t hash, uint32_t vocab_size) {
  uint32_t words = vocab_size - static_cast<uint32_t>(kFirstWordToken);
  return kFirstWordToken + static_cast<TokenId>(Mix64(hash) % words);
}

void WriteTraces(const std::string& dir, const Report& report,
                 const TraceRecorder& trace) {
  if (dir.empty() || !report.traced) {
    return;
  }
  std::string stem = dir + "/" + report.workload + "-" + std::to_string(report.seed);
  Status spans = probe().WriteTsv(stem + ".spans.tsv");
  Status chrome = trace.WriteChromeJson(stem + ".chrome.json");
  if (!spans.ok() || !chrome.ok()) {
    std::fprintf(stderr, "trace output: %s / %s\n", spans.ToString().c_str(),
                 chrome.ToString().c_str());
  }
}

int Finish(Report& report, const std::vector<Request>& requests) {
  const EndToEnd& e = report.e2e;
  if (report.drive.runaway) {
    report.errors.push_back("runaway: virtual time passed " +
                            std::to_string(report.guard_s) + " s with work left");
  }
  if (e.unfinished > 0 || e.completed + e.failed != e.offered) {
    report.errors.push_back("completed + failed != offered");
  }
  if (report.output_mismatches > 0) {
    report.errors.push_back(std::to_string(report.output_mismatches) +
                            " streams differ from the model's greedy output");
  }
  if (report.divergences > 0) {
    report.errors.push_back("recovery.divergences > 0");
  }
  for (const Request& r : requests) {
    for (const Stream& s : r.streams) {
      report.replay_mismatches += s.replay_mismatches;
    }
  }
  if (report.replay_mismatches > 0) {
    report.errors.push_back("a replay re-delivered a different token");
  }
  if (e.lateness_max_ms != 0.0) {
    report.errors.push_back("generator ran late");
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::printf("RESULT {\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"traced\":%s",
              report.workload.c_str(), report.seed,
              report.traced ? "true" : "false");
  std::printf(",\"correct\":%s,\"errors\":[", report.errors.empty() ? "true" : "false");
  for (size_t i = 0; i < report.errors.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",", report.errors[i].c_str());
  }
  std::printf("],\"offered\":%" PRIu64 ",\"completed\":%" PRIu64
              ",\"failed\":%" PRIu64 ",\"unfinished\":%" PRIu64,
              e.offered, e.completed, e.failed, e.unfinished);
  std::printf(",\"samples\":{\"ttft\":%" PRIu64 ",\"itl\":%" PRIu64
              ",\"e2e\":%" PRIu64 ",\"good\":%" PRIu64 "}",
              e.ttft_n, e.itl_n, e.e2e_n, e.good);
  std::printf(",\"phases\":[");
  for (size_t i = 0; i < report.phases.size(); ++i) {
    const Phase& ph = report.phases[i];
    std::printf("%s{\"name\":\"%s\",\"offered\":%" PRIu64 ",\"succeeded\":%" PRIu64
                ",\"failed\":%" PRIu64 "}",
                i == 0 ? "" : ",", ph.name.c_str(), ph.offered, ph.succeeded,
                ph.failed);
  }
  std::printf("]");
  PrintMap("virtual", {{"ttft_p50_ms", e.ttft_p50_ms},
                       {"ttft_p99_ms", e.ttft_p99_ms},
                       {"itl_p50_ms", e.itl_p50_ms},
                       {"itl_p99_ms", e.itl_p99_ms},
                       {"e2e_p99_ms", e.e2e_p99_ms},
                       {"goodput_rps", e.goodput_rps},
                       {"output_tok_s", e.output_tok_s},
                       {"fail_pct", e.fail_pct},
                       {"lateness_max_ms", e.lateness_max_ms},
                       {"makespan_s", ToSeconds(e.makespan)},
                       {"generated_tokens", static_cast<double>(e.generated_tokens)}});
  std::printf(",\"wall_s\":");
  PrintNumber(report.drive.wall_s);
  std::printf(",\"reference_s\":");
  PrintNumber(report.drive.reference_s);
  std::printf(",\"setup_s\":");
  PrintNumber(report.drive.setup_s);
  std::printf(",\"peak_rss_mb\":");
  PrintNumber(report.peak_rss_mb);
  std::printf(",\"window_s\":");
  PrintNumber(report.window_s);
  if (report.traced) {
    PrintLayers(report.layers);
  }
  PrintMap("notes", report.notes);
  std::printf("}\n");
  std::fflush(stdout);
  return report.errors.empty() ? 0 : 1;
}

}  // namespace perfbench
}  // namespace symphony
