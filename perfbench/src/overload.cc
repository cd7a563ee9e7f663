// `overload`: one Tiny-model replica offered Poisson arrivals at about 1.5x
// its saturation rate, every arrival launched with no admission control, so
// the inference scheduler's queue holds thousands of preds. It is the only
// workload where batch planning over a deep queue dominates wall time; the
// fast model keeps batches short, so many batches run per wall second.
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/common/hash.h"

namespace symphony {
namespace perfbench {
namespace {

constexpr double kRatePerS = 15000.0;  // ~1.5x measured saturation.
constexpr double kWindowS = 0.8;
constexpr double kGuardWindows = 6.0;
constexpr int kPromptTokens = 24;
constexpr uint32_t kGeneratedTokens = 13;  // The prefill's token + 12 decodes.
constexpr Limits kLimits{/*ttft_ms=*/100.0, /*mean_itl_ms=*/40.0};

std::vector<Piece> MakeScript(uint64_t seed, size_t job, uint32_t vocab) {
  Piece prompt;
  uint64_t h = Mix64(seed ^ (0x0f1e2d3cULL + job));
  for (int i = 0; i < kPromptTokens; ++i) {
    h = Mix64(h + static_cast<uint64_t>(i) + 1);
    prompt.input.push_back(WordToken(h, vocab));
  }
  prompt.generate = kGeneratedTokens;
  return {prompt};
}

LipProgram MakeJob(std::vector<Request>* requests,
                   const std::vector<std::vector<Piece>>* scripts, size_t id) {
  return [requests, scripts, id](LipContext& ctx) -> Task {
    Stream& stream = (*requests)[id].streams[0];
    ++stream.incarnations;
    NoteResume(id);
    StatusOr<KvHandle> kv = Timed(Layer::kKvfs, [&] { return ctx.kv_tmp(); });
    if (!kv.ok()) {
      co_return;
    }
    Cursor cursor{id, &stream};
    std::vector<Piece> script = (*scripts)[id];
    Status status = co_await RunPieces(ctx, *kv, std::move(script), &cursor, false);
    (void)Timed(Layer::kKvfs, [&] { return ctx.kv_close(*kv); });
    stream.finished = status.ok();
  };
}

}  // namespace

int RunOverload(const RunOptions& options) {
  Report report;
  report.workload = "overload";
  report.seed = options.seed;
  report.traced = options.trace;
  report.window_s = kWindowS;
  report.guard_s = kWindowS * kGuardWindows;

  // Declared before the server, which runs LIPs that point into them.
  Simulator sim;
  TraceRecorder trace;
  std::vector<Request> requests;
  std::vector<std::vector<Piece>> scripts;
  Fleet fleet;
  ServerOptions server_options;
  server_options.model = ModelConfig::Tiny();
  if (options.trace) {
    server_options.trace = &trace;
  }
  SymphonyServer server(&sim, server_options);
  fleet.Add(server, 0);
  uint32_t vocab = server_options.model.vocab_size;

  std::vector<SimTime> due =
      PoissonArrivals(Mix64(options.seed ^ 0x0e710adULL), kRatePerS, kWindowS);
  requests.resize(due.size());
  scripts.resize(due.size());
  for (size_t i = 0; i < due.size(); ++i) {
    requests[i].due = due[i];
    requests[i].streams.resize(1);
    scripts[i] = MakeScript(options.seed, i, vocab);
    sim.ScheduleAt(due[i], [&, i] {
      probe().Mark(kArrival);
      requests[i].launched = sim.now();
      Timed(Layer::kLaunch, [&] {
        server.Launch("job" + std::to_string(i), MakeJob(&requests, &scripts, i),
                      [&requests, &sim, i](LipId) {
                        requests[i].NoteExit(0, sim.now());
                      });
      });
    });
  }

  if (!Drive(report, sim, fleet, options)) {
    return 0;
  }
  report.e2e = Summarize(requests, kLimits, DurationFromSeconds(kWindowS));
  report.output_mismatches = CheckOutputs(
      server.model(), requests,
      [&](size_t i, size_t) { return scripts[i]; });
  AddLayerMetrics(report, fleet, nullptr, requests);
  WriteTraces(options.trace_dir, report, trace);
  return Finish(report, requests);
}

}  // namespace perfbench
}  // namespace symphony
