// Batch-planning microbenchmarks (google-benchmark, host CPU time).
//
// Measures what InferenceScheduler costs per batch at a given queue depth:
// one launch-and-complete cycle. The formation-window recheck fires, the
// scheduler profiles the prospective batch for its policy, picks and launches
// the batch, and the device completes it. Every completed pred resubmits at
// the back, so the depth holds across iterations. Modes:
//   * fifo      — the default discipline, 1-token decodes;
//   * fair      — fair share over 8 LIPs, 1-token decodes;
//   * decode_p  — decode priority with 512-token chunks: 1-token decodes plus
//                 one client that prefills 2048 tokens over and over. Once
//                 the decodes alone fill a batch (depth past 32), the
//                 prefill waits at the front of the queue and every batch is
//                 decodes; at depth 10 each batch carries one chunk;
//   * prefill   — one client on a Llama-13B model that prefills a 3,000-token
//                 document over and over: rag's document prefill, where
//                 completing the batch (one distribution per token) is the
//                 cost. Run at depth 1.
// Virtual time plays no part in the numbers; this is the simulator's own
// cost. Arg: queue depth.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/gpu/device.h"
#include "src/kvfs/kvfs.h"
#include "src/model/model.h"
#include "src/sched/batch_policy.h"
#include "src/sched/inference_scheduler.h"
#include "src/sim/event_queue.h"

namespace symphony {
namespace {

enum class Mode { kFifo, kFairShare, kDecodePriority, kPrefill };

constexpr LipId kFairShareLips = 8;
constexpr size_t kPrefillTokens = 2048;
constexpr size_t kDocumentTokens = 3000;

ModelConfig ModelFor(Mode mode) {
  return mode == Mode::kPrefill ? ModelConfig::Llama13B() : ModelConfig::Tiny();
}

size_t TokensFor(Mode mode, size_t client) {
  if (mode == Mode::kPrefill) {
    return kDocumentTokens;
  }
  return mode == Mode::kDecodePriority && client == 0 ? kPrefillTokens : 1;
}

KvfsOptions BigOptions() {
  KvfsOptions o;
  o.gpu_page_budget = 1 << 20;
  o.host_page_budget = 1 << 20;
  return o;
}

InferenceSchedulerOptions OptionsFor(Mode mode) {
  InferenceSchedulerOptions o;
  if (mode == Mode::kFairShare) {
    o.discipline = QueueDiscipline::kFairShare;
  }
  if (mode == Mode::kDecodePriority) {
    o.decode_priority = true;
    o.prefill_chunk_tokens = 512;
  }
  return o;
}

// A scheduler whose clients each keep one pred queued.
class Rig {
 public:
  Rig(Mode mode, size_t depth)
      : model_(ModelFor(mode)),
        kvfs_(BigOptions()),
        device_(&sim_, CostModel(ModelFor(mode))),
        scheduler_(&sim_, &kvfs_, &model_, &device_,
                   std::make_unique<EagerPolicy>(), OptionsFor(mode)) {
    for (size_t i = 0; i < depth; ++i) {
      LipId lip = mode == Mode::kFairShare ? 1 + i % kFairShareLips : 1;
      Submit(lip, *kvfs_.CreateAnonymous(lip), TokensFor(mode, i));
    }
  }

  // Runs until the next batch has launched: the last one completes, its
  // preds resubmit, and the formation-window recheck launches the next.
  // Returns the number of batches launched so far.
  uint64_t Cycle() {
    uint64_t launched = scheduler_.stats().batches;
    while (scheduler_.stats().batches == launched && sim_.Step()) {
    }
    return scheduler_.stats().batches;
  }

 private:
  // Queues `tokens` new tokens on the empty file `kv`; on completion the
  // file is emptied and the same pred goes to the back of the queue.
  void Submit(LipId lip, KvHandle kv, size_t tokens) {
    PredRequest request;
    request.lip = lip;
    request.kv = kv;
    request.tokens.assign(tokens, 260);
    request.submit_time = sim_.now();
    request.complete = [this, lip, kv, tokens](PredResult) {
      (void)kvfs_.Truncate(kv, 0);
      Submit(lip, kv, tokens);
    };
    scheduler_.Submit(std::move(request));
  }

  Simulator sim_;
  Model model_;
  Kvfs kvfs_;
  Device device_;
  InferenceScheduler scheduler_;
};

void BM_LaunchCycle(benchmark::State& state, Mode mode) {
  Rig rig(mode, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.Cycle());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_LaunchCycle, fifo, Mode::kFifo)
    ->Arg(10)->Arg(1000)->Arg(100000);
BENCHMARK_CAPTURE(BM_LaunchCycle, fair, Mode::kFairShare)
    ->Arg(10)->Arg(1000)->Arg(100000);
BENCHMARK_CAPTURE(BM_LaunchCycle, decode_p, Mode::kDecodePriority)
    ->Arg(10)->Arg(1000)->Arg(100000);
BENCHMARK_CAPTURE(BM_LaunchCycle, prefill, Mode::kPrefill)->Arg(1);

}  // namespace
}  // namespace symphony

BENCHMARK_MAIN();
