// Tests for the batch inference scheduler + simulated device, driven end to
// end through LIP programs: correctness of pred results (equivalence with
// direct model computation), position validation, batching behaviour, batch
// policies, and KV residency/transfer accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/gpu/device.h"
#include "src/kvfs/kvfs.h"
#include "src/model/model.h"
#include "src/runtime/lip_context.h"
#include "src/runtime/runtime.h"
#include "src/sched/batch_policy.h"
#include "src/sched/inference_scheduler.h"
#include "src/sim/event_queue.h"

namespace symphony {
namespace {

class SchedTest : public ::testing::Test {
 protected:
  SchedTest() : SchedTest(std::make_unique<EagerPolicy>()) {}

  explicit SchedTest(std::unique_ptr<BatchPolicy> policy)
      : model_(ModelConfig::Tiny()),
        kvfs_(MakeKvfsOptions()),
        device_(&sim_, CostModel(ModelConfig::Tiny())),
        scheduler_(&sim_, &kvfs_, &model_, &device_, std::move(policy)),
        runtime_(&sim_, &kvfs_) {
    runtime_.set_pred_service(&scheduler_);
  }

  static KvfsOptions MakeKvfsOptions() {
    KvfsOptions o;
    o.gpu_page_budget = 256;
    o.host_page_budget = 256;
    return o;
  }

  Model model_;
  Simulator sim_;
  Kvfs kvfs_;
  Device device_;
  InferenceScheduler scheduler_;
  LipRuntime runtime_;
};

TEST_F(SchedTest, PredReturnsOneDistPerToken) {
  size_t dist_count = 0;
  Status status;
  runtime_.Launch("basic", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> dists =
        co_await ctx.pred_tokens(kv, 260, 261, 262);
    status = dists.status();
    if (dists.ok()) {
      dist_count = dists->size();
    }
    co_return;
  });
  sim_.Run();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(dist_count, 3u);
}

TEST_F(SchedTest, PredMatchesDirectModelComputation) {
  // Greedy decoding through the full serving stack must equal greedy
  // decoding straight on the Model.
  std::vector<TokenId> prompt = {260, 265, 270};
  constexpr int kSteps = 12;

  // Direct computation.
  std::vector<TokenId> expected;
  {
    HiddenState s = model_.InitialState();
    int32_t pos = 0;
    for (TokenId t : prompt) {
      s = model_.Advance(s, t, pos++);
    }
    TokenId next = model_.Predict(s).Argmax();
    for (int i = 0; i < kSteps; ++i) {
      expected.push_back(next);
      s = model_.Advance(s, next, pos++);
      next = model_.Predict(s).Argmax();
    }
  }

  std::vector<TokenId> got;
  runtime_.Launch("greedy", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> dists = co_await ctx.pred(kv, prompt);
    if (!dists.ok()) {
      co_return;
    }
    TokenId next = dists->back().Argmax();
    for (int i = 0; i < kSteps; ++i) {
      got.push_back(next);
      StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, next);
      if (!d.ok()) {
        co_return;
      }
      next = d->back().Argmax();
    }
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(got, expected);
}

TEST_F(SchedTest, PredAppendsRecordsToFile) {
  uint64_t final_len = 0;
  HiddenState tail = 0;
  runtime_.Launch("append", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    (void)co_await ctx.pred_tokens(kv, 260, 261);
    (void)co_await ctx.pred1(kv, 262);
    final_len = *ctx.kv_len(kv);
    tail = *runtime_.kvfs()->TailState(kv);
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(final_len, 3u);
  std::vector<HiddenState> states =
      model_.AdvanceSeq(model_.InitialState(), {260, 261, 262}, 0);
  EXPECT_EQ(tail, states.back());
}

TEST_F(SchedTest, NonContinuationPositionsRejected) {
  Status status;
  runtime_.Launch("badpos", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    // File is empty, so position must be 0; 5 must be rejected.
    std::vector<TokenId> toks = {260};
    std::vector<int32_t> bad_positions = {5};
    StatusOr<std::vector<Distribution>> dists =
        co_await ctx.pred_at(kv, std::move(toks), std::move(bad_positions));
    status = dists.status();
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // A rejected request still waited in the queue; the sample must not be
  // silently dropped from the latency series.
  EXPECT_EQ(scheduler_.queue_waits_ms().count(), 1u);
}

TEST_F(SchedTest, SpeculativeRollbackViaTruncate) {
  // Draft-then-verify: append 4 draft tokens in one pred, "reject" the last
  // two, truncate, and continue — state must match the accepted prefix.
  bool ok = false;
  runtime_.Launch("spec", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    (void)co_await ctx.pred_tokens(kv, 260, 261, 262, 263);
    (void)ctx.kv_truncate(kv, 2);
    StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, 290);
    if (!d.ok()) {
      co_return;
    }
    std::vector<HiddenState> direct =
        model_.AdvanceSeq(model_.InitialState(), {260, 261, 290}, 0);
    ok = (*runtime_.kvfs()->TailState(kv) == direct.back());
    co_return;
  });
  sim_.Run();
  EXPECT_TRUE(ok);
}

TEST_F(SchedTest, ForkedFilesContinueIndependently) {
  HiddenState tail_a = 0;
  HiddenState tail_b = 0;
  runtime_.Launch("forker", [&](LipContext& ctx) -> Task {
    KvHandle base = *ctx.kv_tmp();
    (void)co_await ctx.pred_tokens(base, 260, 261);
    KvHandle a = *ctx.kv_fork(base);
    KvHandle b = *ctx.kv_fork(base);
    (void)co_await ctx.pred1(a, 270);
    (void)co_await ctx.pred1(b, 280);
    tail_a = *runtime_.kvfs()->TailState(a);
    tail_b = *runtime_.kvfs()->TailState(b);
    co_return;
  });
  sim_.Run();
  std::vector<HiddenState> da =
      model_.AdvanceSeq(model_.InitialState(), {260, 261, 270}, 0);
  std::vector<HiddenState> db =
      model_.AdvanceSeq(model_.InitialState(), {260, 261, 280}, 0);
  EXPECT_EQ(tail_a, da.back());
  EXPECT_EQ(tail_b, db.back());
}

TEST_F(SchedTest, ConcurrentPredsAreBatched) {
  // 8 LIPs submit preds at the same instant; eager policy launches one batch
  // for the first, and the remaining 7 coalesce into the next batch(es).
  constexpr int kLips = 8;
  int completed = 0;
  for (int i = 0; i < kLips; ++i) {
    runtime_.Launch("client", [&](LipContext& ctx) -> Task {
      KvHandle kv = *ctx.kv_tmp();
      StatusOr<std::vector<Distribution>> d = co_await ctx.pred_tokens(kv, 260);
      if (d.ok()) {
        ++completed;
      }
      co_return;
    });
  }
  sim_.Run();
  EXPECT_EQ(completed, kLips);
  EXPECT_LT(scheduler_.stats().batches, static_cast<uint64_t>(kLips));
  EXPECT_GE(device_.stats().batches, 2u);
}

TEST_F(SchedTest, RestoreFromHostChargesTransfer) {
  runtime_.Launch("offloaded", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    (void)co_await ctx.pred_tokens(kv, 260, 261, 262);
    // Push the file to host, then pred again: the scheduler must restore it.
    (void)runtime_.kvfs()->OffloadToHost(kv);
    (void)runtime_.kvfs()->TakePendingTransferBytes();  // Clear offload bytes.
    (void)co_await ctx.pred1(kv, 263);
    co_return;
  });
  sim_.Run();
  EXPECT_GT(device_.stats().transfer_bytes, 0u);
}

TEST_F(SchedTest, DeviceAccountsUtilization) {
  runtime_.Launch("busy", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    for (int i = 0; i < 5; ++i) {
      (void)co_await ctx.pred1(kv, static_cast<TokenId>(260 + i));
    }
    co_return;
  });
  sim_.Run();
  EXPECT_GT(device_.stats().busy_time, 0);
  EXPECT_GT(device_.Utilization(), 0.1);
  EXPECT_LE(device_.Utilization(), 1.0);
  EXPECT_EQ(device_.stats().new_tokens, 5u);
}

TEST_F(SchedTest, QueueWaitRecorded) {
  runtime_.Launch("w", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    (void)co_await ctx.pred_tokens(kv, 260);
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(scheduler_.queue_waits_ms().count(), 1u);
}

TEST_F(SchedTest, FairSharePicksAcrossLips) {
  // Two LIPs: a hog with 6 concurrent single-token preds per round and a
  // victim with one. Under fair share (batch capped at 2), the victim must
  // ride in the first batch after its submit, never behind the whole hog
  // backlog.
  Simulator sim;
  Kvfs kvfs(MakeKvfsOptions());
  Model model(ModelConfig::Tiny());
  Device device(&sim, CostModel(ModelConfig::Tiny()));
  InferenceSchedulerOptions sched_options;
  sched_options.discipline = QueueDiscipline::kFairShare;
  sched_options.max_batch_requests = 2;
  InferenceScheduler scheduler(&sim, &kvfs, &model, &device,
                               std::make_unique<EagerPolicy>(), sched_options);
  LipRuntime runtime(&sim, &kvfs);
  runtime.set_pred_service(&scheduler);

  SampleSeries victim_waits_ms;
  runtime.Launch("hog", [&](LipContext& ctx) -> Task {
    for (int w = 0; w < 6; ++w) {
      ctx.spawn([&, w](LipContext& inner) -> Task {
        KvHandle kv = *inner.kv_tmp();
        for (int i = 0; i < 20; ++i) {
          StatusOr<std::vector<Distribution>> d =
              co_await inner.pred1(kv, static_cast<TokenId>(260 + w));
          if (!d.ok()) {
            co_return;
          }
        }
        co_return;
      });
    }
    co_await ctx.join_all();
    co_return;
  });
  runtime.Launch("victim", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    for (int i = 0; i < 10; ++i) {
      SimTime start = ctx.now();
      StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, 300);
      if (!d.ok()) {
        co_return;
      }
      victim_waits_ms.Add(ToMillis(ctx.now() - start));
      co_await ctx.sleep(Millis(2));
    }
    co_return;
  });
  sim.Run();
  ASSERT_EQ(victim_waits_ms.count(), 10u);
  // Batch time ~0.16ms (tiny model); with 6 hog requests always queued and
  // batch size 2, FIFO would make the victim wait ~3+ batches regularly.
  // Fair share bounds it near 2 batch times (in-flight + next).
  EXPECT_LT(victim_waits_ms.max(), 1.2);
}

class PoissonSchedTest : public SchedTest {
 protected:
  PoissonSchedTest() : SchedTest(std::make_unique<PoissonAdaptivePolicy>(Millis(10))) {}
};

TEST_F(PoissonSchedTest, AccumulatesBatchesUnderLoad) {
  // 32 LIPs arriving every 10us — much faster than a ~150us batch — so the
  // adaptive policy should coalesce arrivals into a few large batches
  // rather than 32 singletons.
  constexpr int kLips = 32;
  int completed = 0;
  for (int i = 0; i < kLips; ++i) {
    sim_.ScheduleAt(Micros(10) * i, [&, i] {
      (void)i;
      runtime_.Launch("client", [&](LipContext& ctx) -> Task {
        KvHandle kv = *ctx.kv_tmp();
        StatusOr<std::vector<Distribution>> d = co_await ctx.pred_tokens(kv, 260);
        if (d.ok()) {
          ++completed;
        }
        co_return;
      });
    });
  }
  sim_.Run();
  EXPECT_EQ(completed, kLips);
  EXPECT_LE(scheduler_.stats().batches, 8u);
}

TEST_F(PoissonSchedTest, MaxWaitBoundsLatency) {
  // A single lonely request must still launch within max_wait (10ms) plus
  // execution time, not wait forever for a batch to fill.
  SimTime done_at = -1;
  runtime_.Launch("lonely", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    (void)co_await ctx.pred_tokens(kv, 260);
    done_at = ctx.now();
    co_return;
  });
  sim_.Run();
  EXPECT_GT(done_at, 0);
  EXPECT_LT(done_at, Millis(40));
}

TEST(SizeTimeoutPolicyTest, LaunchesAtSize) {
  SizeTimeoutPolicy policy(4, Millis(100));
  BatchPolicyInput input;
  input.queue_size = 4;
  input.max_batch = 32;
  EXPECT_TRUE(policy.ShouldLaunch(input).launch);
  input.queue_size = 3;
  input.oldest_wait = Millis(1);
  BatchDecision d = policy.ShouldLaunch(input);
  EXPECT_FALSE(d.launch);
  EXPECT_GT(d.recheck_after, 0);
}

TEST(SizeTimeoutPolicyTest, LaunchesAtTimeout) {
  SizeTimeoutPolicy policy(64, Millis(5));
  BatchPolicyInput input;
  input.queue_size = 1;
  input.oldest_wait = Millis(5);
  input.max_batch = 32;
  EXPECT_TRUE(policy.ShouldLaunch(input).launch);
}

TEST(PoissonPolicyTest, HighRateWaitsForBatch) {
  PoissonAdaptivePolicy policy(Millis(50));
  BatchPolicyInput input;
  input.queue_size = 2;
  input.oldest_wait = Millis(1);
  input.arrival_rate_per_sec = 1000.0;  // ~20 arrivals per 20ms batch.
  input.est_batch_time = Millis(20);
  input.max_batch = 32;
  BatchDecision d = policy.ShouldLaunch(input);
  EXPECT_FALSE(d.launch);
}

TEST(PoissonPolicyTest, LowRateLaunchesImmediately) {
  PoissonAdaptivePolicy policy(Millis(50));
  BatchPolicyInput input;
  input.queue_size = 1;
  input.oldest_wait = Micros(100);
  input.arrival_rate_per_sec = 5.0;  // Sparse arrivals: don't wait.
  input.est_batch_time = Millis(20);
  input.max_batch = 32;
  EXPECT_TRUE(policy.ShouldLaunch(input).launch);
}

TEST(PoissonPolicyTest, WaitNeverOutlastsMaxWait) {
  // 20 us before max_wait, with arrivals every 20 us: the 50 us floor on a
  // wait must yield to the budget, so the recheck lands by max_wait.
  PoissonAdaptivePolicy policy(Millis(10));
  BatchPolicyInput input;
  input.queue_size = 1;
  input.oldest_wait = Millis(10) - Micros(20);
  input.arrival_rate_per_sec = 50000.0;
  input.est_batch_time = Millis(20);  // Target batch: max_batch.
  input.max_batch = 32;
  BatchDecision d = policy.ShouldLaunch(input);
  EXPECT_FALSE(d.launch);
  EXPECT_GT(d.recheck_after, 0);
  EXPECT_LE(d.recheck_after, Millis(10) - input.oldest_wait);
}

TEST(SizeTimeoutPolicyTest, EmptyQueueWaitsFullTimeout) {
  SizeTimeoutPolicy policy(4, Millis(100));
  BatchPolicyInput input;
  input.queue_size = 0;
  input.oldest_wait = 0;
  input.max_batch = 32;
  BatchDecision d = policy.ShouldLaunch(input);
  EXPECT_FALSE(d.launch);
  EXPECT_EQ(d.recheck_after, Millis(100));
}

TEST(SizeTimeoutPolicyTest, WaitExactlyAtTimeoutLaunches) {
  SizeTimeoutPolicy policy(64, Millis(5));
  BatchPolicyInput input;
  input.queue_size = 1;
  input.oldest_wait = Millis(5);  // Boundary: >= is launch, not >.
  input.max_batch = 32;
  EXPECT_TRUE(policy.ShouldLaunch(input).launch);
  input.oldest_wait = Millis(5) - 1;
  EXPECT_FALSE(policy.ShouldLaunch(input).launch);
}

TEST(SizeTimeoutPolicyTest, RecheckIsClampedToMinimumGranularity) {
  // 1ns short of the timeout must not schedule a 1ns recheck spin.
  SizeTimeoutPolicy policy(64, Millis(5));
  BatchPolicyInput input;
  input.queue_size = 1;
  input.oldest_wait = Millis(5) - 1;
  input.max_batch = 32;
  BatchDecision d = policy.ShouldLaunch(input);
  EXPECT_FALSE(d.launch);
  EXPECT_GE(d.recheck_after, Micros(50));
}

TEST(SizeTimeoutPolicyTest, TargetAboveMaxBatchLaunchesAtMaxBatch) {
  // target_size 64 but the device caps at 8: a full device batch must not
  // wait for the unreachable target.
  SizeTimeoutPolicy policy(64, Seconds(10));
  BatchPolicyInput input;
  input.queue_size = 8;
  input.oldest_wait = 0;
  input.max_batch = 8;
  EXPECT_TRUE(policy.ShouldLaunch(input).launch);
}

TEST(SizeTimeoutPolicyTest, ZeroTimeoutDegeneratesToEager) {
  SizeTimeoutPolicy policy(64, 0);
  BatchPolicyInput input;
  input.queue_size = 1;
  input.oldest_wait = 0;
  input.max_batch = 32;
  EXPECT_TRUE(policy.ShouldLaunch(input).launch);
}

TEST(MemoryBackoffTest, RequeuesWithExponentialBackoffUntilPressureLifts) {
  // Pin the whole GPU pool for a window; a pred arriving during it cannot
  // restore its KV and must survive on backoff retries, then complete when
  // the pins release. The doubling backoff keeps the retry count far below
  // a fixed-interval scheme's.
  Simulator sim;
  Model model(ModelConfig::Tiny());
  KvfsOptions kv_options;
  kv_options.gpu_page_budget = 8;
  kv_options.host_page_budget = 256;
  kv_options.clock = [&sim] { return sim.now(); };
  Kvfs kvfs(kv_options);
  Device device(&sim, CostModel(ModelConfig::Tiny()));
  InferenceSchedulerOptions options;
  options.memory_retry_backoff = Millis(1);
  options.memory_retry_backoff_cap = Millis(8);
  InferenceScheduler scheduler(&sim, &kvfs, &model, &device,
                               std::make_unique<EagerPolicy>(), options);
  LipRuntime runtime(&sim, &kvfs);
  runtime.set_pred_service(&scheduler);

  // Occupy all 8 GPU pages with a pinned admin file until t=50ms.
  KvHandle pressure = *kvfs.CreateAnonymous(kAdminLip);
  std::vector<TokenRecord> filler(8 * kPageTokens);
  for (size_t i = 0; i < filler.size(); ++i) {
    filler[i] = TokenRecord{0, static_cast<int32_t>(i), 0};
  }
  ASSERT_TRUE(kvfs.Append(pressure, filler).ok());
  ASSERT_TRUE(kvfs.Pin(pressure).ok());
  sim.ScheduleAt(Millis(50), [&] {
    ASSERT_TRUE(kvfs.Unpin(pressure).ok());
    ASSERT_TRUE(kvfs.Close(pressure).ok());
  });

  Status status;
  SimTime done_at = -1;
  runtime.Launch("starved", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> dists =
        co_await ctx.pred_tokens(kv, 260, 261);
    status = dists.status();
    done_at = ctx.now();
    co_return;
  });
  sim.Run();

  ASSERT_TRUE(status.ok()) << status;
  EXPECT_GT(done_at, Millis(50));  // Only succeeded after the window closed.
  const InferenceSchedulerStats& stats = scheduler.stats();
  EXPECT_GT(stats.memory_requeues, 0u);
  EXPECT_GE(stats.max_memory_retry_depth, 4u);
  // Doubling schedule over ~50ms: 1+2+4+8+8+... needs ~9 retries; a fixed
  // 1ms interval would need ~50. Allow slack but catch a non-growing backoff.
  EXPECT_LE(stats.memory_requeues, 15u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(MemoryBackoffTest, RetryBudgetExhaustionFailsTheRequest) {
  // Pressure that never lifts: the request must fail with the original
  // kResourceExhausted once max_memory_retries is spent, not spin forever.
  Simulator sim;
  Model model(ModelConfig::Tiny());
  KvfsOptions kv_options;
  kv_options.gpu_page_budget = 8;
  kv_options.host_page_budget = 256;
  kv_options.clock = [&sim] { return sim.now(); };
  Kvfs kvfs(kv_options);
  Device device(&sim, CostModel(ModelConfig::Tiny()));
  InferenceSchedulerOptions options;
  options.memory_retry_backoff = Millis(1);
  options.memory_retry_backoff_cap = Millis(4);
  options.max_memory_retries = 6;
  InferenceScheduler scheduler(&sim, &kvfs, &model, &device,
                               std::make_unique<EagerPolicy>(), options);
  LipRuntime runtime(&sim, &kvfs);
  runtime.set_pred_service(&scheduler);

  KvHandle pressure = *kvfs.CreateAnonymous(kAdminLip);
  std::vector<TokenRecord> filler(8 * kPageTokens);
  for (size_t i = 0; i < filler.size(); ++i) {
    filler[i] = TokenRecord{0, static_cast<int32_t>(i), 0};
  }
  ASSERT_TRUE(kvfs.Append(pressure, filler).ok());
  ASSERT_TRUE(kvfs.Pin(pressure).ok());

  Status status;
  runtime.Launch("doomed", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> dists =
        co_await ctx.pred_tokens(kv, 260, 261);
    status = dists.status();
    co_return;
  });
  sim.Run();

  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler.stats().memory_requeues, 6u);
  EXPECT_EQ(scheduler.stats().max_memory_retry_depth, 6u);
  EXPECT_EQ(scheduler.stats().failed, 1u);
}

// ---------------------------------------------------------------------------
// Stall-free scheduling: chunked prefill must be semantically invisible.
// ---------------------------------------------------------------------------

// Stress-scalable seeds, same contract as PropertySeeds in property_test.cc:
// curated base seeds by default, widened under SYMPHONY_STRESS.
std::vector<uint64_t> ChunkSeeds(std::vector<uint64_t> base, uint64_t stream) {
  const char* stress = std::getenv("SYMPHONY_STRESS");
  if (stress == nullptr || *stress == '\0' ||
      std::string_view(stress) == "0") {
    return base;
  }
  uint64_t extra = 64;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(stress, &end, 10);
  if (end != stress && *end == '\0' && parsed > 1) {
    extra = parsed;
  }
  for (uint64_t i = 0; i < extra; ++i) {
    base.push_back(Mix64((stream << 32) ^ (i + 1)));
  }
  return base;
}

struct LipObservation {
  std::vector<uint64_t> dist_states;  // Every distribution, in program order.
  HiddenState tail = 0;
  uint64_t kv_len = 0;
};

// Runs a mixed prefill+decode workload under the given chunk size and packing
// mode. Everything returned must be independent of `chunk` and
// `decode_priority`: chunking may only change WHEN tokens are batched, never
// what they compute.
std::vector<LipObservation> RunChunkedWorkload(
    uint64_t seed, uint64_t chunk, bool decode_priority,
    InferenceSchedulerStats* stats_out) {
  Simulator sim;
  Model model(ModelConfig::Tiny());
  KvfsOptions kv_options;
  kv_options.gpu_page_budget = 512;
  kv_options.host_page_budget = 512;
  Kvfs kvfs(kv_options);
  Device device(&sim, CostModel(ModelConfig::Tiny()));
  InferenceSchedulerOptions options;
  options.prefill_chunk_tokens = chunk;
  options.decode_priority = decode_priority;
  InferenceScheduler scheduler(&sim, &kvfs, &model, &device,
                               std::make_unique<EagerPolicy>(), options);
  LipRuntime runtime(&sim, &kvfs);
  runtime.set_pred_service(&scheduler);

  constexpr size_t kLips = 4;
  std::vector<LipObservation> obs(kLips);
  Rng rng(seed);
  for (size_t i = 0; i < kLips; ++i) {
    // LIP 0 is a pure decode stream (short prompt); the rest prefill
    // 80..279 tokens, so every chunk size under 80 actually splits.
    uint64_t prompt_len = i == 0 ? 4 : 80 + rng.NextBounded(200);
    std::vector<TokenId> prompt(prompt_len);
    for (TokenId& t : prompt) {
      t = static_cast<TokenId>(1 + rng.NextBounded(299));
    }
    int decode_steps = 4 + static_cast<int>(rng.NextBounded(5));
    sim.ScheduleAt(Micros(40) * static_cast<SimTime>(i),
                   [&, i, prompt = std::move(prompt), decode_steps] {
      runtime.Launch(
          "lip" + std::to_string(i),
          [&, i, prompt, decode_steps](LipContext& ctx) -> Task {
            KvHandle kv = *ctx.kv_tmp();
            StatusOr<std::vector<Distribution>> d = co_await ctx.pred(kv, prompt);
            if (!d.ok()) {
              co_return;
            }
            for (const Distribution& dist : *d) {
              obs[i].dist_states.push_back(dist.state());
            }
            TokenId next = d->back().Argmax();
            for (int s = 0; s < decode_steps; ++s) {
              StatusOr<std::vector<Distribution>> dd = co_await ctx.pred1(kv, next);
              if (!dd.ok()) {
                co_return;
              }
              obs[i].dist_states.push_back(dd->back().state());
              next = dd->back().Argmax();
            }
            obs[i].kv_len = *ctx.kv_len(kv);
            obs[i].tail = *runtime.kvfs()->TailState(kv);
            co_return;
          });
    });
  }
  sim.Run();
  if (stats_out != nullptr) {
    *stats_out = scheduler.stats();
  }
  return obs;
}

class ChunkInvarianceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChunkInvarianceTest, ChunkedExecutionIsBitIdentical) {
  uint64_t seed = GetParam();
  std::vector<LipObservation> baseline =
      RunChunkedWorkload(seed, /*chunk=*/0, /*decode_priority=*/false, nullptr);
  for (const LipObservation& o : baseline) {
    ASSERT_FALSE(o.dist_states.empty());
    ASSERT_GT(o.kv_len, 0u);
  }
  for (uint64_t chunk : {uint64_t{1}, uint64_t{7}, uint64_t{64}, uint64_t{512}}) {
    for (bool decode_priority : {false, true}) {
      InferenceSchedulerStats stats;
      std::vector<LipObservation> got =
          RunChunkedWorkload(seed, chunk, decode_priority, &stats);
      ASSERT_EQ(got.size(), baseline.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].dist_states, baseline[i].dist_states)
            << "lip " << i << " chunk " << chunk << " dp " << decode_priority;
        EXPECT_EQ(got[i].tail, baseline[i].tail)
            << "lip " << i << " chunk " << chunk << " dp " << decode_priority;
        EXPECT_EQ(got[i].kv_len, baseline[i].kv_len)
            << "lip " << i << " chunk " << chunk << " dp " << decode_priority;
      }
      if (chunk < 80) {
        // Every prefill is larger than the chunk, so splits must happen
        // (and each split contributes at least two chunk launches).
        EXPECT_GT(stats.prefills_chunked, 0u) << "chunk " << chunk;
        EXPECT_GT(stats.prefill_chunks, stats.prefills_chunked)
            << "chunk " << chunk;
      } else {
        EXPECT_EQ(stats.prefills_chunked, 0u) << "chunk " << chunk;
      }
      // Occupancy accounting covers both request classes in this mix.
      EXPECT_GT(stats.decode_tokens_batched, 0u);
      EXPECT_GT(stats.prefill_tokens_batched, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChunkInvarianceTest,
                         ::testing::ValuesIn(ChunkSeeds({11, 29, 47}, 0xC0)));

// ---------------------------------------------------------------------------
// Chunking exists to bound decode tail latency: shrinking the chunk must
// never make the decode p99 worse, and a small chunk must beat unchunked by
// a wide margin.
// ---------------------------------------------------------------------------

// Decode p99 (ms) for a decode stream contending with a stream of 2000-token
// prefills. Timing uses the Llama13B cost model — on Tiny the 150us kernel
// overhead dwarfs per-token compute and chunking would be unobservable.
double DecodeP99ForChunk(uint64_t chunk) {
  Simulator sim;
  Model model(ModelConfig::Tiny());
  KvfsOptions kv_options;
  kv_options.gpu_page_budget = 2048;
  kv_options.host_page_budget = 2048;
  Kvfs kvfs(kv_options);
  Device device(&sim, CostModel(ModelConfig::Llama13B()));
  InferenceSchedulerOptions options;
  options.prefill_chunk_tokens = chunk;
  options.decode_priority = true;
  InferenceScheduler scheduler(&sim, &kvfs, &model, &device,
                               std::make_unique<EagerPolicy>(), options);
  LipRuntime runtime(&sim, &kvfs);
  runtime.set_pred_service(&scheduler);

  SampleSeries decode_ms;
  runtime.Launch("decoder", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> d =
        co_await ctx.pred_tokens(kv, 260, 261, 262, 263);
    if (!d.ok()) {
      co_return;
    }
    TokenId next = d->back().Argmax();
    for (int i = 0; i < 120; ++i) {
      SimTime start = ctx.now();
      StatusOr<std::vector<Distribution>> dd = co_await ctx.pred1(kv, next);
      if (!dd.ok()) {
        co_return;
      }
      decode_ms.Add(ToMillis(ctx.now() - start));
      next = dd->back().Argmax();
    }
    co_return;
  });
  std::vector<TokenId> prompt(2000);
  for (size_t i = 0; i < prompt.size(); ++i) {
    prompt[i] = static_cast<TokenId>(1 + i % 299);
  }
  for (int p = 0; p < 6; ++p) {
    sim.ScheduleAt(Millis(20) + Millis(150) * p, [&] {
      runtime.Launch("prefill", [&](LipContext& ctx) -> Task {
        KvHandle kv = *ctx.kv_tmp();
        (void)co_await ctx.pred(kv, prompt);
        co_return;
      });
    });
  }
  sim.Run();
  EXPECT_EQ(decode_ms.count(), 120u) << "chunk " << chunk;
  return decode_ms.Percentile(0.99);
}

TEST(ChunkLatencyTest, DecodeTailLatencyNonIncreasingAsChunkShrinks) {
  const std::vector<uint64_t> chunks = {0, 512, 128, 32};
  std::vector<double> p99;
  for (uint64_t chunk : chunks) {
    p99.push_back(DecodeP99ForChunk(chunk));
  }
  for (size_t i = 1; i < p99.size(); ++i) {
    EXPECT_LE(p99[i], p99[i - 1] * 1.05)
        << "chunk " << chunks[i] << " worsened decode p99: " << p99[i]
        << "ms vs " << p99[i - 1] << "ms at chunk " << chunks[i - 1];
  }
  // The headline effect, not a tie: a 32-token chunk bounds the batch a
  // decode can get stuck behind to a fraction of a full 2000-token prefill.
  EXPECT_LT(p99.back(), p99.front() / 2.0);
}

// ---------------------------------------------------------------------------
// Tests below submit straight to the scheduler, without a LIP runtime.
// ---------------------------------------------------------------------------

PredRequest MakePred(uint64_t id, LipId lip, KvHandle kv,
                     std::vector<TokenId> tokens, int32_t first_position,
                     SimTime now, std::function<void(PredResult)> complete) {
  PredRequest request;
  request.lip = lip;
  request.thread = id;
  request.kv = kv;
  request.positions.resize(tokens.size());
  std::iota(request.positions.begin(), request.positions.end(), first_position);
  request.tokens = std::move(tokens);
  request.submit_time = now;
  request.complete = std::move(complete);
  return request;
}

TEST(RecheckTest, SubmitDuringSizeTimeoutWaitSupersedesPendingRecheck) {
  // A waits alone, so the policy arms a recheck at its 1ms timeout. B lands
  // 1ns before that: its MaybeLaunch re-asks the policy, which waits its
  // 50us minimum, superseding A's recheck. The superseded event still fires
  // at 1ms but must not launch; the batch goes at 1ms + 50us - 1ns.
  Simulator sim;
  Model model(ModelConfig::Tiny());
  Kvfs kvfs(KvfsOptions{});
  Device device(&sim, CostModel(ModelConfig::Tiny()));
  InferenceScheduler scheduler(
      &sim, &kvfs, &model, &device,
      std::make_unique<SizeTimeoutPolicy>(/*target_size=*/4, Millis(1)));
  std::vector<SimTime> done;
  auto submit = [&](uint64_t id) {
    KvHandle kv = *kvfs.CreateAnonymous(1);
    scheduler.Submit(MakePred(id, 1, kv, {260}, 0, sim.now(),
                              [&](PredResult r) {
                                EXPECT_TRUE(r.status.ok()) << r.status;
                                done.push_back(sim.now());
                              }));
  };
  sim.ScheduleAt(0, [&] { submit(1); });
  sim.ScheduleAt(Millis(1) - 1, [&] { submit(2); });
  sim.Run();

  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(scheduler.stats().batches, 1u);
  const std::vector<double>& waits = scheduler.queue_waits_ms().samples();
  ASSERT_EQ(waits.size(), 2u);
  EXPECT_DOUBLE_EQ(waits[0], ToMillis(Millis(1) + Micros(50) - 1));
  EXPECT_DOUBLE_EQ(waits[1], ToMillis(Micros(50)));
}

// ---------------------------------------------------------------------------
// Pick order: which requests form each batch. ChunkInvariance checks what
// batches compute and FairSharePicksAcrossLips a latency bound; this sweep
// pins the batches themselves, so a change to batch planning cannot reorder
// them silently. Each configuration runs a seeded mix at queue depths in the
// thousands: several threads per LIP, position-mismatch failures in the
// middle of batches, twin preds racing on one file, a window in which an
// open file leaves too few GPU pages (forcing memory requeues at append and
// at restore), and a CancelLip on a LIP with queued work.
// ---------------------------------------------------------------------------

struct PickOrderCase {
  const char* name;
  QueueDiscipline discipline;
  bool decode_priority;
  uint64_t chunk;
  // Digest of kPickOrderSeed, recorded from the planner that rebuilt the
  // whole queue per batch. Any planner must reproduce it exactly.
  uint64_t digest;
};

constexpr uint64_t kPickOrderSeed = 2026;

struct PickOrderRun {
  uint64_t digest = 0;
  size_t max_depth = 0;
  InferenceSchedulerStats stats;
};

// Folds (batch ordinal, request id, status, dists, device new-token count)
// of every completion into a digest. The batch ordinal is the number of
// batches launched when the request completes, and the device's running
// new-token count pins every batch's chunk takes.
PickOrderRun RunPickOrder(uint64_t seed, const PickOrderCase& c) {
  Simulator sim;
  Model model(ModelConfig::Tiny());
  KvfsOptions kv_options;
  kv_options.gpu_page_budget = 256;
  kv_options.host_page_budget = 4096;
  kv_options.clock = [&sim] { return sim.now(); };
  Kvfs kvfs(kv_options);
  Device device(&sim, CostModel(ModelConfig::Tiny()));
  // Memory pressure: an open file holds all but 12 GPU pages until 60ms.
  KvHandle pressure = *kvfs.CreateAnonymous(kAdminLip);
  std::vector<TokenRecord> filler(244 * kPageTokens);
  for (size_t i = 0; i < filler.size(); ++i) {
    filler[i] = TokenRecord{0, static_cast<int32_t>(i), 0};
  }
  (void)kvfs.Append(pressure, filler);
  sim.ScheduleAt(Millis(60), [&] { (void)kvfs.Close(pressure); });
  InferenceSchedulerOptions options;
  options.discipline = c.discipline;
  options.decode_priority = c.decode_priority;
  options.prefill_chunk_tokens = c.chunk;
  options.max_batch_tokens = 256;
  options.memory_retry_backoff = Micros(200);
  options.memory_retry_backoff_cap = Millis(2);
  InferenceScheduler scheduler(&sim, &kvfs, &model, &device,
                               std::make_unique<EagerPolicy>(), options);

  constexpr LipId kLips = 8;
  constexpr LipId kCancelledLip = 3;
  Rng rng(seed);
  PickOrderRun run;
  run.digest = Mix64(seed);
  uint64_t next_id = 0;
  auto tokens = [&rng](size_t n) {
    std::vector<TokenId> out(n);
    for (TokenId& t : out) {
      t = static_cast<TokenId>(1 + rng.NextBounded(299));
    }
    return out;
  };
  // Submits `toks` on `kv` at `position`; `then` sees the result after it
  // is folded into the digest.
  auto submit = [&](LipId lip, KvHandle kv, std::vector<TokenId> toks,
                    int32_t position, std::function<void(PredResult&)> then) {
    uint64_t id = ++next_id;
    scheduler.Submit(MakePred(
        id, lip, kv, std::move(toks), position, sim.now(),
        [&, id, then = std::move(then)](PredResult r) {
          for (uint64_t v : {scheduler.stats().batches, id,
                             static_cast<uint64_t>(r.status.code()),
                             static_cast<uint64_t>(r.dists.size()),
                             device.stats().new_tokens}) {
            run.digest = HashCombine(run.digest, v);
          }
          then(r);
        }));
    run.max_depth = std::max(run.max_depth, scheduler.queue_depth());
  };

  // One-shot preds, each from its own thread: a deep backlog at t=0, then
  // more arrivals over the first 8ms.
  auto one_shot = [&](uint64_t n) {
    LipId lip = 1 + static_cast<LipId>(rng.NextBounded(kLips));
    bool prefill = rng.NextBounded(10) < 3;
    std::vector<TokenId> toks =
        tokens(prefill ? 9 + rng.NextBounded(32) : 1 + rng.NextBounded(8));
    if (n % 53 == 0) {
      // Twins: two preds continuing one file from the same position. The
      // second fails validation, at launch or at completion.
      KvHandle a = *kvfs.Open("/twin/" + std::to_string(n),
                              OpenOptions{.requester = lip, .write = true,
                                          .create = true});
      KvHandle b = *kvfs.Open("/twin/" + std::to_string(n),
                              OpenOptions{.requester = lip, .write = true});
      for (KvHandle kv : {a, b}) {
        submit(lip, kv, toks, 0,
               [&, kv](PredResult&) { (void)kvfs.Close(kv); });
      }
      return;
    }
    KvHandle kv = *kvfs.CreateAnonymous(lip);
    // Every 61st pred does not continue its (empty) file.
    int32_t position = n % 61 == 0 ? 1 : 0;
    submit(lip, kv, std::move(toks), position,
           [&, kv](PredResult&) { (void)kvfs.Close(kv); });
  };
  // Three long-lived threads per LIP, first in the queue: a prefill, then
  // decode steps, each resubmitted 2us after the last completes (the
  // runtime's resume cost). Every second decode offloads the file
  // afterwards, so the next launch must restore it.
  struct Thread {
    LipId lip;
    KvHandle kv;
    uint64_t decodes_left;
    uint64_t done = 0;
  };
  std::function<void(std::shared_ptr<Thread>, std::vector<TokenId>)> step =
      [&](std::shared_ptr<Thread> t, std::vector<TokenId> toks) {
        int32_t length = static_cast<int32_t>(*kvfs.Length(t->kv));
        submit(t->lip, t->kv, std::move(toks), length, [&, t](PredResult& r) {
          if (!r.status.ok() || t->decodes_left == 0) {
            (void)kvfs.Close(t->kv);
            return;
          }
          --t->decodes_left;
          if (++t->done % 2 == 1 && t->done > 1) {
            (void)kvfs.OffloadToHost(t->kv);
          }
          TokenId next = r.dists.back().Argmax();
          sim.ScheduleAfter(Micros(2), [&, t, next] { step(t, {next}); });
        });
      };
  for (LipId lip = 1; lip <= kLips; ++lip) {
    for (int i = 0; i < 3; ++i) {
      auto t = std::make_shared<Thread>(
          Thread{lip, *kvfs.CreateAnonymous(lip), 4 + rng.NextBounded(9)});
      step(t, tokens(16 + rng.NextBounded(85)));
    }
  }

  for (uint64_t n = 1; n <= 1200; ++n) {
    sim.ScheduleAt(0, [&, n] { one_shot(n); });
  }
  for (uint64_t n = 1201; n <= 2400; ++n) {
    sim.ScheduleAt(static_cast<SimTime>(rng.NextBounded(Millis(8))),
                   [&, n] { one_shot(n); });
  }

  sim.ScheduleAt(Millis(3), [&] { scheduler.CancelLip(kCancelledLip); });
  sim.Run();
  run.stats = scheduler.stats();
  for (uint64_t v : {run.stats.batches, run.stats.completed, run.stats.failed,
                     run.stats.cancelled, run.stats.memory_requeues,
                     static_cast<uint64_t>(sim.now())}) {
    run.digest = HashCombine(run.digest, v);
  }
  return run;
}

class PickOrderTest : public ::testing::TestWithParam<PickOrderCase> {};

TEST_P(PickOrderTest, BatchesMatchRecordedDigest) {
  const PickOrderCase& c = GetParam();
  PickOrderRun run = RunPickOrder(kPickOrderSeed, c);
  // The mix reaches every path it is meant to.
  EXPECT_GT(run.max_depth, 1000u);
  EXPECT_GT(run.stats.failed, 0u);
  EXPECT_GT(run.stats.cancelled, 0u);
  EXPECT_GT(run.stats.memory_requeues, 0u);
  if (c.chunk > 0) {
    EXPECT_GT(run.stats.prefills_chunked, 0u);
  }
  EXPECT_EQ(run.digest, c.digest)
      << c.name << ": got 0x" << std::hex << run.digest;
}

TEST_P(PickOrderTest, ExtraSeedsAreDeterministic) {
  // Only SYMPHONY_STRESS adds seeds here, at most 8 per configuration since
  // a run takes seconds under sanitizers. Each must give one digest twice.
  std::vector<uint64_t> seeds = ChunkSeeds({}, 0x9C);
  seeds.resize(std::min<size_t>(seeds.size(), 8));
  for (uint64_t seed : seeds) {
    EXPECT_EQ(RunPickOrder(seed, GetParam()).digest,
              RunPickOrder(seed, GetParam()).digest)
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PickOrderTest,
    ::testing::Values(
        PickOrderCase{"fifo_chunk0", QueueDiscipline::kFifo, false, 0,
                      0x2bc1023d5729968a},
        PickOrderCase{"fifo_chunk7", QueueDiscipline::kFifo, false, 7,
                      0x066c532455f13c74},
        PickOrderCase{"fifo_chunk64", QueueDiscipline::kFifo, false, 64,
                      0xcc730ef04ca5f069},
        PickOrderCase{"fifo_dp_chunk0", QueueDiscipline::kFifo, true, 0,
                      0x2c0bd4af0bf5186d},
        PickOrderCase{"fifo_dp_chunk7", QueueDiscipline::kFifo, true, 7,
                      0x615d2ad6d59daa7d},
        PickOrderCase{"fifo_dp_chunk64", QueueDiscipline::kFifo, true, 64,
                      0x60e445eb24e8e852},
        PickOrderCase{"fair_chunk0", QueueDiscipline::kFairShare, false, 0,
                      0x68ddd856a87e2c27},
        PickOrderCase{"fair_chunk7", QueueDiscipline::kFairShare, false, 7,
                      0x97fa6c30013962a4},
        PickOrderCase{"fair_chunk64", QueueDiscipline::kFairShare, false, 64,
                      0xb9ca7c24512c63e4},
        PickOrderCase{"fair_dp_chunk0", QueueDiscipline::kFairShare, true, 0,
                      0x278441b2de9dc8e1},
        PickOrderCase{"fair_dp_chunk7", QueueDiscipline::kFairShare, true, 7,
                      0xf131c64b7fea7eea},
        PickOrderCase{"fair_dp_chunk64", QueueDiscipline::kFairShare, true, 64,
                      0x3caf27c7b22b5e3b}),
    [](const ::testing::TestParamInfo<PickOrderCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace symphony
