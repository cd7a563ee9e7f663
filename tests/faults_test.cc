// Tests for the failure-semantics stack (ISSUE 2): FaultPlan injection,
// tool retry/backoff, circuit breakers, per-LIP deadlines, admission
// control, and the interaction of injected faults with journal replay.
//
// Acceptance properties covered here:
//   * a seeded FaultPlan run is bit-identical across reruns;
//   * a LIP killed mid-run under injected tool faults replays to identical
//     output via the journal (faults included);
//   * a LIP past its deadline consumes no further decode steps and releases
//     its KV quota.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/faults/fault_plan.h"
#include "src/serve/cluster.h"
#include "src/tools/circuit_breaker.h"

namespace symphony {
namespace {

// ---- FaultPlan decision determinism ------------------------------------

TEST(FaultPlanTest, DecisionsAreDeterministicPerSeed) {
  ToolFaultSpec spec;
  spec.fail_prob = 0.4;
  spec.tail_prob = 0.3;
  auto draw = [&spec](uint64_t seed) {
    FaultPlan plan(seed);
    plan.FailTool("web", spec);
    std::string key;
    for (uint64_t call = 0; call < 64; ++call) {
      FaultDecision d = plan.OnToolCall("web", Millis(1), "query", call, 1);
      key += d.status.ok() ? (d.latency_factor > 1.0 ? 'T' : '.') : 'F';
    }
    return key;
  };
  std::string a = draw(7);
  std::string b = draw(7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, std::string(64, '.'));  // Some faults actually fired.
  EXPECT_NE(draw(8), a);               // Seed matters.
}

TEST(FaultPlanTest, DecisionsIgnoreGlobalInterleaving) {
  // The same (tool, args, ordinal, attempt) must draw the same decision no
  // matter what other calls happened in between — that is what makes the
  // injected faults replay-invariant when a recovered LIP re-executes.
  ToolFaultSpec spec;
  spec.fail_prob = 0.5;
  FaultPlan one(11);
  one.FailTool("web", spec);
  FaultPlan two(11);
  two.FailTool("web", spec);
  // Plan `two` sees unrelated traffic first.
  for (uint64_t i = 0; i < 100; ++i) {
    (void)two.OnToolCall("web", Millis(1), "other-args", 1000 + i, 1);
  }
  for (uint64_t call = 0; call < 32; ++call) {
    FaultDecision a = one.OnToolCall("web", Millis(5), "q", call, 1);
    FaultDecision b = two.OnToolCall("web", Millis(5), "q", call, 1);
    EXPECT_EQ(a.status.code(), b.status.code());
    EXPECT_EQ(a.latency_factor, b.latency_factor);
  }
}

TEST(FaultPlanTest, OutageWindowIsTimeBounded) {
  FaultPlan plan(1);
  ToolFaultSpec spec;
  spec.fail_after = Millis(10);
  spec.recover_at = Millis(20);
  plan.FailTool("db", spec);
  EXPECT_TRUE(plan.OnToolCall("db", Millis(5), "x", 0, 1).status.ok());
  EXPECT_EQ(plan.OnToolCall("db", Millis(15), "x", 1, 1).status.code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(plan.OnToolCall("db", Millis(25), "x", 2, 1).status.ok());
  EXPECT_EQ(plan.stats().tool_faults, 1u);
}

// ---- Circuit breaker state machine -------------------------------------

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndProbes) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.cooldown = Millis(100);
  CircuitBreaker breaker(options);

  SimTime now = 0;
  EXPECT_EQ(breaker.state(now), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.Allow(now));
    breaker.RecordFailure(now);
  }
  EXPECT_EQ(breaker.state(now), CircuitBreaker::State::kClosed);
  // A success resets the consecutive count.
  ASSERT_TRUE(breaker.Allow(now));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  // Three consecutive failures trip it.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Allow(now));
    breaker.RecordFailure(now);
  }
  EXPECT_EQ(breaker.state(now), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);

  // Open: rejected until the cooldown elapses, with a retry-after hint.
  EXPECT_FALSE(breaker.Allow(now + Millis(50)));
  EXPECT_EQ(breaker.RetryAfter(now + Millis(50)), Millis(50));
  EXPECT_EQ(breaker.rejections(), 1u);

  // Half-open: exactly one probe goes through; a second caller is rejected.
  SimTime later = now + Millis(100);
  EXPECT_EQ(breaker.state(later), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.Allow(later));
  EXPECT_FALSE(breaker.Allow(later));

  // Failed probe: straight back to open, cooldown restarts.
  breaker.RecordFailure(later);
  EXPECT_EQ(breaker.state(later), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.Allow(later + Millis(99)));

  // Successful probe closes it.
  SimTime recovered = later + Millis(100);
  EXPECT_TRUE(breaker.Allow(recovered));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(recovered), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow(recovered));
}

// ---- Tool faults through the serving stack ------------------------------

// A LIP that calls one tool `calls` times and emits ok/err per call.
LipProgram ToolHammer(int calls) {
  return [calls](LipContext& ctx) -> Task {
    for (int i = 0; i < calls; ++i) {
      StatusOr<std::string> out =
          co_await ctx.call_tool("flaky", "q" + std::to_string(i));
      ctx.emit(out.ok() ? "ok;" : "err;");
    }
    co_return;
  };
}

ServerOptions FaultyServerOptions(FaultPlan* plan) {
  ServerOptions options;
  options.model = ModelConfig::Tiny();
  options.fault_plan = plan;
  return options;
}

TEST(ToolFaultTest, RetriesSmoothTransientFaults) {
  FaultPlan plan(3);
  ToolFaultSpec spec;
  spec.fail_prob = 0.3;
  plan.FailTool("flaky", spec);

  Simulator sim;
  ServerOptions options = FaultyServerOptions(&plan);
  options.tool_retry.max_attempts = 5;
  SymphonyServer server(&sim, options);
  ASSERT_TRUE(server.tools().Register(ToolRegistry::Echo("flaky", Millis(1))).ok());
  LipId lip = server.Launch("hammer", ToolHammer(20));
  sim.Run();

  // Every logical call eventually succeeded: each retry re-draws the fault
  // decision, and 0.3^5 makes a full washout vanishingly unlikely.
  std::string expected;
  for (int i = 0; i < 20; ++i) {
    expected += "ok;";
  }
  EXPECT_EQ(server.runtime().Output(lip), expected);
  EXPECT_GT(server.tool_stats().retries, 0u);
  EXPECT_GT(plan.stats().tool_faults, 0u);
  EXPECT_EQ(server.tool_stats().failures, 0u);
}

TEST(ToolFaultTest, NoRetriesSurfaceFaultsToTheLip) {
  FaultPlan plan(3);
  ToolFaultSpec spec;
  spec.fail_prob = 0.3;
  plan.FailTool("flaky", spec);

  Simulator sim;
  ServerOptions options = FaultyServerOptions(&plan);
  options.tool_retry.max_attempts = 1;  // No retries.
  options.breaker.enabled = false;      // Isolate the retry knob.
  SymphonyServer server(&sim, options);
  ASSERT_TRUE(server.tools().Register(ToolRegistry::Echo("flaky", Millis(1))).ok());
  LipId lip = server.Launch("hammer", ToolHammer(20));
  sim.Run();

  EXPECT_NE(server.runtime().Output(lip).find("err;"), std::string::npos);
  EXPECT_EQ(server.tool_stats().retries, 0u);
  EXPECT_GT(server.tool_stats().failures, 0u);
}

TEST(ToolFaultTest, OutageTripsBreakerAndShortCircuits) {
  FaultPlan plan(5);
  ToolFaultSpec spec;
  spec.fail_after = 0;  // Down from the start, forever.
  plan.FailTool("flaky", spec);

  Simulator sim;
  ServerOptions options = FaultyServerOptions(&plan);
  options.tool_retry.max_attempts = 2;
  options.tool_retry.backoff_base = Millis(1);
  options.breaker.failure_threshold = 4;
  options.breaker.cooldown = Seconds(10);  // Never half-opens in this run.
  SymphonyServer server(&sim, options);
  ASSERT_TRUE(server.tools().Register(ToolRegistry::Echo("flaky", Millis(1))).ok());
  LipId lip = server.Launch("hammer", ToolHammer(30));
  sim.Run();

  // Every call failed; after the first few, the breaker answered instantly.
  std::string expected;
  for (int i = 0; i < 30; ++i) {
    expected += "err;";
  }
  EXPECT_EQ(server.runtime().Output(lip), expected);
  const CircuitBreaker* breaker = server.tool_breaker("flaky");
  ASSERT_NE(breaker, nullptr);
  EXPECT_GE(breaker->opens(), 1u);
  // The breaker saved tool-latency: most attempts never reached the tool.
  EXPECT_GT(server.tool_stats().breaker_rejections, 0u);
}

TEST(ToolFaultTest, TimeoutCutsLatencyTails) {
  FaultPlan plan(9);
  ToolFaultSpec spec;
  spec.tail_prob = 1.0;     // Every attempt is stretched...
  spec.tail_factor = 50.0;  // ...from 1ms to 50ms.
  plan.FailTool("flaky", spec);

  Simulator sim;
  ServerOptions options = FaultyServerOptions(&plan);
  options.tool_retry.call_timeout = Millis(5);
  options.tool_retry.max_attempts = 2;
  options.tool_retry.backoff_base = Millis(1);
  options.breaker.enabled = false;
  SymphonyServer server(&sim, options);
  ASSERT_TRUE(server.tools().Register(ToolRegistry::Echo("flaky", Millis(1))).ok());
  LipId lip = server.Launch("hammer", ToolHammer(4));
  sim.Run();

  // Both attempts of every call timed out: failures surface as err, and the
  // run finishes in bounded time (4 calls x 2 attempts x ~6ms, not x 50ms).
  EXPECT_EQ(server.runtime().Output(lip), "err;err;err;err;");
  EXPECT_EQ(server.tool_stats().timeouts, 8u);
  EXPECT_LT(sim.now(), Millis(60));
  EXPECT_EQ(plan.stats().tool_tail_stretches, 8u);
}

// ---- Whole-run determinism under faults ---------------------------------

// A fault-exercising agent whose output depends on pred sampling AND tool
// outcomes, so any nondeterminism in either shows up in the output.
LipProgram FaultAgent(int turns) {
  return [turns](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> dists =
        co_await ctx.pred(kv, ctx.tokenizer().Encode("w1 w2 w3"));
    if (!dists.ok()) {
      co_return;
    }
    TokenId next = dists->back().Sample(ctx.uniform(), 0.8);
    for (int turn = 0; turn < turns; ++turn) {
      for (int i = 0; i < 5 && next != kEosToken; ++i) {
        ctx.emit(ctx.tokenizer().TokenToString(next) + " ");
        StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, next);
        if (!d.ok()) {
          co_return;
        }
        next = d->back().Sample(ctx.uniform(), 0.8);
      }
      StatusOr<std::string> out = co_await ctx.call_tool(
          "flaky", std::to_string(turn) + ":" + std::to_string(next));
      ctx.emit(out.ok() ? "[" + *out + "]" : "[err]");
      co_await ctx.sleep(Millis(1));
      if (next == kEosToken) {
        break;
      }
    }
    co_return;
  };
}

ClusterOptions FaultyClusterOptions(FaultPlan* plan, uint64_t seed) {
  ClusterOptions options;
  options.replicas = 2;
  options.server.model = ModelConfig::Tiny();
  options.server.runtime.seed = seed;
  options.server.fault_plan = plan;
  options.server.tool_retry.max_attempts = 3;
  options.server.tool_retry.backoff_base = Millis(1);
  options.enable_recovery = true;
  return options;
}

struct FaultRun {
  std::string output;
  uint64_t tool_faults = 0;
  SimTime finish = 0;
};

FaultRun RunUnderFaults(uint64_t seed, std::optional<SimTime> kill_at) {
  FaultPlan plan(seed * 31 + 1);
  ToolFaultSpec spec;
  spec.fail_prob = 0.25;
  spec.tail_prob = 0.2;
  spec.tail_factor = 4.0;
  plan.FailTool("flaky", spec);
  if (kill_at.has_value()) {
    plan.KillReplicaAt(0, *kill_at);
  }

  Simulator sim;
  SymphonyCluster cluster(&sim, FaultyClusterOptions(&plan, seed));
  for (size_t i = 0; i < cluster.replica_count(); ++i) {
    EXPECT_TRUE(cluster.replica(i)
                    .tools()
                    .Register(ToolRegistry::Echo("flaky", Millis(2)))
                    .ok());
  }
  SymphonyCluster::ClusterLip id = cluster.Launch("agent", "", FaultAgent(4));
  EXPECT_EQ(id.replica, 0u);  // Round-robin: first launch lands on 0.
  sim.Run();
  EXPECT_TRUE(cluster.Done(id));
  EXPECT_EQ(cluster.Snapshot().replay_divergences, 0u);
  FaultRun run;
  run.output = cluster.Output(id);
  run.tool_faults = plan.stats().tool_faults;
  run.finish = sim.now();
  return run;
}

TEST(FaultReplayTest, SeededFaultRunIsBitIdenticalAcrossReruns) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    FaultRun a = RunUnderFaults(seed, std::nullopt);
    FaultRun b = RunUnderFaults(seed, std::nullopt);
    ASSERT_FALSE(a.output.empty());
    EXPECT_EQ(a.output, b.output) << "seed=" << seed;
    EXPECT_EQ(a.tool_faults, b.tool_faults) << "seed=" << seed;
    EXPECT_EQ(a.finish, b.finish) << "seed=" << seed;
  }
}

TEST(FaultReplayTest, KillUnderInjectedFaultsReplaysBitIdentical) {
  // The acceptance property: a replica kill mid-run — while tool faults are
  // being injected — must not change the LIP's final output. The journal
  // replays the failures it recorded; re-executed live calls re-draw the
  // same fault decisions (ordinal-keyed, not globally counted).
  for (uint64_t seed : {4u, 5u, 6u, 7u}) {
    FaultRun baseline = RunUnderFaults(seed, std::nullopt);
    ASSERT_FALSE(baseline.output.empty());
    SimTime kill_at = baseline.finish / 2;
    FaultRun killed = RunUnderFaults(seed, kill_at);
    EXPECT_EQ(killed.output, baseline.output) << "seed=" << seed;
  }
}

// ---- KV corruption windows (src/store) ----------------------------------

TEST(KvCorruptionTest, DrawsAreDeterministicPerSeedChunkAndAttempt) {
  auto corrupt = [](uint64_t seed, uint64_t chunk, uint32_t attempt) {
    FaultPlan plan(seed);
    plan.AddKvCorruption(/*at=*/0, /*duration=*/Millis(10), /*prob=*/1.0);
    std::string bytes(256, 'z');
    EXPECT_TRUE(plan.OnKvTransfer(Millis(5), chunk, attempt, &bytes));
    return bytes;
  };
  // Same identity -> same corrupted bytes (replay-invariant injection).
  EXPECT_EQ(corrupt(9, 111, 1), corrupt(9, 111, 1));
  // A retry (new attempt) and a different chunk re-draw independently.
  EXPECT_NE(corrupt(9, 111, 1), corrupt(9, 111, 2));
  EXPECT_NE(corrupt(9, 111, 1), corrupt(9, 222, 1));
  EXPECT_NE(corrupt(10, 111, 1), corrupt(9, 111, 1));
}

TEST(KvCorruptionTest, WindowIsTimeBoundedAndProbabilityGated) {
  FaultPlan plan(3);
  plan.AddKvCorruption(Millis(10), Millis(10), 1.0);
  std::string bytes(64, 'q');
  std::string original = bytes;
  EXPECT_FALSE(plan.OnKvTransfer(Millis(5), 1, 1, &bytes));
  EXPECT_EQ(bytes, original);  // Outside the window: untouched.
  EXPECT_FALSE(plan.OnKvTransfer(Millis(25), 1, 1, &bytes));
  EXPECT_EQ(bytes, original);
  EXPECT_TRUE(plan.OnKvTransfer(Millis(15), 1, 1, &bytes));
  EXPECT_NE(bytes, original);  // Inside: exactly one flipped bit.
  size_t diff = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    diff += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned char>(bytes[i] ^ original[i])));
  }
  EXPECT_EQ(diff, 1u);
  EXPECT_EQ(plan.stats().kv_corruptions, 1u);
  // prob 0 never corrupts even inside its window.
  FaultPlan never(3);
  never.AddKvCorruption(0, Millis(100), 0.0);
  std::string intact(64, 'q');
  EXPECT_FALSE(never.OnKvTransfer(Millis(50), 1, 1, &intact));
  EXPECT_EQ(intact, original);
}

TEST(KvCorruptionTest, MigrationUnderCorruptionRetriesAndStaysBitIdentical) {
  // A corruption window covering the failover: the checkpoint rehydrate's
  // chunk transfers are corrupted (and detected — never served), the ship
  // retries past the window, and the replayed LIP still produces the
  // baseline output. This is the end-to-end "detected, never silently
  // served" acceptance property.
  auto run = [](std::optional<SimTime> kill_at, SimDuration window) {
    FaultPlan plan(41);
    if (kill_at.has_value()) {
      plan.KillReplicaAt(0, *kill_at);
      plan.AddKvCorruption(*kill_at, window, 1.0);
    }
    Simulator sim;
    ClusterOptions options = FaultyClusterOptions(&plan, 19);
    options.checkpoint_journals = true;
    options.checkpoint_interval = 8;
    SymphonyCluster cluster(&sim, options);
    for (size_t i = 0; i < cluster.replica_count(); ++i) {
      EXPECT_TRUE(cluster.replica(i)
                      .tools()
                      .Register(ToolRegistry::Echo("flaky", Millis(2)))
                      .ok());
    }
    SymphonyCluster::ClusterLip id = cluster.Launch("agent", "", FaultAgent(4));
    sim.Run();
    EXPECT_TRUE(cluster.Done(id));
    return std::make_tuple(cluster.Output(id), cluster.Snapshot(), sim.now());
  };
  auto [baseline, baseline_snap, baseline_finish] = run(std::nullopt, 0);
  ASSERT_FALSE(baseline.empty());
  ASSERT_GT(baseline_snap.checkpoints, 0u);
  auto [killed, snap, killed_finish] = run(baseline_finish / 2, Millis(6));
  EXPECT_EQ(killed, baseline);
  EXPECT_EQ(snap.failovers, 1u);
  // Every corrupted transfer was caught by its checksum and retried; the
  // rehydrate kept backing off until the window closed.
  EXPECT_GT(snap.rehydrate_retries, 0u);
  EXPECT_GT(snap.store.corrupt_chunks_detected, 0u);
  EXPECT_GT(snap.store.corrupt_fetch_failures, 0u);
  EXPECT_EQ(snap.replay_divergences, 0u);
}

// ---- Per-LIP deadlines --------------------------------------------------

// Generates forever (until a syscall fails), emitting one '.' per pred.
LipProgram EndlessDecoder() {
  return [](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> dists =
        co_await ctx.pred(kv, ctx.tokenizer().Encode("w1 w2"));
    if (!dists.ok()) {
      ctx.emit("early-fail");
      co_return;
    }
    TokenId next = dists->back().Argmax();
    for (int i = 0; i < 100000; ++i) {
      StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, next);
      if (!d.ok()) {
        ctx.emit("|" + std::string(StatusCodeName(d.status().code())));
        co_return;
      }
      ctx.emit(".");
      next = d->back().Argmax();
      if (next == kEosToken) {
        next = 1;
      }
    }
    co_return;
  };
}

TEST(DeadlineTest, ExpiryCancelsPredsAndReleasesKvQuota) {
  Simulator sim;
  ServerOptions options;
  options.model = ModelConfig::Tiny();
  SymphonyServer server(&sim, options);

  SymphonyServer::LaunchSpec spec;
  spec.name = "bounded";
  spec.program = EndlessDecoder();
  spec.deadline = Millis(30);
  SymphonyServer::AdmitResult admitted = server.Submit(std::move(spec));
  ASSERT_TRUE(admitted.status.ok());
  ASSERT_NE(admitted.lip, kNoLip);
  LipId lip = admitted.lip;

  uint64_t tokens_at_deadline = 0;
  sim.ScheduleAt(Millis(31), [&] {
    tokens_at_deadline = server.runtime().GetUsage(lip).pred_tokens;
  });
  sim.Run();

  // The LIP saw kDeadlineExceeded and stopped.
  const std::string& output = server.runtime().Output(lip);
  EXPECT_NE(output.find("DEADLINE_EXCEEDED"), std::string::npos) << output;
  EXPECT_TRUE(server.runtime().LipDone(lip));
  EXPECT_TRUE(server.runtime().DeadlineExpired(lip));

  // No decode past the deadline: at most one in-flight pred (already inside
  // a batch at expiry) may land after it; everything later was rejected.
  uint64_t final_tokens = server.runtime().GetUsage(lip).pred_tokens;
  EXPECT_LE(final_tokens, tokens_at_deadline + 1);
  EXPECT_EQ(server.runtime().stats().deadlines_expired, 1u);

  // KV quota released at expiry.
  EXPECT_EQ(server.kvfs().OwnerPageRefs(lip), 0u);
}

TEST(DeadlineTest, QueuedPredsAreCancelledAtExpiry) {
  Simulator sim;
  ServerOptions options;
  options.model = ModelConfig::Tiny();
  // Big batches of long prefills keep the device busy so the victim's preds
  // sit in the scheduler queue when the deadline fires.
  SymphonyServer server(&sim, options);
  for (int i = 0; i < 6; ++i) {
    server.Launch("filler" + std::to_string(i), EndlessDecoder());
  }
  SymphonyServer::LaunchSpec spec;
  spec.name = "victim";
  spec.program = EndlessDecoder();
  spec.deadline = Millis(2);
  SymphonyServer::AdmitResult admitted = server.Submit(std::move(spec));
  ASSERT_TRUE(admitted.status.ok());
  sim.RunUntil(Millis(200));
  EXPECT_TRUE(server.runtime().LipDone(admitted.lip));
  // Either the queue purge or the syscall-boundary rejection caught it.
  EXPECT_GE(server.scheduler().stats().cancelled +
                server.runtime().stats().deadline_rejections,
            1u);
}

// ---- Admission control --------------------------------------------------

LipProgram Sleeper(SimDuration how_long) {
  return [how_long](LipContext& ctx) -> Task {
    co_await ctx.sleep(how_long);
    co_return;
  };
}

TEST(AdmissionTest, BoundedQueueAdmitsQueuesAndSheds) {
  Simulator sim;
  ServerOptions options;
  options.model = ModelConfig::Tiny();
  options.admission.enabled = true;
  options.admission.max_live_lips = 2;
  options.admission.max_queue = 2;
  SymphonyServer server(&sim, options);

  auto submit = [&server] {
    SymphonyServer::LaunchSpec spec;
    spec.name = "job";
    spec.program = Sleeper(Millis(10));
    return server.Submit(std::move(spec));
  };
  SymphonyServer::AdmitResult first = submit();
  SymphonyServer::AdmitResult second = submit();
  SymphonyServer::AdmitResult third = submit();
  SymphonyServer::AdmitResult fourth = submit();
  SymphonyServer::AdmitResult fifth = submit();

  EXPECT_TRUE(first.status.ok());
  EXPECT_FALSE(first.queued);
  EXPECT_TRUE(second.status.ok());
  EXPECT_TRUE(third.status.ok());
  EXPECT_TRUE(third.queued);
  EXPECT_TRUE(fourth.queued);
  // Queue full: shed with a backpressure hint.
  EXPECT_EQ(fifth.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(fifth.retry_after, 0);
  EXPECT_EQ(server.admission_queue_depth(), 2u);

  sim.Run();
  // The queued pair ran once slots freed.
  EXPECT_EQ(server.admission_stats().admitted, 4u);
  EXPECT_EQ(server.admission_stats().rejected_full, 1u);
  EXPECT_EQ(server.runtime().stats().lips_completed, 4u);
}

TEST(AdmissionTest, DeadlineAwareRejectionUsesProjectedDelay) {
  Simulator sim;
  ServerOptions options;
  options.model = ModelConfig::Tiny();
  options.admission.enabled = true;
  options.admission.max_live_lips = 1;
  options.admission.max_queue = 16;
  options.admission.initial_service_estimate = Millis(100);
  SymphonyServer server(&sim, options);

  SymphonyServer::LaunchSpec running;
  running.name = "running";
  running.program = Sleeper(Millis(100));
  ASSERT_TRUE(server.Submit(std::move(running)).status.ok());

  // Projected wait for the next request is ~100ms; a 5ms deadline cannot be
  // met, so it is shed immediately instead of dying in the queue.
  SymphonyServer::LaunchSpec tight;
  tight.name = "tight";
  tight.program = Sleeper(Millis(1));
  tight.deadline = Millis(5);
  SymphonyServer::AdmitResult result = server.Submit(std::move(tight));
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(result.retry_after, 0);
  EXPECT_EQ(server.admission_stats().rejected_deadline, 1u);

  // A relaxed deadline queues fine.
  SymphonyServer::LaunchSpec relaxed;
  relaxed.name = "relaxed";
  relaxed.program = Sleeper(Millis(1));
  relaxed.deadline = Seconds(5);
  EXPECT_TRUE(server.Submit(std::move(relaxed)).queued);
  sim.Run();
  EXPECT_EQ(server.runtime().stats().lips_completed, 2u);
}

TEST(AdmissionTest, HigherPriorityClassDrainsFirst) {
  Simulator sim;
  ServerOptions options;
  options.model = ModelConfig::Tiny();
  options.admission.enabled = true;
  options.admission.max_live_lips = 1;
  options.admission.max_queue = 8;
  SymphonyServer server(&sim, options);

  std::vector<std::string> started;
  auto submit = [&](const std::string& name, uint32_t priority) {
    SymphonyServer::LaunchSpec spec;
    spec.name = name;
    spec.priority = priority;
    spec.program = [&started, name](LipContext& ctx) -> Task {
      started.push_back(name);
      co_await ctx.sleep(Millis(5));
      co_return;
    };
    return server.Submit(std::move(spec));
  };
  ASSERT_FALSE(submit("first", 1).queued);     // Takes the slot.
  ASSERT_TRUE(submit("low", 2).queued);        // Queued first...
  ASSERT_TRUE(submit("high", 0).queued);       // ...but lower priority.
  sim.Run();
  ASSERT_EQ(started.size(), 3u);
  EXPECT_EQ(started[0], "first");
  EXPECT_EQ(started[1], "high");  // Priority 0 jumps the earlier priority 2.
  EXPECT_EQ(started[2], "low");
}

TEST(AdmissionTest, ExpiredQueueEntriesAreShedAtDequeue) {
  Simulator sim;
  ServerOptions options;
  options.model = ModelConfig::Tiny();
  options.admission.enabled = true;
  options.admission.max_live_lips = 1;
  options.admission.max_queue = 8;
  // Optimistic estimate so the doomed entry queues instead of being
  // rejected up front — this test exercises the dequeue-time shed.
  options.admission.initial_service_estimate = Millis(1);
  SymphonyServer server(&sim, options);

  SymphonyServer::LaunchSpec running;
  running.name = "running";
  running.program = Sleeper(Millis(50));
  ASSERT_TRUE(server.Submit(std::move(running)).status.ok());

  SymphonyServer::LaunchSpec doomed;
  doomed.name = "doomed";
  doomed.program = Sleeper(Millis(1));
  doomed.deadline = Millis(10);  // Expires long before the slot frees.
  ASSERT_TRUE(server.Submit(std::move(doomed)).queued);

  sim.Run();
  EXPECT_EQ(server.admission_stats().shed_expired, 1u);
  EXPECT_EQ(server.runtime().stats().lips_completed, 1u);  // Only "running".
}

// ---- KV pressure windows ------------------------------------------------

TEST(KvPressureTest, WindowPinsPagesThenReleasesThem) {
  Simulator sim;
  KvfsOptions fs_options;
  fs_options.gpu_page_budget = 64;
  fs_options.clock = [&sim] { return sim.now(); };
  Kvfs kvfs(fs_options);

  FaultPlan plan(2);
  plan.AddKvPressure(Millis(10), Millis(20), 16);
  plan.ArmKvPressure(&sim, &kvfs);

  uint64_t during = 0;
  sim.ScheduleAt(Millis(20), [&] { during = kvfs.OwnerPageRefs(kAdminLip); });
  uint64_t after = UINT64_MAX;
  sim.ScheduleAt(Millis(40), [&] { after = kvfs.OwnerPageRefs(kAdminLip); });
  sim.Run();

  EXPECT_EQ(during, 16u);  // 16 pages pinned during the window.
  EXPECT_EQ(after, 0u);    // Released when it closed.
  EXPECT_EQ(plan.stats().pressure_windows, 1u);
}

}  // namespace
}  // namespace symphony
