// Tests for SymphonyCluster: routing policies, namespace isolation, and
// aggregate accounting.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/serve/cluster.h"
#include "tests/stress_seeds.h"

namespace symphony {
namespace {

ClusterOptions TinyCluster(size_t replicas, RoutingPolicy routing) {
  ClusterOptions options;
  options.replicas = replicas;
  options.routing = routing;
  options.server.model = ModelConfig::Tiny();
  return options;
}

TEST(ClusterTest, RoundRobinCycles) {
  Simulator sim;
  SymphonyCluster cluster(&sim, TinyCluster(3, RoutingPolicy::kRoundRobin));
  EXPECT_EQ(cluster.RouteFor(""), 0u);
  EXPECT_EQ(cluster.RouteFor(""), 1u);
  EXPECT_EQ(cluster.RouteFor(""), 2u);
  EXPECT_EQ(cluster.RouteFor(""), 0u);
}

TEST(ClusterTest, AffinityIsDeterministicPerKey) {
  Simulator sim;
  SymphonyCluster cluster(&sim, TinyCluster(4, RoutingPolicy::kCacheAffinity));
  size_t first = cluster.RouteFor("topic-7");
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(cluster.RouteFor("topic-7"), first);
  }
  // Different keys spread across replicas.
  std::set<size_t> seen;
  for (int k = 0; k < 40; ++k) {
    seen.insert(cluster.RouteFor("topic-" + std::to_string(k)));
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST(ClusterTest, LeastLoadedPicksIdleReplica) {
  Simulator sim;
  SymphonyCluster cluster(&sim, TinyCluster(2, RoutingPolicy::kLeastLoaded));
  // Occupy replica 0 with a long-running LIP.
  cluster.replica(0).Launch("sleeper", [](LipContext& ctx) -> Task {
    co_await ctx.sleep(Seconds(100));
    co_return;
  });
  sim.RunUntil(Millis(1));
  EXPECT_EQ(cluster.RouteFor("anything"), 1u);
}

TEST(ClusterTest, BoundedAffinityOverflowsUnderLoad) {
  Simulator sim;
  ClusterOptions options = TinyCluster(2, RoutingPolicy::kAffinityBounded);
  options.load_factor = 1.2;
  SymphonyCluster cluster(&sim, options);
  std::string key = "hot-topic";
  size_t preferred = cluster.RouteFor(key);
  // Saturate the preferred replica with live LIPs.
  for (int i = 0; i < 8; ++i) {
    cluster.replica(preferred).Launch("hog", [](LipContext& ctx) -> Task {
      co_await ctx.sleep(Seconds(100));
      co_return;
    });
  }
  sim.RunUntil(Millis(1));
  // 8 live on preferred vs 0 elsewhere: the bound (1.2 * 4.5) rejects it.
  EXPECT_NE(cluster.RouteFor(key), preferred);
}

TEST(ClusterTest, ReplicaNamespacesAreIsolated) {
  Simulator sim;
  SymphonyCluster cluster(&sim, TinyCluster(2, RoutingPolicy::kRoundRobin));
  cluster.replica(0).Launch("writer", [&](LipContext& ctx) -> Task {
    (void)ctx.kv_create("/cache/doc", kModeShared);
    co_return;
  });
  sim.Run();
  EXPECT_TRUE(cluster.replica(0).kvfs().Exists("/cache/doc"));
  EXPECT_FALSE(cluster.replica(1).kvfs().Exists("/cache/doc"));
}

TEST(ClusterTest, LaunchRoutesAndRuns) {
  Simulator sim;
  SymphonyCluster cluster(&sim, TinyCluster(2, RoutingPolicy::kCacheAffinity));
  int done = 0;
  std::set<size_t> replicas_used;
  for (int i = 0; i < 8; ++i) {
    SymphonyCluster::ClusterLip lip = cluster.Launch(
        "job", "key-" + std::to_string(i),
        [&](LipContext& ctx) -> Task {
          KvHandle kv = *ctx.kv_tmp();
          StatusOr<std::vector<Distribution>> d = co_await ctx.pred_tokens(kv, 260);
          if (d.ok()) {
            ++done;
          }
          co_return;
        });
    replicas_used.insert(lip.replica);
  }
  sim.Run();
  EXPECT_EQ(done, 8);
  EXPECT_EQ(replicas_used.size(), 2u);
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.lips_completed, 8u);
  EXPECT_GT(snap.batches, 0u);
  EXPECT_EQ(snap.lips_per_replica.size(), 2u);
}

TEST(ClusterTest, ReplicasShareTheVirtualClock) {
  Simulator sim;
  SymphonyCluster cluster(&sim, TinyCluster(2, RoutingPolicy::kRoundRobin));
  SimTime t0 = -1;
  SimTime t1 = -1;
  cluster.replica(0).Launch("a", [&](LipContext& ctx) -> Task {
    co_await ctx.sleep(Millis(10));
    t0 = ctx.now();
    co_return;
  });
  cluster.replica(1).Launch("b", [&](LipContext& ctx) -> Task {
    co_await ctx.sleep(Millis(20));
    t1 = ctx.now();
    co_return;
  });
  sim.Run();
  EXPECT_GE(t0, Millis(10));
  EXPECT_GE(t1, Millis(20));
  EXPECT_GE(sim.now(), Millis(20));
}

// ---- Cluster admission tier (reroute before shed) -----------------------

LipProgram LongSleeper() {
  return [](LipContext& ctx) -> Task {
    co_await ctx.sleep(Millis(50));
    co_return;
  };
}

SymphonyServer::LaunchSpec SleeperSpec(const std::string& name) {
  SymphonyServer::LaunchSpec spec;
  spec.name = name;
  spec.program = LongSleeper();
  return spec;
}

TEST(ClusterAdmissionTest, RejectedSubmitsRerouteToLessLoadedReplica) {
  Simulator sim;
  ClusterOptions options = TinyCluster(2, RoutingPolicy::kCacheAffinity);
  options.server.admission.enabled = true;
  options.server.admission.max_live_lips = 2;
  options.server.admission.max_queue = 1;
  SymphonyCluster cluster(&sim, options);
  // One affinity key: every Submit routes to the same replica, which can
  // hold 2 running + 1 queued. The rest must spill to the other replica
  // instead of being shed.
  std::vector<SymphonyCluster::ClusterAdmitResult> results;
  for (int i = 0; i < 6; ++i) {
    results.push_back(
        cluster.Submit(SleeperSpec("s" + std::to_string(i)), "hot-key"));
  }
  size_t admitted = 0;
  size_t rerouted = 0;
  for (const auto& r : results) {
    if (r.result.status.ok()) {
      ++admitted;
    }
    if (r.rerouted) {
      ++rerouted;
    }
  }
  EXPECT_EQ(admitted, 6u);  // Nothing shed: the spare replica absorbed it.
  EXPECT_EQ(rerouted, 3u);  // 2 running + 1 queued fit on the routed pick.
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.submit_reroutes, 3u);
  EXPECT_EQ(snap.submit_sheds, 0u);
  sim.Run();
}

TEST(ClusterAdmissionTest, ShedsOnlyWhenEveryReplicaRejects) {
  Simulator sim;
  ClusterOptions options = TinyCluster(2, RoutingPolicy::kCacheAffinity);
  options.server.admission.enabled = true;
  options.server.admission.max_live_lips = 1;
  options.server.admission.max_queue = 1;
  SymphonyCluster cluster(&sim, options);
  // Capacity across the whole cluster: 2 running + 2 queued = 4.
  std::vector<SymphonyCluster::ClusterAdmitResult> results;
  for (int i = 0; i < 6; ++i) {
    results.push_back(
        cluster.Submit(SleeperSpec("s" + std::to_string(i)), "hot-key"));
  }
  size_t shed = 0;
  for (const auto& r : results) {
    if (!r.result.status.ok()) {
      ++shed;
      EXPECT_EQ(r.result.status.code(), StatusCode::kUnavailable);
      EXPECT_GT(r.result.retry_after, 0);  // Backpressure hint survives.
    }
  }
  EXPECT_EQ(shed, 2u);
  EXPECT_EQ(cluster.Snapshot().submit_sheds, 2u);
  sim.Run();
}

TEST(ClusterAdmissionTest, RerouteDisabledShedsAtTheRoutedReplica) {
  Simulator sim;
  ClusterOptions options = TinyCluster(2, RoutingPolicy::kCacheAffinity);
  options.server.admission.enabled = true;
  options.server.admission.max_live_lips = 1;
  options.server.admission.max_queue = 0;
  options.reroute_on_reject = false;
  SymphonyCluster cluster(&sim, options);
  ASSERT_TRUE(cluster.Submit(SleeperSpec("a"), "hot-key").result.status.ok());
  SymphonyCluster::ClusterAdmitResult second =
      cluster.Submit(SleeperSpec("b"), "hot-key");
  EXPECT_FALSE(second.result.status.ok());
  EXPECT_FALSE(second.rerouted);
  EXPECT_EQ(cluster.Snapshot().submit_sheds, 1u);
  sim.Run();
}

// ---- Cross-replica prefix sharing (src/store) ---------------------------

// Opens (or creates) the named file and appends `grow` tokens to it.
LipProgram PrefixUser(const std::string& path, int grow) {
  return [path, grow](LipContext& ctx) -> Task {
    StatusOr<KvHandle> kv = ctx.kv_open(path, /*write=*/true);
    if (!kv.ok()) {
      kv = ctx.kv_create(path, kModeShared);
    }
    if (!kv.ok()) {
      co_return;
    }
    for (int i = 0; i < grow; ++i) {
      auto d = co_await ctx.pred1(*kv, static_cast<TokenId>(3 + i % 5));
      if (!d.ok()) {
        co_return;
      }
      ctx.emit(".");
    }
    co_return;
  };
}

// A read-only consumer: bumps the file's open count without writing.
LipProgram Toucher(const std::string& path) {
  return [path](LipContext& ctx) -> Task {
    (void)ctx.kv_open(path);
    co_return;
  };
}

TEST(PrefixSharingTest, HotFilesWarmOtherReplicasThroughTheStore) {
  Simulator sim;
  ClusterOptions options = TinyCluster(2, RoutingPolicy::kCacheAffinity);
  options.share_min_opens = 2;
  options.share_min_tokens = 64;
  SymphonyCluster cluster(&sim, options);
  // Two LIPs on replica 0 build and re-open a hot 100-token named prefix.
  size_t home = cluster.RouteFor("doc");
  cluster.Launch("writer", "doc", PrefixUser("/shared/doc", 100));
  sim.RunUntil(Millis(400));
  cluster.Launch("reader", "doc", Toucher("/shared/doc"));
  sim.RunUntil(Millis(800));
  ASSERT_TRUE(cluster.replica(home).kvfs().Exists("/shared/doc"));
  size_t other = 1 - home;
  ASSERT_FALSE(cluster.replica(other).kvfs().Exists("/shared/doc"));

  size_t warmed = cluster.SharePrefixes();
  EXPECT_EQ(warmed, 1u);
  sim.Run();  // Let the deferred import land after its transfer time.
  EXPECT_TRUE(cluster.replica(other).kvfs().Exists("/shared/doc"));
  // The imported copy is byte-identical and lands on the host tier.
  KvFileInfo info = *cluster.replica(other).kvfs().StatPath("/shared/doc");
  EXPECT_EQ(info.length, 100u);
  EXPECT_EQ(info.gpu_pages, 0u);  // Imports land on the host tier.
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.prefix_publishes, 1u);
  EXPECT_EQ(snap.warm_imports, 1u);
  EXPECT_EQ(snap.warm_import_tokens, 100u);
  EXPECT_GT(snap.store.fetched_bytes, 0u);

  // A second pass at the same length is a no-op (already published+warm).
  EXPECT_EQ(cluster.SharePrefixes(), 0u);
  EXPECT_EQ(cluster.Snapshot().prefix_publishes, 1u);
}

TEST(PrefixSharingTest, ColdOrShortFilesAreNotShared) {
  Simulator sim;
  ClusterOptions options = TinyCluster(2, RoutingPolicy::kCacheAffinity);
  options.share_min_opens = 2;
  options.share_min_tokens = 64;
  SymphonyCluster cluster(&sim, options);
  // Opened twice but too short; long enough but opened once.
  cluster.Launch("short", "a", PrefixUser("/shared/short", 10));
  cluster.Launch("short2", "a", Toucher("/shared/short"));
  cluster.Launch("cold", "b", PrefixUser("/shared/cold", 100));
  sim.Run();
  EXPECT_EQ(cluster.SharePrefixes(), 0u);
  EXPECT_EQ(cluster.Snapshot().prefix_publishes, 0u);
}

// ---- Prefill/decode disaggregation --------------------------------------

// Prefills `prompt_len` deterministic tokens, then emits `decode_steps`
// greedy continuation tokens — the output fingerprints the whole KV state.
LipProgram PrefillThenDecode(uint64_t prompt_len, int decode_steps) {
  return [prompt_len, decode_steps](LipContext& ctx) -> Task {
    std::vector<TokenId> prompt(prompt_len);
    for (size_t i = 0; i < prompt.size(); ++i) {
      prompt[i] = static_cast<TokenId>(1 + i % 299);
    }
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> d = co_await ctx.pred(kv, prompt);
    if (!d.ok()) {
      co_return;
    }
    TokenId next = d->back().Argmax();
    for (int i = 0; i < decode_steps; ++i) {
      ctx.emit(std::to_string(next) + " ");
      StatusOr<std::vector<Distribution>> dd = co_await ctx.pred1(kv, next);
      if (!dd.ok()) {
        co_return;
      }
      next = dd->back().Argmax();
    }
    co_return;
  };
}

TEST(DisaggregationTest, HintedLaunchesRouteToPrefillPool) {
  Simulator sim;
  ClusterOptions options = TinyCluster(3, RoutingPolicy::kLeastLoaded);
  options.roles = {ReplicaRole::kPrefill, ReplicaRole::kDecode,
                   ReplicaRole::kDecode};
  options.disagg_min_prefill_tokens = 64;
  SymphonyCluster cluster(&sim, options);
  EXPECT_EQ(cluster.RoleOf(0), ReplicaRole::kPrefill);
  // A qualifying hint goes to the prefill pool; an unhinted or sub-threshold
  // launch must never land behind another LIP's giant prefill.
  EXPECT_EQ(cluster.RouteFor("", 128), 0u);
  EXPECT_NE(cluster.RouteFor("", 0), 0u);
  EXPECT_NE(cluster.RouteFor("", 63), 0u);
  EXPECT_GT(cluster.Snapshot().disagg_prefill_routes, 0u);
}

TEST(DisaggregationTest, PrefillHandsOffToDecodePoolBitIdentically) {
  // The same program on a role-less single replica is the semantic oracle:
  // disaggregation moves the LIP between machines mid-life but must not
  // change a single emitted token.
  constexpr uint64_t kPrompt = 96;
  constexpr int kDecodes = 8;
  std::string expected;
  {
    Simulator sim;
    SymphonyCluster cluster(&sim, TinyCluster(1, RoutingPolicy::kLeastLoaded));
    SymphonyCluster::ClusterLip lip =
        cluster.Launch("oracle", "", PrefillThenDecode(kPrompt, kDecodes));
    sim.Run();
    ASSERT_TRUE(cluster.Done(lip));
    expected = cluster.Output(lip);
    ASSERT_FALSE(expected.empty());
  }

  Simulator sim;
  ClusterOptions options = TinyCluster(2, RoutingPolicy::kLeastLoaded);
  options.roles = {ReplicaRole::kPrefill, ReplicaRole::kDecode};
  options.disagg_min_prefill_tokens = 64;
  options.enable_recovery = true;
  // Large interval: the only journal fold is the one the handoff forces to
  // publish the prefilled KV through the store.
  options.checkpoint_journals = true;
  options.checkpoint_interval = 100000;
  SymphonyCluster cluster(&sim, options);
  SymphonyCluster::ClusterLip lip = cluster.Launch(
      "rag", "", /*prefill_hint_tokens=*/kPrompt,
      PrefillThenDecode(kPrompt, kDecodes));
  EXPECT_EQ(lip.replica, 0u);
  sim.Run();
  ASSERT_TRUE(cluster.Done(lip));
  EXPECT_EQ(cluster.Output(lip), expected);
  EXPECT_EQ(cluster.Locate(lip).replica, 1u);  // Decoding happened on D.
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.disagg_handoffs, 1u);
  EXPECT_EQ(snap.replay_divergences, 0u);
  EXPECT_GE(snap.checkpoints, 1u);   // Prefilled KV was force-published.
  EXPECT_GE(snap.delta_ships, 1u);   // ...so the ship was ref + suffix.
}

TEST(DisaggregationTest, SubThresholdPrefillStaysOnItsReplica) {
  Simulator sim;
  ClusterOptions options = TinyCluster(2, RoutingPolicy::kLeastLoaded);
  options.roles = {ReplicaRole::kPrefill, ReplicaRole::kDecode};
  options.disagg_min_prefill_tokens = 512;
  options.enable_recovery = true;
  SymphonyCluster cluster(&sim, options);
  // The hint overstates the actual prefill, so the launch is steered to the
  // prefill replica — but the completed 96-token context is below the
  // threshold and the handoff must decline rather than pay the hop.
  SymphonyCluster::ClusterLip lip = cluster.Launch(
      "small", "", /*prefill_hint_tokens=*/512, PrefillThenDecode(96, 4));
  EXPECT_EQ(lip.replica, 0u);
  sim.Run();
  ASSERT_TRUE(cluster.Done(lip));
  EXPECT_EQ(cluster.Locate(lip).replica, 0u);
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.disagg_handoffs, 0u);
  EXPECT_GE(snap.disagg_handoff_skips, 1u);
}

// Kill/replay during a chunked prefill: the journal holds no trace of
// partially executed chunks (a pred journals only on completion), so the
// survivor re-runs the whole pred — chunked again — and the output must be
// bit-identical to an undisturbed run.
class ChunkedKillSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChunkedKillSweepTest, KillMidChunkedPrefillReplaysBitIdentical) {
  Rng rng(GetParam());
  const uint64_t prompt_len = 64 + rng.NextBounded(128);
  const SimDuration kill_at = Micros(100) + Micros(rng.NextBounded(3000));

  auto run = [&](bool kill) -> std::string {
    Simulator sim;
    ClusterOptions options = TinyCluster(2, RoutingPolicy::kLeastLoaded);
    options.enable_recovery = true;
    options.server.scheduler.prefill_chunk_tokens = 8;
    options.server.scheduler.decode_priority = true;
    SymphonyCluster cluster(&sim, options);
    SymphonyCluster::ClusterLip lip =
        cluster.Launch("victim", "", PrefillThenDecode(prompt_len, 6));
    if (kill) {
      sim.ScheduleAt(kill_at, [&] {
        size_t where = cluster.Locate(lip).replica;
        if (!cluster.replica_dead(where)) {
          (void)cluster.KillReplica(where);
        }
      });
    }
    sim.Run();
    EXPECT_TRUE(cluster.Done(lip)) << "kill=" << kill;
    EXPECT_EQ(cluster.Snapshot().replay_divergences, 0u);
    return cluster.Output(lip);
  };
  std::string undisturbed = run(false);
  ASSERT_FALSE(undisturbed.empty());
  EXPECT_EQ(run(true), undisturbed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChunkedKillSweepTest,
                         ::testing::ValuesIn(StressSeeds({1, 2, 3}, 0xD1)));

// Kill/replay around the prefill->decode handoff: depending on the seed the
// kill lands before the handoff (on the prefill replica), while the shipped
// journal is in flight, or after decoding started on the target — the output
// must be bit-identical in every case.
class DisaggKillSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DisaggKillSweepTest, KillAroundHandoffReplaysBitIdentical) {
  Rng rng(GetParam());
  const uint64_t prompt_len = 64 + rng.NextBounded(128);
  const SimDuration kill_at = Micros(100) + Micros(rng.NextBounded(4000));

  auto run = [&](bool kill) -> std::string {
    Simulator sim;
    ClusterOptions options = TinyCluster(3, RoutingPolicy::kLeastLoaded);
    options.roles = {ReplicaRole::kPrefill, ReplicaRole::kDecode,
                     ReplicaRole::kDecode};
    options.disagg_min_prefill_tokens = 32;
    options.enable_recovery = true;
    options.checkpoint_journals = true;
    options.server.scheduler.prefill_chunk_tokens = 16;
    options.server.scheduler.decode_priority = true;
    SymphonyCluster cluster(&sim, options);
    SymphonyCluster::ClusterLip lip = cluster.Launch(
        "handoff", "", /*prefill_hint_tokens=*/prompt_len,
        PrefillThenDecode(prompt_len, 6));
    if (kill) {
      sim.ScheduleAt(kill_at, [&] {
        size_t where = cluster.Locate(lip).replica;
        if (!cluster.replica_dead(where)) {
          (void)cluster.KillReplica(where);
        }
      });
    }
    sim.Run();
    EXPECT_TRUE(cluster.Done(lip)) << "kill=" << kill;
    EXPECT_EQ(cluster.Snapshot().replay_divergences, 0u);
    return cluster.Output(lip);
  };
  std::string undisturbed = run(false);
  ASSERT_FALSE(undisturbed.empty());
  EXPECT_EQ(run(true), undisturbed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DisaggKillSweepTest,
                         ::testing::ValuesIn(StressSeeds({1, 2, 3}, 0xD2)));

}  // namespace
}  // namespace symphony
