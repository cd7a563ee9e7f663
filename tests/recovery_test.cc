// Tests for src/recovery: syscall journaling, replay, KVFS snapshots, and
// cluster fault injection / live migration.
//
// The acceptance property (ISSUE 1): a LIP killed mid-generation and
// replayed on another replica produces bit-identical final output to an
// uninterrupted run — property-tested across seeds, random kill times, and
// all recovery modes.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/recovery/replayer.h"
#include "src/serve/cluster.h"
#include "src/store/journal_checkpoint.h"
#include "tests/stress_seeds.h"

namespace symphony {
namespace {

// A multi-turn tool-calling agent: samples tokens (RNG-dependent), calls a
// tool whose args depend on generated state, sleeps between turns, and emits
// everything. Stops at the first EOS it samples unless `stop_at_eos` is
// false. Captures nothing by reference so the cluster's retained copy can
// re-run it during replay.
LipProgram MakeAgent(int turns, bool stop_at_eos = true) {
  return [turns, stop_at_eos](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    std::vector<TokenId> prompt = ctx.tokenizer().Encode("w1 w2 w3");
    StatusOr<std::vector<Distribution>> dists = co_await ctx.pred(kv, prompt);
    if (!dists.ok()) {
      co_return;
    }
    TokenId next = dists->back().Sample(ctx.uniform(), 0.8);
    for (int turn = 0; turn < turns; ++turn) {
      for (int i = 0; i < 6 && !(stop_at_eos && next == kEosToken); ++i) {
        ctx.emit(ctx.tokenizer().TokenToString(next) + " ");
        StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, next);
        if (!d.ok()) {
          co_return;
        }
        next = d->back().Sample(ctx.uniform(), 0.8);
      }
      StatusOr<std::string> out = co_await ctx.call_tool(
          "calc", std::to_string(turn) + " + " + std::to_string(next));
      if (out.ok()) {
        ctx.emit("[" + *out + "]");
      }
      co_await ctx.sleep(Millis(1));
      if (stop_at_eos && next == kEosToken) {
        break;
      }
    }
    co_return;
  };
}

ClusterOptions RecoveryCluster(uint64_t seed, RecoveryMode mode) {
  ClusterOptions options;
  options.replicas = 2;
  options.routing = RoutingPolicy::kRoundRobin;
  options.server.model = ModelConfig::Tiny();
  options.server.runtime.seed = seed;
  options.enable_recovery = true;
  options.recovery_mode = mode;
  return options;
}

void RegisterTools(SymphonyCluster& cluster) {
  for (size_t i = 0; i < cluster.replica_count(); ++i) {
    ASSERT_TRUE(cluster.replica(i)
                    .tools()
                    .Register(ToolRegistry::Calculator("calc", Millis(2)))
                    .ok());
  }
}

struct RunResult {
  std::string output;
  SimTime finish = 0;
  uint64_t pred_tokens_used = 0;
};

// Runs one agent to completion; optionally kills its replica at
// `kill_frac x baseline_finish` virtual time.
RunResult RunAgent(uint64_t seed, RecoveryMode mode,
                   std::optional<double> kill_frac, SimTime baseline_finish,
                   bool stop_at_eos = true) {
  Simulator sim;
  SymphonyCluster cluster(&sim, RecoveryCluster(seed, mode));
  RegisterTools(cluster);
  SymphonyCluster::ClusterLip id =
      cluster.Launch("agent", "", MakeAgent(4, stop_at_eos));
  if (kill_frac.has_value()) {
    SimTime kill_at =
        static_cast<SimTime>(*kill_frac * static_cast<double>(baseline_finish));
    sim.ScheduleAt(kill_at,
                   [&cluster, id] { (void)cluster.KillReplica(id.replica); });
  }
  sim.Run();
  EXPECT_TRUE(cluster.Done(id));
  EXPECT_EQ(cluster.Snapshot().replay_divergences, 0u);
  RunResult result;
  result.output = cluster.Output(id);
  result.finish = sim.now();
  SymphonyCluster::ClusterLip where = cluster.Locate(id);
  result.pred_tokens_used =
      cluster.replica(where.replica).runtime().GetUsage(where.lip).pred_tokens;
  return result;
}

// ---- The acceptance property ------------------------------------------

TEST(RecoveryTest, KilledLipReplaysBitIdenticalAcrossSeeds) {
  Rng kill_rng(0xBADF00DULL);
  constexpr RecoveryMode kModes[] = {RecoveryMode::kAuto,
                                     RecoveryMode::kRecompute,
                                     RecoveryMode::kImportSnapshot};
  for (int trial = 0; trial < 12; ++trial) {
    uint64_t seed = 1000 + static_cast<uint64_t>(trial) * 17;
    RecoveryMode mode = kModes[trial % 3];
    RunResult baseline = RunAgent(seed, mode, std::nullopt, 0);
    ASSERT_FALSE(baseline.output.empty());
    ASSERT_GT(baseline.finish, 0u);
    // Random kill time mid-run.
    double frac = 0.05 + 0.85 * kill_rng.NextDouble();
    RunResult killed = RunAgent(seed, mode, frac, baseline.finish);
    EXPECT_EQ(killed.output, baseline.output)
        << "seed=" << seed << " mode=" << RecoveryModeName(mode)
        << " kill_frac=" << frac;
  }
}

// ---- Quota carry-over (a migration must not reset LipUsage) ------------

TEST(RecoveryTest, QuotaUsageCarriesOverAcrossFailover) {
  auto run = [](bool kill) {
    Simulator sim;
    SymphonyCluster cluster(&sim, RecoveryCluster(7, RecoveryMode::kAuto));
    RegisterTools(cluster);
    SymphonyCluster::ClusterLip id = cluster.Launch("limited", "", MakeAgent(8));
    LipQuota quota;
    quota.max_pred_tokens = 14;  // Cuts generation short mid-turn.
    cluster.replica(id.replica).runtime().SetQuota(id.lip, quota);
    if (kill) {
      sim.ScheduleAt(Millis(40),
                     [&cluster, id] { (void)cluster.KillReplica(id.replica); });
    }
    sim.Run();
    EXPECT_TRUE(cluster.Done(id));
    SymphonyCluster::ClusterLip where = cluster.Locate(id);
    LipUsage usage =
        cluster.replica(where.replica).runtime().GetUsage(where.lip);
    return std::make_pair(cluster.Output(id), usage.pred_tokens);
  };
  auto [baseline_output, baseline_used] = run(false);
  auto [killed_output, killed_used] = run(true);
  // The quota bit: replay re-runs the accounting, so usage on the new
  // replica equals the uninterrupted run's — the kill resets nothing.
  EXPECT_EQ(killed_used, baseline_used);
  EXPECT_LE(killed_used, 14u);
  EXPECT_EQ(killed_output, baseline_output);
}

// ---- Live migration ----------------------------------------------------

TEST(RecoveryTest, LiveMigrationPreservesOutput) {
  RunResult baseline = RunAgent(42, RecoveryMode::kAuto, std::nullopt, 0);
  ASSERT_FALSE(baseline.output.empty());

  Simulator sim;
  SymphonyCluster cluster(&sim, RecoveryCluster(42, RecoveryMode::kAuto));
  // (Can't reuse RunAgent: we need to call Migrate mid-run.)
  for (size_t i = 0; i < cluster.replica_count(); ++i) {
    ASSERT_TRUE(cluster.replica(i)
                    .tools()
                    .Register(ToolRegistry::Calculator("calc", Millis(2)))
                    .ok());
  }
  SymphonyCluster::ClusterLip id = cluster.Launch("agent", "", MakeAgent(4));
  SimTime migrate_at = baseline.finish / 2;
  sim.ScheduleAt(migrate_at, [&cluster, id] {
    SymphonyCluster::ClusterLip where = cluster.Locate(id);
    Status st = cluster.Migrate(where, 1 - where.replica);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  sim.Run();
  EXPECT_TRUE(cluster.Done(id));
  EXPECT_EQ(cluster.Output(id), baseline.output);
  EXPECT_EQ(cluster.Locate(id).replica, 1u - id.replica);
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.migrations, 1u);
  EXPECT_EQ(snap.replay_divergences, 0u);
}

TEST(RecoveryTest, MigrateRejectsDeadTargetsAndUnknownLips) {
  Simulator sim;
  SymphonyCluster cluster(&sim, RecoveryCluster(1, RecoveryMode::kAuto));
  RegisterTools(cluster);
  SymphonyCluster::ClusterLip id = cluster.Launch("agent", "", MakeAgent(1));
  EXPECT_FALSE(cluster.Migrate(id, 99).ok());
  EXPECT_FALSE(cluster.Migrate(id, id.replica).ok());
  SymphonyCluster::ClusterLip bogus{0, 123, 9999};
  EXPECT_FALSE(cluster.Migrate(bogus, 1).ok());
  sim.Run();
}

// ---- IPC-coupled LIPs co-migrate and replay through real channels ------

TEST(RecoveryTest, IpcPairSurvivesReplicaKill) {
  LipProgram producer = [](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> d =
        co_await ctx.pred(kv, ctx.tokenizer().Encode("w4 w5"));
    if (!d.ok()) {
      co_return;
    }
    TokenId t = d->back().Argmax();
    for (int i = 0; i < 4; ++i) {
      co_await ctx.send("pipe", "msg" + std::to_string(t + i));
      co_await ctx.sleep(Millis(1));
    }
    ctx.emit("sent");
    co_return;
  };
  LipProgram consumer = [](LipContext& ctx) -> Task {
    for (int i = 0; i < 4; ++i) {
      StatusOr<std::string> msg = co_await ctx.recv("pipe");
      if (!msg.ok()) {
        co_return;
      }
      ctx.emit(*msg + ";");
    }
    co_return;
  };
  auto run = [&](bool kill) {
    Simulator sim;
    ClusterOptions options = RecoveryCluster(3, RecoveryMode::kAuto);
    options.routing = RoutingPolicy::kCacheAffinity;  // Same key → same replica.
    SymphonyCluster cluster(&sim, options);
    SymphonyCluster::ClusterLip prod =
        cluster.Launch("producer", "pair", producer);
    SymphonyCluster::ClusterLip cons =
        cluster.Launch("consumer", "pair", consumer);
    EXPECT_EQ(prod.replica, cons.replica);
    if (kill) {
      sim.ScheduleAt(Micros(2500), [&cluster, prod] {
        (void)cluster.KillReplica(prod.replica);
      });
    }
    sim.Run();
    EXPECT_TRUE(cluster.Done(prod));
    EXPECT_TRUE(cluster.Done(cons));
    EXPECT_EQ(cluster.Snapshot().replay_divergences, 0u);
    return cluster.Output(prod) + "|" + cluster.Output(cons);
  };
  std::string baseline = run(false);
  std::string killed = run(true);
  EXPECT_FALSE(baseline.empty());
  EXPECT_EQ(killed, baseline);
}

// ---- Routing and rebalancing ------------------------------------------

TEST(RecoveryTest, RouterSkipsDeadReplicas) {
  Simulator sim;
  ClusterOptions options = RecoveryCluster(5, RecoveryMode::kAuto);
  options.replicas = 3;
  SymphonyCluster cluster(&sim, options);
  ASSERT_TRUE(cluster.KillReplica(1).ok());
  EXPECT_TRUE(cluster.replica_dead(1));
  for (int i = 0; i < 9; ++i) {
    EXPECT_NE(cluster.RouteFor(""), 1u);
  }
  // Affinity keys that hash to the dead replica fall through to a live one.
  for (int k = 0; k < 20; ++k) {
    ClusterOptions affinity_options = options;
    EXPECT_NE(cluster.RouteFor("key-" + std::to_string(k)), 1u);
  }
  EXPECT_FALSE(cluster.KillReplica(1).ok());  // Already dead.
}

TEST(RecoveryTest, RebalanceShedsOverloadedReplica) {
  Simulator sim;
  ClusterOptions options = RecoveryCluster(11, RecoveryMode::kAuto);
  options.routing = RoutingPolicy::kCacheAffinity;
  SymphonyCluster cluster(&sim, options);
  RegisterTools(cluster);
  std::vector<SymphonyCluster::ClusterLip> ids;
  for (int i = 0; i < 6; ++i) {
    // One affinity key: all six land on the same replica.
    ids.push_back(cluster.Launch("agent" + std::to_string(i), "hot-key",
                                 MakeAgent(3)));
  }
  size_t loaded = ids[0].replica;
  sim.RunUntil(Millis(5));
  size_t moved = cluster.Rebalance();
  EXPECT_GT(moved, 0u);
  sim.Run();
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.migrations, moved);
  EXPECT_EQ(snap.replay_divergences, 0u);
  size_t elsewhere = 0;
  for (const SymphonyCluster::ClusterLip& id : ids) {
    EXPECT_TRUE(cluster.Done(id));
    EXPECT_FALSE(cluster.Output(id).empty());
    if (cluster.Locate(id).replica != loaded) {
      ++elsewhere;
    }
  }
  EXPECT_EQ(elsewhere, moved);
}

// Under kAffinityBounded, overflows past the threshold run a Rebalance pass
// at the next launch. Five long agents share one key and three short ones
// another; once the short ones finish, a late launch on the hot key
// overflows to the emptied replica and the pass moves a long agent there
// too. The outputs match a run with overflow rebalancing off.
TEST(RecoveryTest, OverflowTriggersRebalance) {
  // Keys chosen by their hash, not by RouteFor: on an empty cluster the
  // bound is below one LIP, so every first launch overflows and a key
  // search through the router never reaches the second replica.
  std::string hot;
  std::string cold;
  for (int k = 0; hot.empty() || cold.empty(); ++k) {
    std::string key = "key-" + std::to_string(k);
    std::string& slot = Fnv1a(key) % 2 == 0 ? hot : cold;
    if (slot.empty()) {
      slot = key;
    }
  }
  auto run = [&hot, &cold](bool rebalance) {
    Simulator sim;
    ClusterOptions options = RecoveryCluster(17, RecoveryMode::kAuto);
    options.routing = RoutingPolicy::kAffinityBounded;
    options.rebalance_on_overflow = rebalance;
    options.overflow_threshold = 1;
    options.overflow_cooldown = Millis(1);
    SymphonyCluster cluster(&sim, options);
    RegisterTools(cluster);
    // Interleaved, the bound places all five long agents on the hot key's
    // replica and the three short ones on the other.
    std::vector<SymphonyCluster::ClusterLip> ids;
    for (int i = 0; i < 8; ++i) {
      bool short_agent = i % 2 == 1 && i < 6;
      ids.push_back(cluster.Launch(
          (short_agent ? "short" : "long") + std::to_string(i),
          short_agent ? cold : hot, MakeAgent(short_agent ? 1 : 10)));
    }
    sim.ScheduleAt(Millis(30), [&cluster, &ids, &hot] {
      ids.push_back(cluster.Launch("late", hot, MakeAgent(2)));
    });
    sim.Run();
    std::string outputs;
    for (const SymphonyCluster::ClusterLip& id : ids) {
      EXPECT_TRUE(cluster.Done(id));
      outputs += cluster.Output(id) + "|";
    }
    return std::make_pair(outputs, cluster.Snapshot());
  };
  auto [outputs, snap] = run(true);
  EXPECT_GE(snap.overflow_rebalances, 1u);
  EXPECT_GE(snap.migrations, 1u);
  EXPECT_EQ(snap.replay_divergences, 0u);
  auto [unbalanced_outputs, unbalanced] = run(false);
  EXPECT_EQ(unbalanced.overflow_rebalances, 0u);
  EXPECT_EQ(outputs, unbalanced_outputs);
}

// ---- KVFS snapshot export/import --------------------------------------

TEST(RecoveryTest, KvfsSnapshotRoundTrip) {
  KvfsOptions fs_options;
  Kvfs source(fs_options);
  KvHandle handle = *source.CreateAnonymous(kAdminLip);
  std::vector<TokenRecord> records;
  for (uint32_t i = 0; i < 40; ++i) {
    records.push_back(TokenRecord{static_cast<TokenId>(i + 5),
                                  static_cast<int32_t>(i),
                                  0x1234ULL + i});
  }
  ASSERT_TRUE(source.Append(handle, records).ok());
  StatusOr<KvFileSnapshot> snapshot = source.ExportSnapshot(handle);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->records.size(), records.size());
  EXPECT_EQ(source.stats().snapshot_exports, 1u);

  Kvfs target(fs_options);
  StatusOr<KvHandle> imported = target.ImportSnapshot(*snapshot, kAdminLip);
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(*target.Length(*imported), records.size());
  for (uint32_t i = 0; i < records.size(); ++i) {
    TokenRecord rec = *target.Read(*imported, i);
    EXPECT_EQ(rec.token, records[i].token);
    EXPECT_EQ(rec.position, records[i].position);
    EXPECT_EQ(rec.state, records[i].state);
  }
  // Host-tier by default: restore pays PCIe lazily, not at import time.
  KvFileInfo info = *target.Stat(*imported);
  EXPECT_EQ(info.gpu_pages, 0u);
  EXPECT_GT(info.host_pages, 0u);
  EXPECT_EQ(target.stats().snapshot_imports, 1u);
  EXPECT_EQ(target.stats().imported_tokens, records.size());
}

// ---- Cost-model choice -------------------------------------------------

TEST(RecoveryTest, ImportBeatsRecomputeForLargeContexts) {
  CostModel cost(ModelConfig::Llama13B());
  EXPECT_LT(Replayer::ImportCost(cost, 1000),
            Replayer::RecomputeCost(cost, 1000));
  EXPECT_EQ(Replayer::Choose(cost, 1000), RecoveryMode::kImportSnapshot);
  EXPECT_EQ(Replayer::Choose(cost, 0), RecoveryMode::kRecompute);
}

// ---- Journal bookkeeping ----------------------------------------------

// ---- Checkpoint truncation + delta migration (src/store) ---------------

constexpr uint64_t kCheckpointInterval = 8;

ClusterOptions CheckpointCluster(uint64_t seed, bool delta) {
  ClusterOptions options = RecoveryCluster(seed, RecoveryMode::kAuto);
  options.checkpoint_journals = true;
  options.checkpoint_interval = kCheckpointInterval;
  options.delta_migration = delta;
  return options;
}

struct CheckpointRun {
  std::string output;
  SimTime finish = 0;
  SymphonyCluster::ClusterSnapshot snap;
  uint64_t max_live_seen = 0;   // Peak live entries a mid-run probe saw.
  size_t store_snapshots = 0;   // Snapshots still referenced at the end.
};

// Runs one checkpointed agent, probing its journal's resident entry count
// every 500us; optionally kills its replica mid-run.
CheckpointRun RunCheckpointedAgent(uint64_t seed, bool delta,
                                   std::optional<double> kill_frac,
                                   SimTime baseline_finish,
                                   bool stop_at_eos = true) {
  Simulator sim;
  SymphonyCluster cluster(&sim, CheckpointCluster(seed, delta));
  RegisterTools(cluster);
  SymphonyCluster::ClusterLip id =
      cluster.Launch("agent", "", MakeAgent(4, stop_at_eos));
  CheckpointRun run;
  bool killed = false;
  std::function<void()> probe = [&] {
    if (cluster.Done(id)) {
      return;
    }
    SymphonyCluster::ClusterLip where = cluster.Locate(id);
    if (!cluster.replica_dead(where.replica)) {
      std::shared_ptr<SyscallJournal> journal =
          cluster.replica(where.replica).runtime().Journal(where.lip);
      // Skip the transient rehydrated state right after a failover replay:
      // the first post-replay append folds it back under the bound.
      if (journal != nullptr && !killed) {
        run.max_live_seen = std::max(run.max_live_seen,
                                     journal->live_entries());
      }
    }
    sim.ScheduleAfter(Micros(500), probe);
  };
  sim.ScheduleAfter(Micros(500), probe);
  if (kill_frac.has_value()) {
    SimTime kill_at =
        static_cast<SimTime>(*kill_frac * static_cast<double>(baseline_finish));
    sim.ScheduleAt(kill_at, [&cluster, &killed, id] {
      killed = true;
      (void)cluster.KillReplica(id.replica);
    });
  }
  sim.Run();
  EXPECT_TRUE(cluster.Done(id));
  run.output = cluster.Output(id);
  run.finish = sim.now();
  run.snap = cluster.Snapshot();
  run.store_snapshots = cluster.store().snapshot_count();
  EXPECT_EQ(run.snap.replay_divergences, 0u);
  return run;
}

class CheckpointPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// The satellite property: with truncation on, the journal's resident entry
// count stays bounded (<= 2x the checkpoint interval) for the whole run, and
// replay after a random-time kill is still bit-identical — the truncated
// prefix comes back from the store, not from luck. The agent ignores EOS and
// runs all its turns, so every seed's journal crosses the checkpoint
// interval (one that samples EOS early would never fold).
TEST_P(CheckpointPropertyTest, TruncationBoundsJournalAndKillStaysBitIdentical) {
  uint64_t seed = GetParam();
  RunResult plain = RunAgent(seed, RecoveryMode::kAuto, std::nullopt, 0,
                             /*stop_at_eos=*/false);
  ASSERT_FALSE(plain.output.empty());

  // Checkpointing must not perturb execution: same output, journal bounded.
  CheckpointRun baseline = RunCheckpointedAgent(
      seed, /*delta=*/true, std::nullopt, 0, /*stop_at_eos=*/false);
  EXPECT_EQ(baseline.output, plain.output);
  EXPECT_GT(baseline.snap.checkpoints, 0u);
  EXPECT_GT(baseline.snap.checkpoint_entries_folded, 0u);
  EXPECT_LE(baseline.max_live_seen, 2 * kCheckpointInterval);
  // Completed LIPs release their checkpoints: nothing leaks in the store.
  EXPECT_EQ(baseline.store_snapshots, 0u);

  // Kill at a seed-derived random time: replay from (checkpoint + suffix).
  Rng kill_rng(seed ^ 0xC0FFEEULL);
  double frac = 0.05 + 0.85 * kill_rng.NextDouble();
  CheckpointRun after_kill = RunCheckpointedAgent(
      seed, /*delta=*/true, frac, plain.finish, /*stop_at_eos=*/false);
  EXPECT_EQ(after_kill.output, plain.output) << "seed=" << seed
                                             << " kill_frac=" << frac;
  EXPECT_EQ(after_kill.snap.failovers, 1u);
  EXPECT_EQ(after_kill.store_snapshots, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointPropertyTest,
                         ::testing::ValuesIn(StressSeeds(
                             {201, 202, 203, 204, 205, 206}, 0xC4)));

TEST(RecoveryTest, DeltaMigrationShipsFewerBytesThanFullReplay) {
  uint64_t seed = 77;
  RunResult plain = RunAgent(seed, RecoveryMode::kAuto, std::nullopt, 0);
  ASSERT_FALSE(plain.output.empty());
  CheckpointRun delta =
      RunCheckpointedAgent(seed, /*delta=*/true, 0.7, plain.finish);
  CheckpointRun full =
      RunCheckpointedAgent(seed, /*delta=*/false, 0.7, plain.finish);
  // Same recovery, either way.
  EXPECT_EQ(delta.output, plain.output);
  EXPECT_EQ(full.output, plain.output);
  // The delta run shipped only the live suffix; the full run re-shipped the
  // whole rehydrated log.
  EXPECT_EQ(delta.snap.delta_ships, 1u);
  EXPECT_EQ(delta.snap.full_ships, 0u);
  EXPECT_EQ(full.snap.delta_ships, 0u);
  EXPECT_EQ(full.snap.full_ships, 1u);
  EXPECT_LT(delta.snap.ship_bytes, full.snap.ship_bytes);
}

TEST(RecoveryTest, ReplayRejectsTruncatedJournalUntilRehydrated) {
  // A journal with a truncated prefix must be rejected by replay — silently
  // replaying only the live suffix would diverge.
  Simulator sim;
  ServerOptions options;
  options.model = ModelConfig::Tiny();
  SymphonyServer server(&sim, options);
  LipProgram idle = [](LipContext& ctx) -> Task {
    co_await ctx.sleep(Millis(1));
    co_return;
  };
  LipId lip = server.runtime().Launch("idle", idle);
  auto journal = std::make_shared<SyscallJournal>();
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kSleep;
  entry.duration = Millis(1);
  journal->Append("0", entry);
  journal->FoldPrefix(/*key=*/123);
  server.runtime().EnableJournal(lip, journal);
  ModelConfig config = ModelConfig::Tiny();
  Status began =
      server.runtime().BeginReplay(lip, RecoveryMode::kRecompute, &config);
  EXPECT_EQ(began.code(), StatusCode::kFailedPrecondition);
  sim.Run();
}

TEST(RecoveryTest, JournalRecordsSyscallsPerThreadPath) {
  Simulator sim;
  SymphonyCluster cluster(&sim, RecoveryCluster(21, RecoveryMode::kAuto));
  RegisterTools(cluster);
  SymphonyCluster::ClusterLip id = cluster.Launch("agent", "", MakeAgent(2));
  sim.Run();
  std::shared_ptr<SyscallJournal> journal =
      cluster.replica(id.replica).runtime().Journal(id.lip);
  ASSERT_NE(journal, nullptr);
  EXPECT_GT(journal->total_entries(), 0u);
  EXPECT_GT(journal->pred_tokens(), 0u);
  EXPECT_GT(journal->EntryCount("0"), 0u);  // Root thread path.
  EXPECT_EQ(journal->name, "agent");
}

}  // namespace
}  // namespace symphony
