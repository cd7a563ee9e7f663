// Tests for src/recovery: syscall journaling, replay, KVFS snapshots, and
// cluster fault injection / live migration.
//
// The acceptance property (ISSUE 1): a LIP killed mid-generation and
// replayed on another replica produces bit-identical final output to an
// uninterrupted run — property-tested across seeds, random kill times, and
// all recovery modes.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
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
  struct QuotaRun {
    std::string output;
    uint64_t used = 0;  // Pred tokens charged where the LIP finished.
    SimTime finish = 0;
    SymphonyCluster::ClusterSnapshot snap;
  };
  // kill_at 0: no kill.
  auto run = [](SimTime kill_at) {
    Simulator sim;
    SymphonyCluster cluster(&sim, RecoveryCluster(7, RecoveryMode::kAuto));
    RegisterTools(cluster);
    SymphonyCluster::ClusterLip id = cluster.Launch("limited", "", MakeAgent(8));
    LipQuota quota;
    quota.max_pred_tokens = 14;  // Cuts generation short mid-turn.
    cluster.replica(id.replica).runtime().SetQuota(id.lip, quota);
    if (kill_at > 0) {
      sim.ScheduleAt(kill_at,
                     [&cluster, id] { (void)cluster.KillReplica(id.replica); });
    }
    sim.Run();
    EXPECT_TRUE(cluster.Done(id));
    QuotaRun r;
    r.output = cluster.Output(id);
    SymphonyCluster::ClusterLip where = cluster.Locate(id);
    r.used =
        cluster.replica(where.replica).runtime().GetUsage(where.lip).pred_tokens;
    r.finish = sim.now();
    r.snap = cluster.Snapshot();
    return r;
  };
  QuotaRun baseline = run(0);
  ASSERT_GT(baseline.finish, 0);
  // Killed halfway through the unkilled run, the LIP is still running (it
  // stops at its token limit), so it fails over and replays.
  QuotaRun killed = run(baseline.finish / 2);
  EXPECT_EQ(killed.snap.failovers, 1u);
  EXPECT_EQ(killed.snap.lips_replayed, 1u);
  // The quota bit: replay re-runs the accounting under the journaled limit,
  // so usage on the new replica equals the uninterrupted run's — the kill
  // resets nothing.
  EXPECT_EQ(killed.used, baseline.used);
  EXPECT_LE(killed.used, 14u);
  EXPECT_EQ(killed.output, baseline.output);
}

// ---- Limits across replay (the journal's quota and deadline) ------------

// Prefills a prompt, then decodes one token per pred until a pred fails (or
// 64 have run) and emits the failure's code, the tokens its file holds and
// its page count. Then it sleeps past its deadline and emits the code of a
// tool call.
LipProgram MakePageBoundAgent() {
  return [](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    std::vector<TokenId> prompt = ctx.tokenizer().Encode("w1 w2 w3");
    uint64_t length = prompt.size();
    StatusOr<std::vector<Distribution>> d = co_await ctx.pred(kv, prompt);
    for (int i = 0; i < 64 && d.ok(); ++i) {
      TokenId next = d->back().Sample(ctx.uniform(), 0.8);
      ctx.emit(ctx.tokenizer().TokenToString(next) + " ");
      d = co_await ctx.pred1(kv, next);
      length += d.ok() ? 1 : 0;
    }
    ctx.emit("[code " + std::to_string(static_cast<int>(d.status().code())) + " at " +
             std::to_string(length) + ", " + std::to_string(ctx.usage().kv_pages) +
             " pages]");
    co_await ctx.sleep(Millis(200));
    StatusOr<std::string> late = co_await ctx.call_tool("calc", "1 + 1");
    ctx.emit("[late code " + std::to_string(static_cast<int>(late.status().code())) + "]");
  };
}

struct BoundRun {
  std::string output;
  bool moved = false;  // It ended on another replica than it started on.
  bool deadline_expired = false;
  uint64_t failovers = 0;
};

// Submits MakePageBoundAgent with a 100 ms deadline and gives it a 2-page
// limit; with `kill`, kills its replica once its first pred is journaled.
BoundRun RunPageBound(RecoveryMode mode, bool kill) {
  Simulator sim;
  SymphonyCluster cluster(&sim, RecoveryCluster(5, mode));
  RegisterTools(cluster);
  SymphonyServer::LaunchSpec spec;
  spec.name = "bound";
  spec.program = MakePageBoundAgent();
  spec.deadline = Millis(100);
  SymphonyCluster::ClusterAdmitResult admit = cluster.Submit(std::move(spec));
  EXPECT_TRUE(admit.result.status.ok());
  EXPECT_FALSE(admit.result.queued);
  SymphonyCluster::ClusterLip id{admit.replica, admit.result.lip, admit.uid};
  LipRuntime& runtime = cluster.replica(id.replica).runtime();
  LipQuota quota;
  quota.max_kv_pages = 2;
  runtime.SetQuota(id.lip, quota);
  std::shared_ptr<SyscallJournal> journal = runtime.Journal(id.lip);
  std::function<void()> kill_after_first_pred = [&] {
    if (journal->pred_tokens() == 0) {
      sim.ScheduleAfter(Micros(10), kill_after_first_pred);
      return;
    }
    EXPECT_FALSE(cluster.Done(id));
    EXPECT_TRUE(cluster.KillReplica(id.replica).ok());
  };
  if (kill) {
    sim.ScheduleAfter(Micros(10), kill_after_first_pred);
  }
  sim.Run();
  EXPECT_TRUE(cluster.Done(id));
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.replay_divergences, 0u);
  SymphonyCluster::ClusterLip where = cluster.Locate(id);
  BoundRun run;
  run.output = cluster.Output(id);
  run.moved = where.replica != id.replica;
  run.deadline_expired = cluster.replica(where.replica).runtime().DeadlineExpired(where.lip);
  run.failovers = snap.failovers;
  return run;
}

// A replayed LIP resumes under the limits it was admitted with: on the
// survivor, the pred that needs a third page fails with kQuotaExceeded at the
// length the unkilled run reached, and the deadline still fires.
TEST(RecoveryTest, PageLimitAndDeadlineSurviveReplay) {
  const std::string quota_failure =
      "[code " + std::to_string(static_cast<int>(StatusCode::kQuotaExceeded)) +
      " at 32, 2 pages]";
  const std::string late_failure =
      "[late code " + std::to_string(static_cast<int>(StatusCode::kDeadlineExceeded)) + "]";
  for (RecoveryMode mode : {RecoveryMode::kRecompute, RecoveryMode::kImportSnapshot}) {
    BoundRun baseline = RunPageBound(mode, /*kill=*/false);
    EXPECT_NE(baseline.output.find(quota_failure + late_failure), std::string::npos)
        << baseline.output;
    EXPECT_TRUE(baseline.deadline_expired);
    EXPECT_EQ(baseline.failovers, 0u);

    BoundRun killed = RunPageBound(mode, /*kill=*/true);
    std::string where = std::string("mode=") + RecoveryModeName(mode);
    EXPECT_EQ(killed.failovers, 1u) << where;
    EXPECT_TRUE(killed.moved) << where;
    EXPECT_EQ(killed.output, baseline.output) << where;
    EXPECT_TRUE(killed.deadline_expired) << where;
  }
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

// Import replay rebuilds a file from the journal's records, whose positions
// come from each pred's journaled start; outputs cannot show a wrong start,
// because the journal carries the states as well. The LIP writes a named
// file with a 5-token pred, a 70-token pred split into 8-token chunks and
// 10 decode steps; its replica is killed once 78 tokens are journaled.
TEST(RecoveryTest, ImportedRecordsKeepTheirPositions) {
  constexpr int kDecodes = 10;
  ClusterOptions options = RecoveryCluster(13, RecoveryMode::kImportSnapshot);
  options.server.scheduler.prefill_chunk_tokens = 8;
  Simulator sim;
  SymphonyCluster cluster(&sim, options);
  SymphonyCluster::ClusterLip id =
      cluster.Launch("writer", "", [](LipContext& ctx) -> Task {
        KvHandle kv = *ctx.kv_create("/positions");
        std::vector<TokenId> head(5, 260);
        StatusOr<std::vector<Distribution>> d = co_await ctx.pred(kv, head);
        std::vector<TokenId> body(70);
        for (size_t i = 0; i < body.size(); ++i) {
          body[i] = static_cast<TokenId>(261 + i);
        }
        d = co_await ctx.pred(kv, body);
        for (int i = 0; i < kDecodes && d.ok(); ++i) {
          d = co_await ctx.pred1(kv, d->back().Argmax());
        }
        ctx.emit(d.ok() ? "ok" : d.status().ToString());
      });
  const size_t first = id.replica;
  std::shared_ptr<SyscallJournal> journal =
      cluster.replica(first).runtime().Journal(id.lip);
  ASSERT_NE(journal, nullptr);
  std::function<void()> kill_at_78 = [&] {
    if (journal->pred_tokens() < 78) {
      sim.ScheduleAfter(Micros(10), kill_at_78);
      return;
    }
    EXPECT_EQ(journal->pred_tokens(), 78u);
    EXPECT_EQ(cluster.replica(first).scheduler().stats().prefills_chunked, 1u);
    EXPECT_TRUE(cluster.KillReplica(first).ok());
  };
  sim.ScheduleAfter(Micros(10), kill_at_78);
  sim.Run();
  ASSERT_TRUE(cluster.Done(id));
  EXPECT_EQ(cluster.Output(id), "ok");
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.failovers, 1u);
  EXPECT_EQ(snap.replay_divergences, 0u);

  SymphonyCluster::ClusterLip where = cluster.Locate(id);
  ASSERT_NE(where.replica, first);
  Kvfs& kvfs = cluster.replica(where.replica).kvfs();
  KvHandle file =
      *kvfs.Open("/positions", OpenOptions{.requester = kAdminLip, .read = true});
  const uint64_t length = *kvfs.Length(file);
  EXPECT_EQ(length, 75u + kDecodes);
  uint64_t misplaced = 0;
  for (uint64_t i = 0; i < length; ++i) {
    StatusOr<TokenRecord> record = kvfs.Read(file, i);
    ASSERT_TRUE(record.ok()) << record.status();
    misplaced += record->position != static_cast<int32_t>(i) ? 1 : 0;
  }
  EXPECT_EQ(misplaced, 0u);
  EXPECT_EQ(kvfs.pool().stats().explicit_pages, 0u);
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
  // Held before the run: the runtime and the cluster drop their references
  // when the LIP exits.
  std::shared_ptr<SyscallJournal> journal =
      cluster.replica(id.replica).runtime().Journal(id.lip);
  sim.Run();
  ASSERT_NE(journal, nullptr);
  EXPECT_GT(journal->total_entries(), 0u);
  EXPECT_GT(journal->pred_tokens(), 0u);
  EXPECT_GT(journal->EntryCount("0"), 0u);  // Root thread path.
  EXPECT_EQ(journal->name, "agent");
}

// ---- Exit records --------------------------------------------------------

// A finished LIP's cluster record drops its journal and program, and the
// runtime drops its own journal reference: only Done, Output and Locate
// answer after exit, with the values they had when the LIP exited.
TEST(RecoveryTest, FinishedLipRecordDropsJournalAndProgram) {
  Simulator sim;
  SymphonyCluster cluster(&sim, RecoveryCluster(5, RecoveryMode::kAuto));
  RegisterTools(cluster);
  auto sentinel = std::make_shared<int>(1);
  std::weak_ptr<int> sentinel_ref = sentinel;
  LipProgram agent = MakeAgent(2);
  SymphonyCluster::ClusterLip id;
  std::string exit_output;
  SymphonyCluster::ClusterLip exit_where;
  id = cluster.Launch(
      "agent", "",
      [agent, sentinel = std::move(sentinel)](LipContext& ctx) {
        return agent(ctx);
      },
      [&](LipId) {
        exit_output = cluster.Output(id);
        exit_where = cluster.Locate(id);
      });
  std::weak_ptr<SyscallJournal> journal_ref =
      cluster.replica(id.replica).runtime().Journal(id.lip);
  ASSERT_FALSE(journal_ref.expired());
  sim.Run();
  EXPECT_TRUE(journal_ref.expired());
  EXPECT_TRUE(sentinel_ref.expired());
  EXPECT_TRUE(cluster.Done(id));
  EXPECT_FALSE(exit_output.empty());
  EXPECT_EQ(cluster.Output(id), exit_output);
  SymphonyCluster::ClusterLip where = cluster.Locate(id);
  EXPECT_EQ(where.replica, exit_where.replica);
  EXPECT_EQ(where.lip, exit_where.lip);
  EXPECT_EQ(where.replica, id.replica);
  EXPECT_EQ(cluster.replica(where.replica).runtime().Journal(where.lip),
            nullptr);
}

// ---- Multi-threaded replay ------------------------------------------------

// The root thread makes `calls` sequential 100 us tool calls and emits each
// result ("echo:ok<i>"); a spawned thread runs `preds` one-token preds on its
// own scratch file. Whichever thread's journal runs dry first goes live while
// the other still replays; its live entries must not be served back to it.
LipProgram MakeToolAndPredThreads(int calls, int preds) {
  return [calls, preds](LipContext& ctx) -> Task {
    ThreadId worker = ctx.spawn([preds](LipContext& c) -> Task {
      KvHandle kv = *c.kv_tmp();
      TokenId next = 5;
      for (int i = 0; i < preds; ++i) {
        StatusOr<std::vector<Distribution>> d = co_await c.pred1(kv, next);
        if (!d.ok()) {
          co_return;
        }
        next = d->back().Argmax();
      }
    });
    for (int i = 0; i < calls; ++i) {
      StatusOr<std::string> out =
          co_await ctx.call_tool("echo", "ok" + std::to_string(i));
      ctx.emit((out.ok() ? *out : out.status().ToString()) + ",");
    }
    co_await ctx.join(worker);
  };
}

struct ThreadedRun {
  std::string output;
  SimTime finish = 0;
  uint64_t divergences = 0;
};

ThreadedRun RunToolAndPredThreads(int calls, int preds, bool checkpoint,
                                  std::optional<SimTime> kill_at) {
  ClusterOptions options = RecoveryCluster(3, RecoveryMode::kRecompute);
  options.checkpoint_journals = checkpoint;
  options.checkpoint_interval = kCheckpointInterval;
  Simulator sim;
  SymphonyCluster cluster(&sim, options);
  for (size_t i = 0; i < cluster.replica_count(); ++i) {
    EXPECT_TRUE(cluster.replica(i)
                    .tools()
                    .Register(ToolRegistry::Echo("echo", Micros(100)))
                    .ok());
  }
  SymphonyCluster::ClusterLip id =
      cluster.Launch("threads", "", MakeToolAndPredThreads(calls, preds));
  if (kill_at.has_value()) {
    sim.ScheduleAt(*kill_at,
                   [&cluster, id] { (void)cluster.KillReplica(id.replica); });
  }
  sim.Run();
  EXPECT_TRUE(cluster.Done(id));
  ThreadedRun run;
  run.output = cluster.Output(id);
  run.finish = sim.now();
  run.divergences = cluster.Snapshot().replay_divergences;
  return run;
}

// A thread's live syscalls land in its own per-path log, so replay must stop
// serving that path at the count it had when replay began; otherwise the
// root reads its previous live result back ("echo:ok5,echo:ok5,") while
// the worker still replays, with replay_divergences 0.
TEST(RecoveryTest, MultiThreadReplayNeverServesLiveEntries) {
  for (bool checkpoint : {false, true}) {
    for (int calls : {10, 20, 30}) {
      for (int preds : {20, 40}) {
        ThreadedRun baseline =
            RunToolAndPredThreads(calls, preds, checkpoint, std::nullopt);
        ASSERT_GT(baseline.finish, 0);
        for (int k = 1; k <= 11; ++k) {
          SimTime kill_at = baseline.finish * k / 12;
          ThreadedRun killed =
              RunToolAndPredThreads(calls, preds, checkpoint, kill_at);
          EXPECT_EQ(killed.output, baseline.output)
              << "checkpoint=" << checkpoint << " calls=" << calls
              << " preds=" << preds << " kill at " << k << "/12";
          EXPECT_EQ(killed.divergences, 0u);
        }
      }
    }
  }
}

// ---- Exactly-once tool calls: handler runs per argument --------------------

// An echo tool that counts its handler's runs per argument. Replay serves
// journaled results without running the handler, so only a call in flight
// at a kill (not yet journaled) may run a second time.
ToolSpec CountingEcho(std::map<std::string, int>* runs) {
  ToolSpec spec;
  spec.name = "count";
  spec.description = "echo that counts its runs per argument";
  spec.handler = [runs](const std::string& args, Rng&) {
    ++(*runs)[args];
    ToolInvocation out;
    out.latency = Micros(100);
    out.output = "v=" + args;
    return out;
  };
  return spec;
}

// Handler runs beyond the first, summed over arguments; each argument may
// run at most twice.
int ExtraRuns(const std::map<std::string, int>& runs) {
  int extra = 0;
  for (const auto& [args, n] : runs) {
    EXPECT_LE(n, 2) << args;
    extra += n - 1;
  }
  return extra;
}

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// ---- No checkpoint fold while a replay holds the journal -----------------

// The root thread makes `calls` tool calls and emits each result; a worker
// alternates a one-token pred with a tool call for `turns` turns and emits
// nothing, so only the root emits (journal.h leaves the emit order of
// unsynchronized threads outside bit-identity). Every call has its own
// argument.
LipProgram MakeRootAndToolWorker(int calls, int turns) {
  return [calls, turns](LipContext& ctx) -> Task {
    ThreadId worker = ctx.spawn([turns](LipContext& c) -> Task {
      KvHandle kv = *c.kv_tmp();
      TokenId next = 5;
      for (int i = 0; i < turns; ++i) {
        StatusOr<std::vector<Distribution>> d = co_await c.pred1(kv, next);
        if (!d.ok()) {
          co_return;
        }
        next = d->back().Argmax();
        (void)co_await c.call_tool("count", "w" + std::to_string(i));
      }
    });
    for (int i = 0; i < calls; ++i) {
      StatusOr<std::string> out =
          co_await ctx.call_tool("count", "r" + std::to_string(i));
      ctx.emit((out.ok() ? *out : out.status().ToString()) + ",");
    }
    co_await ctx.join(worker);
  };
}

struct HeldRun {
  std::string output;
  SimTime finish = 0;
  std::map<std::string, int> runs;  // Handler runs per tool argument.
  size_t replays_begun = 0;         // "restore:" instants.
  size_t replays_finished = 0;      // "replay:" spans (FinishReplay).
};

HeldRun RunRootAndToolWorker(int calls, int turns,
                             std::optional<SimTime> kill_at) {
  ClusterOptions options = RecoveryCluster(3, RecoveryMode::kRecompute);
  options.checkpoint_journals = true;
  options.checkpoint_interval = kCheckpointInterval;
  TraceRecorder trace;
  options.server.trace = &trace;
  Simulator sim;
  HeldRun run;
  SymphonyCluster cluster(&sim, options);
  for (size_t i = 0; i < cluster.replica_count(); ++i) {
    EXPECT_TRUE(
        cluster.replica(i).tools().Register(CountingEcho(&run.runs)).ok());
  }
  SymphonyCluster::ClusterLip id =
      cluster.Launch("held", "", MakeRootAndToolWorker(calls, turns));
  if (kill_at.has_value()) {
    sim.ScheduleAt(*kill_at,
                   [&cluster, id] { (void)cluster.KillReplica(id.replica); });
  }
  sim.Run();
  EXPECT_TRUE(cluster.Done(id));
  run.output = cluster.Output(id);
  run.finish = sim.now();
  std::string json = trace.ToChromeJson();
  run.replays_begun = CountOf(json, "\"name\":\"restore:held@");
  run.replays_finished = CountOf(json, "\"name\":\"replay:held\"");
  return run;
}

// A checkpoint fold during a multi-threaded replay truncated entries that
// another thread had not replayed yet; that thread then re-ran its
// journaled tool calls live (up to 23 extra handler runs) and its replay
// never finished. Each thread has at most one call in flight at the kill,
// so at most two arguments may run twice. The base seeds are the three
// sizes the defect was measured at, killed at k/12 of the unkilled finish;
// each stress seed draws a size and three kill points.
class ReplayHoldSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplayHoldSweepTest, CheckpointedThreadsRunEachToolCallAtMostOnceMore) {
  uint64_t seed = GetParam();
  int calls = 0;
  int turns = 0;
  std::vector<double> kill_fracs;
  if (seed < 3) {
    constexpr int kSizes[3][2] = {{10, 10}, {30, 20}, {60, 40}};
    calls = kSizes[seed][0];
    turns = kSizes[seed][1];
    for (int k = 1; k <= 11; ++k) {
      kill_fracs.push_back(k / 12.0);
    }
  } else {
    Rng rng(seed);
    calls = 5 + static_cast<int>(rng.NextU64() % 56);
    turns = 5 + static_cast<int>(rng.NextU64() % 36);
    for (int k = 0; k < 3; ++k) {
      kill_fracs.push_back(0.05 + 0.9 * rng.NextDouble());
    }
  }
  HeldRun baseline = RunRootAndToolWorker(calls, turns, std::nullopt);
  ASSERT_EQ(baseline.runs.size(), static_cast<size_t>(calls + turns));
  EXPECT_EQ(ExtraRuns(baseline.runs), 0);
  for (double frac : kill_fracs) {
    SimTime kill_at =
        static_cast<SimTime>(frac * static_cast<double>(baseline.finish));
    HeldRun killed = RunRootAndToolWorker(calls, turns, kill_at);
    EXPECT_EQ(killed.output, baseline.output);
    EXPECT_EQ(killed.runs.size(), baseline.runs.size());
    EXPECT_LE(ExtraRuns(killed.runs), 2)
        << "calls=" << calls << " turns=" << turns << " kill_frac=" << frac;
    EXPECT_EQ(killed.replays_begun, 1u);
    EXPECT_EQ(killed.replays_finished, killed.replays_begun)
        << "calls=" << calls << " turns=" << turns << " kill_frac=" << frac;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayHoldSweepTest,
                         ::testing::ValuesIn(StressSeeds({0, 1, 2}, 0x401D)));

// ---- LIPs admitted through Submit are journaled --------------------------

// A tool agent whose every call has its own argument (its name and turn).
LipProgram MakeCountingAgent(std::string name, int turns) {
  return [name, turns](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    std::vector<TokenId> prompt = ctx.tokenizer().Encode("w1 w2 w3");
    StatusOr<std::vector<Distribution>> dists = co_await ctx.pred(kv, prompt);
    if (!dists.ok()) {
      co_return;
    }
    TokenId next = dists->back().Sample(ctx.uniform(), 0.8);
    for (int turn = 0; turn < turns; ++turn) {
      for (int i = 0; i < 4; ++i) {
        ctx.emit(ctx.tokenizer().TokenToString(next) + " ");
        StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, next);
        if (!d.ok()) {
          co_return;
        }
        next = d->back().Sample(ctx.uniform(), 0.8);
      }
      StatusOr<std::string> out =
          co_await ctx.call_tool("count", name + "." + std::to_string(turn));
      if (out.ok()) {
        ctx.emit("[" + *out + "]");
      }
    }
  };
}

enum class SubmitFault { kNone, kKill, kDrain, kCrash };

struct SubmitRun {
  SimTime finish = 0;
  std::vector<std::string> immediate;  // Outputs of the LIPs launched at once.
  std::map<std::string, int> exits;    // on_exit calls per LIP.
  std::map<std::string, int> runs;     // Handler runs per tool argument.
  uint64_t failovers = 0;
  uint64_t divergences = 0;
};

constexpr int kSubmitted = 6;

// Submits kSubmitted agents under one affinity key to a 2-replica cluster
// whose admission control runs 2 at once and queues the rest, then kills,
// drains or silently crashes (control plane on) the routed replica at
// `fault_at`.
SubmitRun RunSubmitted(uint64_t seed, SubmitFault fault, SimTime fault_at) {
  Simulator sim;
  ClusterOptions options = RecoveryCluster(seed, RecoveryMode::kAuto);
  options.routing = RoutingPolicy::kCacheAffinity;
  options.server.admission.enabled = true;
  options.server.admission.max_live_lips = 2;
  if (fault == SubmitFault::kCrash) {
    options.ctrl.enabled = true;
    options.ctrl.heartbeat_period = Millis(2);
    options.ctrl.suspect_after = Millis(4);
    options.ctrl.lease = Millis(7);
    options.ctrl.declare_dead_after = Millis(10);
    options.ctrl.sweep_period = Millis(2);
  }
  SubmitRun run;
  options.configure_replica = [&run](SymphonyServer& server, size_t) {
    ASSERT_TRUE(server.tools().Register(CountingEcho(&run.runs)).ok());
  };
  SymphonyCluster cluster(&sim, options);
  std::vector<SymphonyCluster::ClusterAdmitResult> admits;
  for (int i = 0; i < kSubmitted; ++i) {
    std::string name = "s" + std::to_string(i);
    SymphonyServer::LaunchSpec spec;
    spec.name = name;
    spec.program = MakeCountingAgent(name, 2 + i % 3);
    spec.on_exit = [&run, name](LipId) { ++run.exits[name]; };
    admits.push_back(cluster.Submit(std::move(spec), "hot"));
    EXPECT_TRUE(admits.back().result.status.ok());
    EXPECT_EQ(admits.back().result.queued, i >= 2);
  }
  size_t routed = admits[0].replica;
  sim.ScheduleAt(fault_at, [&cluster, fault, routed] {
    switch (fault) {
      case SubmitFault::kNone:
        break;
      case SubmitFault::kKill:
        EXPECT_TRUE(cluster.KillReplica(routed).ok());
        break;
      case SubmitFault::kDrain:
        EXPECT_TRUE(cluster.DrainReplica(routed).ok());
        break;
      case SubmitFault::kCrash:
        EXPECT_TRUE(cluster.CrashReplica(routed).ok());
        break;
    }
  });
  sim.Run();
  for (const SymphonyCluster::ClusterAdmitResult& admit : admits) {
    if (!admit.result.queued) {
      EXPECT_NE(admit.uid, 0u);
      run.immediate.push_back(cluster.Output(
          SymphonyCluster::ClusterLip{admit.replica, admit.result.lip,
                                      admit.uid}));
    }
  }
  run.finish = sim.now();
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  run.failovers = snap.failovers;
  run.divergences = snap.replay_divergences;
  return run;
}

// Every LIP admitted through Submit, at once or from the admission queue,
// is journaled: a kill, a drain or a detected crash of its replica replays
// it elsewhere, a LIP still queued there is re-admitted, and each exits
// exactly once. The LIPs launched at once keep their uids (and uid-derived
// seeds), so their outputs equal the unfaulted run's. At most one call per
// LIP running on the faulted replica (2) is in flight at the fault.
class SubmitRecoveryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubmitRecoveryTest, SubmittedLipsSurviveKillDrainAndCrash) {
  uint64_t seed = GetParam();
  SubmitRun baseline = RunSubmitted(seed, SubmitFault::kNone, 0);
  ASSERT_EQ(baseline.exits.size(), static_cast<size_t>(kSubmitted));
  ASSERT_EQ(baseline.immediate.size(), 2u);
  EXPECT_EQ(ExtraRuns(baseline.runs), 0);
  for (SubmitFault fault :
       {SubmitFault::kKill, SubmitFault::kDrain, SubmitFault::kCrash}) {
    for (double frac : {0.15, 0.45, 0.75}) {
      SimTime fault_at =
          static_cast<SimTime>(frac * static_cast<double>(baseline.finish));
      SubmitRun run = RunSubmitted(seed, fault, fault_at);
      std::string where = "fault=" + std::to_string(static_cast<int>(fault)) +
                          " frac=" + std::to_string(frac);
      for (int i = 0; i < kSubmitted; ++i) {
        EXPECT_EQ(run.exits["s" + std::to_string(i)], 1) << where << " s" << i;
      }
      EXPECT_EQ(run.immediate, baseline.immediate) << where;
      EXPECT_EQ(run.runs.size(), baseline.runs.size()) << where;
      EXPECT_LE(ExtraRuns(run.runs), 2) << where;
      EXPECT_EQ(run.divergences, 0u) << where;
      if (fault != SubmitFault::kDrain) {
        EXPECT_GT(run.failovers, 0u) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubmitRecoveryTest,
                         ::testing::ValuesIn(StressSeeds({1, 2, 3}, 0x5B17)));

// ---- A call the deadline rejected stays rejected on replay ---------------

// Prefills, sleeps past its 10 ms deadline and makes the calls the deadline
// rejects (with `pred_first`, a one-token pred before the tool call),
// emitting each one's code, then sleeps 1 ms and 50 ms. A rejected call is
// never journaled, so the journal's entry after it is the 1 ms sleep.
LipProgram MakeLateCaller(bool pred_first) {
  return [pred_first](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    std::vector<TokenId> prompt = ctx.tokenizer().Encode("w1 w2 w3");
    (void)co_await ctx.pred(kv, prompt);
    co_await ctx.sleep(Millis(20));
    if (pred_first) {
      StatusOr<std::vector<Distribution>> late = co_await ctx.pred1(kv, 5);
      ctx.emit("[pred " + std::string(StatusCodeName(late.status().code())) + "]");
    }
    StatusOr<std::string> out = co_await ctx.call_tool("count", "late");
    ctx.emit("[tool " + std::string(StatusCodeName(out.status().code())) + "]");
    co_await ctx.sleep(Millis(1));
    co_await ctx.sleep(Millis(50));
    ctx.emit("[done]");
  };
}

struct LateRun {
  std::string output;
  int handler_runs = 0;
  uint64_t failovers = 0;
  uint64_t divergences = 0;
};

// Submits MakeLateCaller with a 10 ms deadline; with `kill`, kills its
// replica at 40 ms, during the 50 ms sleep.
LateRun RunLateCaller(RecoveryMode mode, bool pred_first, bool kill) {
  ClusterOptions options = RecoveryCluster(9, mode);
  std::map<std::string, int> runs;
  options.configure_replica = [&runs](SymphonyServer& server, size_t) {
    ASSERT_TRUE(server.tools().Register(CountingEcho(&runs)).ok());
  };
  Simulator sim;
  SymphonyCluster cluster(&sim, options);
  SymphonyServer::LaunchSpec spec;
  spec.name = "late";
  spec.program = MakeLateCaller(pred_first);
  spec.deadline = Millis(10);
  SymphonyCluster::ClusterAdmitResult admit = cluster.Submit(std::move(spec));
  EXPECT_TRUE(admit.result.status.ok());
  SymphonyCluster::ClusterLip id{admit.replica, admit.result.lip, admit.uid};
  if (kill) {
    sim.ScheduleAt(Millis(40), [&cluster, id] {
      EXPECT_FALSE(cluster.Done(id));
      EXPECT_TRUE(cluster.KillReplica(id.replica).ok());
    });
  }
  sim.Run();
  EXPECT_TRUE(cluster.Done(id));
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  LateRun run;
  run.output = cluster.Output(id);
  run.handler_runs = runs["late"];
  run.failovers = snap.failovers;
  run.divergences = snap.replay_divergences;
  return run;
}

// The replay exempts a syscall from the expired deadline only when the
// journal's next entry is of its kind: the calls the original run rejected
// are rejected again, and the tool's handler never runs.
TEST(RecoveryTest, DeadlineRejectionsStayRejectedOnReplay) {
  for (bool pred_first : {false, true}) {
    const std::string expected =
        std::string(pred_first ? "[pred DEADLINE_EXCEEDED]" : "") +
        "[tool DEADLINE_EXCEEDED][done]";
    for (RecoveryMode mode : {RecoveryMode::kRecompute, RecoveryMode::kImportSnapshot}) {
      std::string where = std::string("mode=") + RecoveryModeName(mode) +
                          " pred_first=" + (pred_first ? "1" : "0");
      LateRun baseline = RunLateCaller(mode, pred_first, /*kill=*/false);
      EXPECT_EQ(baseline.output, expected) << where;
      EXPECT_EQ(baseline.handler_runs, 0) << where;
      EXPECT_EQ(baseline.failovers, 0u) << where;

      LateRun killed = RunLateCaller(mode, pred_first, /*kill=*/true);
      EXPECT_EQ(killed.output, expected) << where;
      EXPECT_EQ(killed.handler_runs, 0) << where;
      EXPECT_EQ(killed.failovers, 1u) << where;
      EXPECT_EQ(killed.divergences, 0u) << where;
    }
  }
}

// ---- A syscall of another kind ends the replay ----------------------------

using Call = JournalEntry::Kind;

const char* CallName(Call call) {
  switch (call) {
    case Call::kPred:
      return "pred";
    case Call::kTool:
      return "tool";
    case Call::kSleep:
      return "sleep";
    case Call::kRecv:
      return "recv";
    case Call::kSend:
      return "send";
  }
  return "?";
}

// Preds, sends itself "x", makes `first` before 10 ms and `second` after,
// emits the call's name and sleeps 50 ms. Branching on ctx.now() is outside
// journal.h's contract on purpose: a replay that reaches the branch after
// 10 ms makes a call of another kind than the one its journal holds.
LipProgram MakeCallSwitcher(Call first, Call second) {
  return [first, second](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    (void)co_await ctx.pred(kv, ctx.tokenizer().Encode("w1 w2"));
    co_await ctx.send("self", "x");
    Call call = ctx.now() < Millis(10) ? first : second;
    switch (call) {
      case Call::kPred:
        (void)co_await ctx.pred(kv, ctx.tokenizer().Encode("w3"));
        break;
      case Call::kTool:
        (void)co_await ctx.call_tool("calc", "1 + 1");
        break;
      case Call::kSleep:
        co_await ctx.sleep(Millis(1));
        break;
      case Call::kRecv:
        (void)co_await ctx.recv("self");
        break;
      case Call::kSend:
        co_await ctx.send("self", "y");
        break;
    }
    ctx.emit(std::string(CallName(call)) + ";");
    co_await ctx.sleep(Millis(50));
    ctx.emit("done");
    co_return;
  };
}

// Killed at 20 ms, the replayed LIP makes `second` where its journal holds
// `first`: the replay ends as diverged, once, and the LIP runs on live.
TEST(RecoveryTest, SyscallOfAnotherKindEndsTheReplay) {
  const std::pair<Call, Call> kCases[] = {{Call::kTool, Call::kPred},
                                          {Call::kPred, Call::kTool},
                                          {Call::kTool, Call::kSleep},
                                          {Call::kRecv, Call::kSend},
                                          {Call::kSleep, Call::kRecv}};
  for (RecoveryMode mode : {RecoveryMode::kRecompute, RecoveryMode::kImportSnapshot}) {
    for (auto [first, second] : kCases) {
      for (bool kill : {false, true}) {
        std::string where = std::string("mode=") + RecoveryModeName(mode) + " " +
                            CallName(first) + "->" + CallName(second) +
                            " kill=" + (kill ? "1" : "0");
        Simulator sim;
        SymphonyCluster cluster(&sim, RecoveryCluster(19, mode));
        RegisterTools(cluster);
        SymphonyCluster::ClusterLip id =
            cluster.Launch("switcher", "", MakeCallSwitcher(first, second));
        if (kill) {
          sim.ScheduleAt(Millis(20), [&cluster, id] {
            EXPECT_TRUE(cluster.KillReplica(id.replica).ok());
          });
        }
        sim.Run();
        ASSERT_TRUE(cluster.Done(id)) << where;
        EXPECT_EQ(cluster.Output(id),
                  std::string(CallName(kill ? second : first)) + ";done")
            << where;
        SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
        EXPECT_EQ(snap.lips_replayed, kill ? 1u : 0u) << where;
        EXPECT_EQ(snap.replay_divergences, kill ? 1u : 0u) << where;
      }
    }
  }
}

}  // namespace
}  // namespace symphony
