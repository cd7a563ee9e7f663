// Tests for src/net: the cluster IPC fabric.
//
// The acceptance property (ISSUE 6): kill or migrate ONE endpoint of a
// cross-replica IPC pair at a random seeded time — the replayed endpoint's
// emitted text and the surviving endpoint's received message sequence are
// bit-identical to the fault-free run. Plus: partition windows retry through
// without loss, partition deadlines drop with kUnavailable surfaced, FIFO
// fairness for multi-waiter recv (with a kill-sweep digest of what replay
// restores of it), and the local-vs-cross delivery counters.
//
// Credit-based flow control (ISSUE 7): queue depth never exceeds the credit
// limit under random kill/migrate of either endpoint; a blocked send is one
// journal entry carrying its grant ordinal, and blocked-sender wakeup order
// under a producer kill is pinned by a kill-sweep digest; 2- and
// 3-cycle credit-wait deadlocks are flagged with kDeadlock instead of
// hanging; FaultPlan slow-consumer windows stall deliveries and propagate
// backpressure to producers.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/faults/fault_plan.h"
#include "src/net/ipc_fabric.h"
#include "src/serve/cluster.h"
#include "tests/stress_seeds.h"

namespace symphony {
namespace {

constexpr int kPairMsgs = 6;

// Sends kPairMsgs messages whose contents depend on generated tokens, so a
// replayed producer must re-derive the exact same bytes.
LipProgram PairProducer() {
  return [](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> d =
        co_await ctx.pred(kv, ctx.tokenizer().Encode("w1 w2"));
    if (!d.ok()) {
      co_return;
    }
    TokenId t = d->back().Sample(ctx.uniform(), 0.8);
    for (int i = 0; i < kPairMsgs; ++i) {
      co_await ctx.send("pair", "m" + std::to_string(t) + "." + std::to_string(i));
      ctx.emit("s" + std::to_string(t) + "." + std::to_string(i) + ";");
      co_await ctx.sleep(Millis(1));
      StatusOr<std::vector<Distribution>> n = co_await ctx.pred1(kv, t);
      if (!n.ok()) {
        co_return;
      }
      t = n->back().Sample(ctx.uniform(), 0.8);
    }
    co_return;
  };
}

LipProgram PairConsumer(int msgs) {
  return [msgs](LipContext& ctx) -> Task {
    for (int i = 0; i < msgs; ++i) {
      StatusOr<std::string> msg = co_await ctx.recv("pair");
      if (!msg.ok()) {
        co_return;
      }
      ctx.emit(*msg + ";");
    }
    co_return;
  };
}

ClusterOptions SplitPairOptions(uint64_t seed) {
  ClusterOptions options;
  options.replicas = 3;
  options.routing = RoutingPolicy::kRoundRobin;
  options.server.model = ModelConfig::Tiny();
  options.server.runtime.seed = seed;
  options.enable_recovery = true;
  return options;
}

enum class PairFault {
  kNone,
  kKillProducerReplica,
  kKillConsumerReplica,
  kMigrateProducer,
  kMigrateConsumer,
};

struct PairRun {
  std::string producer_out;
  std::string consumer_out;
  SimTime finish = 0;
  SymphonyCluster::ClusterSnapshot snap;
};

// Launches a producer/consumer pair on DIFFERENT replicas (round robin:
// consumer lands on 0, producer on 1) and optionally faults ONE endpoint.
// two_rack swaps the default single-switch topology for a 2-rack graph
// (replicas {0,1} | {2}, spine spare), making every cross-rack byte
// multi-hop.
PairRun RunSplitPair(uint64_t seed, PairFault fault, SimTime at,
                     bool two_rack = false) {
  Simulator sim;
  ClusterOptions options = SplitPairOptions(seed);
  if (two_rack) {
    options.topology.preset = TopologyOptions::Preset::kTwoRack;
    options.topology.rack_split = 2;
    options.topology.spine = true;
  }
  SymphonyCluster cluster(&sim, options);
  SymphonyCluster::ClusterLip cons =
      cluster.Launch("consumer", "", PairConsumer(kPairMsgs));
  SymphonyCluster::ClusterLip prod =
      cluster.Launch("producer", "", PairProducer());
  EXPECT_NE(cons.replica, prod.replica);
  if (fault != PairFault::kNone) {
    sim.ScheduleAt(at, [&cluster, cons, prod, fault] {
      SymphonyCluster::ClusterLip victim =
          (fault == PairFault::kKillProducerReplica ||
           fault == PairFault::kMigrateProducer)
              ? prod
              : cons;
      SymphonyCluster::ClusterLip where = cluster.Locate(victim);
      if (fault == PairFault::kKillProducerReplica ||
          fault == PairFault::kKillConsumerReplica) {
        (void)cluster.KillReplica(where.replica);
      } else {
        (void)cluster.Migrate(where, (where.replica + 1) % 3);
      }
    });
  }
  sim.Run();
  EXPECT_TRUE(cluster.Done(prod));
  EXPECT_TRUE(cluster.Done(cons));
  PairRun run;
  run.producer_out = cluster.Output(prod);
  run.consumer_out = cluster.Output(cons);
  run.finish = sim.now();
  run.snap = cluster.Snapshot();
  EXPECT_EQ(run.snap.replay_divergences, 0u);
  EXPECT_EQ(run.snap.ipc_dropped, 0u);
  return run;
}

// ---- The acceptance property ------------------------------------------

class SplitPairPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Kill or migrate ONE endpoint of a cross-replica pair at a seed-derived
// random time: the replayed endpoint's emitted text and the surviving
// endpoint's received sequence must match the fault-free run byte for byte.
TEST_P(SplitPairPropertyTest, FaultedEndpointStaysBitIdentical) {
  uint64_t seed = GetParam();
  PairRun baseline = RunSplitPair(seed, PairFault::kNone, 0);
  ASSERT_FALSE(baseline.consumer_out.empty());
  ASSERT_GT(baseline.finish, 0u);
  EXPECT_GT(baseline.snap.ipc_cross_sends, 0u);  // The pair really is split.
  Rng rng(seed ^ 0x5EEDF00DULL);
  constexpr PairFault kFaults[] = {
      PairFault::kKillProducerReplica, PairFault::kKillConsumerReplica,
      PairFault::kMigrateProducer, PairFault::kMigrateConsumer};
  PairFault fault = kFaults[rng.NextBounded(4)];
  double frac = 0.1 + 0.7 * rng.NextDouble();
  SimTime at = static_cast<SimTime>(frac * static_cast<double>(baseline.finish));
  PairRun faulted = RunSplitPair(seed, fault, at);
  EXPECT_EQ(faulted.producer_out, baseline.producer_out)
      << "seed=" << seed << " fault=" << static_cast<int>(fault)
      << " frac=" << frac;
  EXPECT_EQ(faulted.consumer_out, baseline.consumer_out)
      << "seed=" << seed << " fault=" << static_cast<int>(fault)
      << " frac=" << frac;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitPairPropertyTest,
                         ::testing::ValuesIn(StressSeeds(
                             {301, 302, 303, 304, 305, 306, 307, 308}, 0x6E7)));

// Deterministic late kills so the replay-discipline counters are observable:
// a replayed producer suppresses its journaled sends, a replayed consumer is
// served its journaled recvs verbatim.
TEST(NetTest, ReplayCountersShowSuppressionAndServedRecvs) {
  PairRun baseline = RunSplitPair(91, PairFault::kNone, 0);
  SimTime late = baseline.finish * 7 / 10;
  PairRun prod_killed = RunSplitPair(91, PairFault::kKillProducerReplica, late);
  EXPECT_EQ(prod_killed.consumer_out, baseline.consumer_out);
  EXPECT_GT(prod_killed.snap.ipc_sends_suppressed, 0u);
  PairRun cons_killed = RunSplitPair(91, PairFault::kKillConsumerReplica, late);
  EXPECT_EQ(cons_killed.consumer_out, baseline.consumer_out);
  EXPECT_GT(cons_killed.snap.ipc_recvs_replayed, 0u);
  EXPECT_GT(cons_killed.snap.ipc_rehomes, 0u);
}

// ---- Partition windows -------------------------------------------------

ClusterOptions PartitionOptions(uint64_t seed, FaultPlan* plan) {
  ClusterOptions options;
  options.replicas = 2;
  options.routing = RoutingPolicy::kRoundRobin;
  options.server.model = ModelConfig::Tiny();
  options.server.runtime.seed = seed;
  options.server.fault_plan = plan;
  return options;
}

// A partition window shorter than the send deadline: every send retries
// through it with backoff and completes — delayed, never lost or reordered.
TEST(NetTest, PartitionWindowRetriesAndCompletes) {
  auto run = [](FaultPlan* plan) {
    Simulator sim;
    SymphonyCluster cluster(&sim, PartitionOptions(17, plan));
    SymphonyCluster::ClusterLip cons =
        cluster.Launch("consumer", "", PairConsumer(kPairMsgs));
    SymphonyCluster::ClusterLip prod =
        cluster.Launch("producer", "", PairProducer());
    EXPECT_NE(cons.replica, prod.replica);
    sim.Run();
    EXPECT_TRUE(cluster.Done(prod));
    EXPECT_TRUE(cluster.Done(cons));
    SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
    EXPECT_EQ(snap.ipc_dropped, 0u);
    EXPECT_EQ(snap.ipc_received, static_cast<uint64_t>(kPairMsgs));
    return std::make_pair(cluster.Output(cons), snap);
  };
  auto [clean_out, clean_snap] = run(nullptr);
  ASSERT_FALSE(clean_out.empty());
  EXPECT_EQ(clean_snap.ipc_partition_retries, 0u);

  FaultPlan plan(17);
  plan.AddPartition(0, 1, Micros(500), Millis(30));
  auto [partitioned_out, partitioned_snap] = run(&plan);
  // Retried through the window; same messages, same order, nothing lost.
  EXPECT_GT(partitioned_snap.ipc_partition_retries, 0u);
  EXPECT_GT(plan.stats().partition_blocks, 0u);
  EXPECT_EQ(partitioned_out, clean_out);
}

// A partition outlasting the send deadline: messages drop, the channel
// surfaces kUnavailable via View(), and the receiver simply comes up short
// (send stays fire-and-forget — nothing throws at the sender).
TEST(NetTest, PartitionPastDeadlineDropsAndSurfacesUnavailable) {
  FaultPlan plan(19);
  plan.AddPartition(0, 1, 0, Millis(10000));  // The whole run.
  Simulator sim;
  ClusterOptions options = PartitionOptions(19, &plan);
  options.ipc.send_deadline = Millis(4);
  options.ipc.retry_base = Micros(500);
  options.ipc.retry_cap = Millis(2);
  SymphonyCluster cluster(&sim, options);
  SymphonyCluster::ClusterLip cons =
      cluster.Launch("consumer", "", PairConsumer(kPairMsgs));
  SymphonyCluster::ClusterLip prod =
      cluster.Launch("producer", "", PairProducer());
  sim.Run();
  EXPECT_TRUE(cluster.Done(prod));     // Sender is never blocked by a drop.
  EXPECT_FALSE(cluster.Done(cons));    // Receiver is still waiting at the end.
  EXPECT_TRUE(cluster.Output(cons).empty());
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.ipc_dropped, static_cast<uint64_t>(kPairMsgs));
  EXPECT_EQ(snap.ipc_received, 0u);
  ChannelView view = cluster.fabric().View("pair");
  EXPECT_EQ(view.dropped, static_cast<uint64_t>(kPairMsgs));
  EXPECT_EQ(view.last_error.code(), StatusCode::kUnavailable);
}

// ---- FIFO fairness -----------------------------------------------------

// A consumer that fans one channel into `workers` threads, each tagging what
// it received and forwarding the tag to a collector channel. FIFO contract:
// parked waiters are served strictly in arrival order and no TryRecv
// overtakes them, so messages land on the workers round-robin in exact send
// order — and the forwarded tags reach the collector in that same order.
LipProgram FanInConsumer(int workers, int per_worker) {
  return [workers, per_worker](LipContext& ctx) -> Task {
    std::vector<ThreadId> spawned;
    for (int w = 0; w < workers; ++w) {
      spawned.push_back(ctx.spawn([w, per_worker](LipContext& tctx) -> Task {
        for (int k = 0; k < per_worker; ++k) {
          StatusOr<std::string> msg = co_await tctx.recv("fan");
          if (!msg.ok()) {
            co_return;
          }
          std::string tagged = "w" + std::to_string(w) + ":" + *msg;
          tctx.emit(tagged + ";");
          co_await tctx.send("out", std::move(tagged));
        }
        co_return;
      }));
    }
    for (ThreadId t : spawned) {
      co_await ctx.join(t);
    }
    co_return;
  };
}

LipProgram Collector(int msgs) {
  return [msgs](LipContext& ctx) -> Task {
    for (int i = 0; i < msgs; ++i) {
      StatusOr<std::string> msg = co_await ctx.recv("out");
      if (!msg.ok()) {
        co_return;
      }
      ctx.emit(*msg + ";");
    }
    co_return;
  };
}

LipProgram FanOutProducer(int msgs) {
  return [msgs](LipContext& ctx) -> Task {
    co_await ctx.sleep(Millis(1));  // Let every waiter park first.
    for (int i = 0; i < msgs; ++i) {
      co_await ctx.send("fan", "m" + std::to_string(i));
      co_await ctx.sleep(Micros(200));
    }
    co_return;
  };
}

// Strips "w<id>:" tags and returns the message sequence in emission order.
std::vector<std::string> MessageOrder(const std::string& out) {
  std::vector<std::string> order;
  size_t pos = 0;
  while (pos < out.size()) {
    size_t colon = out.find(':', pos);
    size_t semi = out.find(';', pos);
    if (colon == std::string::npos || semi == std::string::npos) {
      break;
    }
    order.push_back(out.substr(colon + 1, semi - colon - 1));
    pos = semi + 1;
  }
  return order;
}

// Extracts worker `w`'s tagged emissions, in order.
std::vector<std::string> WorkerSubsequence(const std::string& out, int w) {
  std::vector<std::string> seq;
  std::string tag = "w" + std::to_string(w) + ":";
  size_t pos = 0;
  while ((pos = out.find(tag, pos)) != std::string::npos) {
    size_t semi = out.find(';', pos);
    seq.push_back(out.substr(pos, semi - pos));
    pos = semi + 1;
  }
  return seq;
}

constexpr int kFanWorkers = 3;
constexpr int kFanPerWorker = 4;
constexpr int kFanTotal = kFanWorkers * kFanPerWorker;

struct FanRun {
  std::string consumer_out;
  std::string collector_out;
  bool done = false;
  SymphonyCluster::ClusterSnapshot snap;
};

// FanInConsumer, FanOutProducer and Collector on seed 23, with the
// consumer's replica killed at `kill_consumer_at` when given.
FanRun RunFanIn(std::optional<SimTime> kill_consumer_at) {
  Simulator sim;
  SymphonyCluster cluster(&sim, SplitPairOptions(23));
  SymphonyCluster::ClusterLip cons =
      cluster.Launch("fan-consumer", "", FanInConsumer(kFanWorkers, kFanPerWorker));
  SymphonyCluster::ClusterLip prod =
      cluster.Launch("fan-producer", "", FanOutProducer(kFanTotal));
  SymphonyCluster::ClusterLip coll =
      cluster.Launch("collector", "", Collector(kFanTotal));
  if (kill_consumer_at.has_value()) {
    sim.ScheduleAt(*kill_consumer_at, [&cluster, cons] {
      (void)cluster.KillReplica(cluster.Locate(cons).replica);
    });
  }
  sim.Run();
  FanRun run;
  run.consumer_out = cluster.Output(cons);
  run.collector_out = cluster.Output(coll);
  run.done = cluster.Done(cons) && cluster.Done(prod) && cluster.Done(coll);
  run.snap = cluster.Snapshot();
  return run;
}

TEST(NetTest, MultiWaiterRecvIsFifoFairIncludingUnderReplay) {
  FanRun baseline = RunFanIn(std::nullopt);
  EXPECT_TRUE(baseline.done);
  EXPECT_EQ(baseline.snap.replay_divergences, 0u);
  // Messages were consumed in exact send order despite three competing
  // waiters — the collector (a third LIP) saw the tags in send order — and
  // each worker got its fair round-robin share.
  std::vector<std::string> order = MessageOrder(baseline.collector_out);
  ASSERT_EQ(order.size(), static_cast<size_t>(kFanTotal));
  for (int i = 0; i < kFanTotal; ++i) {
    EXPECT_EQ(order[i], "m" + std::to_string(i));
  }
  for (int w = 0; w < kFanWorkers; ++w) {
    EXPECT_EQ(WorkerSubsequence(baseline.consumer_out, w).size(),
              static_cast<size_t>(kFanPerWorker))
        << "worker " << w;
  }
  // Killed at 2 ms and replayed on another replica, the consumer keeps that
  // fairness: the surviving collector's received sequence is bit-identical
  // and so is each worker's own stream, because every worker had been
  // delivered to before the kill and the re-park hint restores its place.
  // Only the cross-thread interleaving of the replayed LIP's local emissions
  // within the fast-forwarded window may differ — per-thread journals record
  // no global emission order (see journal.h). Not every kill instant gives
  // that: MultiWaiterReplayDigestMatchesParent pins a sweep of them.
  FanRun killed = RunFanIn(Millis(2));
  EXPECT_TRUE(killed.done);
  EXPECT_EQ(killed.snap.replay_divergences, 0u);
  EXPECT_EQ(killed.collector_out, baseline.collector_out);
  for (int w = 0; w < kFanWorkers; ++w) {
    EXPECT_EQ(WorkerSubsequence(killed.consumer_out, w),
              WorkerSubsequence(baseline.consumer_out, w))
        << "worker " << w;
  }
}

// Folds the collector's sequence, the replayed recvs and the divergences of
// the fan-in above over consumer kills every 10 us from 10 us to 3.42 ms (and
// no kill). Some of these runs hand messages to other workers than the
// unkilled run: a receiver parked but never delivered to at the kill leaves
// no journal entry, so a message queued during the failover goes to
// whichever replayed thread receives first. The digest pins that too; the
// receiver-side twin of BlockedSenderReplayDigestMatchesParent.
TEST(NetTest, MultiWaiterReplayDigestMatchesParent) {
  uint64_t digest = 0;
  auto fold = [&digest](uint64_t value) {
    digest = HashCombine(digest, value);
  };
  for (SimTime kill_at = 0; kill_at <= Micros(3420); kill_at += Micros(10)) {
    FanRun run = RunFanIn(kill_at == 0 ? std::nullopt : std::optional(kill_at));
    EXPECT_TRUE(run.done) << "kill_at=" << kill_at;
    fold(Fnv1a(run.collector_out));
    fold(run.snap.ipc_recvs_replayed);
    fold(run.snap.replay_divergences);
  }
  EXPECT_EQ(digest, 0x04eeaf5281171c0dULL);
}

// ---- Counters ----------------------------------------------------------

TEST(NetTest, CountersDistinguishLocalFromCrossDeliveries) {
  // Co-located pair (one affinity key): every delivery is local.
  {
    Simulator sim;
    ClusterOptions options = SplitPairOptions(29);
    options.routing = RoutingPolicy::kCacheAffinity;
    SymphonyCluster cluster(&sim, options);
    SymphonyCluster::ClusterLip cons =
        cluster.Launch("consumer", "pair-key", PairConsumer(kPairMsgs));
    SymphonyCluster::ClusterLip prod =
        cluster.Launch("producer", "pair-key", PairProducer());
    EXPECT_EQ(cons.replica, prod.replica);
    sim.Run();
    SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
    EXPECT_EQ(snap.ipc_sent, static_cast<uint64_t>(kPairMsgs));
    EXPECT_EQ(snap.ipc_received, static_cast<uint64_t>(kPairMsgs));
    EXPECT_EQ(snap.ipc_local_deliveries, static_cast<uint64_t>(kPairMsgs));
    EXPECT_EQ(snap.ipc_cross_sends, 0u);
  }
  // Split pair: every delivery crossed a link, and the per-replica rows
  // attribute sends to the producer's replica and receives to the consumer's.
  {
    Simulator sim;
    SymphonyCluster cluster(&sim, SplitPairOptions(29));
    SymphonyCluster::ClusterLip cons =
        cluster.Launch("consumer", "", PairConsumer(kPairMsgs));
    SymphonyCluster::ClusterLip prod =
        cluster.Launch("producer", "", PairProducer());
    sim.Run();
    SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
    EXPECT_EQ(snap.ipc_sent, static_cast<uint64_t>(kPairMsgs));
    EXPECT_EQ(snap.ipc_received, static_cast<uint64_t>(kPairMsgs));
    EXPECT_EQ(snap.ipc_local_deliveries, 0u);
    EXPECT_EQ(snap.ipc_cross_sends, static_cast<uint64_t>(kPairMsgs));
    ASSERT_EQ(snap.ipc_per_replica.size(), 3u);
    EXPECT_EQ(snap.ipc_per_replica[prod.replica].sent,
              static_cast<uint64_t>(kPairMsgs));
    EXPECT_EQ(snap.ipc_per_replica[cons.replica].received,
              static_cast<uint64_t>(kPairMsgs));
    // The topology's links carried the bytes: per-link stats account for
    // every payload byte the fabric handed over.
    uint64_t link_transfers = 0;
    uint64_t link_bytes = 0;
    for (const TopoLinkReport& link : snap.net_links) {
      link_transfers += link.stats.transfers;
      link_bytes += link.stats.bytes;
    }
    EXPECT_EQ(link_transfers, static_cast<uint64_t>(kPairMsgs));
    EXPECT_EQ(link_bytes, snap.ipc_cross_bytes);
    EXPECT_EQ(snap.net_transfers, snap.ipc_cross_sends);
  }
}

// ---- Credit-based flow control (ISSUE 7) -------------------------------

constexpr int kCreditMsgs = 12;

// Floods the bounded channel with no pacing: with k credits and a slower
// consumer, the producer MUST park (credit_waits > 0) for the run to finish.
LipProgram CreditProducer(int msgs) {
  return [msgs](LipContext& ctx) -> Task {
    for (int i = 0; i < msgs; ++i) {
      co_await ctx.send("credit", "m" + std::to_string(i));
      ctx.emit("s" + std::to_string(i) + ";");
    }
    co_return;
  };
}

LipProgram CreditConsumer(int msgs) {
  return [msgs](LipContext& ctx) -> Task {
    for (int i = 0; i < msgs; ++i) {
      StatusOr<std::string> msg = co_await ctx.recv("credit");
      if (!msg.ok()) {
        co_return;
      }
      ctx.emit(*msg + ";");
      co_await ctx.sleep(Micros(300));  // Slower than the producer floods.
    }
    co_return;
  };
}

struct CreditRun {
  std::string producer_out;
  std::string consumer_out;
  uint64_t queue_peak = 0;
  bool deadlocked = false;
  SimTime finish = 0;
  SymphonyCluster::ClusterSnapshot snap;
};

CreditRun RunCreditPair(uint64_t seed, uint64_t credits, PairFault fault,
                        SimTime at) {
  Simulator sim;
  ClusterOptions options = SplitPairOptions(seed);
  options.ipc.channel_credits = credits;
  SymphonyCluster cluster(&sim, options);
  SymphonyCluster::ClusterLip cons =
      cluster.Launch("consumer", "", CreditConsumer(kCreditMsgs));
  SymphonyCluster::ClusterLip prod =
      cluster.Launch("producer", "", CreditProducer(kCreditMsgs));
  EXPECT_NE(cons.replica, prod.replica);
  if (fault != PairFault::kNone) {
    sim.ScheduleAt(at, [&cluster, cons, prod, fault] {
      SymphonyCluster::ClusterLip victim =
          (fault == PairFault::kKillProducerReplica ||
           fault == PairFault::kMigrateProducer)
              ? prod
              : cons;
      SymphonyCluster::ClusterLip where = cluster.Locate(victim);
      if (fault == PairFault::kKillProducerReplica ||
          fault == PairFault::kKillConsumerReplica) {
        (void)cluster.KillReplica(where.replica);
      } else {
        (void)cluster.Migrate(where, (where.replica + 1) % 3);
      }
    });
  }
  sim.Run();
  EXPECT_TRUE(cluster.Done(prod));
  EXPECT_TRUE(cluster.Done(cons));
  CreditRun run;
  run.producer_out = cluster.Output(prod);
  run.consumer_out = cluster.Output(cons);
  ChannelView view = cluster.fabric().View("credit");
  run.queue_peak = view.queue_peak;
  run.deadlocked = view.deadlocked;
  run.finish = sim.now();
  run.snap = cluster.Snapshot();
  EXPECT_EQ(run.snap.replay_divergences, 0u);
  EXPECT_EQ(run.snap.ipc_dropped, 0u);
  return run;
}

class CreditBoundPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// The acceptance property: with k credits the channel NEVER holds more than
// k undelivered messages — even while a seed-derived random kill/migrate of
// either endpoint is replayed — and delivery stays complete, in-order, and
// bit-identical to the fault-free run.
TEST_P(CreditBoundPropertyTest, QueueDepthNeverExceedsCreditsUnderFaults) {
  uint64_t seed = GetParam();
  for (uint64_t k : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    CreditRun baseline = RunCreditPair(seed, k, PairFault::kNone, 0);
    ASSERT_FALSE(baseline.consumer_out.empty());
    EXPECT_GT(baseline.snap.ipc_credit_waits, 0u)
        << "seed=" << seed << " k=" << k << ": flood never parked";
    EXPECT_LE(baseline.queue_peak, k) << "seed=" << seed << " k=" << k;
    Rng rng(seed ^ (0xC4ED17ULL + k));
    constexpr PairFault kFaults[] = {
        PairFault::kKillProducerReplica, PairFault::kKillConsumerReplica,
        PairFault::kMigrateProducer, PairFault::kMigrateConsumer};
    PairFault fault = kFaults[rng.NextBounded(4)];
    double frac = 0.1 + 0.7 * rng.NextDouble();
    SimTime at =
        static_cast<SimTime>(frac * static_cast<double>(baseline.finish));
    CreditRun faulted = RunCreditPair(seed, k, fault, at);
    EXPECT_LE(faulted.queue_peak, k)
        << "seed=" << seed << " k=" << k << " fault=" << static_cast<int>(fault)
        << " frac=" << frac;
    EXPECT_EQ(faulted.producer_out, baseline.producer_out)
        << "seed=" << seed << " k=" << k << " fault=" << static_cast<int>(fault);
    EXPECT_EQ(faulted.consumer_out, baseline.consumer_out)
        << "seed=" << seed << " k=" << k << " fault=" << static_cast<int>(fault);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CreditBoundPropertyTest,
                         ::testing::ValuesIn(StressSeeds(
                             {401, 402, 403, 404, 405, 406}, 0xC4E)));

// One producer LIP with three sender threads contending for a 1-credit
// channel. Thread w makes `stagger` * (2 - w) 1 us sleeps before each send.
constexpr int kContendingSenders = 3;
constexpr int kSendsPerSender = 3;

LipProgram ContendingSenders(int stagger) {
  return [stagger](LipContext& ctx) -> Task {
    std::vector<ThreadId> spawned;
    for (int w = 0; w < kContendingSenders; ++w) {
      spawned.push_back(ctx.spawn([w, stagger](LipContext& tctx) -> Task {
        for (int i = 0; i < kSendsPerSender; ++i) {
          for (int s = 0; s < stagger * (kContendingSenders - 1 - w); ++s) {
            co_await tctx.sleep(Micros(1));
          }
          co_await tctx.send(
              "credit", "t" + std::to_string(w) + "." + std::to_string(i));
        }
        co_return;
      }));
    }
    for (ThreadId t : spawned) {
      co_await ctx.join(t);
    }
    co_return;
  };
}

struct ContendedRun {
  std::string consumer_out;
  bool done = false;
  SymphonyCluster::ClusterSnapshot snap;
};

// ContendingSenders against CreditConsumer on seed 37, with the producer's
// replica killed at `kill_producer_at` when given.
ContendedRun RunContendedSenders(int stagger,
                                 std::optional<SimTime> kill_producer_at) {
  Simulator sim;
  ClusterOptions options = SplitPairOptions(37);
  options.ipc.channel_credits = 1;
  SymphonyCluster cluster(&sim, options);
  SymphonyCluster::ClusterLip cons = cluster.Launch(
      "consumer", "", CreditConsumer(kContendingSenders * kSendsPerSender));
  SymphonyCluster::ClusterLip prod =
      cluster.Launch("producer", "", ContendingSenders(stagger));
  if (kill_producer_at.has_value()) {
    sim.ScheduleAt(*kill_producer_at, [&cluster, prod] {
      (void)cluster.KillReplica(cluster.Locate(prod).replica);
    });
  }
  sim.Run();
  ContendedRun run;
  run.consumer_out = cluster.Output(cons);
  run.done = cluster.Done(cons) && cluster.Done(prod);
  run.snap = cluster.Snapshot();
  return run;
}

// Grants wake parked senders strictly FIFO, and a replayed send that had
// parked carries its grant ordinal (the kSend entry's `ordinal`), which
// re-parks the same thread's next live blocked send behind its LIP's senders
// with earlier grants. Killed at 1 ms, the consumer's received sequence
// equals the unkilled run's. Not every kill instant gives that:
// BlockedSenderReplayDigestMatchesParent pins a sweep of them.
TEST(NetTest, BlockedSenderWakeupOrderBitIdenticalUnderReplay) {
  ContendedRun baseline = RunContendedSenders(0, std::nullopt);
  ASSERT_FALSE(baseline.consumer_out.empty());
  EXPECT_TRUE(baseline.done);
  EXPECT_EQ(baseline.snap.replay_divergences, 0u);
  EXPECT_GT(baseline.snap.ipc_credit_waits, 0u);
  EXPECT_GT(baseline.snap.ipc_credit_grants, 0u);
  // Kill mid-contention: some grants are already journaled (replayed from
  // their kSend entries), the rest of the flood re-parks live.
  ContendedRun killed = RunContendedSenders(0, Millis(1));
  EXPECT_TRUE(killed.done);
  EXPECT_EQ(killed.snap.replay_divergences, 0u);
  EXPECT_EQ(killed.consumer_out, baseline.consumer_out);
  EXPECT_GT(killed.snap.ipc_credit_waits_replayed, 0u);
}

// Folds the consumer's sequence, the replayed credit waits and the
// divergences of the contention above, and of a variant whose senders
// stagger with 1 us sleeps, over producer kills every 10 us from 10 us to
// 3 ms (and no kill). The value was recorded while a parked send journaled a
// credit-wait entry of its own before its send entry; it changes when the
// re-park hint does. Some of these runs deliver another sequence than the
// unkilled run: a send parked but never granted at the kill leaves no
// journal entry, so a credit freed before the replay re-parks it goes to
// whichever replayed thread sends first. The digest pins that too.
TEST(NetTest, BlockedSenderReplayDigestMatchesParent) {
  uint64_t digest = 0;
  auto fold = [&digest](uint64_t value) {
    digest = HashCombine(digest, value);
  };
  for (int stagger : {0, 2}) {
    for (SimTime kill_at = 0; kill_at <= Millis(3); kill_at += Micros(10)) {
      ContendedRun run = RunContendedSenders(
          stagger, kill_at == 0 ? std::nullopt : std::optional(kill_at));
      EXPECT_TRUE(run.done) << "stagger=" << stagger << " kill_at=" << kill_at;
      fold(Fnv1a(run.consumer_out));
      fold(run.snap.ipc_credit_waits_replayed);
      fold(run.snap.replay_divergences);
    }
  }
  EXPECT_EQ(digest, 0x457e419faaee0581ULL);
}

// A send that parked for a credit is one journal entry: a kSend whose
// ordinal is the channel's grant ordinal + 1 (0 for a send that never
// parked).
TEST(NetTest, BlockedSendIsOneJournalEntry) {
  constexpr int kMsgs = 12;
  Simulator sim;
  ClusterOptions options = SplitPairOptions(31);
  options.ipc.channel_credits = 1;
  SymphonyCluster cluster(&sim, options);
  SymphonyCluster::ClusterLip cons =
      cluster.Launch("consumer", "", CreditConsumer(kMsgs));
  SymphonyCluster::ClusterLip prod =
      cluster.Launch("producer", "", CreditProducer(kMsgs));
  std::shared_ptr<SyscallJournal> journal =
      cluster.replica(prod.replica).runtime().Journal(prod.lip);
  ASSERT_NE(journal, nullptr);
  sim.Run();
  ASSERT_TRUE(cluster.Done(prod));
  ASSERT_TRUE(cluster.Done(cons));
  EXPECT_EQ(journal->total_entries(), static_cast<uint64_t>(kMsgs));
  ASSERT_EQ(journal->EntryCount("0"), static_cast<size_t>(kMsgs));
  uint64_t parked = 0;
  for (int i = 0; i < kMsgs; ++i) {
    const JournalEntry* entry = journal->At("0", i);
    ASSERT_NE(entry, nullptr) << i;
    EXPECT_EQ(entry->kind, JournalEntry::Kind::kSend) << i;
    EXPECT_EQ(entry->channel, "credit") << i;
    EXPECT_EQ(entry->payload, "m" + std::to_string(i)) << i;
    if (entry->ordinal > 0) {
      EXPECT_EQ(entry->ordinal, ++parked) << i;
    }
  }
  EXPECT_GT(parked, 0u);
  EXPECT_EQ(parked, cluster.Snapshot().ipc_credit_grants);
}

// ---- Deadlock detection ------------------------------------------------

// After a handshake that pins both channel homes, each peer floods its
// outbound channel one message past the credit limit without ever receiving
// again: both park, the wait-for graph closes, and the fabric must FLAG the
// cycle (kDeadlock on both channels) instead of hanging.
LipProgram DeadlockPeer(std::string out, std::string in, bool leader,
                        int flood) {
  return [out = std::move(out), in = std::move(in), leader,
          flood](LipContext& ctx) -> Task {
    if (leader) {
      co_await ctx.send(out, "hs");
      StatusOr<std::string> hs = co_await ctx.recv(in);
      if (!hs.ok()) {
        co_return;
      }
    } else {
      StatusOr<std::string> hs = co_await ctx.recv(in);
      if (!hs.ok()) {
        co_return;
      }
      co_await ctx.send(out, "hs");
    }
    for (int i = 0; i < flood; ++i) {
      co_await ctx.send(out, "f" + std::to_string(i));
    }
    ctx.emit("done");  // Unreachable when the flood exceeds the credits.
    co_return;
  };
}

TEST(NetTest, TwoCycleCreditDeadlockIsDetectedNotHung) {
  constexpr uint64_t kCredits = 2;
  Simulator sim;
  ClusterOptions options = SplitPairOptions(41);
  options.replicas = 2;
  options.ipc.channel_credits = kCredits;
  SymphonyCluster cluster(&sim, options);
  SymphonyCluster::ClusterLip a = cluster.Launch(
      "peer-a", "", DeadlockPeer("a2b", "b2a", true, kCredits + 1));
  SymphonyCluster::ClusterLip b = cluster.Launch(
      "peer-b", "", DeadlockPeer("b2a", "a2b", false, kCredits + 1));
  EXPECT_NE(a.replica, b.replica);
  sim.Run();  // Terminates: parked senders schedule no events.
  EXPECT_FALSE(cluster.Done(a));
  EXPECT_FALSE(cluster.Done(b));
  EXPECT_TRUE(cluster.Output(a).empty());
  EXPECT_TRUE(cluster.Output(b).empty());
  for (const char* name : {"a2b", "b2a"}) {
    ChannelView view = cluster.fabric().View(name);
    EXPECT_TRUE(view.deadlocked) << name;
    EXPECT_EQ(view.last_error.code(), StatusCode::kDeadlock) << name;
    EXPECT_EQ(view.capacity, kCredits) << name;
    EXPECT_EQ(view.credits, 0) << name;
    EXPECT_EQ(view.send_waiters, 1u) << name;
    EXPECT_LE(view.queue_peak, kCredits) << name;
  }
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.ipc_credit_deadlocks, 2u);
  EXPECT_GE(snap.ipc_credit_waits, 2u);
  // Parked senders advertise admission backpressure on both replicas.
  EXPECT_GT(cluster.fabric().BackpressureDelay(a.replica), 0);
  EXPECT_GT(cluster.fabric().BackpressureDelay(b.replica), 0);
}

TEST(NetTest, ThreeCycleCreditDeadlockIsDetectedNotHung) {
  constexpr uint64_t kCredits = 1;
  Simulator sim;
  ClusterOptions options = SplitPairOptions(43);
  options.ipc.channel_credits = kCredits;
  SymphonyCluster cluster(&sim, options);
  // Ring handshake pins homes: ab -> B's replica, bc -> C's, ca -> A's.
  SymphonyCluster::ClusterLip a =
      cluster.Launch("peer-a", "", DeadlockPeer("ab", "ca", true, kCredits + 1));
  SymphonyCluster::ClusterLip b = cluster.Launch(
      "peer-b", "", DeadlockPeer("bc", "ab", false, kCredits + 1));
  SymphonyCluster::ClusterLip c = cluster.Launch(
      "peer-c", "", DeadlockPeer("ca", "bc", false, kCredits + 1));
  EXPECT_NE(a.replica, b.replica);
  EXPECT_NE(b.replica, c.replica);
  sim.Run();
  EXPECT_FALSE(cluster.Done(a));
  EXPECT_FALSE(cluster.Done(b));
  EXPECT_FALSE(cluster.Done(c));
  for (const char* name : {"ab", "bc", "ca"}) {
    ChannelView view = cluster.fabric().View(name);
    EXPECT_TRUE(view.deadlocked) << name;
    EXPECT_EQ(view.last_error.code(), StatusCode::kDeadlock) << name;
  }
  EXPECT_EQ(cluster.Snapshot().ipc_credit_deadlocks, 3u);
}

// A pair that DRAINS (no cycle) must never be flagged: backpressure alone is
// not deadlock.
TEST(NetTest, BoundedButDrainingChannelIsNotFlaggedDeadlocked) {
  CreditRun run = RunCreditPair(47, 1, PairFault::kNone, 0);
  EXPECT_GT(run.snap.ipc_credit_waits, 0u);
  EXPECT_EQ(run.snap.ipc_credit_deadlocks, 0u);
  EXPECT_FALSE(run.deadlocked);
}

// ---- Slow-consumer windows ---------------------------------------------

// A FaultPlan slow-consumer window stalls every delivery to the home
// replica; with bounded credits the stall propagates to the producer as
// parking, and the run completes later but byte-identically.
TEST(NetTest, SlowConsumerWindowStallsDeliveriesAndParksSenders) {
  auto run = [](FaultPlan* plan, uint64_t credits) {
    Simulator sim;
    ClusterOptions options = SplitPairOptions(53);
    options.server.fault_plan = plan;
    options.ipc.channel_credits = credits;
    SymphonyCluster cluster(&sim, options);
    SymphonyCluster::ClusterLip cons =
        cluster.Launch("consumer", "", CreditConsumer(kCreditMsgs));
    SymphonyCluster::ClusterLip prod =
        cluster.Launch("producer", "", CreditProducer(kCreditMsgs));
    sim.Run();
    EXPECT_TRUE(cluster.Done(prod));
    EXPECT_TRUE(cluster.Done(cons));
    CreditRun r;
    r.consumer_out = cluster.Output(cons);
    r.queue_peak = cluster.fabric().View("credit").queue_peak;
    r.finish = sim.now();
    r.snap = cluster.Snapshot();
    return r;
  };
  CreditRun clean = run(nullptr, 2);
  ASSERT_FALSE(clean.consumer_out.empty());
  FaultPlan plan(53);
  plan.AddSlowConsumer(0, 0, Seconds(60), Micros(500));
  CreditRun slow = run(&plan, 2);
  EXPECT_GT(plan.stats().slow_consumer_stalls, 0u);
  EXPECT_GT(slow.finish, clean.finish);
  EXPECT_GT(slow.snap.ipc_credit_waits, 0u);
  EXPECT_LE(slow.queue_peak, 2u);
  EXPECT_EQ(slow.consumer_out, clean.consumer_out);  // Delayed, not reordered.
}

// Per-channel override: an unbounded fabric with one channel bounded via
// SetChannelCredits parks only that channel's senders.
TEST(NetTest, PerChannelCreditOverrideBoundsOnlyThatChannel) {
  Simulator sim;
  ClusterOptions options = SplitPairOptions(59);  // channel_credits = 0.
  SymphonyCluster cluster(&sim, options);
  cluster.fabric().SetChannelCredits("credit", 1);
  SymphonyCluster::ClusterLip cons =
      cluster.Launch("consumer", "", CreditConsumer(kCreditMsgs));
  SymphonyCluster::ClusterLip prod =
      cluster.Launch("producer", "", CreditProducer(kCreditMsgs));
  sim.Run();
  EXPECT_TRUE(cluster.Done(prod));
  EXPECT_TRUE(cluster.Done(cons));
  ChannelView bounded = cluster.fabric().View("credit");
  EXPECT_EQ(bounded.capacity, 1u);
  EXPECT_LE(bounded.queue_peak, 1u);
  EXPECT_GT(cluster.Snapshot().ipc_credit_waits, 0u);
  // Raising the bound back to unbounded releases any future backpressure.
  cluster.fabric().SetChannelCredits("credit", 0);
  EXPECT_EQ(cluster.fabric().View("credit").capacity, 0u);
}

// ---- Dead and fenced replicas ------------------------------------------

LipProgram RecvOnce(std::string channel) {
  return [channel](LipContext& ctx) -> Task {
    std::string msg = co_await ctx.recv(channel);
    ctx.emit(msg);
  };
}

LipProgram SendAll(std::string channel, std::vector<std::string> msgs) {
  return [channel, msgs](LipContext& ctx) -> Task {
    for (const std::string& msg : msgs) {
      co_await ctx.send(channel, msg);
    }
  };
}

// Without a control plane nothing but the crashed runtime's halt scrubs the
// threads its replica parked: a receiver on an empty channel and a sender
// on a full one. A later send to the dead receiver's channel stays queued
// for a future endpoint instead of being swallowed.
TEST(NetTest, HaltAloneScrubsACrashedReplicasParkedThreads) {
  Simulator sim;
  ClusterOptions options = SplitPairOptions(61);
  options.replicas = 2;
  SymphonyCluster cluster(&sim, options);
  cluster.fabric().SetChannelCredits("full", 1);
  LipId receiver = cluster.replica(0).Launch("receiver", RecvOnce("empty"));
  cluster.replica(0).Launch("sender", SendAll("full", {"first", "second"}));
  sim.RunUntil(Millis(1));
  ASSERT_EQ(cluster.fabric().View("empty").waiters, 1u);
  ASSERT_EQ(cluster.fabric().View("full").send_waiters, 1u);

  ASSERT_TRUE(cluster.CrashReplica(0).ok());
  EXPECT_EQ(cluster.fabric().View("empty").waiters, 0u);
  EXPECT_EQ(cluster.fabric().View("full").send_waiters, 0u);

  cluster.replica(1).Launch("late-sender", SendAll("empty", {"late"}));
  sim.Run();
  EXPECT_EQ(cluster.fabric().View("empty").queued, 1u);
  EXPECT_TRUE(cluster.replica(0).runtime().Output(receiver).empty());
}

// The fence guards hold on their own, on a fenced replica whose runtime
// still runs: its send is discarded and its recv refused, and both are
// counted in ipc_fenced_rejections.
TEST(NetTest, FencedReplicaDiscardsSendsAndRefusesRecvs) {
  Simulator sim;
  ClusterOptions options = SplitPairOptions(67);
  options.replicas = 2;
  SymphonyCluster cluster(&sim, options);
  LipId receiver = cluster.replica(0).Launch("receiver", RecvOnce("to-zero"));
  sim.RunUntil(Millis(1));
  cluster.fabric().FenceReplica(1, 1);
  ASSERT_FALSE(cluster.replica(1).runtime().halted());

  cluster.replica(1).Launch("zombie-sender", SendAll("to-zero", {"zombie"}));
  sim.RunUntil(Millis(2));
  EXPECT_EQ(cluster.fabric().stats().ipc_fenced_rejections, 1u);
  EXPECT_EQ(cluster.fabric().View("to-zero").queued, 0u);
  EXPECT_EQ(cluster.fabric().View("to-zero").waiters, 1u);

  // Counted once per refused syscall: the park after the refused
  // non-blocking attempt is not a second rejection.
  LipId zombie =
      cluster.replica(1).Launch("zombie-receiver", RecvOnce("to-one"));
  sim.RunUntil(Millis(3));
  EXPECT_EQ(cluster.fabric().stats().ipc_fenced_rejections, 2u);
  EXPECT_FALSE(cluster.fabric().View("to-one").registered);
  EXPECT_EQ(cluster.fabric().View("to-one").waiters, 0u);

  // A message for the refused receiver stays queued: it took nothing.
  cluster.replica(0).Launch("sender", SendAll("to-one", {"kept"}));
  sim.Run();
  EXPECT_EQ(cluster.fabric().View("to-one").queued, 1u);
  EXPECT_TRUE(cluster.replica(1).runtime().Output(zombie).empty());
  EXPECT_TRUE(cluster.replica(0).runtime().Output(receiver).empty());
}

// ---- Network topology (ISSUE 8) ----------------------------------------

// Zero bytes is still a packet: the propagation latency applies, end to end
// and in the cost model. (Regression: NetworkTime(0) used to return 0, so
// empty-payload sends and fully-deduped delta ships teleported.)
TEST(NetTopologyTest, ZeroByteTransferStillPaysPropagationLatency) {
  Simulator sim;
  CostModel cost(ModelConfig::Tiny());
  NetworkTopology topo(&sim, &cost, nullptr, nullptr);
  SimDuration latency = cost.hardware().interconnect_latency;
  EXPECT_EQ(topo.Transfer(0, 1, 0, "empty"), latency);
  EXPECT_EQ(cost.NetworkTime(0), latency);
}

// The default single-switch preset is the legacy uniform interconnect: one
// idle transfer costs exactly CostModel::NetworkTime, and back-to-back
// transfers on the same pair serialize (queue_delay shows the wait).
TEST(NetTopologyTest, SingleSwitchMatchesCostModelAndSerializes) {
  Simulator sim;
  CostModel cost(ModelConfig::Tiny());
  NetworkTopology topo(&sim, &cost, nullptr, nullptr);
  constexpr uint64_t kBytes = 1 << 20;
  SimTime first = topo.Transfer(0, 1, kBytes, "a");
  EXPECT_EQ(first, cost.NetworkTime(kBytes));
  // Second transfer queues behind the first's serialization (not its
  // latency): arrival = 2x serialization + latency.
  SimTime second = topo.Transfer(0, 1, kBytes, "b");
  SimDuration serialize =
      cost.NetworkTime(kBytes) - cost.hardware().interconnect_latency;
  EXPECT_EQ(second, first + serialize);
  // The reverse direction is an independent wire.
  EXPECT_EQ(topo.Transfer(1, 0, kBytes, "c"), cost.NetworkTime(kBytes));
  EXPECT_EQ(topo.stats().net_multi_hop, 0u);
  std::vector<TopoLinkReport> links = topo.LinkReport();
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0].name, "link:replica0->replica1");
  EXPECT_EQ(links[0].stats.transfers, 2u);
  EXPECT_EQ(links[0].stats.queue_delay, serialize);
  EXPECT_EQ(links[1].name, "link:replica1->replica0");
}

TopologyOptions TwoRackOptions(size_t split, bool spine) {
  TopologyOptions topt;
  topt.preset = TopologyOptions::Preset::kTwoRack;
  topt.rack_split = split;
  topt.spine = spine;
  return topt;
}

// Two racks: an inter-rack transfer pays exactly one uplink (serialization +
// latency) more than an intra-rack one, and the placement metric sees the
// difference.
TEST(NetTopologyTest, InterRackCostsOneUplinkMoreThanIntraRack) {
  Simulator sim;
  CostModel cost(ModelConfig::Tiny());
  NetworkTopology topo(&sim, &cost, nullptr, nullptr, 4,
                       TwoRackOptions(2, false));
  constexpr uint64_t kBytes = 4096;
  // Disjoint directed links: 0->1 uses (0->rack0, rack0->1); 2->0 uses
  // (2->rack1, rack1->rack0, rack0->0). No queueing between the two.
  SimTime intra = topo.Transfer(0, 1, kBytes, "intra");
  SimTime inter = topo.Transfer(2, 0, kBytes, "inter");
  EXPECT_GT(inter, intra);
  // Defaults: edge latency = half the interconnect latency, uplink = full —
  // so the extra hop costs exactly one single-switch one-way.
  EXPECT_EQ(inter - intra, cost.NetworkTime(kBytes));
  EXPECT_EQ(topo.stats().net_multi_hop, 2u);
  SimDuration hw_latency = cost.hardware().interconnect_latency;
  EXPECT_EQ(topo.Distance(0, 1), hw_latency);
  EXPECT_EQ(topo.Distance(0, 2), 2 * hw_latency);
  EXPECT_EQ(topo.Distance(3, 3), 0);
}

// A downed uplink with a spine spare: transfers reroute over the strictly
// worse path (later arrival, reroutes counted) and go back to the uplink
// once the window closes.
TEST(NetTopologyTest, DownedUplinkReroutesOverSpine) {
  Simulator sim;
  CostModel cost(ModelConfig::Tiny());
  constexpr uint64_t kBytes = 4096;
  FaultPlan plan(7);
  plan.AddLinkDown("rack0", "rack1", 0, Millis(10));
  NetworkTopology faulted(&sim, &cost, &plan, nullptr, 3,
                          TwoRackOptions(2, true));
  NetworkTopology healthy(&sim, &cost, nullptr, nullptr, 3,
                          TwoRackOptions(2, true));
  EXPECT_TRUE(faulted.Routable(0, 2, 0));
  SimTime via_spine = faulted.Transfer(0, 2, kBytes, "x");
  SimTime via_uplink = healthy.Transfer(0, 2, kBytes, "x");
  EXPECT_GT(via_spine, via_uplink);
  EXPECT_EQ(faulted.stats().net_reroutes, 1u);
  EXPECT_EQ(plan.stats().link_down_blocks, 1u);
  // Outside the window the static uplink route is live again.
  EXPECT_TRUE(faulted.Routable(0, 2, Millis(11)));
}

// No spare: the same window makes the racks mutually unroutable (blocked
// counted), while intra-rack traffic is untouched.
TEST(NetTopologyTest, DownedUplinkWithoutSpareBlocksRouting) {
  Simulator sim;
  CostModel cost(ModelConfig::Tiny());
  FaultPlan plan(7);
  plan.AddLinkDown("rack0", "rack1", 0, Millis(10));
  NetworkTopology topo(&sim, &cost, &plan, nullptr, 3,
                       TwoRackOptions(2, false));
  EXPECT_FALSE(topo.Routable(0, 2, 0));
  EXPECT_TRUE(topo.Routable(0, 1, 0));
  EXPECT_TRUE(topo.Routable(0, 2, Millis(10)));  // Window is half-open.
  EXPECT_EQ(topo.stats().net_link_blocked, 1u);
  EXPECT_EQ(plan.stats().link_down_blocks, 1u);
}

// Cluster-level link-down surfacing on the single-switch mesh (no alternate
// path exists by construction): sends retry with backoff through the window
// — the IPC semantics of a partition, driven by the topology — and complete
// without loss or reordering.
TEST(NetTest, LinkDownWindowRetriesAndCompletes) {
  auto run = [](FaultPlan* plan) {
    Simulator sim;
    SymphonyCluster cluster(&sim, PartitionOptions(17, plan));
    SymphonyCluster::ClusterLip cons =
        cluster.Launch("consumer", "", PairConsumer(kPairMsgs));
    SymphonyCluster::ClusterLip prod =
        cluster.Launch("producer", "", PairProducer());
    sim.Run();
    EXPECT_TRUE(cluster.Done(prod));
    EXPECT_TRUE(cluster.Done(cons));
    SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
    EXPECT_EQ(snap.ipc_dropped, 0u);
    return std::make_pair(cluster.Output(cons), snap);
  };
  auto [clean_out, clean_snap] = run(nullptr);
  ASSERT_FALSE(clean_out.empty());
  EXPECT_EQ(clean_snap.ipc_link_down_retries, 0u);

  FaultPlan plan(17);
  plan.AddLinkDown("replica0", "replica1", Micros(500), Millis(30));
  auto [downed_out, downed_snap] = run(&plan);
  EXPECT_GT(downed_snap.ipc_link_down_retries, 0u);
  EXPECT_GT(downed_snap.net_link_blocked, 0u);
  EXPECT_GT(plan.stats().link_down_blocks, 0u);
  EXPECT_EQ(downed_snap.ipc_partition_retries, 0u);  // Not a partition.
  EXPECT_EQ(downed_out, clean_out);
}

// An empty-payload send crosses the wire like any packet: delivered, counted
// as a cross-replica transfer, zero payload bytes on the link.
TEST(NetTest, EmptyPayloadIpcSendCrossesTheWire) {
  Simulator sim;
  SymphonyCluster cluster(&sim, SplitPairOptions(61));
  SymphonyCluster::ClusterLip cons =
      cluster.Launch("consumer", "", [](LipContext& ctx) -> Task {
        StatusOr<std::string> msg = co_await ctx.recv("empty");
        if (msg.ok()) {
          ctx.emit("len" + std::to_string(msg->size()) + ";");
        }
        co_return;
      });
  SymphonyCluster::ClusterLip prod =
      cluster.Launch("producer", "", [](LipContext& ctx) -> Task {
        co_await ctx.send("empty", "");
        co_return;
      });
  EXPECT_NE(cons.replica, prod.replica);
  sim.Run();
  EXPECT_TRUE(cluster.Done(cons));
  EXPECT_EQ(cluster.Output(cons), "len0;");
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.ipc_cross_sends, 1u);
  EXPECT_EQ(snap.ipc_cross_bytes, 0u);
  EXPECT_EQ(snap.net_transfers, 1u);
  EXPECT_EQ(snap.net_payload_bytes, 0u);
  // The empty packet still took wire time to arrive.
  CostModel cost(ModelConfig::Tiny());
  EXPECT_GE(sim.now(), cost.hardware().interconnect_latency);
}

// A LIP whose journal folded completely into a checkpoint ships ZERO live
// bytes on migration (fully-deduped delta). Regression: the zero-byte ship
// must still route through the topology (paying latency) and replay must
// stay bit-identical.
TEST(NetTest, FullyDedupedDeltaShipRoutesThroughTopology) {
  auto sleeper = []() -> LipProgram {
    return [](LipContext& ctx) -> Task {
      for (int i = 0; i < 8; ++i) {
        co_await ctx.sleep(Micros(200));
      }
      co_await ctx.sleep(Millis(20));
      ctx.emit("done;");
      co_return;
    };
  };
  auto run = [&](bool migrate) {
    Simulator sim;
    ClusterOptions options = SplitPairOptions(67);
    options.replicas = 2;
    options.checkpoint_journals = true;
    options.checkpoint_interval = 4;
    SymphonyCluster cluster(&sim, options);
    SymphonyCluster::ClusterLip lip =
        cluster.Launch("sleeper", "", sleeper());
    if (migrate) {
      sim.ScheduleAt(Millis(10), [&cluster, lip] {
        SymphonyCluster::ClusterLip where = cluster.Locate(lip);
        (void)cluster.Migrate(where, (where.replica + 1) % 2);
      });
    }
    sim.Run();
    EXPECT_TRUE(cluster.Done(lip));
    return std::make_pair(cluster.Output(lip), cluster.Snapshot());
  };
  auto [baseline_out, baseline_snap] = run(false);
  EXPECT_EQ(baseline_out, "done;");
  EXPECT_GT(baseline_snap.checkpoints, 0u);
  auto [migrated_out, migrated_snap] = run(true);
  EXPECT_EQ(migrated_out, baseline_out);
  EXPECT_EQ(migrated_snap.replay_divergences, 0u);
  EXPECT_EQ(migrated_snap.delta_ships, 1u);
  EXPECT_EQ(migrated_snap.ship_bytes, 0u) << "journal was fully folded";
  // The checkpoint fetch and the zero-byte ship both rode the topology.
  EXPECT_GE(migrated_snap.net_transfers, 2u);
  EXPECT_EQ(migrated_snap.net_payload_bytes,
            migrated_snap.store.fetched_bytes + migrated_snap.ipc_cross_bytes +
                migrated_snap.ship_bytes);
}

// ---- Byte conservation (property) --------------------------------------

// Every cross-replica byte stream — IPC payloads, journal ships, store chunk
// fetches — is charged to the topology exactly once, so on the single-hop
// single-switch mesh the per-link byte totals reconcile with the consumer
// counters, under a random seeded kill/migrate with checkpointing active.
class ByteConservationPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ByteConservationPropertyTest, LinkBytesMatchConsumerCounters) {
  uint64_t seed = GetParam();
  auto run = [&](PairFault fault, SimTime at) {
    Simulator sim;
    ClusterOptions options = SplitPairOptions(seed);
    options.checkpoint_journals = true;
    options.checkpoint_interval = 8;
    SymphonyCluster cluster(&sim, options);
    SymphonyCluster::ClusterLip cons =
        cluster.Launch("consumer", "", PairConsumer(kPairMsgs));
    SymphonyCluster::ClusterLip prod =
        cluster.Launch("producer", "", PairProducer());
    if (fault != PairFault::kNone) {
      sim.ScheduleAt(at, [&cluster, cons, prod, fault] {
        SymphonyCluster::ClusterLip victim =
            (fault == PairFault::kKillProducerReplica ||
             fault == PairFault::kMigrateProducer)
                ? prod
                : cons;
        SymphonyCluster::ClusterLip where = cluster.Locate(victim);
        if (fault == PairFault::kKillProducerReplica ||
            fault == PairFault::kKillConsumerReplica) {
          (void)cluster.KillReplica(where.replica);
        } else {
          (void)cluster.Migrate(where, (where.replica + 1) % 3);
        }
      });
    }
    sim.Run();
    EXPECT_TRUE(cluster.Done(prod));
    EXPECT_TRUE(cluster.Done(cons));
    SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
    uint64_t link_bytes = 0;
    for (const TopoLinkReport& link : snap.net_links) {
      link_bytes += link.stats.bytes;
    }
    EXPECT_EQ(snap.net_payload_bytes,
              snap.ipc_cross_bytes + snap.ship_bytes + snap.store.fetched_bytes)
        << "seed=" << seed << " fault=" << static_cast<int>(fault);
    EXPECT_EQ(link_bytes, snap.net_payload_bytes)
        << "seed=" << seed << " fault=" << static_cast<int>(fault);
    return sim.now();
  };
  SimTime finish = run(PairFault::kNone, 0);
  ASSERT_GT(finish, 0);
  Rng rng(seed ^ 0xB17E5ULL);
  constexpr PairFault kFaults[] = {
      PairFault::kKillProducerReplica, PairFault::kKillConsumerReplica,
      PairFault::kMigrateProducer, PairFault::kMigrateConsumer};
  PairFault fault = kFaults[rng.NextBounded(4)];
  double frac = 0.1 + 0.7 * rng.NextDouble();
  (void)run(fault, static_cast<SimTime>(frac * static_cast<double>(finish)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteConservationPropertyTest,
                         ::testing::ValuesIn(StressSeeds(
                             {501, 502, 503, 504, 505, 506}, 0xB17)));

// ---- Multi-hop replay bit-identity (property) --------------------------

class TwoRackSplitPairPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

// The ISSUE 6 acceptance property survives multi-hop routing: on the 2-rack
// graph (every producer->consumer byte crosses rack switches, some the
// uplink), a random seeded kill/migrate of ONE endpoint keeps both outputs
// bit-identical to the fault-free 2-rack run. Routing is deterministic, so
// timing shifts never leak into payloads.
TEST_P(TwoRackSplitPairPropertyTest, MultiHopRoutingStaysBitIdentical) {
  uint64_t seed = GetParam();
  PairRun baseline = RunSplitPair(seed, PairFault::kNone, 0, /*two_rack=*/true);
  ASSERT_FALSE(baseline.consumer_out.empty());
  EXPECT_GT(baseline.snap.net_multi_hop, 0u);  // Really crossed switches.
  Rng rng(seed ^ 0x2AC5ULL);
  constexpr PairFault kFaults[] = {
      PairFault::kKillProducerReplica, PairFault::kKillConsumerReplica,
      PairFault::kMigrateProducer, PairFault::kMigrateConsumer};
  PairFault fault = kFaults[rng.NextBounded(4)];
  double frac = 0.1 + 0.7 * rng.NextDouble();
  SimTime at = static_cast<SimTime>(frac * static_cast<double>(baseline.finish));
  PairRun faulted = RunSplitPair(seed, fault, at, /*two_rack=*/true);
  EXPECT_GT(faulted.snap.net_multi_hop, 0u);
  EXPECT_EQ(faulted.producer_out, baseline.producer_out)
      << "seed=" << seed << " fault=" << static_cast<int>(fault)
      << " frac=" << frac;
  EXPECT_EQ(faulted.consumer_out, baseline.consumer_out)
      << "seed=" << seed << " fault=" << static_cast<int>(fault)
      << " frac=" << frac;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoRackSplitPairPropertyTest,
                         ::testing::ValuesIn(StressSeeds(
                             {601, 602, 603, 604, 605, 606}, 0x2AC)));

}  // namespace
}  // namespace symphony
