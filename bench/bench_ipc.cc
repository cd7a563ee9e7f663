// IPC fabric benchmark (src/net).
//
// Part 1 (ping-pong): two LIPs bounce a message back and forth over a pair
// of named channels, either co-located on one replica (every delivery is
// local) or split across replicas (every delivery crosses a simulated link).
// Reports round-trip latency, message throughput, and the fabric's
// local-vs-cross counters.
//
// Part 2 (split-pair migration stall): a producer streams messages at a
// fixed cadence to a consumer on another replica; mid-stream the consumer is
// migrated (or its replica killed) and the stream must re-route to its new
// home. The consumer stamps every arrival, so the report shows the longest
// inter-arrival gap (the stall the fault inserted), the completion delta
// versus the fault-free run, and whether the received sequence stayed
// bit-identical.
//
// Part 3 (slow consumer, bounded vs unbounded): a producer floods a channel
// whose home replica is inside a FaultPlan slow-consumer window, so every
// delivery stalls. Unbounded channels absorb the flood as queue growth;
// credit-bounded channels park the producer instead. The report compares
// peak queue depth (the memory proxy), producer completion, delivery
// goodput, and mean in-queue / end-to-end latency across credit limits.
//
// Part 4 (topology): rack locality and shared-uplink congestion. First the
// raw link graph: one-way / round-trip times intra-rack vs inter-rack on the
// 2-rack preset, across payload sizes (propagation dominates empty packets,
// serialization dominates large ones). Then a cluster run on a 2-rack graph
// with a deliberately thin uplink: a producer streams across the racks while
// a journal-heavy LIP migrates over the same uplink mid-stream, and the
// report shows the inter-arrival stall the migration's bytes inflict on
// concurrent IPC, plus the uplink's own queue-delay counter.
//
// Every row is also emitted as a JSON line (prefix "JSON ") for scripting.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/cluster.h"

namespace symphony {
namespace {

// ---- Part 1: ping-pong -------------------------------------------------

LipProgram Pinger(int rounds, std::vector<SimDuration>* rtts) {
  return [rounds, rtts](LipContext& ctx) -> Task {
    for (int i = 0; i < rounds; ++i) {
      SimTime start = ctx.now();
      co_await ctx.send("ping", "p" + std::to_string(i));
      StatusOr<std::string> reply = co_await ctx.recv("pong");
      if (!reply.ok()) {
        co_return;
      }
      rtts->push_back(ctx.now() - start);
    }
    co_return;
  };
}

LipProgram Ponger(int rounds) {
  return [rounds](LipContext& ctx) -> Task {
    for (int i = 0; i < rounds; ++i) {
      StatusOr<std::string> msg = co_await ctx.recv("ping");
      if (!msg.ok()) {
        co_return;
      }
      co_await ctx.send("pong", *msg + ":ack");
    }
    co_return;
  };
}

struct PingPongRun {
  double mean_rtt_us = 0.0;
  double msgs_per_s = 0.0;
  uint64_t local_deliveries = 0;
  uint64_t cross_sends = 0;
};

PingPongRun RunPingPong(bool colocated, int rounds) {
  Simulator sim;
  ClusterOptions options;
  options.replicas = 2;
  options.routing = colocated ? RoutingPolicy::kCacheAffinity
                              : RoutingPolicy::kRoundRobin;
  SymphonyCluster cluster(&sim, options);
  std::vector<SimDuration> rtts;
  // Ponger first: its recv registers both ends before the first ping.
  cluster.Launch("ponger", "pair", Ponger(rounds));
  cluster.Launch("pinger", "pair", Pinger(rounds, &rtts));
  sim.Run();
  PingPongRun run;
  SimDuration total = 0;
  for (SimDuration rtt : rtts) {
    total += rtt;
  }
  if (!rtts.empty()) {
    run.mean_rtt_us = ToSeconds(total) / static_cast<double>(rtts.size()) * 1e6;
  }
  double elapsed_s = ToSeconds(sim.now());
  if (elapsed_s > 0.0) {
    run.msgs_per_s = 2.0 * static_cast<double>(rtts.size()) / elapsed_s;
  }
  run.local_deliveries = cluster.fabric().stats().ipc_local_deliveries;
  run.cross_sends = cluster.fabric().stats().ipc_cross_sends;
  return run;
}

void PingPongSweep() {
  constexpr int kRounds = 64;
  BenchTable table({"placement", "mean_rtt_us", "msgs_per_s", "local",
                    "cross"});
  for (bool colocated : {true, false}) {
    PingPongRun run = RunPingPong(colocated, kRounds);
    const char* placement = colocated ? "intra-replica" : "cross-replica";
    table.AddRow({placement, Fmt(run.mean_rtt_us), Fmt(run.msgs_per_s, 0),
                  std::to_string(run.local_deliveries),
                  std::to_string(run.cross_sends)});
    std::printf(
        "JSON {\"bench\":\"ipc\",\"part\":\"pingpong\",\"placement\":\"%s\","
        "\"rounds\":%d,\"mean_rtt_us\":%.3f,\"msgs_per_s\":%.0f,"
        "\"local_deliveries\":%llu,\"cross_sends\":%llu}\n",
        placement, kRounds, run.mean_rtt_us, run.msgs_per_s,
        static_cast<unsigned long long>(run.local_deliveries),
        static_cast<unsigned long long>(run.cross_sends));
  }
  table.Print("channel ping-pong: intra- vs cross-replica (Llama13B links)");
}

// ---- Part 2: split-pair migration stall --------------------------------

constexpr int kStreamMsgs = 40;
constexpr SimDuration kStreamGap = Micros(500);

LipProgram StreamProducer() {
  return [](LipContext& ctx) -> Task {
    for (int i = 0; i < kStreamMsgs; ++i) {
      co_await ctx.send("stream", "s" + std::to_string(i));
      co_await ctx.sleep(kStreamGap);
    }
    co_return;
  };
}

// Stamps each message index first-write-wins: a replayed incarnation re-runs
// the loop, but its journal-served recvs must not overwrite the original
// live delivery times — only genuinely new (post-fault) arrivals stamp.
LipProgram StreamConsumer(std::vector<SimTime>* arrivals) {
  return [arrivals](LipContext& ctx) -> Task {
    for (int i = 0; i < kStreamMsgs; ++i) {
      StatusOr<std::string> msg = co_await ctx.recv("stream");
      if (!msg.ok()) {
        co_return;
      }
      if ((*arrivals)[i] == 0) {
        (*arrivals)[i] = ctx.now();
      }
      ctx.emit(*msg + ";");
    }
    co_return;
  };
}

enum class StreamFault { kNone, kMigrateConsumer, kKillConsumerReplica };

struct StreamRun {
  double finish_s = 0.0;
  double max_gap_us = 0.0;
  uint64_t forwarded = 0;
  uint64_t rehomes = 0;
  std::string log;
};

StreamRun RunStream(StreamFault fault, SimTime at) {
  Simulator sim;
  ClusterOptions options;
  options.replicas = 3;
  options.routing = RoutingPolicy::kRoundRobin;
  options.enable_recovery = true;
  SymphonyCluster cluster(&sim, options);
  std::vector<SimTime> arrivals(kStreamMsgs, 0);
  StreamRun run;
  SymphonyCluster::ClusterLip cons =
      cluster.Launch("consumer", "", StreamConsumer(&arrivals));
  cluster.Launch("producer", "", StreamProducer());
  if (fault != StreamFault::kNone) {
    sim.ScheduleAt(at, [&cluster, cons, fault] {
      SymphonyCluster::ClusterLip where = cluster.Locate(cons);
      if (fault == StreamFault::kMigrateConsumer) {
        (void)cluster.Migrate(where, 2);  // The idle third replica.
      } else {
        (void)cluster.KillReplica(where.replica);
      }
    });
  }
  sim.Run();
  run.finish_s = ToSeconds(sim.now());
  run.log = cluster.Output(cons);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i] == 0 || arrivals[i - 1] == 0) {
      continue;
    }
    run.max_gap_us = std::max(
        run.max_gap_us, ToSeconds(arrivals[i] - arrivals[i - 1]) * 1e6);
  }
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  run.forwarded = snap.ipc_forwarded;
  run.rehomes = snap.ipc_rehomes;
  return run;
}

void MigrationStallSweep() {
  StreamRun baseline = RunStream(StreamFault::kNone, 0);
  BenchTable table({"fault", "max_gap_us", "stall_vs_clean_us",
                    "completion_delta_ms", "forwarded", "rehomes",
                    "bit_identical"});
  struct Case {
    const char* name;
    StreamFault fault;
  };
  constexpr Case kCases[] = {
      {"none", StreamFault::kNone},
      {"migrate-consumer", StreamFault::kMigrateConsumer},
      {"kill-consumer-replica", StreamFault::kKillConsumerReplica},
  };
  SimTime mid = DurationFromSeconds(baseline.finish_s / 2.0);
  for (const Case& c : kCases) {
    StreamRun run = RunStream(c.fault, mid);
    double stall_us = run.max_gap_us - baseline.max_gap_us;
    double delta_ms = (run.finish_s - baseline.finish_s) * 1e3;
    bool identical = run.log == baseline.log;
    table.AddRow({c.name, Fmt(run.max_gap_us), Fmt(stall_us),
                  Fmt(delta_ms), std::to_string(run.forwarded),
                  std::to_string(run.rehomes), identical ? "yes" : "NO"});
    std::printf(
        "JSON {\"bench\":\"ipc\",\"part\":\"migration_stall\","
        "\"fault\":\"%s\",\"max_gap_us\":%.3f,\"stall_vs_clean_us\":%.3f,"
        "\"completion_delta_ms\":%.3f,\"forwarded\":%llu,\"rehomes\":%llu,"
        "\"bit_identical\":%s}\n",
        c.name, run.max_gap_us, stall_us, delta_ms,
        static_cast<unsigned long long>(run.forwarded),
        static_cast<unsigned long long>(run.rehomes),
        identical ? "true" : "false");
  }
  std::printf("\nstream: %d msgs at %.0fus cadence, fault at t=%.3fms\n",
              kStreamMsgs, ToSeconds(kStreamGap) * 1e6,
              ToSeconds(mid) * 1e3);
  table.Print("split-pair stream: migration/kill stall (Llama13B links)");
}

// ---- Part 3: slow consumer, bounded vs unbounded -----------------------

constexpr int kFloodMsgs = 64;
constexpr SimDuration kConsumerStall = Micros(200);

// Sends as fast as the channel admits. `offered[i]` is when the producer
// reached the send (includes any credit-park time in later deltas);
// `accepted[i]` is when the fabric took the message.
LipProgram FloodProducer(std::vector<SimTime>* offered,
                         std::vector<SimTime>* accepted) {
  return [offered, accepted](LipContext& ctx) -> Task {
    for (int i = 0; i < kFloodMsgs; ++i) {
      (*offered)[i] = ctx.now();
      co_await ctx.send("flood", "f" + std::to_string(i));
      (*accepted)[i] = ctx.now();
    }
    co_return;
  };
}

LipProgram FloodConsumer(std::vector<SimTime>* arrivals) {
  return [arrivals](LipContext& ctx) -> Task {
    for (int i = 0; i < kFloodMsgs; ++i) {
      StatusOr<std::string> msg = co_await ctx.recv("flood");
      if (!msg.ok()) {
        co_return;
      }
      (*arrivals)[i] = ctx.now();  // Single producer: FIFO, index == order.
    }
    co_return;
  };
}

struct SlowConsumerRun {
  uint64_t queue_peak = 0;
  uint64_t credit_waits = 0;
  double producer_done_ms = 0.0;
  double finish_ms = 0.0;
  double goodput_msgs_per_s = 0.0;
  double mean_queue_us = 0.0;  // accepted -> delivered (fabric residency).
  double mean_e2e_us = 0.0;    // offered -> delivered (producer's view).
};

SlowConsumerRun RunSlowConsumer(uint64_t credits) {
  Simulator sim;
  FaultPlan faults(7);
  // Consumer lands on replica 0 (round-robin, launched first), so the
  // channel homes there; stall every delivery for the whole run.
  faults.AddSlowConsumer(0, 0, Seconds(60), kConsumerStall);
  ClusterOptions options;
  options.replicas = 2;
  options.routing = RoutingPolicy::kRoundRobin;
  options.server.fault_plan = &faults;
  options.ipc.channel_credits = credits;
  SymphonyCluster cluster(&sim, options);
  std::vector<SimTime> offered(kFloodMsgs, 0);
  std::vector<SimTime> accepted(kFloodMsgs, 0);
  std::vector<SimTime> arrivals(kFloodMsgs, 0);
  cluster.Launch("consumer", "", FloodConsumer(&arrivals));
  cluster.Launch("producer", "", FloodProducer(&offered, &accepted));
  sim.Run();
  SlowConsumerRun run;
  run.queue_peak = cluster.fabric().View("flood").queue_peak;
  run.credit_waits = cluster.fabric().stats().ipc_credit_waits;
  run.producer_done_ms = ToSeconds(accepted.back()) * 1e3;
  run.finish_ms = ToSeconds(arrivals.back()) * 1e3;
  if (arrivals.back() > 0) {
    run.goodput_msgs_per_s =
        static_cast<double>(kFloodMsgs) / ToSeconds(arrivals.back());
  }
  SimDuration queue_total = 0;
  SimDuration e2e_total = 0;
  for (int i = 0; i < kFloodMsgs; ++i) {
    queue_total += arrivals[i] - accepted[i];
    e2e_total += arrivals[i] - offered[i];
  }
  run.mean_queue_us = ToSeconds(queue_total) / kFloodMsgs * 1e6;
  run.mean_e2e_us = ToSeconds(e2e_total) / kFloodMsgs * 1e6;
  return run;
}

void SlowConsumerSweep() {
  BenchTable table({"credits", "queue_peak", "credit_waits",
                    "producer_done_ms", "finish_ms", "goodput_msg_s",
                    "mean_queue_us", "mean_e2e_us"});
  for (uint64_t credits : {uint64_t{0}, uint64_t{4}, uint64_t{16}}) {
    SlowConsumerRun run = RunSlowConsumer(credits);
    std::string label = credits == 0 ? "unbounded" : std::to_string(credits);
    table.AddRow({label, std::to_string(run.queue_peak),
                  std::to_string(run.credit_waits),
                  Fmt(run.producer_done_ms), Fmt(run.finish_ms),
                  Fmt(run.goodput_msgs_per_s, 0), Fmt(run.mean_queue_us),
                  Fmt(run.mean_e2e_us)});
    std::printf(
        "JSON {\"bench\":\"ipc\",\"part\":\"slow_consumer\","
        "\"credits\":%llu,\"msgs\":%d,\"queue_peak\":%llu,"
        "\"credit_waits\":%llu,\"producer_done_ms\":%.3f,\"finish_ms\":%.3f,"
        "\"goodput_msgs_per_s\":%.0f,\"mean_queue_us\":%.3f,"
        "\"mean_e2e_us\":%.3f}\n",
        static_cast<unsigned long long>(credits), kFloodMsgs,
        static_cast<unsigned long long>(run.queue_peak),
        static_cast<unsigned long long>(run.credit_waits),
        run.producer_done_ms, run.finish_ms, run.goodput_msgs_per_s,
        run.mean_queue_us, run.mean_e2e_us);
  }
  std::printf("\nflood: %d msgs, consumer stalled %.0fus/delivery\n",
              kFloodMsgs, ToSeconds(kConsumerStall) * 1e6);
  table.Print(
      "slow consumer: queue growth vs credit backpressure (Llama13B links)");
}

// ---- Part 4: topology — rack locality and uplink congestion ------------

// Raw link-graph round trips on the 2-rack preset: replicas {0,1} share
// rack0, {2,3} share rack1. Each measurement uses a fresh topology so idle
// link state never bleeds between rows; forward and reverse directions are
// independent wires, so RTT = 2x the one-way arrival.
void TopologyRttSweep() {
  CostModel cost(ModelConfig::Llama13B());
  BenchTable table({"scope", "payload_b", "one_way_us", "rtt_us"});
  struct Scope {
    const char* name;
    size_t from, to;
  };
  constexpr Scope kScopes[] = {{"intra-rack", 0, 1}, {"inter-rack", 0, 2}};
  for (const Scope& scope : kScopes) {
    for (uint64_t payload : {uint64_t{0}, uint64_t{4096}, uint64_t{1 << 20}}) {
      Simulator sim;
      TopologyOptions topt;
      topt.preset = TopologyOptions::Preset::kTwoRack;
      topt.rack_split = 2;
      NetworkTopology topo(&sim, &cost, nullptr, nullptr, 4, topt);
      double one_way_us =
          ToSeconds(topo.Transfer(scope.from, scope.to, payload, "rtt")) * 1e6;
      double rtt_us = 2.0 * one_way_us;
      table.AddRow({scope.name, std::to_string(payload), Fmt(one_way_us),
                    Fmt(rtt_us)});
      std::printf(
          "JSON {\"bench\":\"ipc\",\"part\":\"topology_rtt\","
          "\"scope\":\"%s\",\"payload_bytes\":%llu,\"one_way_us\":%.3f,"
          "\"rtt_us\":%.3f}\n",
          scope.name, static_cast<unsigned long long>(payload), one_way_us,
          rtt_us);
    }
  }
  table.Print("2-rack topology: intra- vs inter-rack transfer (Llama13B)");
}

// Builds a journal worth shipping: local self-channel traffic with fat
// payloads (recv replay keeps the bytes), paced so the LIP is still alive
// when the migration fires.
constexpr int kBulkMsgs = 64;
constexpr size_t kBulkPayload = 512;

LipProgram BulkJournalLip() {
  return [](LipContext& ctx) -> Task {
    for (int i = 0; i < kBulkMsgs; ++i) {
      co_await ctx.send("bulk", std::string(kBulkPayload, 'b'));
      StatusOr<std::string> msg = co_await ctx.recv("bulk");
      if (!msg.ok()) {
        co_return;
      }
      co_await ctx.sleep(Micros(300));
    }
    ctx.emit("bulk-done;");
    co_return;
  };
}

struct CongestionRun {
  double max_gap_us = 0.0;
  double finish_ms = 0.0;
  uint64_t ship_bytes = 0;
  uint64_t fetched_bytes = 0;
  double uplink_queue_us = 0.0;
  std::string log;
};

// Two replicas on opposite racks joined by a deliberately thin uplink.
// Stream: producer (replica 1) -> consumer (replica 0), i.e. every message
// rides the rack1->rack0 uplink direction. The bulk LIP sits on replica 1;
// migrating it to replica 0 ships its journal over that SAME directed
// uplink, so the stream queues behind the migration's bytes.
CongestionRun RunUplinkCongestion(bool migrate_bulk) {
  Simulator sim;
  ClusterOptions options;
  options.replicas = 2;
  options.routing = RoutingPolicy::kRoundRobin;
  options.enable_recovery = true;
  options.topology.preset = TopologyOptions::Preset::kTwoRack;
  options.topology.rack_split = 1;            // replica0 | replica1.
  options.topology.uplink_bandwidth = 1e6;    // 1 MB/s: ~1us per byte.
  SymphonyCluster cluster(&sim, options);
  std::vector<SimTime> arrivals(kStreamMsgs, 0);
  // Round-robin placement: consumer->0, producer->1, filler->0, bulk->1.
  SymphonyCluster::ClusterLip cons =
      cluster.Launch("consumer", "", StreamConsumer(&arrivals));
  cluster.Launch("producer", "", StreamProducer());
  cluster.Launch("filler", "", [](LipContext& ctx) -> Task {
    (void)ctx;
    co_return;
  });
  SymphonyCluster::ClusterLip bulk =
      cluster.Launch("bulk", "", BulkJournalLip());
  if (migrate_bulk) {
    sim.ScheduleAt(Millis(8), [&cluster, bulk] {
      SymphonyCluster::ClusterLip where = cluster.Locate(bulk);
      (void)cluster.Migrate(where, 0);
    });
  }
  sim.Run();
  CongestionRun run;
  run.log = cluster.Output(cons);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i] == 0 || arrivals[i - 1] == 0) {
      continue;
    }
    run.max_gap_us = std::max(
        run.max_gap_us, ToSeconds(arrivals[i] - arrivals[i - 1]) * 1e6);
  }
  run.finish_ms = ToSeconds(sim.now()) * 1e3;
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  run.ship_bytes = snap.ship_bytes;
  run.fetched_bytes = snap.store.fetched_bytes;
  for (const TopoLinkReport& link : snap.net_links) {
    if (link.name == "link:rack1->rack0") {
      run.uplink_queue_us = ToSeconds(link.stats.queue_delay) * 1e6;
    }
  }
  return run;
}

void UplinkCongestionSweep() {
  CongestionRun clean = RunUplinkCongestion(false);
  CongestionRun congested = RunUplinkCongestion(true);
  BenchTable table({"scenario", "max_gap_us", "stall_vs_clean_us",
                    "uplink_queue_us", "ship_bytes", "fetched_bytes",
                    "bit_identical"});
  struct Case {
    const char* name;
    const CongestionRun* run;
  };
  const Case kCases[] = {{"stream-only", &clean},
                         {"stream+migration", &congested}};
  for (const Case& c : kCases) {
    double stall_us = c.run->max_gap_us - clean.max_gap_us;
    bool identical = c.run->log == clean.log;
    table.AddRow({c.name, Fmt(c.run->max_gap_us), Fmt(stall_us),
                  Fmt(c.run->uplink_queue_us),
                  std::to_string(c.run->ship_bytes),
                  std::to_string(c.run->fetched_bytes),
                  identical ? "yes" : "NO"});
    std::printf(
        "JSON {\"bench\":\"ipc\",\"part\":\"uplink_congestion\","
        "\"scenario\":\"%s\",\"max_gap_us\":%.3f,\"stall_vs_clean_us\":%.3f,"
        "\"uplink_queue_us\":%.3f,\"ship_bytes\":%llu,\"fetched_bytes\":%llu,"
        "\"bit_identical\":%s}\n",
        c.name, c.run->max_gap_us, stall_us, c.run->uplink_queue_us,
        static_cast<unsigned long long>(c.run->ship_bytes),
        static_cast<unsigned long long>(c.run->fetched_bytes),
        identical ? "true" : "false");
  }
  std::printf(
      "\n2 racks (replica0 | replica1), uplink 1 MB/s; bulk LIP (%d x %zuB "
      "journal) migrates across the uplink at t=8ms\n",
      kBulkMsgs, kBulkPayload);
  table.Print("shared uplink: migration bytes stall concurrent IPC");
}

}  // namespace
}  // namespace symphony

int main() {
  std::printf("bench_ipc: cluster IPC fabric latency, throughput, stalls\n");
  symphony::PingPongSweep();
  symphony::MigrationStallSweep();
  symphony::SlowConsumerSweep();
  symphony::TopologyRttSweep();
  symphony::UplinkCongestionSweep();
  return 0;
}
