// Tests for src/ctrl: the autonomic control plane — heartbeat failure
// detection, epoch-fenced automatic recovery, readmission, and elastic
// replica scaling.
//
// The acceptance property (ISSUE 9): with ONLY a seeded FaultPlan crash (no
// external KillReplica call) the cluster detects the failure via missed
// heartbeats and auto-recovers every hosted LIP bit-identically to a
// fault-free run; a partition-induced false suspicion is fenced without
// double execution — property-tested across seeds and random fault windows.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/serve/cluster.h"

namespace symphony {
namespace {

// Same multi-turn tool-calling agent as the recovery tests: samples tokens
// (RNG-dependent), calls a tool whose args depend on generated state, sleeps
// between turns, and emits everything. Captures nothing by reference so the
// cluster's retained copy can re-run it during replay.
LipProgram MakeAgent(int turns) {
  return [turns](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    std::vector<TokenId> prompt = ctx.tokenizer().Encode("w1 w2 w3");
    StatusOr<std::vector<Distribution>> dists = co_await ctx.pred(kv, prompt);
    if (!dists.ok()) {
      co_return;
    }
    TokenId next = dists->back().Sample(ctx.uniform(), 0.8);
    for (int turn = 0; turn < turns; ++turn) {
      for (int i = 0; i < 6 && next != kEosToken; ++i) {
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
      if (next == kEosToken) {
        break;
      }
    }
    co_return;
  };
}

// A deterministic calculator stand-in that counts real executions through a
// side channel. Replay serves journaled results verbatim (the handler never
// re-runs), so the counter measures exactly-once-ness: only an in-flight,
// not-yet-journaled call at kill time may legally execute a second time.
ToolSpec CountingTool(std::string name, SimDuration latency,
                      uint64_t* executions) {
  ToolSpec spec;
  spec.name = std::move(name);
  spec.description = "side-effect-counting calculator";
  spec.handler = [latency, executions](const std::string& args, Rng&) {
    ++*executions;
    ToolInvocation out;
    out.latency = latency;
    out.output = "v=" + args;
    return out;
  };
  return spec;
}

// Detector cadence fast enough that a mid-run fault is detected, fenced, and
// recovered well inside one agent's lifetime.
ControlPlaneOptions FastCtrl() {
  ControlPlaneOptions ctrl;
  ctrl.enabled = true;
  ctrl.heartbeat_period = Millis(2);
  ctrl.heartbeat_jitter = 0.25;
  ctrl.suspect_after = Millis(4);
  ctrl.lease = Millis(7);
  ctrl.declare_dead_after = Millis(10);
  ctrl.sweep_period = Millis(2);
  return ctrl;
}

ClusterOptions CtrlCluster(uint64_t seed, size_t replicas,
                           uint64_t* executions) {
  ClusterOptions options;
  options.replicas = replicas;
  options.routing = RoutingPolicy::kRoundRobin;
  options.server.model = ModelConfig::Tiny();
  options.server.runtime.seed = seed;
  options.enable_recovery = true;
  options.ctrl = FastCtrl();
  // Through configure_replica so slots rebuilt by readmission (and replicas
  // added by scale-out) serve the same tool surface as the original fleet.
  options.configure_replica = [executions](SymphonyServer& server, size_t) {
    ASSERT_TRUE(server.tools()
                    .Register(CountingTool("calc", Millis(2), executions))
                    .ok());
  };
  return options;
}

struct CtrlRun {
  std::string output;  // All agent outputs, '|'-joined in launch order.
  SimTime finish = 0;
  uint64_t tool_executions = 0;
  SymphonyCluster::ClusterSnapshot snap;
};

// Launches `agents` identical agents round-robin and runs to completion;
// `arm` may register FaultPlan windows and gets called before construction.
CtrlRun RunCtrlAgents(uint64_t seed, size_t replicas, int agents, int turns,
                      const std::function<void(FaultPlan&)>& arm = nullptr) {
  Simulator sim;
  FaultPlan plan(seed);
  if (arm) {
    arm(plan);
  }
  CtrlRun run;
  ClusterOptions options = CtrlCluster(seed, replicas, &run.tool_executions);
  options.server.fault_plan = &plan;
  SymphonyCluster cluster(&sim, options);
  std::vector<SymphonyCluster::ClusterLip> ids;
  for (int i = 0; i < agents; ++i) {
    ids.push_back(cluster.Launch("agent" + std::to_string(i), "",
                                 MakeAgent(turns)));
    EXPECT_EQ(ids.back().replica, static_cast<size_t>(i) % replicas);
  }
  sim.Run();
  for (const SymphonyCluster::ClusterLip& id : ids) {
    EXPECT_TRUE(cluster.Done(id));
    run.output += cluster.Output(id) + "|";
  }
  run.finish = sim.now();
  run.snap = cluster.Snapshot();
  EXPECT_EQ(run.snap.replay_divergences, 0u);
  return run;
}

// ---- The acceptance property ------------------------------------------

// A seeded FaultPlan crash — no KillReplica call anywhere — is detected by
// missed heartbeats, declared dead, fenced, and its LIP auto-recovered
// bit-identically to the fault-free run.
TEST(CtrlTest, SeededCrashIsDetectedAndAutoRecoveredBitIdentical) {
  const uint64_t seed = 9001;
  CtrlRun baseline = RunCtrlAgents(seed, 2, /*agents=*/1, /*turns=*/6);
  ASSERT_FALSE(baseline.output.empty());
  ASSERT_GT(baseline.finish, 0);
  EXPECT_EQ(baseline.snap.ctrl.dead_declared, 0u);
  EXPECT_GT(baseline.snap.ctrl.heartbeats_delivered, 0u);

  SimTime crash_at = baseline.finish * 2 / 5;  // Mid-run on replica 0.
  CtrlRun crashed =
      RunCtrlAgents(seed, 2, 1, 6, [crash_at](FaultPlan& plan) {
        plan.CrashReplicaAt(0, crash_at);
      });
  EXPECT_EQ(crashed.output, baseline.output);
  EXPECT_GE(crashed.snap.ctrl.dead_declared, 1u);
  EXPECT_GE(crashed.snap.ctrl.auto_failovers, 1u);
  EXPECT_GE(crashed.snap.failovers, 1u);
  EXPECT_GT(crashed.snap.ctrl.last_dead_declared_at, crash_at);
  EXPECT_GT(crashed.snap.ctrl.detection_age_total, 0);
  // The fleet's view: replica 0 dead and fenced at a bumped epoch, the seat
  // moved to the survivor.
  ASSERT_EQ(crashed.snap.liveness.size(), 2u);
  EXPECT_EQ(crashed.snap.liveness[0].state, ReplicaHealth::kDead);
  EXPECT_TRUE(crashed.snap.liveness[0].fenced);
  EXPECT_EQ(crashed.snap.liveness[0].epoch, 2u);
  EXPECT_EQ(crashed.snap.liveness[1].state, ReplicaHealth::kLive);
  EXPECT_EQ(crashed.snap.ctrl_seat, 1u);
  // Exactly-once: at most the one in-flight tool call per failover re-runs.
  EXPECT_LE(crashed.tool_executions,
            baseline.tool_executions + crashed.snap.failovers);
}

// A crash with a heal window (FaultPlan down_for) is readmitted at the
// bumped epoch once the process returns, and the slot serves again.
TEST(CtrlTest, HealedCrashIsReadmittedAtBumpedEpoch) {
  const uint64_t seed = 9002;
  CtrlRun baseline = RunCtrlAgents(seed, 2, 1, 6);
  ASSERT_FALSE(baseline.output.empty());

  SimTime crash_at = baseline.finish / 4;
  SimDuration down_for = baseline.finish;  // Heals after the work drained.
  Simulator sim;
  FaultPlan plan(seed);
  plan.CrashReplicaAt(0, crash_at, down_for);
  uint64_t executions = 0;
  ClusterOptions options = CtrlCluster(seed, 2, &executions);
  options.server.fault_plan = &plan;
  SymphonyCluster cluster(&sim, options);
  SymphonyCluster::ClusterLip id = cluster.Launch("agent", "", MakeAgent(6));
  sim.Run();
  EXPECT_TRUE(cluster.Done(id));
  EXPECT_EQ(cluster.Output(id) + "|", baseline.output);
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_GE(snap.ctrl.dead_declared, 1u);
  EXPECT_EQ(snap.ctrl.readmissions, 1u);
  EXPECT_GE(snap.ctrl.last_readmission_at, crash_at + down_for);
  EXPECT_FALSE(cluster.replica_dead(0));
  ASSERT_EQ(snap.liveness.size(), 2u);
  EXPECT_EQ(snap.liveness[0].state, ReplicaHealth::kLive);
  EXPECT_EQ(snap.liveness[0].epoch, 2u);
  EXPECT_FALSE(snap.liveness[0].fenced);
  // The readmitted slot is placeable again: new work can land on it (the
  // rebuilt server got its tools back through configure_replica).
  SymphonyCluster::ClusterLip next = cluster.Launch("again", "", MakeAgent(2));
  sim.Run();
  EXPECT_TRUE(cluster.Done(next));
  EXPECT_FALSE(cluster.Output(next).empty());
  EXPECT_EQ(cluster.Snapshot().replay_divergences, 0u);
}

// Cluster aggregates span every incarnation of a slot. Slot 0 finishes a
// LIP and runs batches, crashes with a LIP still on it, heals, and is
// rebuilt by readmission; its old server's work must stay in the totals, so
// no counter goes backwards across the readmission, and the queue-wait
// percentiles are those of every incarnation's samples.
TEST(CtrlTest, SnapshotAggregatesSpanReadmittedIncarnations) {
  const uint64_t seed = 9002;
  CtrlRun baseline = RunCtrlAgents(seed, 2, /*agents=*/2, /*turns=*/8);
  SimTime crash_at = baseline.finish / 2;
  SimTime heal_at = crash_at + baseline.finish;  // After the work drained.
  Simulator sim;
  FaultPlan plan(seed);
  plan.CrashReplicaAt(0, crash_at, heal_at - crash_at);
  uint64_t executions = 0;
  ClusterOptions options = CtrlCluster(seed, 2, &executions);
  options.server.fault_plan = &plan;
  std::vector<std::vector<SymphonyServer*>> incarnations(2);
  options.configure_replica = [configure = options.configure_replica,
                               &incarnations](SymphonyServer& server,
                                              size_t index) {
    configure(server, index);
    incarnations[index].push_back(&server);
  };
  SymphonyCluster cluster(&sim, options);
  // Round-robin: a short agent per slot finishes before the crash, and a
  // long one per slot is still running when slot 0 goes down.
  std::vector<SymphonyCluster::ClusterLip> ids;
  for (int turns : {1, 1, 8, 8}) {
    ids.push_back(cluster.Launch("agent" + std::to_string(ids.size()), "",
                                 MakeAgent(turns)));
  }
  SymphonyCluster::ClusterSnapshot before;
  sim.ScheduleAt(heal_at - 1, [&] { before = cluster.Snapshot(); });
  sim.Run();
  ASSERT_EQ(incarnations[0].size(), 2u);  // Readmission rebuilt slot 0.
  SymphonyServer* crashed = incarnations[0][0];
  ASSERT_GT(crashed->runtime().stats().lips_completed, 0u);
  ASSERT_GT(crashed->device().stats().batches, 0u);
  EXPECT_EQ(before.ctrl.readmissions, 0u);
  EXPECT_GE(before.failovers, 1u);
  // New work lands on the rebuilt slot too.
  for (int i = 0; i < 2; ++i) {
    ids.push_back(cluster.Launch("late" + std::to_string(i), "", MakeAgent(2)));
  }
  sim.Run();
  for (const SymphonyCluster::ClusterLip& id : ids) {
    EXPECT_TRUE(cluster.Done(id));
  }
  ASSERT_GT(incarnations[0][1]->device().stats().batches, 0u);
  SymphonyCluster::ClusterSnapshot after = cluster.Snapshot();
  EXPECT_EQ(after.ctrl.readmissions, 1u);
  EXPECT_EQ(after.replay_divergences, 0u);

  using Snap = SymphonyCluster::ClusterSnapshot;
  const std::pair<const char*, uint64_t Snap::*> counters[] = {
      {"batches", &Snap::batches},
      {"lips_completed", &Snap::lips_completed},
      {"lips_replayed", &Snap::lips_replayed},
      {"replay_divergences", &Snap::replay_divergences},
      {"ipc_recvs_replayed", &Snap::ipc_recvs_replayed},
      {"ipc_sends_suppressed", &Snap::ipc_sends_suppressed},
      {"ipc_credit_waits_replayed", &Snap::ipc_credit_waits_replayed},
      {"decode_tokens_batched", &Snap::decode_tokens_batched},
      {"prefill_tokens_batched", &Snap::prefill_tokens_batched},
      {"prefill_chunks", &Snap::prefill_chunks},
      {"prefills_chunked", &Snap::prefills_chunked},
      {"failovers", &Snap::failovers},
  };
  for (const auto& [name, counter] : counters) {
    EXPECT_GE(after.*counter, before.*counter) << name;
  }
  uint64_t batches = 0;
  uint64_t completed = 0;
  SampleSeries waits;
  for (const std::vector<SymphonyServer*>& slot : incarnations) {
    for (SymphonyServer* server : slot) {
      batches += server->device().stats().batches;
      completed += server->runtime().stats().lips_completed;
      for (double wait : server->scheduler().queue_waits_ms().samples()) {
        waits.Add(wait);
      }
    }
  }
  EXPECT_EQ(after.batches, batches);
  EXPECT_EQ(after.lips_completed, completed);
  EXPECT_EQ(after.queue_wait_p50_ms, waits.Percentile(0.5));
  EXPECT_EQ(after.queue_wait_p99_ms, waits.Percentile(0.99));
}

// A partition between a replica and the seat silences its heartbeats: the
// replica self-fences at the lease, the seat declares it dead and replays
// its LIP elsewhere, and when the window closes the (healthy, never-crashed)
// process readmits at the bumped epoch. The LIP executed exactly once.
TEST(CtrlTest, PartitionFalseDeathIsFencedWithoutDoubleExecution) {
  const uint64_t seed = 9003;
  CtrlRun baseline = RunCtrlAgents(seed, 3, /*agents=*/3, /*turns=*/8);
  ASSERT_FALSE(baseline.output.empty());
  ASSERT_GT(baseline.tool_executions, 0u);
  // Detection must complete while the victim's LIP is still running.
  ASSERT_GT(baseline.finish, Millis(30));

  // Replica 2 beats to the seat (0); partition that pair only, so the seat's
  // own deputy beats (0 -> 1) stay clean.
  SimTime p_at = baseline.finish / 4;
  SimDuration p_for = Millis(25);
  CtrlRun cut = RunCtrlAgents(seed, 3, 3, 8, [p_at, p_for](FaultPlan& plan) {
    plan.AddPartition(0, 2, p_at, p_for);
  });
  EXPECT_EQ(cut.output, baseline.output);
  // The isolated replica fenced ITSELF before the seat declared it dead
  // (lease < declare_dead_after), so the failover never raced a zombie.
  EXPECT_GE(cut.snap.ctrl.self_fences, 1u);
  EXPECT_GE(cut.snap.ctrl.heartbeats_dropped, 1u);
  EXPECT_GE(cut.snap.ctrl.dead_declared, 1u);
  EXPECT_GE(cut.snap.failovers, 1u);
  // The window closed: the healthy process rejoined at the bumped epoch.
  EXPECT_GE(cut.snap.ctrl.readmissions, 1u);
  ASSERT_EQ(cut.snap.liveness.size(), 3u);
  EXPECT_EQ(cut.snap.liveness[2].state, ReplicaHealth::kLive);
  EXPECT_GE(cut.snap.liveness[2].epoch, 2u);
  // Exactly-once under false death: every journaled call replayed verbatim.
  EXPECT_LE(cut.tool_executions,
            baseline.tool_executions + cut.snap.failovers);
}

// A partition shorter than the lease only produces a suspicion (routing
// de-prefers the replica) that clears when beats resume: no fence, no
// declaration, no failover, and identical outputs.
TEST(CtrlTest, ShortPartitionCausesOnlyAFalseSuspicion) {
  const uint64_t seed = 9004;
  CtrlRun baseline = RunCtrlAgents(seed, 3, 3, 8);
  ASSERT_GT(baseline.finish, Millis(30));

  SimTime p_at = baseline.finish / 4;
  CtrlRun blip = RunCtrlAgents(seed, 3, 3, 8, [p_at](FaultPlan& plan) {
    plan.AddPartition(0, 2, p_at, Millis(6));  // < lease (7ms).
  });
  EXPECT_EQ(blip.output, baseline.output);
  EXPECT_GE(blip.snap.ctrl.suspicions, 1u);
  EXPECT_GE(blip.snap.ctrl.false_suspicions, 1u);
  EXPECT_EQ(blip.snap.ctrl.self_fences, 0u);
  EXPECT_EQ(blip.snap.ctrl.dead_declared, 0u);
  EXPECT_EQ(blip.snap.failovers, 0u);
  EXPECT_EQ(blip.snap.ctrl.readmissions, 0u);
  EXPECT_EQ(blip.tool_executions, baseline.tool_executions);
}

// ---- Elasticity --------------------------------------------------------

// Submit-flood sheds trip the scaling loop: the fleet grows at runtime and
// the new replica (attached to the topology and fabric, tools registered via
// configure_replica) absorbs later waves.
TEST(CtrlTest, ScalingLoopGrowsTheFleetUnderLoad) {
  Simulator sim;
  uint64_t executions = 0;
  ClusterOptions options = CtrlCluster(31, /*replicas=*/1, &executions);
  options.routing = RoutingPolicy::kLeastLoaded;
  options.server.admission.enabled = true;
  options.server.admission.max_live_lips = 2;
  options.server.admission.max_queue = 1;
  options.ctrl.scaling.enabled = true;
  options.ctrl.scaling.min_replicas = 1;
  options.ctrl.scaling.max_replicas = 3;
  options.ctrl.scaling.evaluate_period = Millis(4);
  options.ctrl.scaling.scale_out_on_sheds = 1;
  options.ctrl.scaling.scale_out_cooldown = Millis(8);
  options.ctrl.scaling.scale_in_load = 0.0;  // Never drain in this test.
  SymphonyCluster cluster(&sim, options);

  uint64_t accepted = 0;
  auto submit_wave = [&cluster, &accepted](int count) {
    for (int i = 0; i < count; ++i) {
      SymphonyServer::LaunchSpec spec;
      spec.name = "burst";
      spec.program = MakeAgent(2);
      if (cluster.Submit(std::move(spec)).result.status.ok()) {
        ++accepted;
      }
    }
  };
  submit_wave(6);  // 2 admitted + 1 queued on the lone replica; 3 shed.
  sim.ScheduleAt(Millis(12), [&] { submit_wave(4); });
  sim.ScheduleAt(Millis(24), [&] { submit_wave(4); });
  sim.Run();

  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_GE(snap.submit_sheds, 1u);
  EXPECT_GE(snap.ctrl.scale_outs, 1u);
  EXPECT_GT(cluster.replica_count(), 1u);
  EXPECT_GE(snap.ctrl.last_scale_out_at, 0);
  ASSERT_EQ(snap.liveness.size(), cluster.replica_count());
  // The scaled-out capacity actually took load.
  uint64_t beyond_first = 0;
  for (size_t i = 1; i < snap.lips_per_replica.size(); ++i) {
    beyond_first += snap.lips_per_replica[i];
  }
  EXPECT_GT(beyond_first, 0u);
  EXPECT_GE(snap.lips_completed, accepted);
  EXPECT_EQ(snap.replay_divergences, 0u);
}

// With load below the floor the scaling loop drains the emptiest replica:
// placement stops, its LIPs migrate off, and the sweep detaches it.
TEST(CtrlTest, ScalingLoopDrainsAndDetachesAnIdleReplica) {
  Simulator sim;
  uint64_t executions = 0;
  ClusterOptions options = CtrlCluster(32, /*replicas=*/2, &executions);
  options.ctrl.scaling.enabled = true;
  options.ctrl.scaling.min_replicas = 1;
  options.ctrl.scaling.max_replicas = 2;
  options.ctrl.scaling.evaluate_period = Millis(4);
  options.ctrl.scaling.scale_out_on_sheds = 0;  // Disable the shed trigger.
  options.ctrl.scaling.scale_out_queue_delay = Millis(100000);
  options.ctrl.scaling.scale_in_load = 0.6;
  options.ctrl.scaling.scale_in_cooldown = Millis(4);
  SymphonyCluster cluster(&sim, options);
  SymphonyCluster::ClusterLip id = cluster.Launch("agent", "", MakeAgent(8));
  EXPECT_EQ(id.replica, 0u);
  sim.Run();
  EXPECT_TRUE(cluster.Done(id));
  EXPECT_FALSE(cluster.Output(id).empty());
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.ctrl.scale_ins, 1u);
  EXPECT_EQ(snap.ctrl.drains_completed, 1u);
  EXPECT_TRUE(cluster.replica_dead(1));
  ASSERT_EQ(snap.liveness.size(), 2u);
  EXPECT_EQ(snap.liveness[1].state, ReplicaHealth::kDetached);
  EXPECT_EQ(snap.liveness[0].state, ReplicaHealth::kLive);
  EXPECT_EQ(snap.replay_divergences, 0u);
}

// Manual elasticity without a control plane: AddReplica serves immediately,
// DrainReplica migrates the hosted LIPs off and detaches through the poll
// chain, and outputs match a run that never drained.
TEST(CtrlTest, ManualAddAndDrainWithoutControlPlane) {
  auto run = [](bool drain) {
    Simulator sim;
    uint64_t executions = 0;
    ClusterOptions options = CtrlCluster(33, /*replicas=*/2, &executions);
    options.ctrl.enabled = false;
    SymphonyCluster cluster(&sim, options);
    EXPECT_EQ(cluster.control_plane(), nullptr);
    EXPECT_EQ(cluster.AddReplica(), 2u);
    EXPECT_EQ(cluster.replica_count(), 3u);
    std::vector<SymphonyCluster::ClusterLip> ids;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(
          cluster.Launch("agent" + std::to_string(i), "", MakeAgent(3)));
    }
    EXPECT_EQ(ids[2].replica, 2u);  // Round robin reached the new replica.
    if (drain) {
      sim.ScheduleAt(Millis(8), [&cluster] {
        EXPECT_TRUE(cluster.DrainReplica(2).ok());
        EXPECT_TRUE(cluster.replica_draining(2));
        // Draining replicas take no new placements.
        EXPECT_NE(cluster.RouteFor(""), 2u);
      });
    }
    sim.Run();
    std::string joined;
    for (const SymphonyCluster::ClusterLip& id : ids) {
      EXPECT_TRUE(cluster.Done(id));
      joined += cluster.Output(id) + "|";
    }
    if (drain) {
      EXPECT_TRUE(cluster.replica_dead(2));
      EXPECT_FALSE(cluster.replica_draining(2));
      EXPECT_GE(cluster.Snapshot().migrations, 1u);
      // Detached for good: a second drain (or a crash) is refused.
      EXPECT_FALSE(cluster.DrainReplica(2).ok());
      EXPECT_FALSE(cluster.CrashReplica(2).ok());
    }
    EXPECT_EQ(cluster.Snapshot().replay_divergences, 0u);
    return joined;
  };
  std::string baseline = run(false);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(run(true), baseline);
}

// Without a control plane a silent crash strands its work — nothing detects
// it, which is exactly why the detector exists. (The legacy manual-kill
// contract is unaffected.)
TEST(CtrlTest, CrashWithoutControlPlaneStrandsWork) {
  Simulator sim;
  uint64_t executions = 0;
  ClusterOptions options = CtrlCluster(34, /*replicas=*/2, &executions);
  options.ctrl.enabled = false;
  SymphonyCluster cluster(&sim, options);
  SymphonyCluster::ClusterLip a = cluster.Launch("a", "", MakeAgent(8));
  SymphonyCluster::ClusterLip b = cluster.Launch("b", "", MakeAgent(4));
  sim.ScheduleAt(Millis(2),
                 [&cluster, a] { EXPECT_TRUE(cluster.CrashReplica(a.replica).ok()); });
  sim.Run();  // Terminates: a halted runtime drops its callbacks.
  EXPECT_FALSE(cluster.Done(a));  // Stranded forever.
  EXPECT_TRUE(cluster.Done(b));
  // A crash is not a death: the cluster was never told.
  EXPECT_FALSE(cluster.replica_dead(a.replica));
}

// ---- Slot lifecycle ----------------------------------------------------

// A replica that dies while it drains is dead, not draining. Six agents run
// round-robin on three replicas; `script` drains and kills replica 2. The
// runs stop at a deadline instead of an empty queue, so control loops that
// never stop fail the assertions rather than hang the test.
void ExpectDiesWhileDraining(
    uint64_t seed, bool ctrl, const std::function<void(FaultPlan&)>& arm,
    const std::function<void(SymphonyCluster&)>& script) {
  Simulator sim;
  FaultPlan plan(seed);
  if (arm) {
    arm(plan);
  }
  uint64_t executions = 0;
  ClusterOptions options = CtrlCluster(seed, 3, &executions);
  options.ctrl.enabled = ctrl;
  options.server.fault_plan = &plan;
  SymphonyCluster cluster(&sim, options);
  std::vector<SymphonyCluster::ClusterLip> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(
        cluster.Launch("agent" + std::to_string(i), "", MakeAgent(8)));
  }
  sim.ScheduleAt(Millis(6), [&cluster, &script] {
    EXPECT_TRUE(cluster.DrainReplica(2).ok());
    script(cluster);
  });
  sim.RunUntil(Seconds(20));
  for (const SymphonyCluster::ClusterLip& id : ids) {
    EXPECT_TRUE(cluster.Done(id));
  }
  EXPECT_TRUE(sim.empty());
  EXPECT_TRUE(cluster.replica_dead(2));
  EXPECT_FALSE(cluster.replica_draining(2));
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.replay_divergences, 0u);
  if (ctrl) {
    ASSERT_EQ(snap.liveness.size(), 3u);
    EXPECT_EQ(snap.liveness[2].state, ReplicaHealth::kDead);
  }
}

TEST(CtrlTest, KillWhileDrainingStopsTheControlLoops) {
  ExpectDiesWhileDraining(42, /*ctrl=*/true, nullptr,
                          [](SymphonyCluster& cluster) {
                            EXPECT_TRUE(cluster.KillReplica(2).ok());
                          });
}

TEST(CtrlTest, KillWhileDrainingWithoutControlPlaneTerminates) {
  ExpectDiesWhileDraining(42, /*ctrl=*/false, nullptr,
                          [](SymphonyCluster& cluster) {
                            EXPECT_TRUE(cluster.KillReplica(2).ok());
                          });
}

// The draining replica crashes for good while the drain's journal ships
// wait for its links to come back, so the detector declares it dead before
// the drain can finish.
TEST(CtrlTest, DeclaredDeadWhileDrainingStopsTheControlLoops) {
  ExpectDiesWhileDraining(
      41, /*ctrl=*/true,
      [](FaultPlan& plan) {
        plan.AddLinkDown("replica2", "replica0", Millis(5), Millis(30));
        plan.AddLinkDown("replica2", "replica1", Millis(5), Millis(30));
      },
      [](SymphonyCluster& cluster) {
        EXPECT_TRUE(cluster.CrashReplica(2).ok());
      });
}

// ---- Fencing surfaces (defense in depth) -------------------------------

// The fabric and store refuse a fenced replica directly: the exactly-once
// guarantee does not rest on the runtime halt alone.
TEST(CtrlTest, FabricAndStoreRefuseFencedReplicas) {
  Simulator sim;
  uint64_t executions = 0;
  ClusterOptions options = CtrlCluster(35, /*replicas=*/2, &executions);
  options.ctrl.enabled = false;
  SymphonyCluster cluster(&sim, options);

  SnapshotPayload payload;
  payload.label = "fence-probe";
  payload.tokens = 16;
  payload.streams.emplace_back("records", std::string(512, 'x'));
  PublishResult published = cluster.store().Publish(0, payload);
  ASSERT_NE(published.key, 0u);

  cluster.store().SetReplicaFenced(1, true);
  StatusOr<FetchResult> fenced_fetch = cluster.store().Fetch(1, published.key);
  EXPECT_FALSE(fenced_fetch.ok());
  EXPECT_EQ(fenced_fetch.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.store().stats().fenced_fetches, 1u);
  cluster.store().SetReplicaFenced(1, false);
  EXPECT_TRUE(cluster.store().Fetch(1, published.key).ok());

  cluster.fabric().FenceReplica(1, 7);
  EXPECT_TRUE(cluster.fabric().replica_fenced(1));
  EXPECT_EQ(cluster.fabric().replica_fence_epoch(1), 7u);
  cluster.fabric().ReviveReplica(1, &cluster.replica(1).runtime());
  EXPECT_FALSE(cluster.fabric().replica_fenced(1));
  // The fence epoch survives revival as the slot's generation high-water
  // mark (stale sends from epoch < 7 stay refused).
  EXPECT_EQ(cluster.fabric().replica_fence_epoch(1), 7u);
}

// ---- Detector digest ---------------------------------------------------

// One detector configuration of the digest sweep. Jitter-free beats on a
// link whose serialization rounds to 0 ns make arrivals land exactly on
// sweep and snapshot instants, so the digest pins which of two same-instant
// events the detector sees first.
struct DigestCase {
  SimDuration beat;
  double jitter;
  SimDuration sweep;
  SimDuration latency;
  SimDuration suspect;
  SimDuration lease;
  SimDuration declare;
  bool faults;
};

void Fold(uint64_t* digest, uint64_t value) {
  *digest = HashCombine(*digest, value);
}

void FoldDetector(uint64_t* digest,
                  const SymphonyCluster::ClusterSnapshot& snap) {
  for (const SymphonyCluster::ClusterSnapshot::ReplicaLiveness& row :
       snap.liveness) {
    Fold(digest, static_cast<uint64_t>(row.state));
    Fold(digest, row.epoch);
    Fold(digest, static_cast<uint64_t>(row.heartbeat_age));
    Fold(digest, row.fenced ? 1 : 0);
  }
  const ControlPlaneStats& s = snap.ctrl;
  for (uint64_t counter :
       {s.heartbeats_sent, s.heartbeats_delivered, s.heartbeats_dropped,
        s.suspicions, s.false_suspicions, s.self_fences, s.dead_declared,
        s.auto_failovers, s.readmissions, s.seat_changes, s.scale_outs,
        s.scale_ins, s.drains_completed}) {
    Fold(digest, counter);
  }
  Fold(digest, static_cast<uint64_t>(s.detection_age_total));
  Fold(digest, static_cast<uint64_t>(s.last_dead_declared_at));
  Fold(digest, static_cast<uint64_t>(s.last_readmission_at));
  Fold(digest, static_cast<uint64_t>(s.last_scale_out_at));
  Fold(digest, snap.ctrl_seat);
}

// 40 agents on 3 replicas, one launched every 5 ms, with the detector
// snapshotted on a 1 ms grid up to 100 ms twice over: once from events
// scheduled up front (they run before arrivals stamped later at the same
// instant) and once from a self-rescheduling chain (scheduled 1 ms ahead,
// so it tends to run after them).
uint64_t DetectorDigest(uint64_t seed, const DigestCase& c) {
  Simulator sim;
  FaultPlan plan(seed);
  if (c.faults) {
    plan.CrashReplicaAt(1, Millis(30), /*down_for=*/Millis(40));
    plan.AddPartition(0, 2, Millis(70), Millis(9));
  }
  uint64_t executions = 0;
  ClusterOptions options = CtrlCluster(seed, 3, &executions);
  options.server.fault_plan = &plan;
  options.server.hardware.interconnect_bandwidth = 1e15;
  options.server.hardware.interconnect_latency = c.latency;
  options.ctrl.heartbeat_period = c.beat;
  options.ctrl.heartbeat_jitter = c.jitter;
  options.ctrl.sweep_period = c.sweep;
  options.ctrl.suspect_after = c.suspect;
  options.ctrl.lease = c.lease;
  options.ctrl.declare_dead_after = c.declare;
  SymphonyCluster cluster(&sim, options);

  uint64_t digest = 0;
  auto snapshot = [&] { FoldDetector(&digest, cluster.Snapshot()); };
  std::vector<SymphonyCluster::ClusterLip> ids;
  for (int i = 0; i < 40; ++i) {
    sim.ScheduleAt(Millis(5) * i, [&cluster, &ids, i] {
      ids.push_back(
          cluster.Launch("agent" + std::to_string(i), "", MakeAgent(6)));
    });
  }
  for (int ms = 1; ms <= 100; ++ms) {
    sim.ScheduleAt(Millis(ms), snapshot);
  }
  std::function<void()> chain = [&] {
    snapshot();
    if (sim.now() < Millis(100)) {
      sim.ScheduleAfter(Millis(1), chain);
    }
  };
  sim.ScheduleAt(Millis(1), chain);
  sim.Run();

  EXPECT_EQ(ids.size(), 40u);
  for (const SymphonyCluster::ClusterLip& id : ids) {
    Fold(&digest, cluster.Done(id) ? 1 : 0);
    Fold(&digest, Fnv1a(cluster.Output(id)));
  }
  snapshot();
  Fold(&digest, static_cast<uint64_t>(sim.now()));
  return digest;
}

// Pins the detector's observable behaviour — liveness rows, counters, and
// outputs across crash, partition, declare and readmission, including which
// of two same-instant events (a beat's arrival and a sweep or snapshot) the
// detector sees first. The expected value was recorded when every
// heartbeat arrival was its own scheduled event; how arrivals are applied
// may change, what they do may not.
TEST(CtrlDigestTest, MatchesParent) {
  const SimDuration ms = kMillisecond;
  const DigestCase cases[] = {
      // Arrivals tie with sweeps; the sweep was scheduled first.
      {5 * ms, 0.0, 4 * ms, 1 * ms, 4 * ms, 7 * ms, 10 * ms, false},
      {5 * ms, 0.0, 4 * ms, 1 * ms, 4 * ms, 7 * ms, 10 * ms, true},
      // Arrivals tie with sweeps; the arrival was stamped first.
      {4 * ms, 0.0, 4 * ms, 4 * ms, 4 * ms, 7 * ms, 10 * ms, false},
      {4 * ms, 0.0, 4 * ms, 4 * ms, 5 * ms, 7 * ms, 10 * ms, true},
      // Jittered beats, several in flight at once.
      {2 * ms, 0.25, 2 * ms, 3 * ms, 4 * ms, 7 * ms, 10 * ms, true},
      // Latency beyond the declare window: beats stay in flight across a
      // declare and a fence-only readmission.
      {2 * ms, 0.25, 2 * ms, 12 * ms, 4 * ms, 7 * ms, 10 * ms, false},
  };
  uint64_t digest = 0;
  std::string per_case;
  for (const DigestCase& c : cases) {
    for (uint64_t seed : {1, 2}) {
      uint64_t one = DetectorDigest(seed, c);
      per_case += " " + std::to_string(one);
      Fold(&digest, one);
    }
  }
  EXPECT_EQ(digest, 0x2564b0f9ef149340ULL) << "per case:" << per_case;
}

// ---- Slot lifecycle digest ---------------------------------------------

// The slot operations of one lifecycle digest run.
enum class SlotScript {
  kKillSeatTwice,      // Kill replica 0 (the seat), then 1 (the next seat).
  kKillNonSeat,        // Kill replica 2.
  kDrainThenKillSeat,  // Drain replica 2, then kill replica 0 (the seat).
  kCrashReadmitKill,   // Crash replica 1 for 20 ms; kill it once readmitted.
  kScaleIn,            // The scaling loop drains and detaches a replica.
};

struct SlotRun {
  uint64_t digest = 0;
  SymphonyCluster::ClusterSnapshot snap;
};

// 12 agents on 3 replicas, one launched every 2 ms, with every slot's
// lifecycle, the detector and the failover counters folded on a 1 ms grid
// up to 80 ms. Each slot operation runs from an event scheduled 1 ms
// earlier, so beats landing at its instant are stamped before it and still
// unsettled when it runs: the digest then sees whether the operation
// settles them before or after it changes the slot.
SlotRun SlotLifecycleDigest(uint64_t seed, const DigestCase* cadence,
                            SlotScript script) {
  Simulator sim;
  FaultPlan plan(seed);
  uint64_t executions = 0;
  ClusterOptions options = CtrlCluster(seed, 3, &executions);
  options.server.fault_plan = &plan;
  options.server.hardware.interconnect_bandwidth = 1e15;
  options.ctrl.enabled = cadence != nullptr;
  if (cadence != nullptr) {
    options.server.hardware.interconnect_latency = cadence->latency;
    options.ctrl.heartbeat_period = cadence->beat;
    options.ctrl.heartbeat_jitter = cadence->jitter;
    options.ctrl.sweep_period = cadence->sweep;
  }
  if (script == SlotScript::kScaleIn) {
    options.ctrl.scaling.enabled = true;
    options.ctrl.scaling.scale_out_on_sheds = 0;
    options.ctrl.scaling.scale_out_queue_delay = Seconds(100);
    options.ctrl.scaling.scale_in_load = 1.5;
    options.ctrl.scaling.evaluate_period = Millis(4);
    options.ctrl.scaling.scale_in_cooldown = Millis(8);
  }
  if (script == SlotScript::kCrashReadmitKill) {
    plan.CrashReplicaAt(1, Millis(5), /*down_for=*/Millis(20));
  }
  SymphonyCluster cluster(&sim, options);

  SlotRun run;
  auto snapshot = [&] {
    SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
    FoldDetector(&run.digest, snap);
    for (size_t i = 0; i < cluster.replica_count(); ++i) {
      Fold(&run.digest, cluster.replica_dead(i) ? 1 : 0);
      Fold(&run.digest, cluster.replica_draining(i) ? 1 : 0);
    }
    for (uint64_t lips : snap.lips_per_replica) {
      Fold(&run.digest, lips);
    }
    for (uint64_t counter : {snap.failovers, snap.migrations,
                             static_cast<uint64_t>(snap.replicas_dead),
                             snap.lips_completed}) {
      Fold(&run.digest, counter);
    }
  };
  auto at = [&sim](SimTime when, std::function<void()> op) {
    sim.ScheduleAt(when - Millis(1), [&sim, when, op = std::move(op)] {
      sim.ScheduleAt(when, op);
    });
  };
  auto kill = [&](size_t replica) {
    Fold(&run.digest,
         static_cast<uint64_t>(cluster.KillReplica(replica).code()));
  };
  std::vector<SymphonyCluster::ClusterLip> ids;
  for (int i = 0; i < 12; ++i) {
    sim.ScheduleAt(Millis(2) * i, [&cluster, &ids, i] {
      ids.push_back(
          cluster.Launch("agent" + std::to_string(i), "", MakeAgent(5)));
    });
  }
  for (int ms = 1; ms <= 80; ++ms) {
    sim.ScheduleAt(Millis(ms), snapshot);
  }
  switch (script) {
    case SlotScript::kKillSeatTwice:
      at(Millis(7), [&] { kill(0); });
      at(Millis(15), [&] { kill(1); });
      break;
    case SlotScript::kKillNonSeat:
      at(Millis(8), [&] { kill(2); });
      break;
    case SlotScript::kDrainThenKillSeat:
      at(Millis(6), [&] {
        Fold(&run.digest,
             static_cast<uint64_t>(cluster.DrainReplica(2).code()));
      });
      at(Millis(30), [&] { kill(0); });
      break;
    case SlotScript::kCrashReadmitKill:
      at(Millis(45), [&] { kill(1); });
      break;
    case SlotScript::kScaleIn:
      break;
  }
  sim.Run();

  EXPECT_EQ(ids.size(), 12u);
  for (const SymphonyCluster::ClusterLip& id : ids) {
    EXPECT_TRUE(cluster.Done(id));
    Fold(&run.digest, cluster.Done(id) ? 1 : 0);
    Fold(&run.digest, Fnv1a(cluster.Output(id)));
  }
  snapshot();
  Fold(&run.digest, static_cast<uint64_t>(sim.now()));
  run.snap = cluster.Snapshot();
  EXPECT_EQ(run.snap.replay_divergences, 0u);
  return run;
}

// Pins what each slot transition does — kills of the seat and of other
// replicas, a drain, a crash and its readmission, a scale-in — to the
// detector's rows and counters, the seat, the failovers and every output,
// with the control plane on at two cadences and off. The expected value was
// recorded while the cluster and the control plane each kept their own copy
// of a replica's lifecycle.
TEST(SlotLifecycleDigestTest, MatchesParent) {
  const SimDuration ms = kMillisecond;
  const DigestCase cadences[] = {
      {2 * ms, 0.25, 2 * ms, 1 * ms, 0, 0, 0, false},
      {4 * ms, 0.0, 4 * ms, 4 * ms, 0, 0, 0, false},
  };
  struct ScriptCase {
    SlotScript script;
    bool ctrl_off_too;
    // The transition the script must reach.
    std::function<bool(const SymphonyCluster::ClusterSnapshot&)> reached;
  };
  const ScriptCase scripts[] = {
      {SlotScript::kKillSeatTwice, true,
       [](const auto& s) { return s.failovers > 0; }},
      {SlotScript::kKillNonSeat, true,
       [](const auto& s) { return s.failovers > 0; }},
      {SlotScript::kDrainThenKillSeat, true,
       [](const auto& s) {
         return (s.liveness.empty() || s.ctrl.drains_completed > 0) &&
                s.failovers > 0;
       }},
      {SlotScript::kCrashReadmitKill, false,
       [](const auto& s) { return s.ctrl.readmissions > 0; }},
      {SlotScript::kScaleIn, false,
       [](const auto& s) {
         return s.ctrl.scale_ins > 0 && s.ctrl.drains_completed > 0;
       }},
  };
  uint64_t digest = 0;
  std::string per_case;
  auto fold_run = [&](const SlotRun& run, const ScriptCase& c,
                      const std::string& label) {
    EXPECT_TRUE(c.reached(run.snap)) << label;
    per_case += " " + std::to_string(run.digest);
    Fold(&digest, run.digest);
  };
  for (const ScriptCase& c : scripts) {
    for (uint64_t seed : {1, 2}) {
      std::string label = "script " +
                          std::to_string(static_cast<int>(c.script)) +
                          " seed " + std::to_string(seed);
      for (const DigestCase& cadence : cadences) {
        fold_run(SlotLifecycleDigest(seed, &cadence, c.script), c, label);
      }
      if (c.ctrl_off_too) {
        fold_run(SlotLifecycleDigest(seed, nullptr, c.script), c,
                 label + " ctrl off");
      }
    }
  }
  EXPECT_EQ(digest, 0x09e5f195d77c677fULL) << "per case:" << per_case;
}

// ---- The stress property ----------------------------------------------

// Mirrors recovery_test.cc: curated base seeds, widened with derived seeds
// when SYMPHONY_STRESS is set.
std::vector<uint64_t> StressSeeds(std::vector<uint64_t> base, uint64_t stream) {
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

class CtrlPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// The satellite property: under a random permanent crash AND a random
// partition window (which can falsely isolate a healthy replica, fence it,
// and fail its LIP over), every agent still completes bit-identically to the
// fault-free run, no LIP executes a journaled tool call twice, and the
// simulation terminates — even when a failover transiently finds no
// placeable survivor (readmission rescues the stranded LIPs).
TEST_P(CtrlPropertyTest, RandomFaultWindowsNeverDoubleExecute) {
  uint64_t seed = GetParam();
  CtrlRun baseline = RunCtrlAgents(seed, 3, /*agents=*/3, /*turns=*/5);
  ASSERT_FALSE(baseline.output.empty());
  ASSERT_GT(baseline.finish, 0);

  Rng rng(seed ^ 0xFE2CEULL);
  size_t crash_replica = rng.NextDouble() < 0.5 ? 0 : 1;
  auto frac_time = [&](double lo, double hi) {
    return static_cast<SimTime>(
        (lo + (hi - lo) * rng.NextDouble()) *
        static_cast<double>(baseline.finish));
  };
  SimTime crash_at = frac_time(0.15, 0.55);
  SimTime p_at = frac_time(0.10, 0.60);

  CtrlRun faulted = RunCtrlAgents(
      seed, 3, 3, 5, [crash_replica, crash_at, p_at](FaultPlan& plan) {
        plan.CrashReplicaAt(crash_replica, crash_at);
        plan.AddPartition(0, 2, p_at, Millis(25));
      });
  EXPECT_EQ(faulted.output, baseline.output)
      << "seed=" << seed << " crash_replica=" << crash_replica
      << " crash_at=" << crash_at << " p_at=" << p_at;
  EXPECT_EQ(faulted.snap.replay_divergences, 0u);
  EXPECT_GE(faulted.snap.ctrl.dead_declared, 1u);
  EXPECT_LE(faulted.tool_executions,
            baseline.tool_executions + faulted.snap.failovers)
      << "seed=" << seed << ": a journaled tool call re-executed";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CtrlPropertyTest,
                         ::testing::ValuesIn(StressSeeds(
                             {301, 302, 303, 304, 305, 306}, 0xC7)));

}  // namespace
}  // namespace symphony
