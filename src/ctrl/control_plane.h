// ControlPlane: the cluster's autonomic membership loop — heartbeat failure
// detection, automatic recovery, and elastic replica scaling (src/ctrl).
//
// Until this layer existed every failure was handled manually: the harness
// (or FaultPlan's kill schedule) called SymphonyCluster::KillReplica and the
// cluster obediently failed over. Nothing ever *detected* a dead replica,
// re-admitted a healed one, or grew the fleet under load. The control plane
// closes that loop deterministically:
//
//   * Heartbeats over the real network. Every monitored replica sends a
//     periodic heartbeat (seeded jitter on the period) to the SEAT — the
//     lowest-indexed live replica, which models wherever the membership
//     service currently runs; the seat itself beats to its DEPUTY (the next
//     live replica) so seat death is detected the same way. Each beat is
//     charged through NetworkTopology::Transfer, so it queues behind
//     migrations and IPC on shared links, and FaultPlan partition /
//     link-down windows block it exactly as they block IPC — false
//     suspicion is an honest consequence of the network model, not a
//     scripted event.
//
//   * Timeout detector. A periodic sweep classifies each replica by the age
//     of its last delivered beat: live -> suspected (age > suspect_after,
//     routing de-prefers it) -> dead (age > declare_dead_after). A
//     suspected replica whose beats resume returns to live and counts a
//     false suspicion.
//
//   * Exactly-once recovery with fencing. Declaring a replica dead bumps
//     its EPOCH and fences it (runtime halted; IPC fabric and snapshot
//     store refuse its sends/fetches at that epoch) BEFORE the journaled
//     failover replays its LIPs elsewhere. The dual guard is the lease: a
//     replica that cannot deliver a heartbeat for `lease` (< the declare
//     window) fences ITSELF, so by the time the seat declares it dead and
//     re-executes its LIPs, the old incarnation is provably inert — a LIP
//     is never executed twice, and replay stays bit-identical. Stale beats
//     from a previous epoch are dropped on arrival.
//
//   * Readmission. A crashed replica with a FaultPlan `down_for` heal
//     window — or a fenced-but-healthy false suspect — re-joins at the
//     bumped epoch: the cluster rebuilds the server slot fresh (its old
//     state is gone; its LIPs already live elsewhere), un-fences fabric and
//     store, and the detector resumes monitoring it. Probes run at known
//     times only (heal instants, partition/link-down window ends), so the
//     event queue never polls an unreachable replica forever.
//
//   * One lifecycle per slot. The cluster owns each slot's lifecycle state
//     (live, draining, dead, detached) and is its only writer: a declare,
//     a detach and a readmission each ask the cluster to make the change
//     (ControlFailover, ControlDrainComplete, ControlReadmit). The detector
//     reads the state through ClusterControl::ControlState and keeps only
//     what is its own: a suspicion bit over live slots, the epoch, and the
//     heartbeat bookkeeping. Health() is that state with suspicion laid on.
//
//   * Elasticity. A scaling loop EWMAs the cluster's admission signal
//     (worst projected queue delay, submit-shed delta) and grows the fleet
//     through ClusterControl::ControlAddReplica — the new replica attaches
//     to a rack switch in the topology — or drains the least-loaded replica
//     when the load floor and cooldowns allow, migrating its LIPs off
//     before detaching it.
//
// Determinism: every decision is a pure function of (options.seed, replica,
// beat sequence, virtual time); heartbeat jitter is Mix64-derived, sweeps
// and beats run at scheduled virtual times, and link charging is the
// topology's deterministic serialization. A seeded run detects, fences,
// fails over, and scales identically across reruns. Enabling the control
// plane DOES change IPC timings (heartbeats occupy real links) — that is
// the point, not a bug.
//
// Arrivals are settled, not scheduled. A delivered beat only moves its
// replica's last-heartbeat time (or is dropped at a stale epoch), so it
// needs no event of its own: each beat in flight stays on its replica as
// (arrival time, Simulator stamp, epoch). SettleArrivals applies every beat
// the queue would already have dispatched — a beat landing at exactly a
// sweep's or a reader's instant counts only if its stamp orders first —
// with the arrival semantics of a scheduled event, and it runs in front of
// every transition that changes whether a slot is monitored (into dead or
// detached, or out of dead: Sweep, TryReadmit, NoteManualDeath) and every
// reader (Health, Epoch, HeartbeatAge, stats). Nothing changes a replica's
// epoch or whether it is monitored between two settles, so each beat meets
// the state it would have met on arrival. A beat chain that
// stops with beats still in flight schedules one event at the latest
// arrival, so the clock still runs to it.
//
// Sweeps are not skipped, even when no age can cross a threshold: the sweep
// chain stops at the first grid instant where ControlHasWork() is false and
// the next Kick() starts a fresh grid, so dropping an instant would move
// every later decision instant unless the cluster reported its idle
// transitions exactly, which it does not.
//
// Liveness: all chains (beats, sweep, scaling) are guarded by
// ClusterControl::ControlHasWork and die when the cluster drains, so
// Simulator::Run terminates; SymphonyCluster re-arms them via Kick() when
// new work lands.
#ifndef SRC_CTRL_CONTROL_PLANE_H_
#define SRC_CTRL_CONTROL_PLANE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/faults/fault_plan.h"
#include "src/net/topology.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace symphony {

inline constexpr size_t kNoReplica = SIZE_MAX;

// A replica slot's lifecycle. The cluster keeps one of kLive, kDraining,
// kDead or kDetached per slot; kSuspected exists only in the detector's
// view (ControlPlane::Health), laid over a live slot.
enum class ReplicaHealth {
  kLive,       // Serving (its process may still have crashed or been fenced).
  kSuspected,  // Live, but beats missing; routing de-prefers it.
  kDead,       // Failed over: killed, or declared dead; maybe readmitted.
  kDraining,   // Scale-in: migrating LIPs off before detach.
  kDetached,   // Drained and removed from service (terminal).
};

struct ScalingOptions {
  bool enabled = false;
  size_t min_replicas = 1;
  size_t max_replicas = 8;
  SimDuration evaluate_period = Millis(25);
  // EWMA weight for the admission signals (per evaluation tick).
  double ewma_alpha = 0.4;
  // Scale OUT when the EWMA of the worst per-replica projected admission
  // delay exceeds this, or when >= scale_out_on_sheds requests were shed
  // since the last tick (sheds are rare and decisive; delay is smooth).
  SimDuration scale_out_queue_delay = Millis(20);
  uint64_t scale_out_on_sheds = 1;
  SimDuration scale_out_cooldown = Millis(100);
  // Scale IN (drain the least-loaded replica) when the EWMA of live LIPs
  // per serving replica sinks below this floor with empty queues, no fresh
  // sheds, and the cooldown elapsed.
  double scale_in_load = 0.25;
  SimDuration scale_in_cooldown = Millis(400);
  // Scale-out on a role-partitioned fleet (ClusterOptions::roles) is
  // role-aware: the cluster joins the new replica to the hotter pool
  // (worst projected admission delay, live-LIP tie-break), so a prefill
  // backlog grows the prefill pool rather than adding a decode replica
  // that never sees the queued work. Role-less fleets add kUnified.
};

struct ControlPlaneOptions {
  bool enabled = false;
  // Heartbeat cadence: period stretched per beat by a deterministic factor
  // drawn uniformly from [1 - jitter, 1 + jitter] (seeded, per replica).
  SimDuration heartbeat_period = Millis(5);
  double heartbeat_jitter = 0.25;
  uint64_t heartbeat_bytes = 64;
  // Detector thresholds on the age of the last DELIVERED beat. Must order
  // suspect_after < lease < declare_dead_after: the source-side lease fence
  // has to land before the seat re-executes the victim's LIPs.
  SimDuration suspect_after = Millis(12);
  SimDuration declare_dead_after = Millis(40);
  // Source-side self-fence: a replica whose beats have been undeliverable
  // for this long halts itself (it must assume it has been declared dead).
  SimDuration lease = Millis(25);
  SimDuration sweep_period = Millis(4);
  uint64_t seed = 0xC7A1;
  ScalingOptions scaling;
};

struct ControlPlaneStats {
  uint64_t heartbeats_sent = 0;       // Handed to the topology.
  uint64_t heartbeats_delivered = 0;  // Arrived at the current epoch.
  uint64_t heartbeats_dropped = 0;    // Blocked by a partition / link-down.
  uint64_t suspicions = 0;
  uint64_t false_suspicions = 0;  // Suspected replicas whose beats resumed.
  uint64_t self_fences = 0;       // Lease expiries (source-side fencing).
  uint64_t dead_declared = 0;
  uint64_t auto_failovers = 0;
  uint64_t readmissions = 0;
  uint64_t seat_changes = 0;
  uint64_t scale_outs = 0;
  uint64_t scale_ins = 0;         // Drains started.
  uint64_t drains_completed = 0;  // Drained replicas detached.
  // Sum over declares of the beat age at declare time (detection latency =
  // age - heartbeat_period on average; bench divides by dead_declared).
  SimDuration detection_age_total = 0;
  SimTime last_dead_declared_at = -1;
  SimTime last_readmission_at = -1;
  SimTime last_scale_out_at = -1;
};

// What the control plane needs from the cluster, expressed as a narrow
// interface so src/ctrl never depends on src/serve (SymphonyCluster
// implements it privately). Every method is called at a scheduled virtual
// time from the control loops.
class ClusterControl {
 public:
  virtual ~ClusterControl() = default;

  struct LoadSignal {
    size_t serving = 0;    // Placeable (not dead/fenced/draining) replicas.
    size_t live_lips = 0;  // Across serving replicas.
    size_t queued = 0;     // Admission-queued launches across them.
    uint64_t sheds = 0;    // Cumulative cluster submit_sheds.
    SimDuration worst_delay = 0;  // Max projected admission delay.
    // Per-replica live LIPs; kNoReplica (SIZE_MAX) for non-serving slots.
    std::vector<size_t> lips;
  };

  virtual size_t ControlReplicaCount() const = 0;
  // The slot's lifecycle state: kLive, kDraining, kDead or kDetached.
  virtual ReplicaHealth ControlState(size_t replica) const = 0;
  // True while `replica` can emit heartbeats: its runtime is not halted (a
  // crash, a fence, a failover and a detach all halt it).
  virtual bool ControlBeating(size_t replica) const = 0;
  // True while the cluster has undone work (records, live LIPs, queued
  // admissions, active drains). Gates every control chain.
  virtual bool ControlHasWork() const = 0;
  // When the replica's process is healthy again: 0 = never crashed
  // (fence-only), else the crash's heal instant; negative = never (permanent
  // crash, manual kill or detach — readmission is impossible).
  virtual SimTime ControlHealAt(size_t replica) const = 0;
  // Fences `replica` at `epoch`: halts its runtime and marks it refused at
  // the IPC fabric and snapshot store. Idempotent.
  virtual void ControlFence(size_t replica, uint64_t epoch) = 0;
  // Marks the slot kDead, halts it, and fails every LIP it hosts over to
  // placeable survivors from their journals.
  virtual Status ControlFailover(size_t replica) = 0;
  // Rebuilds a kDead slot fresh and returns it to service (kLive) at
  // `epoch`. False when readmission is impossible (never heals, still down).
  virtual bool ControlReadmit(size_t replica, uint64_t epoch) = 0;
  // Grows the fleet by one replica (topology attach + fabric wiring);
  // returns the new index, or kNoReplica when refused.
  virtual size_t ControlAddReplica() = 0;
  // Starts draining `replica` (kDraining: stops placement, migrates its
  // LIPs off).
  virtual bool ControlStartDrain(size_t replica) = 0;
  // For a draining replica: retries straggler migrations and, once nothing
  // is hosted, detaches it (kDetached). True when it detached.
  virtual bool ControlDrainComplete(size_t replica) = 0;
  virtual LoadSignal ControlLoadSignal() const = 0;
};

class ControlPlane {
 public:
  // `cluster`, `sim`, and `topology` are required; `faults` and `trace` are
  // optional. Does not schedule anything until Kick().
  ControlPlane(Simulator* sim, ClusterControl* cluster,
               NetworkTopology* topology, FaultPlan* faults,
               TraceRecorder* trace, ControlPlaneOptions options);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // (Re)arms the heartbeat/sweep/scaling chains if work exists and they are
  // not already running. The cluster calls this whenever work lands
  // (Launch/Submit) so chains stopped by an idle period resume with a fresh
  // grace window instead of declaring everyone dead at the first sweep.
  void Kick();

  // A replica index now exists (scale-out or late attach): track it live.
  void NoteReplicaAdded(size_t replica);
  // The replica's crashed process healed (FaultPlan down_for): try to
  // readmit it now.
  void NoteReplicaHealed(size_t replica);
  // KillReplica was called manually: settles the replica's beats, bumps its
  // epoch, runs the cluster's failover, then re-chooses the seat. No
  // probes — manual kills stay permanent, the legacy contract. Returns the
  // failover's status.
  Status NoteManualDeath(size_t replica);
  // DrainReplica started a drain: make sure the sweep runs to finish the
  // detach.
  void NoteDrainStarted(size_t replica);

  // Readers settle arrivals first (see the file comment).
  ReplicaHealth Health(size_t replica) const;
  uint64_t Epoch(size_t replica) const;
  // Age of the last delivered beat; -1 when dead/detached or never beat.
  SimDuration HeartbeatAge(size_t replica) const;
  size_t seat() const { return seat_; }
  const ControlPlaneOptions& options() const { return options_; }
  const ControlPlaneStats& stats() const;

 private:
  // A sent beat that has not been applied yet. stamp.when is its arrival.
  struct InFlightBeat {
    Simulator::Stamp stamp;
    uint64_t epoch = 0;
  };
  // The detector's own view of a slot; its lifecycle lives in the cluster.
  struct Tracked {
    bool suspected = false;  // Beats late on a live slot.
    uint64_t epoch = 1;
    // Grace anchor: (re)join/seat-change time; ages are measured from
    // max(last_heartbeat, joined_at) so a fresh member is never judged on
    // beats it could not yet have sent.
    SimTime joined_at = 0;
    // Arrival time of the last delivered beat, and the beats still in
    // flight. Settling moves beats from one to the other, so const readers
    // change both.
    mutable SimTime last_heartbeat = 0;
    mutable std::vector<InFlightBeat> in_flight;
    SimTime last_ok_send = 0;    // Last beat that left the replica.
    uint64_t beat_seq = 0;       // Jitter stream position.
    bool loop_running = false;   // A Beat event chain is pending.
    std::string label;           // "hb:replica<i>", the beat's link label.
  };

  void EnsureTracked();
  // Heartbeats are sent and judged for live and draining slots only.
  bool Monitorable(size_t replica) const {
    ReplicaHealth state = cluster_->ControlState(replica);
    return state == ReplicaHealth::kLive || state == ReplicaHealth::kDraining;
  }
  void StartBeat(size_t replica);
  void Beat(size_t replica);
  // Applies a beat arriving at `at`: dropped unless it carries the
  // replica's current epoch and the replica is still monitored.
  void RecordArrival(size_t replica, uint64_t epoch, SimTime at) const;
  // Applies every in-flight beat the event queue has already passed.
  void SettleArrivals(size_t replica) const;
  void SettleArrivals() const;
  SimDuration NextBeatDelay(size_t replica);
  void Sweep();
  void EvaluateScaling();
  void DeclareDead(size_t replica, SimDuration age);
  void ChooseSeat(bool count_change);
  void ScheduleReadmitProbes(size_t replica);
  void TryReadmit(size_t replica);
  void Trace(const std::string& what);

  Simulator* sim_;
  ClusterControl* cluster_;
  NetworkTopology* topology_;
  FaultPlan* faults_;      // Optional.
  TraceRecorder* trace_;   // Optional.
  ControlPlaneOptions options_;
  std::vector<Tracked> tracked_;
  size_t seat_ = kNoReplica;
  size_t deputy_ = kNoReplica;
  bool sweep_running_ = false;
  bool scale_running_ = false;
  // Scaling state.
  uint64_t last_sheds_ = 0;
  double ewma_delay_ = 0.0;
  double ewma_load_ = 0.0;
  SimTime last_scale_out_ = -1;
  SimTime last_scale_in_ = -1;
  // Mutable for heartbeats_delivered, which settling counts.
  mutable ControlPlaneStats stats_;
};

}  // namespace symphony

#endif  // SRC_CTRL_CONTROL_PLANE_H_
