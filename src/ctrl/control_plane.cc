#include "src/ctrl/control_plane.h"

#include <algorithm>
#include <cassert>

#include "src/common/hash.h"

namespace symphony {

ControlPlane::ControlPlane(Simulator* sim, ClusterControl* cluster,
                           NetworkTopology* topology, FaultPlan* faults,
                           TraceRecorder* trace, ControlPlaneOptions options)
    : sim_(sim),
      cluster_(cluster),
      topology_(topology),
      faults_(faults),
      trace_(trace),
      options_(options) {
  assert(sim != nullptr);
  assert(cluster != nullptr);
  assert(topology != nullptr);
  assert(options_.suspect_after < options_.lease &&
         options_.lease < options_.declare_dead_after &&
         "fencing order: a lost replica must self-fence before it can be "
         "declared dead");
  EnsureTracked();
  ChooseSeat(/*count_change=*/false);
}

void ControlPlane::Trace(const std::string& what) {
  if (trace_ != nullptr) {
    trace_->Instant("ctrl", what, sim_->now());
  }
}

void ControlPlane::EnsureTracked() {
  SimTime now = sim_->now();
  while (tracked_.size() < cluster_->ControlReplicaCount()) {
    Tracked t;
    t.joined_at = now;
    t.label = "hb:replica" + std::to_string(tracked_.size());
    tracked_.push_back(std::move(t));
  }
}

void ControlPlane::Kick() {
  if (!options_.enabled) {
    return;
  }
  EnsureTracked();
  if (!cluster_->ControlHasWork()) {
    return;
  }
  for (size_t i = 0; i < tracked_.size(); ++i) {
    StartBeat(i);
  }
  if (!sweep_running_) {
    sweep_running_ = true;
    sim_->ScheduleAfter(options_.sweep_period, [this] { Sweep(); });
  }
  if (options_.scaling.enabled && !scale_running_) {
    scale_running_ = true;
    sim_->ScheduleAfter(options_.scaling.evaluate_period,
                        [this] { EvaluateScaling(); });
  }
}

void ControlPlane::StartBeat(size_t replica) {
  Tracked& t = tracked_[replica];
  if (t.loop_running || !Monitorable(replica)) {
    return;
  }
  // Fresh grace window: the chain may have been stopped for a long idle
  // stretch, during which missing beats prove nothing.
  t.joined_at = std::max(t.joined_at, sim_->now());
  t.loop_running = true;
  sim_->ScheduleAfter(NextBeatDelay(replica),
                      [this, replica] { Beat(replica); });
}

SimDuration ControlPlane::NextBeatDelay(size_t replica) {
  Tracked& t = tracked_[replica];
  ++t.beat_seq;
  // Deterministic jitter stream per (seed, replica, beat): desynchronizes
  // the fleet's beats so they don't all hit the seat's links in lockstep.
  uint64_t draw = Mix64(options_.seed ^
                        (replica * 0x9e3779b97f4a7c15ULL) ^ t.beat_seq);
  double unit = static_cast<double>(draw >> 11) * 0x1p-53;  // [0, 1)
  double factor = 1.0 + options_.heartbeat_jitter * (2.0 * unit - 1.0);
  auto delay = static_cast<SimDuration>(
      static_cast<double>(options_.heartbeat_period) * factor);
  return std::max<SimDuration>(1, delay);
}

void ControlPlane::Beat(size_t replica) {
  Tracked& t = tracked_[replica];
  SimTime now = sim_->now();
  if (!Monitorable(replica) || !cluster_->ControlHasWork()) {
    t.loop_running = false;
    // The chain stops, but the queue must still run to its last arrival,
    // as it would if each arrival were an event.
    SimTime last = now;
    for (const InFlightBeat& beat : t.in_flight) {
      last = std::max(last, beat.stamp.when);
    }
    if (last > now) {
      sim_->ScheduleAt(last, [this, replica] { SettleArrivals(replica); });
    }
    return;
  }
  if (cluster_->ControlBeating(replica)) {
    size_t dest = replica == seat_ ? deputy_ : seat_;
    if (dest == kNoReplica || dest == replica) {
      // Sole member: its beat is trivially observed locally.
      t.last_ok_send = now;
      RecordArrival(replica, t.epoch, now);
    } else if ((faults_ != nullptr &&
                faults_->Partitioned(replica, dest, now)) ||
               !topology_->HasRoute(replica, dest, now)) {
      ++stats_.heartbeats_dropped;
      // Source-side lease: this replica cannot prove it is alive. Once the
      // lease (< declare_dead_after) expires it must assume the seat will
      // declare it dead and re-execute its LIPs elsewhere — so it fences
      // itself FIRST. This is what makes a partition-induced false
      // suspicion exactly-once: by declare time the old incarnation is
      // provably inert. The fence halts the runtime, which stops this
      // branch: a replica fences itself at most once per incarnation.
      if (now - std::max(t.last_ok_send, t.joined_at) > options_.lease) {
        ++stats_.self_fences;
        cluster_->ControlFence(replica, t.epoch);
        Trace("self-fence:replica" + std::to_string(replica));
      }
    } else {
      ++stats_.heartbeats_sent;
      t.last_ok_send = now;
      // The beat rides the real links — it queues behind migrations and IPC
      // and arrives when the topology says it arrives. It takes its place
      // in the event order now, where its arrival event would have.
      SimTime arrive = topology_->Transfer(
          replica, dest, options_.heartbeat_bytes, t.label);
      t.in_flight.push_back(InFlightBeat{sim_->StampAt(arrive), t.epoch});
    }
  }
  sim_->ScheduleAfter(NextBeatDelay(replica),
                      [this, replica] { Beat(replica); });
}

void ControlPlane::RecordArrival(size_t replica, uint64_t epoch,
                                 SimTime at) const {
  // A beat from a fenced epoch is a zombie talking: drop it. Same for a
  // replica already declared dead — its failover is committed.
  const Tracked& t = tracked_[replica];
  if (t.epoch != epoch || !Monitorable(replica)) {
    return;
  }
  ++stats_.heartbeats_delivered;
  t.last_heartbeat = std::max(t.last_heartbeat, at);
}

void ControlPlane::SettleArrivals(size_t replica) const {
  if (replica >= tracked_.size()) {
    return;
  }
  const Tracked& t = tracked_[replica];
  // Beats can land out of send order (a seat change switches links), so
  // scan them all; there are rarely more than one or two.
  std::erase_if(t.in_flight, [&](const InFlightBeat& beat) {
    if (!sim_->Dispatched(beat.stamp)) {
      return false;
    }
    RecordArrival(replica, beat.epoch, beat.stamp.when);
    return true;
  });
}

void ControlPlane::SettleArrivals() const {
  for (size_t i = 0; i < tracked_.size(); ++i) {
    SettleArrivals(i);
  }
}

void ControlPlane::Sweep() {
  SettleArrivals();
  if (!cluster_->ControlHasWork()) {
    sweep_running_ = false;
    return;
  }
  ChooseSeat(/*count_change=*/true);
  bool any_monitored = false;
  SimTime now = sim_->now();
  for (size_t i = 0; i < tracked_.size(); ++i) {
    Tracked& t = tracked_[i];
    if (!Monitorable(i)) {
      continue;
    }
    any_monitored = true;
    SimDuration age = now - std::max(t.last_heartbeat, t.joined_at);
    if (age > options_.declare_dead_after) {
      DeclareDead(i, age);
      continue;
    }
    if (cluster_->ControlState(i) != ReplicaHealth::kLive) {
      continue;  // Only live slots are suspected.
    }
    if (!t.suspected && age > options_.suspect_after) {
      t.suspected = true;
      ++stats_.suspicions;
      Trace("suspect:replica" + std::to_string(i));
    } else if (t.suspected && age <= options_.suspect_after) {
      // Beats resumed: the suspicion was false. Routing trusts it again.
      t.suspected = false;
      ++stats_.false_suspicions;
      Trace("unsuspect:replica" + std::to_string(i));
    }
  }
  for (size_t i = 0; i < tracked_.size(); ++i) {
    if (cluster_->ControlDrainComplete(i)) {
      ++stats_.drains_completed;
      Trace("detach:replica" + std::to_string(i));
    }
  }
  if (!any_monitored) {
    // Everyone is dead or detached: stop — a readmission probe re-kicks.
    sweep_running_ = false;
    return;
  }
  sim_->ScheduleAfter(options_.sweep_period, [this] { Sweep(); });
}

void ControlPlane::DeclareDead(size_t replica, SimDuration age) {
  Tracked& t = tracked_[replica];
  // The epoch bump is the fence token: everything the old incarnation might
  // still try (sends, fetches, beats) is refused at the new epoch.
  ++t.epoch;
  ++stats_.dead_declared;
  stats_.detection_age_total += age;
  stats_.last_dead_declared_at = sim_->now();
  Trace("declare-dead:replica" + std::to_string(replica) + ":epoch" +
        std::to_string(t.epoch));
  // Fence BEFORE failover: the replay that re-executes this replica's LIPs
  // must never race a live original. The failover marks the slot dead.
  cluster_->ControlFence(replica, t.epoch);
  (void)cluster_->ControlFailover(replica);
  ++stats_.auto_failovers;
  if (replica == seat_ || replica == deputy_) {
    ChooseSeat(/*count_change=*/true);
  }
  ScheduleReadmitProbes(replica);
}

void ControlPlane::ChooseSeat(bool count_change) {
  size_t old_seat = seat_;
  seat_ = kNoReplica;
  deputy_ = kNoReplica;
  for (size_t i = 0; i < tracked_.size(); ++i) {
    if (!Monitorable(i)) {
      continue;
    }
    if (seat_ == kNoReplica) {
      seat_ = i;
    } else if (deputy_ == kNoReplica) {
      deputy_ = i;
      break;
    }
  }
  if (seat_ != old_seat && seat_ != kNoReplica) {
    if (count_change) {
      ++stats_.seat_changes;
    }
    // The new seat starts with a fresh view: ages are measured from now, so
    // stale bookkeeping tied to the old seat can't cascade declarations.
    SimTime now = sim_->now();
    for (Tracked& t : tracked_) {
      t.joined_at = std::max(t.joined_at, now);
    }
    Trace("seat:replica" + std::to_string(seat_));
  }
}

void ControlPlane::ScheduleReadmitProbes(size_t replica) {
  SimTime heal = cluster_->ControlHealAt(replica);
  if (heal < 0) {
    return;  // Permanent: the process never comes back.
  }
  SimTime now = sim_->now();
  std::vector<SimTime> probes;
  probes.push_back(std::max(heal, now));
  if (faults_ != nullptr) {
    // Probe again when each fault window that could have isolated the
    // replica closes. Known absolute times only — never a polling loop.
    for (const PartitionSpec& p : faults_->partitions()) {
      SimTime end = p.at + p.duration;
      if ((p.a == replica || p.b == replica) && end > now) {
        probes.push_back(std::max(end, heal));
      }
    }
    for (const LinkDownSpec& l : faults_->link_downs()) {
      SimTime end = l.at + l.duration;
      if (end > now) {
        probes.push_back(std::max(end, heal));
      }
    }
  }
  for (SimTime at : probes) {
    sim_->ScheduleAt(at, [this, replica] { TryReadmit(replica); });
  }
}

void ControlPlane::NoteReplicaHealed(size_t replica) {
  TryReadmit(replica);
}

void ControlPlane::TryReadmit(size_t replica) {
  EnsureTracked();
  SettleArrivals(replica);
  Tracked& t = tracked_[replica];
  if (cluster_->ControlState(replica) != ReplicaHealth::kDead) {
    return;
  }
  SimTime now = sim_->now();
  SimTime heal = cluster_->ControlHealAt(replica);
  if (heal < 0 || heal > now) {
    return;  // Still down (a partition-end probe can fire before the heal).
  }
  // The rejoiner must be able to reach the seat, or it would be declared
  // dead again immediately.
  if (seat_ != kNoReplica && seat_ != replica) {
    if (faults_ != nullptr && faults_->Partitioned(replica, seat_, now)) {
      return;
    }
    if (!topology_->HasRoute(replica, seat_, now)) {
      return;
    }
  }
  if (!cluster_->ControlReadmit(replica, t.epoch)) {
    return;
  }
  t.suspected = false;
  t.joined_at = now;
  t.last_heartbeat = now;
  t.last_ok_send = now;
  ++stats_.readmissions;
  stats_.last_readmission_at = now;
  Trace("readmit:replica" + std::to_string(replica) + ":epoch" +
        std::to_string(t.epoch));
  if (seat_ == kNoReplica) {
    ChooseSeat(/*count_change=*/true);
  }
  Kick();
}

void ControlPlane::NoteReplicaAdded(size_t replica) {
  EnsureTracked();
  assert(replica < tracked_.size());
  (void)replica;
  Kick();
}

Status ControlPlane::NoteManualDeath(size_t replica) {
  EnsureTracked();
  // Settle first: the failover stops the slot being monitored, and beats
  // that landed before this instant still count.
  SettleArrivals(replica);
  ++tracked_[replica].epoch;
  Status status = cluster_->ControlFailover(replica);
  if (replica == seat_ || replica == deputy_) {
    ChooseSeat(/*count_change=*/true);
  }
  return status;
}

void ControlPlane::NoteDrainStarted(size_t replica) {
  // A draining slot stays monitored, so there is nothing to settle.
  Trace("drain:replica" + std::to_string(replica));
  Kick();  // The sweep chain must run to finish the detach.
}

void ControlPlane::EvaluateScaling() {
  SettleArrivals();
  if (!cluster_->ControlHasWork()) {
    scale_running_ = false;
    return;
  }
  ClusterControl::LoadSignal signal = cluster_->ControlLoadSignal();
  uint64_t shed_delta = signal.sheds - last_sheds_;
  last_sheds_ = signal.sheds;
  double alpha = options_.scaling.ewma_alpha;
  ewma_delay_ = alpha * static_cast<double>(signal.worst_delay) +
                (1.0 - alpha) * ewma_delay_;
  double per_replica =
      signal.serving > 0 ? static_cast<double>(signal.live_lips) /
                               static_cast<double>(signal.serving)
                         : 0.0;
  ewma_load_ = alpha * per_replica + (1.0 - alpha) * ewma_load_;
  SimTime now = sim_->now();
  bool overloaded =
      (options_.scaling.scale_out_on_sheds > 0 &&
       shed_delta >= options_.scaling.scale_out_on_sheds) ||
      ewma_delay_ >
          static_cast<double>(options_.scaling.scale_out_queue_delay);
  if (overloaded && signal.serving < options_.scaling.max_replicas &&
      (last_scale_out_ < 0 ||
       now - last_scale_out_ >= options_.scaling.scale_out_cooldown)) {
    size_t added = cluster_->ControlAddReplica();
    if (added != kNoReplica) {
      last_scale_out_ = now;
      ++stats_.scale_outs;
      stats_.last_scale_out_at = now;
      Trace("scale-out:replica" + std::to_string(added));
      NoteReplicaAdded(added);
    }
  } else if (!overloaded && signal.queued == 0 && shed_delta == 0 &&
             signal.serving > options_.scaling.min_replicas &&
             ewma_load_ < options_.scaling.scale_in_load &&
             (last_scale_in_ < 0 ||
              now - last_scale_in_ >= options_.scaling.scale_in_cooldown)) {
    // Drain the least-loaded serving replica; ties break to the HIGHEST
    // index so elastic growth unwinds LIFO.
    size_t victim = kNoReplica;
    size_t best = SIZE_MAX;
    for (size_t i = 0; i < signal.lips.size(); ++i) {
      if (signal.lips[i] != SIZE_MAX && signal.lips[i] <= best) {
        best = signal.lips[i];
        victim = i;
      }
    }
    if (victim != kNoReplica && cluster_->ControlStartDrain(victim)) {
      last_scale_in_ = now;
      ++stats_.scale_ins;
      Trace("drain:replica" + std::to_string(victim));
    }
  }
  sim_->ScheduleAfter(options_.scaling.evaluate_period,
                      [this] { EvaluateScaling(); });
}

ReplicaHealth ControlPlane::Health(size_t replica) const {
  if (replica >= tracked_.size()) {
    return ReplicaHealth::kLive;
  }
  SettleArrivals(replica);
  ReplicaHealth state = cluster_->ControlState(replica);
  return state == ReplicaHealth::kLive && tracked_[replica].suspected
             ? ReplicaHealth::kSuspected
             : state;
}

uint64_t ControlPlane::Epoch(size_t replica) const {
  if (replica >= tracked_.size()) {
    return 1;
  }
  SettleArrivals(replica);
  return tracked_[replica].epoch;
}

SimDuration ControlPlane::HeartbeatAge(size_t replica) const {
  SettleArrivals(replica);
  if (replica >= tracked_.size() || !Monitorable(replica) ||
      tracked_[replica].last_heartbeat == 0) {
    return -1;
  }
  return sim_->now() - tracked_[replica].last_heartbeat;
}

const ControlPlaneStats& ControlPlane::stats() const {
  SettleArrivals();
  return stats_;
}

}  // namespace symphony
