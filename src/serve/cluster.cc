#include "src/serve/cluster.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace symphony {

SymphonyCluster::SymphonyCluster(Simulator* sim, ClusterOptions options)
    : sim_(sim), options_(std::move(options)) {
  assert(sim != nullptr);
  assert(options_.replicas > 0);
  cost_model_ = std::make_unique<CostModel>(options_.server.model,
                                            options_.server.hardware);
  // ONE topology instance routes every cross-replica byte: IPC, journal
  // shipping, and store fetches contend for the same physical links.
  TopologyOptions topology_options = options_.topology;
  topology_options.replicas = options_.replicas;
  topology_ = std::make_unique<NetworkTopology>(
      sim_, cost_model_.get(), options_.server.fault_plan,
      options_.server.trace, topology_options);
  SnapshotStoreOptions store_options;
  store_options.chunk_bytes = options_.store_chunk_bytes;
  store_options.sim = sim_;
  store_options.cost = cost_model_.get();
  store_options.fault_plan = options_.server.fault_plan;
  store_options.trace = options_.server.trace;
  store_options.topology = topology_.get();
  store_ = std::make_unique<SnapshotStore>(store_options);
  fabric_ = std::make_unique<IpcFabric>(
      sim_, cost_model_.get(), options_.server.fault_plan,
      options_.server.trace, options_.ipc, topology_.get());
  // Replicas beyond options_.roles are kUnified.
  slots_.resize(options_.replicas);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (i < options_.roles.size()) {
      slots_[i].role = options_.roles[i];
    }
    BuildReplica(i);
  }
  // Arm the fault plan's replica-kill schedule. Kills route through the
  // normal KillReplica path, so with recovery enabled the victims fail over.
  if (options_.server.fault_plan != nullptr) {
    for (const auto& [replica, at] : options_.server.fault_plan->replica_kills()) {
      sim_->ScheduleAt(at, [this, replica = replica] {
        if (replica < slots_.size() && !replica_dead(replica)) {
          (void)KillReplica(replica);
        }
      });
    }
    // Crashes are silent: the process halts and NOTHING is told — only the
    // control plane's missed heartbeats can detect it (the acceptance test
    // for autonomic recovery). Without the control plane a crashed replica
    // simply stays down.
    for (const CrashSpec& spec : options_.server.fault_plan->crashes()) {
      sim_->ScheduleAt(spec.at, [this, spec] {
        (void)CrashReplica(spec.replica, spec.down_for);
      });
    }
  }
  if (options_.ctrl.enabled) {
    // The base cast must happen here, in member context: the inheritance is
    // private (the ClusterControl surface is an implementation detail).
    ctrl_ = std::make_unique<ControlPlane>(
        sim_, static_cast<ClusterControl*>(this), topology_.get(),
        options_.server.fault_plan, options_.server.trace, options_.ctrl);
  }
}

void SymphonyCluster::BuildReplica(size_t index) {
  ReplicaSlot& slot = slots_[index];
  // Readmission replaces the old incarnation. It is parked, not destroyed:
  // pending simulator events may still name its (halted) runtime.
  bool readmitted = slot.server != nullptr;
  if (readmitted) {
    retired_servers_.push_back(std::move(slot.server));
  }
  ServerOptions server_options = options_.server;
  // Decorrelate per-replica randomness (tool latencies etc.). A readmitted
  // slot rebuilds with the same seeds: determinism is per slot, and the
  // replayed LIPs draw from their own uid-derived streams anyway.
  server_options.runtime.seed = options_.server.runtime.seed + index * 7919;
  server_options.tool_seed = options_.server.tool_seed + index * 104729;
  slot.server = std::make_unique<SymphonyServer>(sim_, server_options);
  SymphonyServer& server = *slot.server;
  server.scheduler().set_queue_wait_hook(
      [this](double wait_ms) { queue_waits_ms_.Add(wait_ms); });
  // Same setup for every incarnation of the slot: a replica rebuilt by
  // readmission (or added by scale-out) must serve the same tools as the
  // original fleet, or replayed/new LIPs would observe a different server.
  if (options_.configure_replica) {
    options_.configure_replica(server, index);
  }
  if (readmitted) {
    fabric_->ReviveReplica(index, &server.runtime());
  } else {
    fabric_->AttachReplica(index, &server.runtime());
  }
  server.runtime().set_channel_fabric(fabric_.get(), index);
  // Credit backpressure feeds admission: parked senders on a replica
  // inflate its projected queue delay, steering Submit's reroute tier
  // toward less-congested replicas.
  server.set_backpressure_hook(
      [fabric = fabric_.get(), index] {
        return fabric->BackpressureDelay(index);
      });
  InstallDisaggHook(index);  // The slot keeps its role across incarnations.
}

std::vector<uint64_t> SymphonyCluster::StrandedLips() const {
  std::vector<uint64_t> stranded;
  for (const auto& entry : records_) {
    const LipRecord& rec = entry.second;
    if (!rec.done && !rec.in_flight && replica_dead(rec.replica)) {
      stranded.push_back(rec.uid);
    }
  }
  std::sort(stranded.begin(), stranded.end());
  return stranded;
}

bool SymphonyCluster::Placeable(size_t index) const {
  const ReplicaSlot& slot = slots_[index];
  return slot.state == ReplicaHealth::kLive &&
         !slot.server->runtime().halted();
}

size_t SymphonyCluster::LiveLips(size_t index) const {
  return slots_[index].server->runtime().live_lips();
}

bool SymphonyCluster::Avoided(size_t index) const {
  return ctrl_ != nullptr &&
         ctrl_->Health(index) == ReplicaHealth::kSuspected;
}

ReplicaRole SymphonyCluster::RoleOf(size_t index) const {
  return slots_[index].role;
}

bool SymphonyCluster::InServePool(size_t index) const {
  return RoleOf(index) != ReplicaRole::kPrefill;
}

bool SymphonyCluster::HasPrefillPool() const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (RoleOf(i) == ReplicaRole::kPrefill) {
      return true;
    }
  }
  return false;
}

size_t SymphonyCluster::LeastLoadedPrefill() const {
  size_t best = kNoReplica;
  size_t best_load = SIZE_MAX;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (RoleOf(i) != ReplicaRole::kPrefill || !Placeable(i) || Avoided(i)) {
      continue;
    }
    size_t load = LiveLips(i);
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

size_t SymphonyCluster::LeastLoaded() const {
  // Pool pass 0 considers only serve-pool (decode/unified) replicas, so a
  // decode stream or failover never lands behind a prefill replica's giant
  // prefills; prefill replicas are better than nothing when the whole serve
  // pool is down (pass 1). Within a pool, two passes: suspected replicas
  // (control-plane detector) lose placements to healthy ones, but remain
  // better than nothing when all else is down. A role-less cluster puts
  // every replica in the serve pool, preserving the legacy pick exactly.
  for (int pool = 0; pool < 2; ++pool) {
    for (int pass = 0; pass < 2; ++pass) {
      size_t best = slots_.size();
      size_t best_load = SIZE_MAX;
      for (size_t i = 0; i < slots_.size(); ++i) {
        if (!Placeable(i) || (pool == 0 && !InServePool(i)) ||
            (pass == 0 && Avoided(i))) {
          continue;
        }
        size_t load = LiveLips(i);
        if (load < best_load) {
          best = i;
          best_load = load;
        }
      }
      if (best < slots_.size()) {
        return best;
      }
    }
  }
  assert(false && "no live replica");
  return 0;
}

size_t SymphonyCluster::FirstLiveFrom(size_t preferred) const {
  // Same pool preference as LeastLoaded: serve-pool replicas first.
  for (int pool = 0; pool < 2; ++pool) {
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t probe = 0; probe < slots_.size(); ++probe) {
        size_t i = (preferred + probe) % slots_.size();
        if (Placeable(i) && (pool == 1 || InServePool(i)) &&
            (pass == 1 || !Avoided(i))) {
          return i;
        }
      }
    }
  }
  assert(false && "no live replica");
  return 0;
}

size_t SymphonyCluster::RouteFor(const std::string& affinity_key,
                                 uint64_t prefill_hint_tokens) {
  // A fresh launch that will prefill a large context goes to the prefill
  // pool (least-loaded placeable prefill replica). Everything else — decode
  // streams, small jobs, hint-less launches — routes through the normal
  // policy, which avoids prefill replicas (see LeastLoaded/FirstLiveFrom).
  if (prefill_hint_tokens >= options_.disagg_min_prefill_tokens) {
    size_t pick = LeastLoadedPrefill();
    if (pick != kNoReplica) {
      ++stats_.disagg_prefill_routes;
      return pick;
    }
  }
  switch (options_.routing) {
    case RoutingPolicy::kRoundRobin: {
      size_t replica = FirstLiveFrom(next_round_robin_);
      next_round_robin_ = (replica + 1) % slots_.size();
      return replica;
    }
    case RoutingPolicy::kLeastLoaded:
      return LeastLoaded();
    case RoutingPolicy::kCacheAffinity:
      if (affinity_key.empty()) {
        return LeastLoaded();
      }
      return FirstLiveFrom(
          static_cast<size_t>(Fnv1a(affinity_key) % slots_.size()));
    case RoutingPolicy::kAffinityBounded: {
      if (affinity_key.empty()) {
        return LeastLoaded();
      }
      size_t preferred = FirstLiveFrom(
          static_cast<size_t>(Fnv1a(affinity_key) % slots_.size()));
      size_t total_live = 0;
      size_t live_replicas = 0;
      for (size_t i = 0; i < slots_.size(); ++i) {
        if (!Placeable(i)) {
          continue;
        }
        total_live += LiveLips(i);
        ++live_replicas;
      }
      double average = static_cast<double>(total_live + 1) /
                       static_cast<double>(live_replicas);
      double bound = options_.load_factor * average;
      if (static_cast<double>(LiveLips(preferred) + 1) <=
          bound) {
        return preferred;
      }
      // Hot key: the preferred replica is over its bound. The overflow is
      // both a routing decision and a load signal (see MaybeShedOnOverflow).
      NoteOverflow();
      return LeastLoaded();
    }
  }
  return 0;
}

void SymphonyCluster::NoteOverflow() {
  ++stats_.overflow_events;
  SimTime now = sim_->now();
  if (now - overflow_window_start_ > options_.overflow_window) {
    overflow_window_start_ = now;
    overflow_in_window_ = 0;
  }
  ++overflow_in_window_;
}

void SymphonyCluster::MaybeShedOnOverflow() {
  if (!options_.rebalance_on_overflow || !options_.enable_recovery ||
      overflow_in_window_ < options_.overflow_threshold) {
    return;
  }
  SimTime now = sim_->now();
  if (last_overflow_rebalance_ >= 0 &&
      now - last_overflow_rebalance_ < options_.overflow_cooldown) {
    return;
  }
  last_overflow_rebalance_ = now;
  overflow_in_window_ = 0;
  ++stats_.overflow_rebalances;
  // Deferred one dispatch: Launch's placement must settle before migration
  // decisions read the load it just added.
  sim_->ScheduleAt(now, [this] { (void)Rebalance(); });
}

std::function<void(LipId)> SymphonyCluster::MakeOnExit(uint64_t uid) {
  return [this, uid](LipId lip) {
    auto it = records_.find(uid);
    if (it == records_.end()) {
      return;
    }
    LipRecord& rec = it->second;
    rec.done = true;
    // Cache the output: the hosting slot may be rebuilt by readmission after
    // this LIP is gone, and Output() must keep answering.
    rec.output = slots_[rec.replica].server->runtime().Output(lip);
    // The journal's life is over: drop its checkpoint's store reference.
    if (rec.journal != nullptr && rec.journal->checkpoint_key() != 0) {
      (void)store_->Release(rec.journal->checkpoint_key());
      rec.journal->AbandonCheckpoint();
    }
    if (rec.user_on_exit) {
      rec.user_on_exit(lip);
    }
  };
}

void SymphonyCluster::InstallCheckpointHook(
    const std::shared_ptr<SyscallJournal>& journal, size_t replica) {
  if (!options_.checkpoint_journals) {
    return;
  }
  uint64_t fingerprint = options_.server.model.Fingerprint();
  journal->set_fold_hook(
      [this, replica, fingerprint](SyscallJournal& j) {
        StatusOr<CheckpointOutcome> out =
            CheckpointJournal(*store_, replica, fingerprint, j);
        if (!out.ok()) {
          // Typically a corruption window on the previous checkpoint's
          // chunks: the fold is skipped and the journal stays fatter until
          // the next interval crossing.
          return;
        }
        ++stats_.checkpoints;
        stats_.checkpoint_entries_folded += out->folded_entries;
        if (options_.server.trace != nullptr) {
          options_.server.trace->Instant(
              "store",
              "checkpoint:replica" + std::to_string(replica) + ":" +
                  std::to_string(out->folded_entries) + "entries",
              sim_->now());
        }
      },
      options_.checkpoint_interval);
}

void SymphonyCluster::InstallDisaggHook(size_t index) {
  if (RoleOf(index) != ReplicaRole::kPrefill || !options_.enable_recovery) {
    return;
  }
  slots_[index].server->scheduler().set_prefill_complete_hook(
      [this, index](LipId lip, uint64_t context_tokens) {
        // Map the runtime LIP back to its cluster record; the handoff runs
        // one dispatch later so the pred result settles into its coroutine
        // frame (and its journal entry) before the LIP is detached.
        for (const auto& entry : records_) {
          const LipRecord& rec = entry.second;
          if (rec.replica == index && rec.lip == lip && !rec.done &&
              !rec.in_flight) {
            sim_->ScheduleAt(sim_->now(),
                             [this, uid = rec.uid, context_tokens] {
                               MaybeHandoff(uid, context_tokens);
                             });
            return;
          }
        }
      });
}

void SymphonyCluster::MaybeHandoff(uint64_t uid, uint64_t context_tokens) {
  auto it = records_.find(uid);
  if (it == records_.end()) {
    return;
  }
  LipRecord& rec = it->second;
  if (rec.done || rec.in_flight || replica_dead(rec.replica) ||
      RoleOf(rec.replica) != ReplicaRole::kPrefill) {
    return;
  }
  if (context_tokens < options_.disagg_min_prefill_tokens ||
      // Ship-vs-local-decode: migrating replays the LIP on the target from
      // its journal, importing the prefilled KV when the Replayer's cost
      // model says the shipped bytes beat recomputing the prefill there.
      // When even the import loses to recompute, the hop buys nothing and
      // the LIP decodes where it is.
      Replayer::Choose(*cost_model_, context_tokens) !=
          RecoveryMode::kImportSnapshot) {
    ++stats_.disagg_handoff_skips;
    return;
  }
  // Least-loaded placeable serve-pool target (never another prefill slot).
  size_t target = kNoReplica;
  size_t best_load = SIZE_MAX;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (i == rec.replica || !Placeable(i) || !InServePool(i) || Avoided(i)) {
      continue;
    }
    size_t load = LiveLips(i);
    if (load < best_load) {
      target = i;
      best_load = load;
    }
  }
  if (target == kNoReplica) {
    ++stats_.disagg_handoff_skips;
    return;
  }
  // Publish the prefilled KV through the snapshot store now, so the ship is
  // a checkpoint reference plus a thin live suffix instead of the raw pred
  // log (the target pulls the chunks over the topology either way).
  if (options_.checkpoint_journals && rec.journal != nullptr &&
      rec.journal->live_entries() > 0) {
    StatusOr<CheckpointOutcome> folded = CheckpointJournal(
        *store_, rec.replica, options_.server.model.Fingerprint(),
        *rec.journal);
    if (folded.ok()) {
      ++stats_.checkpoints;
      stats_.checkpoint_entries_folded += folded->folded_entries;
    }
    // A corruption-window failure just means a fatter (full) ship below.
  }
  ClusterLip id{rec.replica, rec.lip, uid};
  if (Migrate(id, target).ok()) {
    ++stats_.disagg_handoffs;
    if (options_.server.trace != nullptr) {
      options_.server.trace->Instant(
          "recovery", "handoff:" + rec.name + ":replica" +
                          std::to_string(id.replica) + "->replica" +
                          std::to_string(target) + ":" +
                          std::to_string(context_tokens) + "tok",
          sim_->now());
    }
  } else {
    ++stats_.disagg_handoff_skips;
  }
}

SymphonyCluster::ClusterLip SymphonyCluster::Launch(
    std::string name, const std::string& affinity_key, LipProgram program,
    std::function<void(LipId)> on_exit) {
  return Launch(std::move(name), affinity_key, 0, std::move(program),
                std::move(on_exit));
}

SymphonyCluster::ClusterLip SymphonyCluster::Launch(
    std::string name, const std::string& affinity_key,
    uint64_t prefill_hint_tokens, LipProgram program,
    std::function<void(LipId)> on_exit) {
  size_t replica = RouteFor(affinity_key, prefill_hint_tokens);
  ++slots_[replica].launched;
  MaybeShedOnOverflow();
  if (!options_.enable_recovery) {
    LipId lip = slots_[replica].server->Launch(
        std::move(name), std::move(program), std::move(on_exit));
    if (ctrl_ != nullptr) {
      ctrl_->Kick();  // New work: (re)arm heartbeat/sweep/scaling chains.
    }
    return ClusterLip{replica, lip, 0};
  }
  uint64_t uid = next_uid_++;
  LipRecord& rec = records_[uid];
  rec.uid = uid;
  rec.name = name;
  rec.program = program;  // Keep a copy for relaunch.
  rec.user_on_exit = std::move(on_exit);
  rec.replica = replica;
  rec.journal = std::make_shared<SyscallJournal>();
  // Replica-independent seed: a replayed LIP must re-draw the identical RNG
  // stream on any replica, so the seed is derived from the cluster-wide uid
  // rather than the replica's decorrelated runtime seed.
  uint64_t seed =
      Mix64(options_.server.runtime.seed ^ (0x5eedULL + uid * 0x9e3779b9ULL));
  LipRuntime& runtime = slots_[replica].server->runtime();
  rec.lip = runtime.LaunchWithSeed(std::move(name), seed, std::move(program),
                                   MakeOnExit(uid));
  runtime.EnableJournal(rec.lip, rec.journal);
  InstallCheckpointHook(rec.journal, replica);
  if (ctrl_ != nullptr) {
    // AFTER the record lands: Kick is gated on ControlHasWork, and this
    // launch may be the first work the cluster has seen.
    ctrl_->Kick();
  }
  return ClusterLip{replica, rec.lip, uid};
}

SymphonyCluster::ClusterAdmitResult SymphonyCluster::Submit(
    SymphonyServer::LaunchSpec spec, const std::string& affinity_key) {
  size_t preferred = RouteFor(affinity_key, spec.prefill_hint_tokens);
  MaybeShedOnOverflow();
  // Candidate order: the routed replica first, then (with reroute enabled)
  // the other placeable replicas from least to most loaded, with
  // control-plane-suspected replicas demoted to the very end.
  std::vector<size_t> candidates{preferred};
  if (options_.reroute_on_reject) {
    // (suspected, live lips, replica)
    std::vector<std::tuple<bool, size_t, size_t>> rest;
    for (size_t i = 0; i < slots_.size(); ++i) {
      // Prefill-role replicas never serve as reroute fallbacks: rerouted
      // work is by definition not a routed large prefill.
      if (i == preferred || !Placeable(i) || !InServePool(i)) {
        continue;
      }
      rest.emplace_back(Avoided(i), LiveLips(i), i);
    }
    std::sort(rest.begin(), rest.end());
    for (const auto& [avoided, load, i] : rest) {
      candidates.push_back(i);
    }
  }
  ClusterAdmitResult shed;
  shed.replica = preferred;
  shed.result.retry_after = 0;
  for (size_t c : candidates) {
    // LaunchSpec is copyable (LipProgram re-invokes); keep ours for the
    // next candidate.
    SymphonyServer::AdmitResult result = slots_[c].server->Submit(spec);
    if (result.status.ok()) {
      ++slots_[c].launched;
      ClusterAdmitResult out;
      out.result = std::move(result);
      out.replica = c;
      out.rerouted = c != preferred;
      if (out.rerouted) {
        ++stats_.submit_reroutes;
      }
      if (ctrl_ != nullptr) {
        // AFTER the admit/queue landed: Kick is gated on ControlHasWork and
        // this may be the cluster's first work.
        ctrl_->Kick();
      }
      return out;
    }
    // Remember the gentlest backpressure hint across the rejections.
    if (shed.result.retry_after == 0 ||
        (result.retry_after > 0 &&
         result.retry_after < shed.result.retry_after)) {
      shed.result = std::move(result);
      shed.replica = c;
    }
  }
  ++stats_.submit_sheds;
  return shed;
}

void SymphonyCluster::ReplayOnto(LipRecord& rec, size_t target) {
  // Replay from a copy: late completions on the old replica may still append
  // to the original journal, and the new incarnation records into its own.
  auto journal = std::make_shared<SyscallJournal>(*rec.journal);
  // The copy inherits the checkpoint's store reference; neuter the original
  // so a straggler fold on the abandoned incarnation can't double-own it.
  rec.journal->set_fold_hook(nullptr, 0);
  rec.journal->AbandonCheckpoint();
  rec.journal = journal;
  rec.in_flight = true;
  ShipJournal(rec.uid, target, std::move(journal));
}

void SymphonyCluster::ShipJournal(uint64_t uid, size_t target,
                                  std::shared_ptr<SyscallJournal> journal) {
  auto it = records_.find(uid);
  if (it == records_.end() || it->second.done) {
    return;
  }
  size_t source = it->second.replica;
  // A down link with no surviving route: hold the shipment and retry, the
  // same surfacing as a corrupted rehydrate. The journal bytes sit at the
  // source until a path exists.
  if (!topology_->Routable(source, target, sim_->now())) {
    sim_->ScheduleAfter(Millis(2), [this, uid, target, journal] {
      ShipJournal(uid, target, journal);
    });
    return;
  }
  // Measure the live suffix BEFORE rehydration turns the folded prefix back
  // into live entries.
  uint64_t suffix_bytes = JournalLiveBytes(*journal);
  bool had_checkpoint = journal->folded_entries() > 0;
  SimDuration fetch_time = 0;
  if (had_checkpoint) {
    // The target pulls the checkpoint from the store (paying interconnect
    // only for chunks it doesn't already cache) so the full log exists for
    // replay. A corruption window fails the fetch — retry shortly; the
    // verified chunks never reach the journal.
    StatusOr<RehydrateOutcome> fetch =
        RehydrateJournal(*store_, target, *journal);
    if (!fetch.ok()) {
      ++stats_.rehydrate_retries;
      sim_->ScheduleAfter(Millis(2), [this, uid, target, journal] {
        ShipJournal(uid, target, journal);
      });
      return;
    }
    fetch_time = fetch->transfer_time;
  }
  bool delta = had_checkpoint && options_.delta_migration;
  // Delta ships only the live suffix over the wire (the prefix came out of
  // the store above); full ships the whole serialized log and the store
  // fetch was just the local mechanism, so only the wire bytes are charged.
  uint64_t ship = delta ? suffix_bytes : JournalLiveBytes(*journal);
  // The suffix rides the topology's links from the source, occupying them
  // against concurrent IPC. The checkpoint fetch above already occupies its
  // own routes (queueing against this ship where they share a link), so a
  // delta waits for whichever of the two racing streams lands last — not
  // their sum.
  SimDuration wire = topology_->Transfer(source, target, ship,
                                         "ship:" + it->second.name) -
                     sim_->now();
  SimDuration delay = delta ? std::max(wire, fetch_time) : wire;
  stats_.ship_bytes += ship;
  if (delta) {
    ++stats_.delta_ships;
  } else {
    ++stats_.full_ships;
  }
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant(
        "store", std::string(delta ? "delta-ship:" : "full-ship:") +
                     it->second.name + ":" + std::to_string(ship) + "B",
        sim_->now());
  }
  sim_->ScheduleAfter(delay, [this, uid, target, journal] {
    StartReplay(uid, target, journal);
  });
}

void SymphonyCluster::StartReplay(uint64_t uid, size_t target,
                                  std::shared_ptr<SyscallJournal> journal) {
  auto it = records_.find(uid);
  if (it == records_.end()) {
    return;
  }
  LipRecord& rec = it->second;
  if (rec.done) {
    rec.in_flight = false;
    return;
  }
  if (!Placeable(target)) {
    // The target died (or started draining / crashed) while the journal was
    // in flight; divert to a survivor (the journal bytes already moved — no
    // second shipping charge).
    bool any_live = false;
    for (size_t i = 0; i < slots_.size(); ++i) {
      any_live = any_live || Placeable(i);
    }
    if (!any_live) {
      rec.in_flight = false;
      return;
    }
    target = LeastLoaded();
  }
  // Capture the stale placement before overwriting: the fabric forwards any
  // channel homed at the old incarnation to wherever the replay landed.
  size_t old_replica = rec.replica;
  LipId old_lip = rec.lip;
  ReplayOutcome outcome = Replayer::Replay(
      slots_[target].server->runtime(), *cost_model_, &options_.server.model,
      journal, rec.program, options_.recovery_mode, MakeOnExit(uid));
  fabric_->RehomeEndpoint(old_replica, old_lip, target, outcome.lip);
  rec.replica = target;
  rec.lip = outcome.lip;
  rec.in_flight = false;
  InstallCheckpointHook(journal, target);
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant(
        "recovery", "restore:" + rec.name + "@replica" +
                        std::to_string(target) + ":" +
                        RecoveryModeName(outcome.mode),
        sim_->now());
  }
}

Status SymphonyCluster::KillReplica(size_t index) {
  if (index >= slots_.size()) {
    return InvalidArgumentError("no replica " + std::to_string(index));
  }
  if (replica_dead(index)) {
    return FailedPreconditionError("replica " + std::to_string(index) +
                                   " already dead");
  }
  // Manual kills are permanent: the slot is never readmitted. With a
  // control plane the kill runs through its failover path, which settles
  // the slot's heartbeats before the slot stops being monitored; the
  // detector never has to discover what the caller already knows.
  slots_[index].heal_at = -1;
  if (ctrl_ != nullptr) {
    return ctrl_->NoteManualDeath(index);
  }
  return ControlFailover(index);
}

Status SymphonyCluster::ControlFailover(size_t index) {
  assert(!replica_dead(index));
  slots_[index].state = ReplicaHealth::kDead;  // Even if it was draining.
  LipRuntime& runtime = slots_[index].server->runtime();
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant("recovery",
                                   "kill:replica" + std::to_string(index),
                                   sim_->now());
  }
  // Collect the victims before halting: LipDone() still answers afterwards,
  // but the order keeps this readable. (On the autonomic path the runtime
  // was already halted by the fence — collection only reads.)
  std::vector<uint64_t> victims;
  for (auto& entry : records_) {
    LipRecord& rec = entry.second;
    // In-flight records still name this replica but their journal is already
    // on its way elsewhere (StartReplay re-targets if needed); skip them.
    if (rec.replica == index && !rec.done && !rec.in_flight &&
        !runtime.LipDone(rec.lip)) {
      victims.push_back(rec.uid);
    }
  }
  runtime.Halt();
  fabric_->MarkReplicaDead(index);
  if (!options_.enable_recovery || victims.empty()) {
    return Status::Ok();
  }
  bool any_live = false;
  for (size_t i = 0; i < slots_.size(); ++i) {
    any_live = any_live || Placeable(i);
  }
  if (!any_live) {
    return FailedPreconditionError("no surviving replica to fail over to");
  }
  // Spread the victims across survivors by (planned) load. IPC-coupled LIPs
  // may land apart: the fabric serves each one's journaled recvs, suppresses
  // its journaled sends, and rehomes its channels at replay time, so they no
  // longer have to re-execute against each other on one replica. Sort first —
  // records_ iteration order is unordered and placement must be stable.
  std::sort(victims.begin(), victims.end());
  std::vector<size_t> planned(slots_.size(), 0);
  for (size_t i = 0; i < slots_.size(); ++i) {
    planned[i] = Placeable(i) ? LiveLips(i) : SIZE_MAX;
  }
  for (uint64_t uid : victims) {
    size_t target = 0;
    size_t best = SIZE_MAX;
    SimDuration best_dist = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (!Placeable(i)) {
        continue;
      }
      // Topology-aware spreading: equal planned load breaks toward the
      // survivor closest to the victim (an intra-rack failover ships its
      // journal without crossing the uplink). Strictly-closer-only, so the
      // uniform single-switch topology keeps the legacy lowest-index pick.
      SimDuration dist = topology_->Distance(index, i);
      if (planned[i] < best || (planned[i] == best && dist < best_dist)) {
        best = planned[i];
        best_dist = dist;
        target = i;
      }
    }
    ++planned[target];
    ReplayOnto(records_[uid], target);
    ++stats_.failovers;
  }
  SYMPHONY_LOG(kInfo) << "replica " << index << " killed; " << victims.size()
                      << " lip journal(s) shipped to survivors";
  return Status::Ok();
}

Status SymphonyCluster::CrashReplica(size_t index, SimDuration down_for) {
  if (index >= slots_.size()) {
    return InvalidArgumentError("no replica " + std::to_string(index));
  }
  ReplicaSlot& slot = slots_[index];
  if (replica_dead(index) || slot.heal_at != 0) {
    return FailedPreconditionError("replica " + std::to_string(index) +
                                   " already down");
  }
  slot.heal_at = down_for < 0 ? -1 : sim_->now() + down_for;
  // Silent: the runtime halts (its heartbeats stop with it) but the slot
  // stays live — detection is the control plane's job.
  slot.server->runtime().Halt();
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant("recovery",
                                   "crash:replica" + std::to_string(index),
                                   sim_->now());
  }
  if (down_for >= 0) {
    sim_->ScheduleAt(slot.heal_at, [this, index] {
      if (ctrl_ != nullptr) {
        ctrl_->NoteReplicaHealed(index);
      }
    });
  }
  return Status::Ok();
}

size_t SymphonyCluster::AddReplica() {
  size_t index = ControlAddReplica();
  if (index != kNoReplica && ctrl_ != nullptr) {
    ctrl_->NoteReplicaAdded(index);
  }
  return index;
}

Status SymphonyCluster::DrainReplica(size_t index) {
  if (index >= slots_.size()) {
    return InvalidArgumentError("no replica " + std::to_string(index));
  }
  if (!options_.enable_recovery) {
    return FailedPreconditionError("drain requires enable_recovery");
  }
  if (!ControlStartDrain(index)) {
    return FailedPreconditionError(
        "replica " + std::to_string(index) +
        " cannot drain (not serving, or no other placeable replica)");
  }
  if (ctrl_ != nullptr) {
    ctrl_->NoteDrainStarted(index);  // The sweep completes the detach.
  } else {
    PollDrain(index);
  }
  return Status::Ok();
}

void SymphonyCluster::PollDrain(size_t index) {
  // Manual drains without a control plane finish through this small chain;
  // it stops once the slot leaves kDraining (detached or killed), so
  // Simulator::Run still terminates.
  if (!replica_draining(index)) {
    return;
  }
  if (!ControlDrainComplete(index)) {
    sim_->ScheduleAfter(Millis(5), [this, index] { PollDrain(index); });
  }
}

// ---- ClusterControl (src/ctrl) -----------------------------------------

size_t SymphonyCluster::ControlReplicaCount() const {
  return slots_.size();
}

ReplicaHealth SymphonyCluster::ControlState(size_t replica) const {
  return slots_[replica].state;
}

bool SymphonyCluster::ControlBeating(size_t replica) const {
  return !slots_[replica].server->runtime().halted();
}

bool SymphonyCluster::ControlHasWork() const {
  for (const auto& entry : records_) {
    if (!entry.second.done) {
      return true;  // Includes LIPs stranded on a crashed replica.
    }
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (replica_draining(i)) {
      return true;
    }
    if (Placeable(i) && (LiveLips(i) > 0 ||
                         slots_[i].server->admission_queue_depth() > 0)) {
      return true;
    }
  }
  return false;
}

SimTime SymphonyCluster::ControlHealAt(size_t replica) const {
  return slots_[replica].heal_at;
}

void SymphonyCluster::ControlFence(size_t replica, uint64_t epoch) {
  // Halt + refusal at every shared surface BEFORE any LIP is re-executed
  // elsewhere: the old incarnation must be provably inert.
  slots_[replica].server->runtime().Halt();
  fabric_->FenceReplica(replica, epoch);
  store_->SetReplicaFenced(replica, true);
}

bool SymphonyCluster::ControlReadmit(size_t replica, uint64_t epoch) {
  ReplicaSlot& slot = slots_[replica];
  if (slot.state != ReplicaHealth::kDead || slot.heal_at < 0 ||
      slot.heal_at > sim_->now()) {
    return false;  // Never heals, or the process is still down.
  }
  // Collect stranded LIPs while this slot is still marked dead: a failover
  // that found no placeable survivor (everyone fenced by a symmetric
  // partition) left their records behind, and the readmitted replica is the
  // first capacity able to rescue them.
  std::vector<uint64_t> stranded = StrandedLips();
  // The old incarnation's state is gone; rebuild the slot fresh.
  BuildReplica(replica);
  store_->SetReplicaFenced(replica, false);
  store_->ForgetReplica(replica);
  slot.state = ReplicaHealth::kLive;
  slot.heal_at = 0;
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant(
        "recovery", "readmit:replica" + std::to_string(replica) + "@epoch" +
                        std::to_string(epoch),
        sim_->now());
  }
  for (uint64_t uid : stranded) {
    ReplayOnto(records_[uid], replica);
    ++stats_.failovers;
  }
  return true;
}

size_t SymphonyCluster::ControlAddReplica() {
  // Role-aware scale-out: in a disaggregated cluster the new capacity joins
  // the hotter pool — worst projected admission delay first, total live LIPs
  // as the tie-break — so a prefill backlog grows the prefill pool instead
  // of adding a decode replica that never sees the queued work. A role-less
  // cluster always adds kUnified (the legacy behavior).
  ReplicaRole role = ReplicaRole::kUnified;
  if (HasPrefillPool()) {
    SimDuration prefill_delay = 0;
    SimDuration serve_delay = 0;
    size_t prefill_lips = 0;
    size_t serve_lips = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (!Placeable(i)) {
        continue;
      }
      SimDuration delay = slots_[i].server->ProjectedAdmissionDelay();
      size_t lips = LiveLips(i);
      if (InServePool(i)) {
        serve_delay = std::max(serve_delay, delay);
        serve_lips += lips;
      } else {
        prefill_delay = std::max(prefill_delay, delay);
        prefill_lips += lips;
      }
    }
    if (std::tie(prefill_delay, prefill_lips) >
        std::tie(serve_delay, serve_lips)) {
      role = ReplicaRole::kPrefill;
    }
  }
  size_t index = topology_->AddReplica();
  assert(index == slots_.size());
  slots_.emplace_back().role = role;
  BuildReplica(index);
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant(
        "recovery",
        "scale-out:replica" + std::to_string(index) +
            (role == ReplicaRole::kPrefill ? ":prefill" : ":serve"),
        sim_->now());
  }
  // Fresh capacity rescues any LIPs stranded by a survivor-less failover.
  for (uint64_t uid : StrandedLips()) {
    ReplayOnto(records_[uid], index);
    ++stats_.failovers;
  }
  return index;
}

bool SymphonyCluster::ControlStartDrain(size_t replica) {
  if (!options_.enable_recovery || replica >= slots_.size() ||
      !Placeable(replica)) {
    return false;
  }
  bool other = false;
  for (size_t i = 0; i < slots_.size(); ++i) {
    other = other || (i != replica && Placeable(i));
  }
  if (!other) {
    return false;  // Nowhere for its LIPs to go.
  }
  slots_[replica].state = ReplicaHealth::kDraining;  // Placement stops.
  DrainStep(replica);
  return true;
}

void SymphonyCluster::DrainStep(size_t index) {
  std::vector<uint64_t> hosted;
  for (auto& entry : records_) {
    LipRecord& rec = entry.second;
    if (rec.replica == index && !rec.done && !rec.in_flight &&
        !slots_[index].server->runtime().LipDone(rec.lip)) {
      hosted.push_back(rec.uid);
    }
  }
  // Sort: records_ iteration order is unordered and placement must be
  // deterministic.
  std::sort(hosted.begin(), hosted.end());
  for (uint64_t uid : hosted) {
    LipRecord& rec = records_[uid];
    ClusterLip id{rec.replica, rec.lip, uid};
    (void)Migrate(id, LeastLoaded());
  }
}

bool SymphonyCluster::ControlDrainComplete(size_t replica) {
  if (!replica_draining(replica)) {
    return false;
  }
  DrainStep(replica);  // Retry stragglers (e.g. a target that went away).
  for (const auto& entry : records_) {
    const LipRecord& rec = entry.second;
    // In-flight journals still name this replica until their replay lands.
    if (rec.replica == replica && !rec.done) {
      return false;
    }
  }
  ReplicaSlot& slot = slots_[replica];
  if (LiveLips(replica) > 0 || slot.server->admission_queue_depth() > 0) {
    return false;  // Untracked (non-recovery or admission-queued) work left.
  }
  slot.state = ReplicaHealth::kDetached;
  slot.heal_at = -1;  // A detached slot is never readmitted.
  slot.server->runtime().Halt();
  fabric_->MarkReplicaDead(replica);
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant(
        "recovery", "scale-in:replica" + std::to_string(replica), sim_->now());
  }
  return true;
}

ClusterControl::LoadSignal SymphonyCluster::ControlLoadSignal() const {
  LoadSignal sig;
  sig.sheds = stats_.submit_sheds;
  sig.lips.assign(slots_.size(), kNoReplica);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!Placeable(i)) {
      continue;
    }
    ++sig.serving;
    size_t lips = LiveLips(i);
    sig.live_lips += lips;
    sig.lips[i] = lips;
    sig.queued += slots_[i].server->admission_queue_depth();
    sig.worst_delay =
        std::max(sig.worst_delay, slots_[i].server->ProjectedAdmissionDelay());
  }
  return sig;
}

Status SymphonyCluster::Migrate(const ClusterLip& id, size_t to_replica) {
  if (!options_.enable_recovery) {
    return FailedPreconditionError("migration requires enable_recovery");
  }
  auto it = records_.find(id.uid);
  if (it == records_.end()) {
    return NotFoundError("unknown lip uid " + std::to_string(id.uid));
  }
  LipRecord& rec = it->second;
  if (to_replica >= slots_.size()) {
    return InvalidArgumentError("no replica " + std::to_string(to_replica));
  }
  if (!Placeable(to_replica)) {
    return FailedPreconditionError("target replica is not placeable");
  }
  if (replica_dead(rec.replica)) {
    return FailedPreconditionError("source replica is dead");
  }
  if (to_replica == rec.replica) {
    return InvalidArgumentError("lip already on replica " +
                                std::to_string(to_replica));
  }
  if (rec.in_flight) {
    return FailedPreconditionError("lip migration already in flight");
  }
  LipRuntime& source = slots_[rec.replica].server->runtime();
  if (rec.done || source.LipDone(rec.lip)) {
    return FailedPreconditionError("lip already finished");
  }
  SYMPHONY_RETURN_IF_ERROR(source.Detach(rec.lip));
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant(
        "recovery", "migrate:" + rec.name + ":replica" +
                        std::to_string(rec.replica) + "->replica" +
                        std::to_string(to_replica),
        sim_->now());
  }
  ReplayOnto(rec, to_replica);
  ++stats_.migrations;
  return Status::Ok();
}

size_t SymphonyCluster::Rebalance() {
  if (!options_.enable_recovery) {
    return 0;
  }
  std::vector<size_t> loads(slots_.size(), SIZE_MAX);
  size_t total = 0;
  size_t live_replicas = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!Placeable(i)) {
      continue;
    }
    loads[i] = LiveLips(i);
    total += loads[i];
    ++live_replicas;
  }
  if (live_replicas < 2) {
    return 0;
  }
  // A replica above load_factor x the live average sheds LIPs to the
  // emptiest replica — but only moves that strictly improve balance
  // (target + 1 < source on the planned loads). Without that guard a single
  // straggler ping-pongs between replicas forever, each migration
  // restarting it before it can finish.
  std::vector<std::pair<uint64_t, size_t>> moves;
  double average =
      static_cast<double>(total) / static_cast<double>(live_replicas);
  double bound = options_.load_factor * average;
  std::vector<size_t> planned = loads;  // SIZE_MAX marks unusable replicas.
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (loads[i] == SIZE_MAX || static_cast<double>(loads[i]) <= bound) {
      continue;
    }
    for (auto& entry : records_) {
      LipRecord& rec = entry.second;
      if (rec.replica != i || rec.done || rec.in_flight ||
          slots_[i].server->runtime().LipDone(rec.lip)) {
        continue;
      }
      size_t target = i;
      SimDuration target_dist = 0;
      for (size_t j = 0; j < slots_.size(); ++j) {
        if (planned[j] == SIZE_MAX) {
          continue;
        }
        // Same topology-aware tie-break as KillReplica: prefer the closest
        // equally-empty replica so rebalance ships stay intra-rack.
        SimDuration dist = topology_->Distance(i, j);
        if (planned[j] < planned[target] ||
            (target != i && planned[j] == planned[target] &&
             dist < target_dist)) {
          target = j;
          target_dist = dist;
        }
      }
      if (target == i || planned[target] + 1 >= planned[i] ||
          static_cast<double>(planned[i]) <= bound) {
        break;
      }
      moves.emplace_back(rec.uid, target);
      --planned[i];
      ++planned[target];
    }
  }
  size_t moved = 0;
  for (const auto& [uid, target] : moves) {
    auto it = records_.find(uid);
    if (it == records_.end()) {
      continue;
    }
    ClusterLip id{it->second.replica, it->second.lip, uid};
    if (Migrate(id, target).ok()) {
      ++moved;
    }
  }
  return moved;
}

size_t SymphonyCluster::SharePrefixes() {
  size_t warmed = 0;
  uint64_t fingerprint = options_.server.model.Fingerprint();
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!Placeable(i)) {
      continue;
    }
    Kvfs& kvfs = slots_[i].server->kvfs();
    for (const KvFileInfo& info : kvfs.ListAll()) {
      if (info.path.empty() || info.opens_total < options_.share_min_opens ||
          info.length < options_.share_min_tokens) {
        continue;
      }
      auto shared = shared_prefixes_.find(info.path);
      if (shared != shared_prefixes_.end() &&
          shared->second.tokens >= info.length) {
        continue;  // Already published at this length or longer.
      }
      // The Replayer's cost model has the final say: a prefix whose PCIe
      // import costs more than one recompute prefill isn't worth sharing.
      if (Replayer::Choose(*cost_model_, info.length) !=
          RecoveryMode::kImportSnapshot) {
        ++stats_.warm_skips_cost;
        continue;
      }
      OpenOptions open;
      open.requester = kAdminLip;
      open.read = true;
      StatusOr<KvHandle> handle = kvfs.Open(info.path, open);
      if (!handle.ok()) {
        continue;  // E.g. exclusively locked; try again next pass.
      }
      StatusOr<KvFileSnapshot> snap = kvfs.ExportSnapshot(*handle);
      (void)kvfs.Close(*handle);
      if (!snap.ok()) {
        continue;
      }
      SnapshotPayload payload;
      payload.label = "kvfs:" + info.path;
      payload.model_fingerprint = fingerprint;
      payload.tokens = info.length;
      payload.streams.emplace_back("records",
                                   SerializeTokenRecords(snap->records));
      PublishResult published = store_->Publish(i, payload);
      ++stats_.prefix_publishes;
      if (shared != shared_prefixes_.end()) {
        if (shared->second.key != published.key) {
          (void)store_->Release(shared->second.key);
          shared->second.key = published.key;
        } else {
          (void)store_->Release(published.key);  // Same content: extra ref.
        }
        shared->second.tokens = info.length;
      } else {
        shared_prefixes_[info.path] = SharedPrefix{published.key, info.length};
      }
      // Warm every live replica that lacks the path. The file materializes
      // after the fetched bytes' interconnect time.
      for (size_t j = 0; j < slots_.size(); ++j) {
        if (j == i || !Placeable(j) ||
            slots_[j].server->kvfs().Exists(info.path)) {
          continue;
        }
        StatusOr<FetchResult> fetch = store_->Fetch(j, published.key);
        if (!fetch.ok()) {
          // Corruption window: the import is abandoned — the replica falls
          // back to recomputing the prefix when it needs it.
          ++stats_.warm_corrupt_fallbacks;
          continue;
        }
        StatusOr<std::vector<TokenRecord>> records =
            ParseTokenRecords(fetch->streams[0].second);
        if (!records.ok()) {
          ++stats_.warm_corrupt_fallbacks;
          continue;
        }
        auto import = std::make_shared<KvFileSnapshot>();
        import->path = info.path;
        import->mode = snap->mode;
        import->records = std::move(*records);
        ++stats_.warm_imports;
        stats_.warm_import_tokens += info.length;
        ++warmed;
        sim_->ScheduleAfter(fetch->transfer_time, [this, j, import] {
          if (Placeable(j)) {
            (void)slots_[j].server->ImportNamedSnapshot(*import);
          }
        });
      }
    }
  }
  return warmed;
}

SymphonyCluster::ClusterLip SymphonyCluster::Locate(
    const ClusterLip& id) const {
  auto it = records_.find(id.uid);
  if (it == records_.end()) {
    return id;
  }
  return ClusterLip{it->second.replica, it->second.lip, id.uid};
}

const std::string& SymphonyCluster::Output(const ClusterLip& id) const {
  auto it = records_.find(id.uid);
  if (it != records_.end() && it->second.done) {
    // Served from the record: the hosting slot may have been rebuilt by
    // readmission since the LIP finished.
    return it->second.output;
  }
  ClusterLip where = Locate(id);
  return slots_[where.replica].server->runtime().Output(where.lip);
}

bool SymphonyCluster::Done(const ClusterLip& id) const {
  auto it = records_.find(id.uid);
  if (it != records_.end()) {
    return it->second.done;
  }
  return slots_[id.replica].server->runtime().LipDone(id.lip);
}

SymphonyCluster::ClusterSnapshot SymphonyCluster::Snapshot() const {
  ClusterSnapshot snap;
  static_cast<ClusterStats&>(snap) = stats_;
  static_cast<IpcFabricStats&>(snap) = fabric_->stats();
  static_cast<TopologyStats&>(snap) = topology_->stats();
  // Work counters span every incarnation: a slot rebuilt by readmission
  // parks its old server in retired_servers_, whose work still counts, so
  // the totals never go backwards.
  auto add_work = [&snap](SymphonyServer* server) {
    snap.batches += server->device().stats().batches;
    const RuntimeStats& runtime = server->runtime().stats();
    snap.lips_completed += runtime.lips_completed;
    snap.lips_replayed += runtime.lips_replayed;
    snap.replay_divergences += runtime.replay_divergences;
    snap.ipc_recvs_replayed += runtime.ipc_recvs_replayed;
    snap.ipc_sends_suppressed += runtime.ipc_sends_suppressed;
    snap.ipc_credit_waits_replayed += runtime.ipc_credit_waits_replayed;
    const InferenceSchedulerStats& sched = server->scheduler().stats();
    snap.decode_tokens_batched += sched.decode_tokens_batched;
    snap.prefill_tokens_batched += sched.prefill_tokens_batched;
    snap.prefill_chunks += sched.prefill_chunks;
    snap.prefills_chunked += sched.prefills_chunked;
  };
  for (size_t i = 0; i < slots_.size(); ++i) {
    snap.lips_per_replica.push_back(slots_[i].launched);
    snap.total_throughput_busy += slots_[i].server->device().Utilization();
    if (replica_dead(i)) {
      ++snap.replicas_dead;
    }
    add_work(slots_[i].server.get());
  }
  for (const auto& server : retired_servers_) {
    add_work(server.get());
  }
  snap.queue_wait_p50_ms = queue_waits_ms_.Percentile(0.5);
  snap.queue_wait_p99_ms = queue_waits_ms_.Percentile(0.99);
  for (size_t i = 0; i < fabric_->replica_count(); ++i) {
    const IpcReplicaStats& ipc = fabric_->replica_stats(i);
    snap.ipc_sent += ipc.sent;
    snap.ipc_received += ipc.received;
    snap.ipc_forwarded += ipc.forwarded;
    snap.ipc_dropped += ipc.dropped;
    snap.ipc_per_replica.push_back(ipc);
  }
  snap.store = store_->stats();
  snap.net_links = topology_->LinkReport();
  if (ctrl_ != nullptr) {
    snap.ctrl = ctrl_->stats();
    snap.ctrl_seat = ctrl_->seat();
    snap.liveness.resize(slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i) {
      ClusterSnapshot::ReplicaLiveness& row = snap.liveness[i];
      row.state = ctrl_->Health(i);
      row.epoch = ctrl_->Epoch(i);
      row.heartbeat_age = ctrl_->HeartbeatAge(i);
      row.fenced = fabric_->replica_fenced(i);
      if (!options_.enable_recovery) {
        row.lips_hosted = LiveLips(i);
      }
    }
    if (options_.enable_recovery) {
      for (const auto& entry : records_) {
        if (!entry.second.done) {
          ++snap.liveness[entry.second.replica].lips_hosted;
        }
      }
    }
  }
  return snap;
}

}  // namespace symphony
