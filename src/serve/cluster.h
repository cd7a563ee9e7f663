// SymphonyCluster: data-parallel multi-GPU serving (paper §4.4 "schedules
// this batch on the GPU(s)").
//
// Each replica is a complete SymphonyServer (own device, KVFS namespace,
// schedulers) over the same virtual clock; a router places each incoming LIP
// on a replica. Because KV files live in a replica's namespace, placement
// policy determines cache locality:
//   * kRoundRobin     — classic load spreading; a topic's requests scatter,
//                       so every replica ends up caching every hot document.
//   * kLeastLoaded    — place on the replica with the fewest live LIPs.
//   * kCacheAffinity  — hash an application-provided affinity key (e.g. the
//                       RAG topic) so same-key LIPs share a replica and its
//                       named KV files.
//
// Fault tolerance & live migration (src/recovery): with enable_recovery the
// cluster journals every LIP's syscalls. KillReplica(i) halts a replica and
// replays its live LIPs on a survivor; Migrate moves one LIP between live
// replicas; Rebalance migrates LIPs off overloaded replicas. Replayed LIPs
// fast-forward deterministically and produce bit-identical output (see
// journal.h for the determinism contract).
//
// Replica slots: each replica index is one ReplicaSlot holding its current
// server incarnation, role, launch count and ONE lifecycle state — kLive,
// kDraining, kDead or kDetached (the process of a live slot may still have
// crashed or been fenced; both just halt its runtime). The cluster is the
// only writer of that state. The control plane (src/ctrl) reads it through
// ClusterControl and adds only its own suspicion bit, so the two can never
// disagree about whether a slot is dead or draining.
//
// Snapshot store (src/store): the cluster owns one content-addressed KV
// snapshot store shared by three consumers —
//   * journal checkpointing: each journal folds into the store every
//     checkpoint_interval entries and truncates the folded prefix, bounding
//     journal memory for long-lived LIPs;
//   * delta migration: Migrate/KillReplica ship (checkpoint ref + live
//     suffix) instead of the whole log; replay starts once the bytes that
//     actually moved clear the network topology's links;
//   * cross-replica prefix sharing: SharePrefixes() publishes hot named KV
//     files and warm-imports them on other replicas when the Replayer's cost
//     model says import beats recompute.
#ifndef SRC_SERVE_CLUSTER_H_
#define SRC_SERVE_CLUSTER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ctrl/control_plane.h"
#include "src/net/ipc_fabric.h"
#include "src/recovery/replayer.h"
#include "src/serve/server.h"
#include "src/store/journal_checkpoint.h"
#include "src/store/snapshot_store.h"

namespace symphony {

// Per-replica role for prefill/decode disaggregation. A kPrefill replica
// takes only fresh launches with a large-prefill hint; when such a LIP's
// prefill completes, the cluster publishes its KV through the snapshot store
// and migrates it (delta path, bytes charged to the topology) to a decode or
// unified replica, so decode replicas never run a multi-thousand-token
// prefill and prefill replicas never accumulate decode load.
enum class ReplicaRole {
  kUnified,  // Takes any work (the default; a role-less cluster is all-unified).
  kPrefill,  // Large-prefill launches only; hands off after the prefill.
  kDecode,   // Normal placement pool; never picked for hinted large prefills.
};

enum class RoutingPolicy {
  kRoundRobin,
  kLeastLoaded,
  kCacheAffinity,
  // Bounded-load consistent hashing: prefer the affinity replica unless its
  // live-LIP load exceeds load_factor x the cluster average, then overflow
  // to the least-loaded replica. Keeps locality without letting a hot key
  // saturate one replica (the failure mode of pure affinity under skew).
  kAffinityBounded,
};

struct ClusterOptions {
  size_t replicas = 2;
  RoutingPolicy routing = RoutingPolicy::kRoundRobin;
  // kAffinityBounded overflow threshold (x cluster-average load); also the
  // per-replica overload bound used by Rebalance's default policy.
  double load_factor = 1.25;
  ServerOptions server;
  // Checkpoint/restore: journal every launched LIP so it survives
  // KillReplica and can be moved by Migrate/Rebalance.
  bool enable_recovery = false;
  // How a recovered LIP's KV cache is rebuilt (kAuto: cost-model choice).
  RecoveryMode recovery_mode = RecoveryMode::kAuto;
  // Event-driven rebalancing: under kAffinityBounded, each routing decision
  // that overflows away from its preferred replica is evidence of a hot key.
  // When `overflow_threshold` overflows accumulate within `overflow_window`,
  // the next launch runs a Rebalance pass at once (at most once per
  // `overflow_cooldown`). Requires enable_recovery; other routing policies
  // never overflow.
  bool rebalance_on_overflow = true;
  uint32_t overflow_threshold = 4;
  SimDuration overflow_window = Millis(50);
  SimDuration overflow_cooldown = Millis(100);
  // ---- Snapshot store (src/store) --------------------------------------
  // Fold each LIP's journal into the store and truncate the folded prefix
  // every `checkpoint_interval` live entries. Requires enable_recovery.
  bool checkpoint_journals = false;
  uint64_t checkpoint_interval = 64;
  // Ship (checkpoint ref + live suffix) on Migrate/KillReplica instead of
  // the full serialized journal. Replay start is delayed by the shipped
  // bytes' time on the topology's links either way.
  bool delta_migration = true;
  uint64_t store_chunk_bytes = 4096;
  // Prefix sharing: a named file is publishable once it has been opened this
  // often and is at least this long (shorter prefixes lose to recompute
  // anyway — the Replayer cost model has the final say per file).
  uint64_t share_min_opens = 2;
  uint64_t share_min_tokens = 64;
  // Cluster admission tier: Submit() tries other live replicas (ascending
  // load) when the routed replica rejects, before shedding.
  bool reroute_on_reject = true;
  // ---- Prefill/decode disaggregation -----------------------------------
  // Per-replica roles; replicas beyond the vector's end default to kUnified
  // (elastic scale-out picks the hotter pool's role, see ControlAddReplica).
  // The prefill->decode handoff requires enable_recovery (it is a journaled
  // migration); with checkpoint_journals the prefilled KV is published
  // through the snapshot store so the ship is a checkpoint ref + suffix.
  std::vector<ReplicaRole> roles;
  // A launch is steered to the prefill pool only when its prefill hint is at
  // least this many tokens, and handed off afterwards only when the Replayer
  // cost model says importing the shipped KV beats recomputing it — small
  // jobs never pay the hop either way.
  uint64_t disagg_min_prefill_tokens = 512;
  // Cluster IPC fabric (src/net): cross-replica channel routing, partition
  // retry/deadline behavior, link cost charging.
  IpcFabricOptions ipc;
  // Network topology (src/net): the physical link graph EVERY cross-replica
  // byte — IPC, journal shipping, snapshot-store fetches — is routed over.
  // `replicas` above overrides the preset's replica count. The default
  // single-switch preset reproduces the uniform-interconnect timings exactly.
  TopologyOptions topology;
  // Autonomic control plane (src/ctrl): heartbeat failure detection with
  // epoch-fenced automatic recovery, readmission of healed replicas, and
  // (when ctrl.scaling.enabled) elastic scale-out/in. Detection-driven
  // recovery requires enable_recovery. Off by default — the legacy
  // manual-KillReplica contract is unchanged.
  ControlPlaneOptions ctrl;
  // Invoked for every server the cluster builds: the initial replicas, a
  // slot rebuilt by readmission, and elastic scale-out. Register server-side
  // tools (and any other per-replica setup) here, so a rebuilt or new
  // replica serves the same program surface as the original fleet.
  std::function<void(SymphonyServer&, size_t)> configure_replica;
};

class SymphonyCluster : private ClusterControl {
 public:
  SymphonyCluster(Simulator* sim, ClusterOptions options);

  SymphonyCluster(const SymphonyCluster&) = delete;
  SymphonyCluster& operator=(const SymphonyCluster&) = delete;

  // A LIP's cluster-wide identity. `replica`/`lip` are the placement at
  // launch time and go stale when the LIP is migrated; `uid` is stable for
  // the LIP's whole life (0 when recovery is disabled).
  struct ClusterLip {
    size_t replica = 0;
    LipId lip = kNoLip;
    uint64_t uid = 0;
  };

  // Routes and launches. `affinity_key` feeds kCacheAffinity (ignored by the
  // other policies; an empty key falls back to least-loaded).
  ClusterLip Launch(std::string name, const std::string& affinity_key,
                    LipProgram program,
                    std::function<void(LipId)> on_exit = nullptr);

  // Launch with a prefill-size hint: how many fresh context tokens the LIP
  // will prefill up front (0 = unknown/small). With prefill-role replicas
  // configured, a hint of at least disagg_min_prefill_tokens routes the LIP
  // to the prefill pool; it migrates to a decode replica once the prefill
  // completes and the cost gate approves the ship.
  ClusterLip Launch(std::string name, const std::string& affinity_key,
                    uint64_t prefill_hint_tokens, LipProgram program,
                    std::function<void(LipId)> on_exit = nullptr);

  // Admission-controlled launch with a cluster-level fallback tier: when the
  // routed replica's Submit rejects (kUnavailable + retry_after), the other
  // live replicas are tried in ascending live-LIP order before the request
  // is shed. The returned status/retry_after on a shed is the minimum
  // backpressure hint across all replicas.
  struct ClusterAdmitResult {
    SymphonyServer::AdmitResult result;
    size_t replica = 0;     // Where it was admitted/queued (or last tried).
    bool rerouted = false;  // Admitted somewhere other than the routed pick.
  };
  ClusterAdmitResult Submit(SymphonyServer::LaunchSpec spec,
                            const std::string& affinity_key = "");

  // The replica the router would pick for `affinity_key` right now. Dead
  // replicas are never picked; prefill-role replicas are picked only through
  // a qualifying `prefill_hint_tokens` (or when nothing else is placeable).
  size_t RouteFor(const std::string& affinity_key) const;
  size_t RouteFor(const std::string& affinity_key,
                  uint64_t prefill_hint_tokens) const;

  // The role replica `index` was configured (or scaled out) with.
  ReplicaRole RoleOf(size_t index) const;

  size_t replica_count() const { return slots_.size(); }
  SymphonyServer& replica(size_t index) { return *slots_[index].server; }
  const ClusterOptions& options() const { return options_; }
  // Killed, declared dead, or drained and detached.
  bool replica_dead(size_t index) const {
    ReplicaHealth state = slots_[index].state;
    return state == ReplicaHealth::kDead || state == ReplicaHealth::kDetached;
  }
  bool replica_draining(size_t index) const {
    return slots_[index].state == ReplicaHealth::kDraining;
  }

  // The autonomic control plane, or nullptr when options.ctrl.enabled is
  // false. Exposes detector state (Health/Epoch/HeartbeatAge) and stats.
  ControlPlane* control_plane() { return ctrl_.get(); }
  const ControlPlane* control_plane() const { return ctrl_.get(); }

  // ---- Elasticity (src/ctrl) -------------------------------------------

  // Grows the fleet by one replica at runtime: a fresh SymphonyServer whose
  // node attaches to the emptier rack switch in the topology, wired into the
  // IPC fabric and (when enabled) the control plane. The scaling loop calls
  // this automatically; it is public so harnesses can scale manually.
  // Returns the new replica index.
  size_t AddReplica();

  // Starts draining `index`: placement stops immediately, its live LIPs
  // migrate to placeable replicas, and — with the control plane enabled —
  // the replica detaches once empty. Requires enable_recovery.
  Status DrainReplica(size_t index);

  // Crashes replica `index` the way FaultPlan::CrashReplicaAt does: its
  // process halts silently — no component is told, which is the point: only
  // the control plane's missed heartbeats can notice. With down_for >= 0
  // the process heals after that long and may be readmitted (at a bumped
  // epoch) once the detector declared it dead.
  Status CrashReplica(size_t index, SimDuration down_for = -1);

  // ---- Fault injection, migration, rebalancing (src/recovery) ----------

  // Kills replica `index` at the current virtual time: its runtime halts
  // (nothing on it ever resumes) and, with recovery enabled, every live
  // journaled LIP is replayed on a survivor, spread across survivors by
  // load. IPC-coupled LIPs no longer need to co-migrate: the fabric serves
  // journaled recvs, suppresses journaled sends, and rehomes each replayed
  // endpoint's channels wherever it lands (see src/net/ipc_fabric.h). The
  // slot is dead for good, even if it was draining. With the control plane
  // on, the kill runs through its failover path (ControlPlane::
  // NoteManualDeath: epoch bump, failover, seat re-choice).
  Status KillReplica(size_t index);

  // Live-migrates one LIP to `to_replica`: detaches it from its current
  // replica and replays it there. Requires recovery; both replicas live.
  Status Migrate(const ClusterLip& id, size_t to_replica);

  // One rebalance pass: migrates LIPs off replicas whose live load exceeds
  // load_factor x the live-replica average. Returns the number of LIPs
  // moved. Overflow-driven rebalancing (rebalance_on_overflow) runs it.
  size_t Rebalance();

  // ---- Cross-replica prefix sharing (src/store) ------------------------

  // One sharing pass: publishes hot named KV files (>= share_min_opens
  // opens, >= share_min_tokens tokens, import cheaper than recompute per the
  // Replayer cost model) into the snapshot store and warm-imports them on
  // every live replica that lacks the path. The import lands after the
  // fetched bytes' interconnect time. Returns files warmed this pass.
  size_t SharePrefixes();

  // The cluster-wide snapshot store (journal checkpoints + shared prefixes).
  SnapshotStore& store() { return *store_; }
  const SnapshotStore& store() const { return *store_; }

  // The cluster IPC fabric (src/net): cluster-wide named channels.
  IpcFabric& fabric() { return *fabric_; }
  const IpcFabric& fabric() const { return *fabric_; }

  // The network topology all cross-replica bytes are routed over.
  NetworkTopology& topology() { return *topology_; }
  const NetworkTopology& topology() const { return *topology_; }

  // ---- Introspection ---------------------------------------------------

  // Current placement of `id` (follows migrations via uid when recovery is
  // on; returns `id` unchanged otherwise).
  ClusterLip Locate(const ClusterLip& id) const;

  // Output/done state of a LIP, wherever it currently lives.
  const std::string& Output(const ClusterLip& id) const;
  bool Done(const ClusterLip& id) const;

  // Cluster-wide aggregates.
  struct ClusterSnapshot {
    double total_throughput_busy = 0.0;  // Sum of device busy fractions.
    uint64_t batches = 0;
    uint64_t lips_completed = 0;
    std::vector<uint64_t> lips_per_replica;
    size_t replicas_dead = 0;
    uint64_t failovers = 0;    // LIPs replayed because their replica died.
    uint64_t migrations = 0;   // Migrate/Rebalance moves.
    uint64_t lips_replayed = 0;
    uint64_t replay_divergences = 0;
    uint64_t overflow_events = 0;      // kAffinityBounded hot-key overflows.
    uint64_t overflow_rebalances = 0;  // Rebalances those overflows triggered.
    // Snapshot store consumers.
    uint64_t checkpoints = 0;               // Journal folds into the store.
    uint64_t checkpoint_entries_folded = 0; // Entries truncated by folds.
    uint64_t delta_ships = 0;           // Migrations shipping suffix only.
    uint64_t full_ships = 0;            // Migrations shipping the whole log.
    uint64_t ship_bytes = 0;            // Journal bytes moved (both kinds).
    uint64_t rehydrate_retries = 0;     // Rehydrations re-tried (corruption).
    uint64_t prefix_publishes = 0;      // Hot files published by sharing.
    uint64_t warm_imports = 0;          // Files warm-imported on a replica.
    uint64_t warm_import_tokens = 0;
    uint64_t warm_skips_cost = 0;       // Sharing skipped: recompute cheaper.
    uint64_t warm_corrupt_fallbacks = 0; // Imports abandoned to recompute.
    // Cluster admission tier.
    uint64_t submit_reroutes = 0;       // Rejections salvaged elsewhere.
    uint64_t submit_sheds = 0;          // Rejected by every live replica.
    // Cluster IPC fabric (src/net).
    uint64_t ipc_sent = 0;              // Messages accepted from senders.
    uint64_t ipc_received = 0;          // Messages delivered to receivers.
    uint64_t ipc_forwarded = 0;         // Transfers re-kicked after a rehome.
    uint64_t ipc_dropped = 0;           // Partitioned past the send deadline.
    uint64_t ipc_cross_sends = 0;       // Link transfers started.
    uint64_t ipc_local_deliveries = 0;  // Sender and receiver co-located.
    uint64_t ipc_partition_retries = 0; // Transfer attempts blocked.
    uint64_t ipc_rehomes = 0;           // Channel endpoint re-registrations.
    uint64_t ipc_recvs_replayed = 0;    // Recvs served verbatim from journals.
    uint64_t ipc_sends_suppressed = 0;  // Journaled sends not re-sent.
    // Credit-based flow control (bounded channels).
    uint64_t ipc_credit_waits = 0;      // Sends parked for lack of credit.
    uint64_t ipc_credit_grants = 0;     // Parked sends later granted a credit.
    uint64_t ipc_credit_deadlocks = 0;  // Channels flagged in a wait cycle.
    uint64_t ipc_credit_waits_replayed = 0;  // Waits consumed from journals.
    std::vector<IpcReplicaStats> ipc_per_replica;
    SnapshotStoreStats store;
    // Network topology (src/net): every cross-replica byte, by physical link.
    uint64_t net_transfers = 0;         // End-to-end transfers routed.
    uint64_t net_payload_bytes = 0;     // Payload bytes (counted once each).
    uint64_t net_multi_hop = 0;         // Transfers that crossed a switch hop.
    uint64_t net_reroutes = 0;          // Transfers detoured around a down link.
    uint64_t net_link_blocked = 0;      // Attempts with no live route at all.
    uint64_t ipc_cross_bytes = 0;       // IPC payload handed to the topology.
    uint64_t ipc_link_down_retries = 0; // IPC retries caused by down links.
    std::vector<TopoLinkReport> net_links;  // Per-link transfer/byte/queue stats.
    // Control plane (src/ctrl): per-replica liveness as the detector sees it
    // (empty when the control plane is disabled).
    struct ReplicaLiveness {
      ReplicaHealth state = ReplicaHealth::kLive;
      uint64_t epoch = 1;               // Bumped at each declare-dead.
      SimDuration heartbeat_age = -1;   // -1: dead/detached or never beat.
      uint64_t lips_hosted = 0;
      bool fenced = false;
    };
    std::vector<ReplicaLiveness> liveness;
    ControlPlaneStats ctrl;
    size_t ctrl_seat = kNoReplica;      // Where the membership service runs.
    uint64_t ipc_fenced_rejections = 0; // Fabric ops refused from fenced replicas.
    // Stall-free scheduling (chunked prefill + decode priority, src/sched).
    double queue_wait_p50_ms = 0.0;     // Scheduler queue waits, cluster-wide.
    double queue_wait_p99_ms = 0.0;
    uint64_t decode_tokens_batched = 0;   // Per-batch token occupancy, summed.
    uint64_t prefill_tokens_batched = 0;
    uint64_t prefill_chunks = 0;          // Chunk launches of split prefills.
    uint64_t prefills_chunked = 0;        // Prefills split at least once.
    // Prefill/decode disaggregation.
    uint64_t disagg_prefill_routes = 0;   // Launches steered to the prefill pool.
    uint64_t disagg_handoffs = 0;         // Prefill->decode migrations shipped.
    uint64_t disagg_handoff_skips = 0;    // Handoffs declined (cost gate,
                                          // no placeable target, or raced).
  };
  ClusterSnapshot Snapshot() const;

 private:
  // Everything needed to re-launch a LIP somewhere else.
  struct LipRecord {
    uint64_t uid = 0;
    std::string name;
    LipProgram program;  // LipProgram is copyable: relaunch re-invokes it.
    std::function<void(LipId)> user_on_exit;
    size_t replica = 0;
    LipId lip = kNoLip;
    bool done = false;
    // Journal shipped to a new replica but replay not started yet: the LIP
    // must not be re-migrated, and replica/lip still name the old (halted or
    // detached) incarnation so Output()/Locate() keep answering.
    bool in_flight = false;
    std::shared_ptr<SyscallJournal> journal;
    // Final output, cached at exit: the hosting replica's runtime may be
    // rebuilt (readmission) after the LIP finishes, so Output() must not
    // depend on the old incarnation surviving.
    std::string output;
  };

  // One replica index: its current server and its lifecycle.
  struct ReplicaSlot {
    std::unique_ptr<SymphonyServer> server;  // The current incarnation.
    ReplicaRole role = ReplicaRole::kUnified;
    // kLive, kDraining, kDead or kDetached; never kSuspected. A crash or a
    // fence only halts the server's runtime.
    ReplicaHealth state = ReplicaHealth::kLive;
    // What ControlHealAt reports: 0 while the process has never crashed
    // (a fence-only false death), the crash's heal instant, or -1 for a
    // permanent crash, a manual kill or a detach.
    SimTime heal_at = 0;
    uint64_t launched = 0;  // Launches placed on the slot, every incarnation.
  };

  // ---- ClusterControl (src/ctrl) ---------------------------------------
  size_t ControlReplicaCount() const override;
  ReplicaHealth ControlState(size_t replica) const override;
  bool ControlBeating(size_t replica) const override;
  bool ControlHasWork() const override;
  SimTime ControlHealAt(size_t replica) const override;
  void ControlFence(size_t replica, uint64_t epoch) override;
  Status ControlFailover(size_t replica) override;
  bool ControlReadmit(size_t replica, uint64_t epoch) override;
  size_t ControlAddReplica() override;
  bool ControlStartDrain(size_t replica) override;
  bool ControlDrainComplete(size_t replica) override;
  LoadSignal ControlLoadSignal() const override;

  // Builds and wires the server of slot `index`: the cluster's per-replica
  // seed decorrelation, its scheduler feeding queue_waits_ms_,
  // configure_replica, the fabric (attached, or revived after the old
  // incarnation is parked on readmission), backpressure and the disagg
  // hook. The constructor, readmission and scale-out all build through it.
  void BuildReplica(size_t index);
  // Replica `index` accepts new placements (live and not halted).
  bool Placeable(size_t index) const;
  // Live LIPs on slot `index`'s current incarnation.
  size_t LiveLips(size_t index) const;
  // Routing should avoid `index` (control plane suspects it is failing).
  bool Avoided(size_t index) const;
  // Migrates every undone LIP hosted on draining replica `index` away.
  void DrainStep(size_t index);
  // LIPs stranded on dead replicas with no failover in flight (a failover
  // that found no placeable survivor leaves them behind), sorted by uid.
  std::vector<uint64_t> StrandedLips() const;
  // Completion chain for manual drains without a control plane.
  void PollDrain(size_t index);

  size_t LeastLoaded() const;
  size_t FirstLiveFrom(size_t preferred) const;
  // Replica `index` belongs to the general placement pool (decode/unified).
  // Prefill-role replicas are excluded so a decode stream never lands behind
  // another LIP's giant prefill; they remain a last resort when nothing in
  // the serve pool is placeable.
  bool InServePool(size_t index) const;
  bool HasPrefillPool() const;
  // Least-loaded placeable prefill-role replica, or kNoReplica.
  size_t LeastLoadedPrefill() const;
  // Wires the prefill-completion handoff hook into replica `index`'s
  // scheduler (no-op unless the slot is prefill-role with recovery on).
  // Re-run wherever the slot's server is (re)built.
  void InstallDisaggHook(size_t index);
  // Prefill finished on a prefill-role replica: publish the KV through the
  // snapshot store and migrate the LIP to the least-loaded decode-pool
  // replica, unless the cost model says the hop loses to local decode.
  void MaybeHandoff(uint64_t uid, uint64_t context_tokens);
  // Records a kAffinityBounded overflow (RouteFor is const; the counters are
  // routing observability, not routing state).
  void NoteOverflow() const;
  // Runs an immediate Rebalance if recent overflows crossed the threshold.
  void MaybeShedOnOverflow();
  std::function<void(LipId)> MakeOnExit(uint64_t uid);
  // Ships `rec`'s journal to `target` (delta or full) and replays it there
  // after the shipped bytes' interconnect time; updates placement when the
  // replay actually starts.
  void ReplayOnto(LipRecord& rec, size_t target);
  // Rehydrates + schedules the deferred replay; re-tries itself while the
  // checkpoint fetch hits a corruption window.
  void ShipJournal(uint64_t uid, size_t target,
                   std::shared_ptr<SyscallJournal> journal);
  void StartReplay(uint64_t uid, size_t target,
                   std::shared_ptr<SyscallJournal> journal);
  // Installs the journal's store fold hook for its current host replica.
  void InstallCheckpointHook(const std::shared_ptr<SyscallJournal>& journal,
                             size_t replica);

  Simulator* sim_;
  ClusterOptions options_;
  std::unique_ptr<CostModel> cost_model_;
  std::unique_ptr<NetworkTopology> topology_;
  std::unique_ptr<SnapshotStore> store_;
  std::unique_ptr<IpcFabric> fabric_;
  // Every queue wait of every incarnation, fed as batches launch (declared
  // before the servers whose schedulers feed it).
  SampleSeries queue_waits_ms_;
  std::vector<ReplicaSlot> slots_;
  // Replaced server incarnations (readmission rebuilds the slot). Kept
  // alive, not destroyed: halted runtimes may still be named by pending
  // simulator events and late completions.
  std::vector<std::unique_ptr<SymphonyServer>> retired_servers_;
  mutable size_t next_round_robin_ = 0;
  std::unordered_map<uint64_t, LipRecord> records_;
  uint64_t next_uid_ = 1;
  uint64_t failovers_ = 0;
  uint64_t migrations_ = 0;
  // Overflow-driven rebalance state (mutable: see NoteOverflow).
  mutable uint64_t overflow_events_ = 0;
  mutable uint32_t overflow_in_window_ = 0;
  mutable SimTime overflow_window_start_ = 0;
  uint64_t overflow_rebalances_ = 0;
  SimTime last_overflow_rebalance_ = -1;
  // Snapshot-store consumer state.
  struct SharedPrefix {
    uint64_t key = 0;      // Store manifest (one reference held).
    uint64_t tokens = 0;   // File length at publish (skip unchanged files).
  };
  std::unordered_map<std::string, SharedPrefix> shared_prefixes_;
  uint64_t checkpoints_ = 0;
  uint64_t checkpoint_entries_folded_ = 0;
  uint64_t delta_ships_ = 0;
  uint64_t full_ships_ = 0;
  uint64_t ship_bytes_ = 0;
  uint64_t rehydrate_retries_ = 0;
  uint64_t prefix_publishes_ = 0;
  uint64_t warm_imports_ = 0;
  uint64_t warm_import_tokens_ = 0;
  uint64_t warm_skips_cost_ = 0;
  uint64_t warm_corrupt_fallbacks_ = 0;
  uint64_t submit_reroutes_ = 0;
  uint64_t submit_sheds_ = 0;
  // Disaggregation observability (mutable: RouteFor is const, see
  // NoteOverflow for the precedent).
  mutable uint64_t disagg_prefill_routes_ = 0;
  uint64_t disagg_handoffs_ = 0;
  uint64_t disagg_handoff_skips_ = 0;
  // Declared last: the control plane's loops call back into everything
  // above, so it must be destroyed first.
  std::unique_ptr<ControlPlane> ctrl_;
};

}  // namespace symphony

#endif  // SRC_SERVE_CLUSTER_H_
