// IpcFabric: named channels, the one implementation of the paper's
// server-side IPC. A SymphonyCluster's replica servers all run on the
// cluster's one fabric; a standalone SymphonyServer builds a one-replica
// fabric of its own.
//
// The fabric is the channel router and registry. A channel's HOME is the
// (replica, LIP) endpoint that receives on it, registered on first recv and
// re-registered when the receiver moves (every live recv re-homes;
// SymphonyCluster additionally calls RehomeEndpoint when it replays an
// endpoint elsewhere, so messages already in flight are forwarded). Sends
// from any replica are accepted immediately — fire-and-forget, matching
// LipContext::send — and the message is routed through the cluster's
// NetworkTopology (per-hop link serialization and latency, "net" trace
// spans) when the home is remote, contending for the same physical links as
// journal shipping and snapshot-store chunk fetches. The fabric,
// not any one replica's runtime, owns every queue: messages survive replica
// death and are forwarded to a replayed endpoint's new home, which is what
// lets KillReplica/Migrate move ONE half of a communicating pair.
//
// Delivery is journaled by the receiving runtime at the recv syscall
// boundary (per-channel receive ordinals, JournalEntry::kRecv) and sends are
// journaled as JournalEntry::kSend; replay serves recvs verbatim and
// suppresses re-sends (see journal.h). The fabric itself is never rewound —
// a replayed endpoint simply stops consuming it until its journal runs dry.
//
// FIFO contract (property-tested): per channel, messages deliver in
// send-acceptance order (head-blocking — a queued later message never
// overtakes a head still in flight or retrying through a partition), and
// blocked receivers are served strictly first-come-first-served; a TryRecv
// never overtakes parked waiters. Under replay the contract holds for a
// receiver that had been delivered to before the endpoint died: it re-parks
// with its journal-recorded resume ordinal, which slots it back into its
// place among its LIP's waiters. A receiver parked but never delivered to
// left no journal entry, so a message queued during the failover goes to
// whichever replayed thread receives first: multi-waiter fan-in is not
// bit-identical across every kill instant.
//
// Partitions (src/faults): a transfer attempt blocked by a FaultPlan
// partition window — or left with no live route by link-down windows
// (FaultPlan::AddLinkDown when the topology has no surviving path) — retries
// with exponential backoff (deterministically jittered per (seed, channel,
// message, attempt)) and the message is dropped — kUnavailable recorded on
// the channel, visible via View()/stats, never thrown at the sender — only
// once it has been stuck past send_deadline.
//
// Flow control (credit-based): a channel with capacity k holds a ledger of k
// credits. Accepting a send consumes one; the credit travels with the
// message (through transfers, forwarding, and rehoming — the ledger is
// fabric-global, so moving bytes between replicas conserves it) and is
// refunded when the message is delivered to a receiver or dropped at the
// partition deadline. With no credits left, TrySend refuses and the sender
// parks in a per-channel FIFO (the sender-side mirror of recv waiters); a
// freed credit grants the head parked sender via
// LipRuntime::CompleteBlockedSend, which journals the send as one kSend
// entry carrying the channel's grant ordinal + 1. Replay serves that entry
// without touching the fabric and hands the ordinal to the thread's next
// live blocked send on the channel, which re-parks among its LIP's parked
// senders in grant order (resume_grant, same discipline as recv resume
// ordinals). Fabric queue depth therefore never exceeds k. Blocked-sender
// wakeup order is not guaranteed under replay: a send parked but never
// granted when its replica died left no journal entry, so a credit freed
// before the replayed thread parks again goes to whichever thread sends
// first. capacity 0 (the default) keeps the channel unbounded and send
// non-blocking, exactly as before.
//
// Deadlock detection: senders parked for credits can cycle (A full-sends to
// B while B full-sends to A). At each park the fabric walks the endpoint
// wait-for graph — edges (parked sender's endpoint) -> (channel's home
// endpoint) — and, on a cycle, surfaces kDeadlock on every participating
// channel (ChannelView::deadlocked + last_error) and counts it in stats.
// Detection-only and conservative (a multi-threaded LIP with one thread
// parked is flagged even if a sibling thread could still drain): the
// simulation terminates regardless because parked senders schedule no
// events, so surfacing beats unblocking.
//
// Slow-consumer windows (src/faults): FaultPlan::AddSlowConsumer holds every
// message that becomes deliverable at a replica inside the window for a
// configured stall before a recv may take it — the canonical way to fill a
// bounded channel and exercise backpressure in tests.
#ifndef SRC_NET_IPC_FABRIC_H_
#define SRC_NET_IPC_FABRIC_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/faults/fault_plan.h"
#include "src/model/cost_model.h"
#include "src/net/topology.h"
#include "src/runtime/runtime.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace symphony {

struct IpcFabricOptions {
  // How long a message may stay stuck behind a partition before it is
  // dropped (per message, measured from its first blocked attempt).
  SimDuration send_deadline = Millis(250);
  // Exponential backoff for blocked transfers: base * 2^(attempt-1), capped,
  // then stretched by a deterministic jitter factor in [0.8, 1.2].
  SimDuration retry_base = Millis(1);
  SimDuration retry_cap = Millis(32);
  // Credit capacity applied to every channel at creation; 0 = unbounded
  // (send never blocks). SetChannelCredits overrides per channel.
  uint64_t channel_credits = 0;
};

struct IpcReplicaStats {
  uint64_t sent = 0;       // Messages accepted from senders on this replica.
  uint64_t received = 0;   // Messages delivered to receivers on this replica.
  uint64_t forwarded = 0;  // Transfers re-kicked off this replica (rehoming).
  uint64_t dropped = 0;    // Messages dropped here (partition past deadline).
  uint64_t credit_waits = 0;  // Sends from this replica parked for a credit.
  uint64_t queue_peak = 0;    // Deepest queue among channels homed here.
};

// Field names carry the ipc_ prefix because ClusterSnapshot inherits them.
struct IpcFabricStats {
  uint64_t ipc_local_deliveries = 0;  // Origin and home on one replica.
  uint64_t ipc_cross_sends = 0;       // Topology transfers started.
  uint64_t ipc_cross_bytes = 0;       // Payload bytes handed to the topology.
  uint64_t ipc_partition_retries = 0;  // Attempts blocked by a partition.
  uint64_t ipc_link_down_retries = 0;  // Attempts with no live route.
  uint64_t ipc_rehomes = 0;           // Channel endpoint re-registrations.
  uint64_t ipc_credit_waits = 0;      // Senders parked for a credit.
  uint64_t ipc_credit_grants = 0;     // Parked senders granted a freed credit.
  uint64_t ipc_credit_deadlocks = 0;  // Channels flagged kDeadlock (once each).
  uint64_t ipc_fenced_rejections = 0;  // Sends/recvs refused while fenced.
};

// Introspection snapshot of one channel (tests, bench reports).
struct ChannelView {
  bool registered = false;  // A receiver has homed the channel.
  size_t home = 0;
  LipId receiver = kNoLip;
  size_t queued = 0;   // Undelivered messages (any replica, incl. in flight).
  size_t waiters = 0;  // Parked receivers.
  uint64_t dropped = 0;
  Status last_error;   // kUnavailable after a partition-deadline drop;
                       // kDeadlock after a credit-wait cycle.
  // Flow control (capacity 0 = unbounded; credits/send_waiters then unused).
  uint64_t capacity = 0;
  int64_t credits = 0;      // Remaining; negative after a live cap reduction.
  size_t send_waiters = 0;  // Senders parked for a credit.
  size_t queue_peak = 0;    // High-watermark of queue depth (<= capacity).
  bool deadlocked = false;  // A credit-wait cycle goes through this channel.
};

class IpcFabric : public ChannelFabric {
 public:
  // `topology` routes every cross-replica transfer; nullptr makes the fabric
  // construct and own a default single-switch NetworkTopology (a standalone
  // server and standalone tests). SymphonyCluster passes its shared instance
  // so IPC contends with journal shipping and store fetches on the same
  // links.
  IpcFabric(Simulator* sim, const CostModel* cost, FaultPlan* faults,
            TraceRecorder* trace, IpcFabricOptions options = {},
            NetworkTopology* topology = nullptr);

  // ---- Cluster wiring ---------------------------------------------------

  // Attaches replica `index`'s runtime: the fabric delivers into it, and
  // the runtime's channel syscalls go through the fabric from now on
  // (LipRuntime::set_channel_fabric). Readmission attaches the rebuilt
  // runtime at the old index, which clears the fence flag and keeps the
  // fence epoch as the slot's generation high-water mark
  // (replica_fence_epoch). A dead replica's parked threads are scrubbed by
  // its runtime's Halt; messages located there stay queued and are
  // forwarded when their endpoint is rehomed.
  void AttachReplica(size_t index, LipRuntime* runtime);

  // ---- Fencing (control plane, src/ctrl) --------------------------------

  // Fences replica `index` at generation `epoch`: until it is attached
  // again, sends from it are discarded at the fabric boundary and recvs/parks
  // from it are refused (one count in stats().ipc_fenced_rejections per send
  // or recv). The runtime is halted by the cluster before fencing, so these
  // guards are the defense-in-depth layer that makes a zombie incarnation
  // provably unable to interact — exactly-once ownership for replayed LIPs
  // does not rest on the halt alone.
  void FenceReplica(size_t index, uint64_t epoch);

  bool replica_fenced(size_t index) const {
    return index < fenced_.size() && fenced_[index];
  }
  uint64_t replica_fence_epoch(size_t index) const {
    return index < fence_epoch_.size() ? fence_epoch_[index] : 0;
  }

  // Moves every channel homed at (old_replica, old_lip) to
  // (new_replica, new_lip) and forwards its queued messages to the new home
  // (the delta-migration retarget moment: SymphonyCluster::StartReplay).
  void RehomeEndpoint(size_t old_replica, LipId old_lip, size_t new_replica,
                      LipId new_lip);

  // ---- ChannelFabric (called by LipRuntime) -----------------------------

  bool TrySend(size_t replica, LipId sender, const std::string& channel,
               std::string* message) override;
  void AddSendWaiter(size_t replica, LipId sender, const std::string& channel,
                     ThreadId waiter, std::string* slot,
                     uint64_t resume_grant) override;
  bool TryRecv(size_t replica, LipId receiver, const std::string& channel,
               std::string* message, uint64_t* ordinal) override;
  void AddWaiter(size_t replica, LipId receiver, const std::string& channel,
                 ThreadId waiter, std::string* slot,
                 uint64_t resume_ordinal) override;
  void DropWaiters(size_t replica, LipId lip) override;

  // ---- Flow control -----------------------------------------------------

  // Per-channel capacity override (0 = unbounded). Applies to live channels:
  // the remaining credit balance becomes capacity - queued (negative when
  // shrinking below the current depth — existing messages are never dropped,
  // the channel just refuses new sends until it drains). A raise grants
  // parked senders immediately.
  void SetChannelCredits(const std::string& channel, uint64_t capacity);

  // The admission-facing penalty for senders from `replica` parked for a
  // credit (50 µs per parked sender); SymphonyServer::ProjectedQueueDelay
  // adds it for the server's replica.
  SimDuration BackpressureDelay(size_t replica) const;

  // ---- Introspection ----------------------------------------------------

  const IpcFabricStats& stats() const { return stats_; }
  const IpcReplicaStats& replica_stats(size_t index) const {
    return replica_stats_[index];
  }
  size_t replica_count() const { return runtimes_.size(); }
  ChannelView View(const std::string& channel) const;
  NetworkTopology& topology() { return *topology_; }
  const NetworkTopology& topology() const { return *topology_; }

 private:
  struct Message {
    uint64_t id = 0;         // Per-channel send-acceptance ordinal.
    size_t origin = 0;       // Sender replica.
    size_t at = 0;           // Replica the bytes currently sit on.
    bool in_flight = false;  // A transfer or retry event is pending.
    bool available = false;  // Arrived at the channel's current home.
    SimTime ready_at = 0;    // Deliverable no earlier than this (slow-consumer
                             // stall window; 0 = immediately once available).
    SimTime first_blocked = -1;  // First partition-blocked attempt (-1: none).
    uint32_t attempt = 0;        // Blocked-transfer retry count.
    std::string bytes;
  };
  // A thread parked on a channel: a receiver waiting for a message or a
  // sender waiting for a credit.
  struct Parked {
    size_t replica = 0;
    LipId lip = kNoLip;
    ThreadId thread = 0;
    // A receiver's message lands here; a sender's message waits here (both
    // in the awaitable's frame).
    std::string* slot = nullptr;
    // Nonzero for a replayed thread's first re-park: the delivery ordinal
    // (receiver) or grant ordinal (sender) it waits for, which slots it back
    // into its original queue position.
    uint64_t resume = 0;
  };
  struct ChannelState {
    bool registered = false;
    size_t home = 0;
    LipId receiver = kNoLip;
    std::deque<Message> queue;    // FIFO by send acceptance.
    std::deque<Parked> waiters;   // Receivers, FIFO by arrival.
    uint64_t next_send_id = 0;
    uint64_t next_recv_ordinal = 0;
    uint64_t dropped = 0;
    Status last_error;
    // Flow control (capacity 0 = unbounded).
    uint64_t capacity = 0;
    int64_t credits = 0;
    std::deque<Parked> send_waiters;  // Senders, FIFO by park.
    uint64_t next_grant_ordinal = 0;
    size_t queue_peak = 0;
    bool deadlocked = false;
    bool granting = false;  // Re-entrancy guard for DrainSenders.
  };

  // Channel accessor that applies options_.channel_credits on creation.
  ChannelState& Chan(const std::string& name);
  // Queues `parked` at the back, except that a replayed thread's first
  // re-park (resume > 0) goes back among its own LIP's hinted threads in
  // resume order: replay fast-forwards threads in dispatch order, not in
  // their original park order. Live parks (resume 0) are never overtaken.
  static void Park(std::deque<Parked>& queue, const Parked& parked);
  // Bookkeeping for delivering the head message to a receiver on `replica`:
  // takes the delivery ordinal, counts the delivery, pops the head and
  // refunds its credit.
  void Delivered(const std::string& name, ChannelState& ch, size_t replica);
  // Consumes a credit, queues the message, and routes it. The single
  // acceptance point for both immediate and granted sends.
  void Accept(size_t replica, const std::string& name, ChannelState& ch,
              std::string bytes);
  // Returns one credit (delivery or drop) and grants parked senders.
  void Refund(const std::string& name, ChannelState& ch);
  // Grants freed credits to parked senders, FIFO, skipping dead ones.
  void DrainSenders(const std::string& name, ChannelState& ch);
  // Walks the endpoint wait-for graph from `ch`'s parked senders; on a
  // cycle, flags every participating channel kDeadlock.
  void CheckDeadlock(const std::string& name, ChannelState& ch);
  // Marks a message arrived at the home, applying any slow-consumer stall.
  void MakeAvailable(const std::string& name, ChannelState& ch, Message& msg);
  bool Deliverable(const Message& msg) const;
  // Registers/re-homes the channel endpoint and re-routes queued messages.
  void Register(const std::string& name, ChannelState& ch, size_t replica,
                LipId lip);
  // Routes every queued message that is not in flight toward ch.home,
  // counting each one that must move as forwarded when `forwarding`.
  // In-flight messages arrive at the old home and forward from there
  // (Arrive sees the home mismatch).
  void Reroute(const std::string& name, ChannelState& ch, bool forwarding);
  // Routes one message toward the current home: marks it available (already
  // there) or starts a link transfer / partition retry.
  void RouteMessage(const std::string& name, ChannelState& ch, Message& msg);
  void BeginTransfer(const std::string& name, uint64_t msg_id);
  void Arrive(const std::string& name, uint64_t msg_id, size_t at);
  // Delivers available head messages to parked waiters, FIFO both sides.
  void Drain(const std::string& name, ChannelState& ch);
  void DropMessage(const std::string& name, ChannelState& ch, uint64_t msg_id);
  Message* FindMessage(ChannelState& ch, uint64_t msg_id);
  SimDuration RetryDelay(const std::string& name, const Message& msg) const;
  // Senders from `replica` currently parked for a credit, on any channel.
  size_t ParkedSenders(size_t replica) const;

  Simulator* sim_;
  const CostModel* cost_;
  FaultPlan* faults_;  // Optional.
  TraceRecorder* trace_;  // Optional.
  IpcFabricOptions options_;
  std::vector<LipRuntime*> runtimes_;
  std::vector<bool> fenced_;
  std::vector<uint64_t> fence_epoch_;
  std::vector<IpcReplicaStats> replica_stats_;
  // std::map: deterministic iteration order for RehomeEndpoint.
  std::map<std::string, ChannelState> channels_;
  std::unique_ptr<NetworkTopology> owned_topology_;  // When none was passed.
  NetworkTopology* topology_;
  IpcFabricStats stats_;
};

}  // namespace symphony

#endif  // SRC_NET_IPC_FABRIC_H_
