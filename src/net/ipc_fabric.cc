#include "src/net/ipc_fabric.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/rng.h"

namespace symphony {
namespace {

// Retry jitter: each blocked-transfer retry delay is stretched by a factor
// drawn uniformly from [1 - kRetryJitter, 1 + kRetryJitter], from a stream
// seeded by kRetrySeed.
constexpr double kRetryJitter = 0.2;
constexpr uint64_t kRetrySeed = 0x1Bc;
// Admission backpressure: each sender parked for a credit on a replica
// inflates that replica's projected queue delay by this much.
constexpr SimDuration kBackpressurePenalty = Micros(50);

}  // namespace

IpcFabric::IpcFabric(Simulator* sim, const CostModel* cost, FaultPlan* faults,
                     TraceRecorder* trace, IpcFabricOptions options,
                     NetworkTopology* topology)
    : sim_(sim),
      cost_(cost),
      faults_(faults),
      trace_(trace),
      options_(options),
      topology_(topology) {
  assert(sim != nullptr);
  assert(cost != nullptr);
  if (topology_ == nullptr) {
    owned_topology_ = std::make_unique<NetworkTopology>(sim, cost, faults,
                                                        trace);
    topology_ = owned_topology_.get();
  }
}

void IpcFabric::AttachReplica(size_t index, LipRuntime* runtime) {
  if (index >= runtimes_.size()) {
    runtimes_.resize(index + 1, nullptr);
    fenced_.resize(index + 1, false);
    fence_epoch_.resize(index + 1, 0);
    replica_stats_.resize(index + 1);
  }
  runtimes_[index] = runtime;
  fenced_[index] = false;
  runtime->set_channel_fabric(this, index);
}

void IpcFabric::FenceReplica(size_t index, uint64_t epoch) {
  if (index >= fenced_.size()) {
    assert(false && "FenceReplica on an unattached replica index");
    return;
  }
  fenced_[index] = true;
  fence_epoch_[index] = std::max(fence_epoch_[index], epoch);
  DropWaiters(index, kNoLip);
}

IpcFabric::Message* IpcFabric::FindMessage(ChannelState& ch, uint64_t msg_id) {
  for (Message& msg : ch.queue) {
    if (msg.id == msg_id) {
      return &msg;
    }
  }
  return nullptr;
}

IpcFabric::ChannelState& IpcFabric::Chan(const std::string& name) {
  auto [it, inserted] = channels_.try_emplace(name);
  if (inserted && options_.channel_credits > 0) {
    it->second.capacity = options_.channel_credits;
    it->second.credits = static_cast<int64_t>(options_.channel_credits);
  }
  return it->second;
}

bool IpcFabric::TrySend(size_t replica, LipId sender,
                        const std::string& channel, std::string* message) {
  (void)sender;  // Channel identity is receiver-side; senders stay anonymous.
  if (replica_fenced(replica)) {
    // A fenced incarnation's packets are dropped on the floor: report the
    // send handled (fire-and-forget, like a real network eating the frame)
    // so the zombie never parks, and count the rejection.
    ++stats_.ipc_fenced_rejections;
    message->clear();
    return true;
  }
  ChannelState& ch = Chan(channel);
  // FIFO among senders: a fresh send never overtakes parked ones, even when
  // a credit is momentarily free (DrainSenders will hand it to the head).
  if (ch.capacity > 0 && (ch.credits <= 0 || !ch.send_waiters.empty())) {
    return false;
  }
  Accept(replica, channel, ch, std::move(*message));
  return true;
}

void IpcFabric::Accept(size_t replica, const std::string& name,
                       ChannelState& ch, std::string bytes) {
  ++replica_stats_[replica].sent;
  if (ch.capacity > 0) {
    --ch.credits;  // The credit travels with the message until delivery/drop.
  }
  Message msg;
  msg.id = ch.next_send_id++;
  msg.origin = replica;
  msg.at = replica;
  msg.bytes = std::move(bytes);
  ch.queue.push_back(std::move(msg));
  ch.queue_peak = std::max(ch.queue_peak, ch.queue.size());
  // An unregistered channel parks the message at its origin; the first recv
  // homes the channel and routes everything queued.
  if (ch.registered) {
    IpcReplicaStats& home = replica_stats_[ch.home];
    home.queue_peak =
        std::max(home.queue_peak, static_cast<uint64_t>(ch.queue.size()));
    RouteMessage(name, ch, ch.queue.back());
    Drain(name, ch);
  }
}

void IpcFabric::AddSendWaiter(size_t replica, LipId sender,
                              const std::string& channel, ThreadId waiter,
                              std::string* slot, uint64_t resume_grant) {
  if (replica_fenced(replica)) {
    return;  // See AddWaiter: never park a zombie.
  }
  ChannelState& ch = Chan(channel);
  Park(ch.send_waiters, Parked{replica, sender, waiter, slot, resume_grant});
  ++stats_.ipc_credit_waits;
  ++replica_stats_[replica].credit_waits;
  if (trace_ != nullptr) {
    trace_->Instant("net", "credit-wait:" + channel, sim_->now());
  }
  // Self-healing: grant immediately if a credit freed between the failed
  // TrySend and the park (cannot happen in the single-threaded simulation,
  // but keeps the invariant local), then look for a credit-wait cycle.
  DrainSenders(channel, ch);
  CheckDeadlock(channel, ch);
}

void IpcFabric::Refund(const std::string& name, ChannelState& ch) {
  if (ch.capacity == 0) {
    return;
  }
  ++ch.credits;
  DrainSenders(name, ch);
}

void IpcFabric::DrainSenders(const std::string& name, ChannelState& ch) {
  if (ch.granting) {
    return;  // Re-entered via Accept -> Drain -> Refund: the outer loop
             // re-checks the refreshed credit balance and keeps granting.
  }
  ch.granting = true;
  // capacity 0 here means the channel just became unbounded with senders
  // still parked (SetChannelCredits): release them all.
  while ((ch.capacity == 0 || ch.credits > 0) && !ch.send_waiters.empty()) {
    Parked waiter = ch.send_waiters.front();
    ch.send_waiters.pop_front();
    LipRuntime* runtime =
        waiter.replica < runtimes_.size() ? runtimes_[waiter.replica] : nullptr;
    if (runtime == nullptr) {
      continue;  // Unattached replica: discard the stale parked sender.
    }
    std::string bytes;
    if (!runtime->CompleteBlockedSend(waiter.thread, waiter.slot, name,
                                      ch.next_grant_ordinal, &bytes)) {
      continue;  // Dead sender: credit and grant ordinal stay unconsumed.
    }
    ++ch.next_grant_ordinal;
    ++stats_.ipc_credit_grants;
    Accept(waiter.replica, name, ch, std::move(bytes));
  }
  ch.granting = false;
}

void IpcFabric::CheckDeadlock(const std::string& name, ChannelState& origin) {
  if (!origin.registered || origin.deadlocked) {
    return;
  }
  // Endpoint wait-for graph: an edge (sender endpoint) -> (home endpoint)
  // for every parked sender — the sender cannot proceed until the channel's
  // receiver frees a credit. Conservative for multi-threaded LIPs (one
  // parked thread flags the whole endpoint), which is fine for a detector
  // that only surfaces state.
  using Node = std::pair<size_t, LipId>;
  std::map<Node, std::vector<Node>> fwd;
  std::map<Node, std::vector<Node>> rev;
  for (const auto& [n, ch] : channels_) {
    if (!ch.registered || ch.send_waiters.empty()) {
      continue;
    }
    Node home{ch.home, ch.receiver};
    for (const Parked& w : ch.send_waiters) {
      Node from{w.replica, w.lip};
      fwd[from].push_back(home);
      rev[home].push_back(from);
    }
  }
  auto reach = [](const std::map<Node, std::vector<Node>>& edges, Node start) {
    std::set<Node> seen;
    std::vector<Node> stack{start};
    while (!stack.empty()) {
      Node node = stack.back();
      stack.pop_back();
      auto it = edges.find(node);
      if (it == edges.end()) {
        continue;
      }
      for (const Node& next : it->second) {
        if (seen.insert(next).second) {
          stack.push_back(next);
        }
      }
    }
    return seen;
  };
  for (const Parked& w : origin.send_waiters) {
    Node start{w.replica, w.lip};
    std::set<Node> forward = reach(fwd, start);
    if (forward.count(start) == 0) {
      continue;  // No cycle through this sender.
    }
    // The cycle's node set is the SCC of `start`: nodes both reachable from
    // it and able to reach it. Flag every channel the cycle runs through.
    std::set<Node> backward = reach(rev, start);
    std::set<Node> scc;
    for (const Node& node : forward) {
      if (backward.count(node) > 0) {
        scc.insert(node);
      }
    }
    scc.insert(start);
    for (auto& [n, ch] : channels_) {
      if (!ch.registered || ch.deadlocked || ch.send_waiters.empty() ||
          scc.count(Node{ch.home, ch.receiver}) == 0) {
        continue;
      }
      bool parked_in_cycle = false;
      for (const Parked& pw : ch.send_waiters) {
        if (scc.count(Node{pw.replica, pw.lip}) > 0) {
          parked_in_cycle = true;
          break;
        }
      }
      if (!parked_in_cycle) {
        continue;
      }
      ch.deadlocked = true;
      ch.last_error = DeadlockError("credit-wait cycle through channel '" +
                                    n + "'");
      ++stats_.ipc_credit_deadlocks;
      SYMPHONY_LOG(kWarning) << "ipc credit-wait deadlock on '" << n << "'";
      if (trace_ != nullptr) {
        trace_->Instant("net", "deadlock:" + n, sim_->now());
      }
    }
    return;  // One detection pass per park is enough.
  }
  (void)name;
}

bool IpcFabric::TryRecv(size_t replica, LipId receiver,
                        const std::string& channel, std::string* message,
                        uint64_t* ordinal) {
  if (replica_fenced(replica)) {
    // A fenced incarnation must not consume a message its replayed
    // successor is entitled to (that would break exactly-once delivery).
    ++stats_.ipc_fenced_rejections;
    return false;
  }
  ChannelState& ch = Chan(channel);
  Register(channel, ch, replica, receiver);
  // FIFO fairness: a fresh receiver never overtakes parked waiters.
  if (!ch.waiters.empty()) {
    return false;
  }
  if (ch.queue.empty() || !Deliverable(ch.queue.front())) {
    return false;
  }
  *message = std::move(ch.queue.front().bytes);
  *ordinal = ch.next_recv_ordinal;
  Delivered(channel, ch, replica);
  return true;
}

void IpcFabric::AddWaiter(size_t replica, LipId receiver,
                          const std::string& channel, ThreadId waiter,
                          std::string* slot, uint64_t resume_ordinal) {
  if (replica_fenced(replica)) {
    // Never park a zombie: its thread will not be resumed (the replica is
    // halted) and a parked fenced waiter would absorb a delivery. TryRecv
    // already refused and counted this call.
    return;
  }
  ChannelState& ch = Chan(channel);
  Register(channel, ch, replica, receiver);
  Park(ch.waiters, Parked{replica, receiver, waiter, slot, resume_ordinal});
  Drain(channel, ch);
}

void IpcFabric::Park(std::deque<Parked>& queue, const Parked& parked) {
  auto pos = queue.end();
  while (parked.resume > 0 && pos != queue.begin()) {
    auto prev = std::prev(pos);
    if (prev->replica != parked.replica || prev->lip != parked.lip ||
        prev->resume <= parked.resume) {
      break;
    }
    pos = prev;
  }
  queue.insert(pos, parked);
}

void IpcFabric::DropWaiters(size_t replica, LipId lip) {
  // Parked senders of a dead endpoint never consumed a credit (the message
  // is still in the killed frame's slot): scrub, nothing to refund. A
  // replayed incarnation re-runs the send and re-parks.
  auto dead = [replica, lip](const Parked& p) {
    return p.replica == replica && (lip == kNoLip || p.lip == lip);
  };
  for (auto& [name, ch] : channels_) {
    std::erase_if(ch.waiters, dead);
    std::erase_if(ch.send_waiters, dead);
  }
}

void IpcFabric::Register(const std::string& name, ChannelState& ch,
                         size_t replica, LipId lip) {
  if (ch.registered && ch.home == replica && ch.receiver == lip) {
    return;
  }
  bool rehome = ch.registered;
  ch.registered = true;
  ch.home = replica;
  ch.receiver = lip;
  if (rehome) {
    ++stats_.ipc_rehomes;
    if (trace_ != nullptr) {
      trace_->Instant("net", "rehome:" + name, sim_->now());
    }
  }
  Reroute(name, ch, /*forwarding=*/rehome);
}

void IpcFabric::Reroute(const std::string& name, ChannelState& ch,
                        bool forwarding) {
  // Ids first: a routed message can be dropped (partition deadline), which
  // erases it from the queue.
  std::vector<uint64_t> ids;
  for (const Message& msg : ch.queue) {
    if (!msg.in_flight) {
      ids.push_back(msg.id);
    }
  }
  for (uint64_t id : ids) {
    Message* msg = FindMessage(ch, id);
    if (msg == nullptr) {
      continue;
    }
    if (msg->at == ch.home) {
      MakeAvailable(name, ch, *msg);
      continue;
    }
    msg->available = false;
    if (forwarding) {
      ++replica_stats_[msg->at].forwarded;
    }
    BeginTransfer(name, id);
  }
}

void IpcFabric::RehomeEndpoint(size_t old_replica, LipId old_lip,
                               size_t new_replica, LipId new_lip) {
  for (auto& [name, ch] : channels_) {
    if (!ch.registered || ch.home != old_replica || ch.receiver != old_lip) {
      continue;
    }
    ch.home = new_replica;
    ch.receiver = new_lip;
    ++stats_.ipc_rehomes;
    if (trace_ != nullptr) {
      trace_->Instant("net",
                      "rehome:" + name + ":replica" +
                          std::to_string(old_replica) + "->replica" +
                          std::to_string(new_replica),
                      sim_->now());
    }
    Reroute(name, ch, /*forwarding=*/true);
    Drain(name, ch);
  }
}

void IpcFabric::RouteMessage(const std::string& name, ChannelState& ch,
                             Message& msg) {
  if (msg.at == ch.home) {
    MakeAvailable(name, ch, msg);
    return;
  }
  BeginTransfer(name, msg.id);
}

bool IpcFabric::Deliverable(const Message& msg) const {
  return msg.available && sim_->now() >= msg.ready_at;
}

void IpcFabric::MakeAvailable(const std::string& name, ChannelState& ch,
                              Message& msg) {
  msg.available = true;
  msg.ready_at = 0;
  if (faults_ == nullptr) {
    return;
  }
  SimDuration stall = faults_->OnIpcDeliver(ch.home, sim_->now());
  if (stall <= 0) {
    return;
  }
  msg.ready_at = sim_->now() + stall;
  if (trace_ != nullptr) {
    trace_->Instant("net", "slow-consumer:" + name, sim_->now());
  }
  uint64_t msg_id = msg.id;
  sim_->ScheduleAt(msg.ready_at, [this, name, msg_id] {
    ChannelState& chan = Chan(name);
    if (FindMessage(chan, msg_id) != nullptr) {
      Drain(name, chan);
    }
  });
}

SimDuration IpcFabric::RetryDelay(const std::string& name,
                                  const Message& msg) const {
  SimDuration base = options_.retry_base;
  for (uint32_t i = 1; i < msg.attempt && base < options_.retry_cap; ++i) {
    base *= 2;
  }
  base = std::min(base, options_.retry_cap);
  // One decision stream per (seed, channel, message, attempt) — the FaultPlan
  // keying discipline, so a replayed run re-draws identical backoffs.
  Rng rng(Mix64(kRetrySeed ^ Fnv1a(name)) ^
          Mix64(msg.id * 0x9e3779b97f4a7c15ULL + msg.attempt));
  double jitter =
      1.0 + kRetryJitter * (2.0 * rng.NextDouble() - 1.0);
  SimDuration delay =
      static_cast<SimDuration>(static_cast<double>(base) * jitter);
  return std::max<SimDuration>(delay, 1);
}

void IpcFabric::BeginTransfer(const std::string& name, uint64_t msg_id) {
  ChannelState& ch = Chan(name);
  Message* msg = FindMessage(ch, msg_id);
  if (msg == nullptr || msg->available || msg->in_flight || !ch.registered) {
    return;
  }
  size_t from = msg->at;
  size_t to = ch.home;
  if (from == to) {
    MakeAvailable(name, ch, *msg);
    Drain(name, ch);
    return;
  }
  SimTime now = sim_->now();
  bool partitioned = faults_ != nullptr && faults_->OnIpcTransmit(from, to, now);
  // A link-down window with no surviving route surfaces the same
  // retry/backoff/deadline semantics as a partition.
  bool unroutable = !partitioned && !topology_->Routable(from, to, now);
  if (partitioned || unroutable) {
    if (partitioned) {
      ++stats_.ipc_partition_retries;
    } else {
      ++stats_.ipc_link_down_retries;
    }
    if (msg->first_blocked < 0) {
      msg->first_blocked = now;
    }
    if (now - msg->first_blocked > options_.send_deadline) {
      DropMessage(name, ch, msg_id);
      return;
    }
    ++msg->attempt;
    msg->in_flight = true;  // The retry event owns the message until it fires.
    sim_->ScheduleAfter(RetryDelay(name, *msg), [this, name, msg_id] {
      ChannelState& chan = Chan(name);
      Message* m = FindMessage(chan, msg_id);
      if (m == nullptr) {
        return;
      }
      m->in_flight = false;
      if (m->available) {
        return;  // A rehome brought the home to the message meanwhile.
      }
      BeginTransfer(name, msg_id);
    });
    return;
  }
  msg->first_blocked = -1;
  msg->attempt = 0;
  ++stats_.ipc_cross_sends;
  stats_.ipc_cross_bytes += msg->bytes.size();
  SimTime arrival = topology_->Transfer(from, to, msg->bytes.size(), name);
  msg->in_flight = true;
  sim_->ScheduleAt(arrival,
                   [this, name, msg_id, to] { Arrive(name, msg_id, to); });
}

void IpcFabric::Arrive(const std::string& name, uint64_t msg_id, size_t at) {
  ChannelState& ch = Chan(name);
  Message* msg = FindMessage(ch, msg_id);
  if (msg == nullptr) {
    return;
  }
  msg->in_flight = false;
  msg->at = at;
  if (!ch.registered) {
    return;
  }
  if (at == ch.home) {
    MakeAvailable(name, ch, *msg);
    IpcReplicaStats& home = replica_stats_[ch.home];
    home.queue_peak =
        std::max(home.queue_peak, static_cast<uint64_t>(ch.queue.size()));
    Drain(name, ch);
    return;
  }
  // The endpoint moved while the bytes were on the wire: forward.
  ++replica_stats_[at].forwarded;
  BeginTransfer(name, msg_id);
}

void IpcFabric::Drain(const std::string& name, ChannelState& ch) {
  while (!ch.queue.empty() && Deliverable(ch.queue.front()) &&
         !ch.waiters.empty()) {
    Parked waiter = ch.waiters.front();
    ch.waiters.pop_front();
    LipRuntime* runtime =
        waiter.replica < runtimes_.size() ? runtimes_[waiter.replica] : nullptr;
    if (runtime == nullptr) {
      continue;  // Unattached replica: discard the stale waiter.
    }
    if (!runtime->DeliverToWaiter(waiter.thread, waiter.slot, name,
                                  ch.next_recv_ordinal,
                                  ch.queue.front().bytes)) {
      continue;  // Dead waiter: keep the message for the next one.
    }
    Delivered(name, ch, waiter.replica);
  }
}

void IpcFabric::Delivered(const std::string& name, ChannelState& ch,
                          size_t replica) {
  ++ch.next_recv_ordinal;
  ++replica_stats_[replica].received;
  if (ch.queue.front().origin == replica) {
    ++stats_.ipc_local_deliveries;
  }
  ch.queue.pop_front();
  Refund(name, ch);
}

void IpcFabric::DropMessage(const std::string& name, ChannelState& ch,
                            uint64_t msg_id) {
  for (auto it = ch.queue.begin(); it != ch.queue.end(); ++it) {
    if (it->id != msg_id) {
      continue;
    }
    ++ch.dropped;
    ++replica_stats_[it->at].dropped;
    ch.last_error = UnavailableError("ipc message on '" + name +
                                     "' dropped: partitioned past the send "
                                     "deadline");
    SYMPHONY_LOG(kDebug) << "ipc drop on '" << name << "' (message "
                         << msg_id << ")";
    if (trace_ != nullptr) {
      trace_->Instant("net", "drop:" + name, sim_->now());
    }
    ch.queue.erase(it);
    Refund(name, ch);  // A dropped message must return its credit.
    break;
  }
  Drain(name, ch);  // The next head may already be available.
}

ChannelView IpcFabric::View(const std::string& channel) const {
  ChannelView view;
  auto it = channels_.find(channel);
  if (it == channels_.end()) {
    return view;
  }
  const ChannelState& ch = it->second;
  view.registered = ch.registered;
  view.home = ch.home;
  view.receiver = ch.receiver;
  view.queued = ch.queue.size();
  view.waiters = ch.waiters.size();
  view.dropped = ch.dropped;
  view.last_error = ch.last_error;
  view.capacity = ch.capacity;
  view.credits = ch.credits;
  view.send_waiters = ch.send_waiters.size();
  view.queue_peak = ch.queue_peak;
  view.deadlocked = ch.deadlocked;
  return view;
}

void IpcFabric::SetChannelCredits(const std::string& channel,
                                  uint64_t capacity) {
  ChannelState& ch = Chan(channel);
  ch.capacity = capacity;
  if (capacity == 0) {
    ch.credits = 0;
    DrainSenders(channel, ch);  // Unbounded now: release everyone parked.
    return;
  }
  ch.credits =
      static_cast<int64_t>(capacity) - static_cast<int64_t>(ch.queue.size());
  DrainSenders(channel, ch);
}

size_t IpcFabric::ParkedSenders(size_t replica) const {
  size_t parked = 0;
  for (const auto& [name, ch] : channels_) {
    for (const Parked& w : ch.send_waiters) {
      if (w.replica == replica) {
        ++parked;
      }
    }
  }
  return parked;
}

SimDuration IpcFabric::BackpressureDelay(size_t replica) const {
  return static_cast<SimDuration>(ParkedSenders(replica)) *
         kBackpressurePenalty;
}

}  // namespace symphony
