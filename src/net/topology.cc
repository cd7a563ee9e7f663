#include "src/net/topology.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace symphony {
namespace {

constexpr SimDuration kUnreachable = std::numeric_limits<SimDuration>::max();

}  // namespace

NetworkTopology::NetworkTopology(Simulator* sim, const CostModel* cost,
                                 FaultPlan* faults, TraceRecorder* trace,
                                 TopologyOptions options)
    : sim_(sim),
      cost_(cost),
      faults_(faults),
      trace_(trace),
      options_(options) {
  assert(sim != nullptr);
  assert(cost != nullptr);
  if (options_.preset == TopologyOptions::Preset::kSingleSwitch) {
    EnsureReplica(options_.replicas > 0 ? options_.replicas - 1 : 0);
    return;
  }
  // kTwoRack: fixed graph, built up front from the replica count.
  const HardwareConfig& hw = cost_->hardware();
  size_t replicas = std::max<size_t>(options_.replicas, 1);
  size_t split = options_.rack_split > 0 ? options_.rack_split
                                         : (replicas + 1) / 2;
  split = std::min(split, replicas);
  options_.rack_split = split;
  double edge_bw = options_.edge_bandwidth > 0 ? options_.edge_bandwidth
                                               : hw.interconnect_bandwidth;
  SimDuration edge_lat = options_.edge_latency >= 0
                             ? options_.edge_latency
                             : hw.interconnect_latency / 2;
  double up_bw = options_.uplink_bandwidth > 0 ? options_.uplink_bandwidth
                                               : hw.interconnect_bandwidth;
  SimDuration up_lat = options_.uplink_latency >= 0 ? options_.uplink_latency
                                                    : hw.interconnect_latency;
  double spine_bw = options_.spine_bandwidth > 0 ? options_.spine_bandwidth
                                                 : up_bw;
  SimDuration spine_lat =
      options_.spine_latency >= 0 ? options_.spine_latency : 4 * up_lat;

  replica_count_ = replicas;
  for (size_t i = 0; i < replicas; ++i) {
    names_.push_back("replica" + std::to_string(i));
    replica_node_.push_back(i);
  }
  size_t rack0 = names_.size();
  names_.push_back("rack0");
  size_t rack1 = names_.size();
  names_.push_back("rack1");
  adj_.resize(names_.size() + (options_.spine ? 1 : 0));
  for (size_t i = 0; i < replicas; ++i) {
    AddBidirectionalEdge(i, i < split ? rack0 : rack1, edge_bw, edge_lat);
  }
  rack0_node_ = rack0;
  rack1_node_ = rack1;
  rack_members_[0] = split;
  rack_members_[1] = replicas - split;
  edge_bw_ = edge_bw;
  edge_lat_ = edge_lat;
  AddBidirectionalEdge(rack0, rack1, up_bw, up_lat);
  if (options_.spine) {
    size_t spine = names_.size();
    names_.push_back("spine");
    AddBidirectionalEdge(rack0, spine, spine_bw, spine_lat);
    AddBidirectionalEdge(spine, rack1, spine_bw, spine_lat);
  }
}

void NetworkTopology::AddBidirectionalEdge(size_t a, size_t b,
                                           double bandwidth,
                                           SimDuration latency) {
  adj_[a].push_back(Edge{b, bandwidth, latency});
  adj_[b].push_back(Edge{a, bandwidth, latency});
}

void NetworkTopology::EnsureReplica(size_t index) {
  if (index < replica_count_) {
    return;
  }
  // Fixed presets size their graph at construction and grow only through
  // AddReplica; a replica index outside the built graph is a wiring bug.
  assert(adj_.empty() && "replica index outside the fixed topology graph");
  while (replica_count_ <= index) {
    names_.push_back("replica" + std::to_string(replica_count_));
    replica_node_.push_back(replica_count_);
    ++replica_count_;
  }
}

size_t NetworkTopology::AddReplica() {
  size_t index = replica_count_;
  if (adj_.empty()) {
    EnsureReplica(index);  // Mesh: node id == replica index.
    return index;
  }
  // Switch preset: the new node lands past the switches, so it gets its own
  // node id and an edge to the emptier rack. A leaf never shortens an
  // existing route, so memoized static paths stay valid.
  size_t node = names_.size();
  names_.push_back("replica" + std::to_string(index));
  adj_.emplace_back();
  size_t rack_slot = rack_members_[0] <= rack_members_[1] ? 0 : 1;
  size_t rack = rack_slot == 0 ? rack0_node_ : rack1_node_;
  AddBidirectionalEdge(node, rack, edge_bw_, edge_lat_);
  ++rack_members_[rack_slot];
  replica_node_.push_back(node);
  ++replica_count_;
  return index;
}

size_t NetworkTopology::NodeOf(size_t replica) const {
  assert(replica < replica_node_.size());
  return replica_node_[replica];
}

Link& NetworkTopology::LinkFor(size_t from, size_t to) {
  auto key = std::make_pair(from, to);
  auto it = links_.find(key);
  if (it != links_.end()) {
    return *it->second;
  }
  std::string name = "link:" + names_[from] + "->" + names_[to];
  std::unique_ptr<Link> link;
  if (adj_.empty()) {
    // Ideal-switch mesh: the uniform cost-model interconnect.
    link = std::make_unique<Link>(sim_, cost_, trace_, std::move(name));
  } else {
    const Edge* edge = EdgeBetween(from, to);
    assert(edge != nullptr && "no physical edge between route hops");
    link = std::make_unique<Link>(sim_, edge->bandwidth, edge->latency, trace_,
                                  std::move(name));
  }
  it = links_.emplace(key, std::move(link)).first;
  return *it->second;
}

const NetworkTopology::Edge* NetworkTopology::EdgeBetween(size_t from,
                                                          size_t to) const {
  for (const Edge& edge : adj_[from]) {
    if (edge.to == to) {
      return &edge;
    }
  }
  return nullptr;
}

bool NetworkTopology::LinkUp(size_t a, size_t b, SimTime now) const {
  return faults_ == nullptr ||
         !faults_->LinkDown(names_[a], names_[b], now);
}

std::vector<size_t> NetworkTopology::Shortest(size_t from, size_t to,
                                              SimTime now,
                                              bool respect_down) const {
  if (from == to) {
    return {from};
  }
  if (adj_.empty()) {
    // Mesh: one direct link, no alternates.
    if (respect_down && !LinkUp(from, to, now)) {
      return {};
    }
    return {from, to};
  }
  // Deterministic Dijkstra over latency: O(n^2) selection with (distance,
  // node id) tie-breaks, so equal-cost routes always resolve the same way.
  size_t n = names_.size();
  std::vector<SimDuration> dist(n, kUnreachable);
  std::vector<size_t> prev(n, n);
  std::vector<bool> done(n, false);
  dist[from] = 0;
  for (size_t round = 0; round < n; ++round) {
    size_t best = n;
    for (size_t v = 0; v < n; ++v) {
      if (!done[v] && dist[v] != kUnreachable &&
          (best == n || dist[v] < dist[best])) {
        best = v;
      }
    }
    if (best == n || best == to) {
      break;
    }
    done[best] = true;
    for (const Edge& edge : adj_[best]) {
      if (respect_down && !LinkUp(best, edge.to, now)) {
        continue;
      }
      SimDuration cand = dist[best] + edge.latency;
      if (cand < dist[edge.to] ||
          (cand == dist[edge.to] && best < prev[edge.to])) {
        dist[edge.to] = cand;
        prev[edge.to] = best;
      }
    }
  }
  if (dist[to] == kUnreachable) {
    return {};
  }
  std::vector<size_t> path;
  for (size_t v = to; v != from; v = prev[v]) {
    path.push_back(v);
  }
  path.push_back(from);
  std::reverse(path.begin(), path.end());
  return path;
}

const std::vector<size_t>& NetworkTopology::StaticPath(size_t from,
                                                       size_t to) {
  auto key = std::make_pair(from, to);
  auto it = static_paths_.find(key);
  if (it == static_paths_.end()) {
    std::vector<size_t> path = Shortest(from, to, 0, /*respect_down=*/false);
    assert(!path.empty() && "topology graph is disconnected");
    it = static_paths_.emplace(key, std::move(path)).first;
  }
  return it->second;
}

const std::vector<size_t>& NetworkTopology::PathFor(
    size_t from, size_t to, SimTime now, std::vector<size_t>* detour) {
  const std::vector<size_t>& preferred = StaticPath(from, to);
  if (faults_ == nullptr || faults_->link_downs().empty()) {
    return preferred;
  }
  for (size_t i = 0; i + 1 < preferred.size(); ++i) {
    if (!LinkUp(preferred[i], preferred[i + 1], now)) {
      *detour = Shortest(from, to, now, /*respect_down=*/true);
      return *detour;
    }
  }
  return preferred;
}

bool NetworkTopology::Routable(size_t from, size_t to, SimTime now) {
  if (HasRoute(from, to, now)) {
    return true;
  }
  ++stats_.net_link_blocked;
  faults_->NoteLinkBlocked();
  return false;
}

bool NetworkTopology::HasRoute(size_t from, size_t to, SimTime now) {
  if (faults_ == nullptr || faults_->link_downs().empty() || from == to) {
    return true;
  }
  EnsureReplica(std::max(from, to));
  std::vector<size_t> detour;
  return !PathFor(NodeOf(from), NodeOf(to), now, &detour).empty();
}

SimTime NetworkTopology::Transfer(size_t from, size_t to, uint64_t bytes,
                                  const std::string& label) {
  EnsureReplica(std::max(from, to));
  ++stats_.net_transfers;
  stats_.net_payload_bytes += bytes;
  SimTime now = sim_->now();
  if (from == to) {
    return now;
  }
  size_t from_node = NodeOf(from);
  size_t to_node = NodeOf(to);
  std::vector<size_t> detour;
  const std::vector<size_t>* path =
      &PathFor(from_node, to_node, now, &detour);
  if (path == &detour) {
    if (detour.empty()) {
      // Fully severed cut: charge the static route deterministically rather
      // than drop the bytes. Callers gate on Routable() to avoid this.
      path = &StaticPath(from_node, to_node);
    } else {
      ++stats_.net_reroutes;
      faults_->NoteLinkBlocked();
    }
  }
  if (path->size() > 2) {
    ++stats_.net_multi_hop;
  }
  // Store-and-forward: hop N serializes once hop N-1 delivered, and queues
  // behind whatever else occupies that wire.
  SimTime at = now;
  for (size_t i = 0; i + 1 < path->size(); ++i) {
    at = LinkFor((*path)[i], (*path)[i + 1]).TransmitFrom(at, bytes, label);
  }
  return at;
}

SimDuration NetworkTopology::Distance(size_t from, size_t to) {
  EnsureReplica(std::max(from, to));
  if (from == to) {
    return 0;
  }
  if (adj_.empty()) {
    return cost_->hardware().interconnect_latency;
  }
  const std::vector<size_t>& path = StaticPath(NodeOf(from), NodeOf(to));
  SimDuration total = 0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const Edge* edge = EdgeBetween(path[i], path[i + 1]);
    assert(edge != nullptr);
    total += edge->latency;
  }
  return total;
}

std::vector<TopoLinkReport> NetworkTopology::LinkReport() const {
  std::vector<TopoLinkReport> report;
  report.reserve(links_.size());
  for (const auto& entry : links_) {
    report.push_back(TopoLinkReport{entry.second->name(),
                                    entry.second->stats()});
  }
  return report;
}

}  // namespace symphony
