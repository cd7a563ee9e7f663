// NetworkTopology: the cluster's physical network graph, and the ONE place
// every cross-replica byte is charged.
//
// Nodes are replicas and switches; each directed physical link is a Link
// (link.h) with its own bandwidth, propagation latency, and busy_until
// serialization state. A transfer is routed over the shortest-latency path
// (precomputed, deterministic tie-breaks) and store-and-forwards per hop:
// hop N starts serializing once hop N-1 delivered, and every hop queues
// behind whatever else is on that wire. Congestion on a shared uplink is
// therefore real — a migration flood delays concurrent IPC across racks.
//
// All four cross-replica byte streams route through Transfer():
//   * IPC fabric sends and forwards     (IpcFabric::BeginTransfer)
//   * journal shipping for migration    (SymphonyCluster::ShipJournal)
//   * snapshot-store chunk fetches      (SnapshotStore::Fetch)
//   * prefix-sharing warm imports       (via SnapshotStore::Fetch)
// replacing the old split-brain accounting where only IPC serialized on
// links while everything else was charged CostModel::NetworkTime() with no
// queueing.
//
// Presets:
//   * kSingleSwitch (default) — an ideal non-blocking switch, modeled as a
//     dedicated directed link per replica pair with the uniform
//     HardwareConfig::interconnect_* parameters. This is bit-for-bit the
//     legacy per-pair link fabric: one hop, same serialization, same
//     latency, same trace spans. Grows lazily with the replica count.
//   * kTwoRack — replicas split across two rack switches joined by one
//     uplink (optionally plus a strictly-worse spine path for redundancy).
//     Intra-rack transfers take 2 hops (edge + edge); inter-rack take 3
//     (edge + uplink + edge) and contend for the shared uplink. With the
//     default per-hop parameters an intra-rack path's latency equals the
//     single-switch one-way latency (serialization repeats per
//     store-and-forward hop), and inter-rack adds the full uplink
//     serialization + latency on top.
//
// Fault injection: FaultPlan::AddLinkDown names two nodes; while the window
// covers a link on a transfer's static path, the transfer is rerouted over
// the shortest surviving path (stats().net_reroutes) or — when no path
// survives — Routable() reports false and the IPC fabric surfaces its
// partition retry/deadline semantics (stats().net_link_blocked).
//
// Determinism: routing is a pure function of (graph, fault plan, virtual
// time) — shortest paths break ties toward the lowest node id — and link
// reservation happens synchronously inside Transfer() in event order, so a
// seeded run routes and times every byte identically across reruns, which
// keeps kill/migrate/replay bit-identical.
#ifndef SRC_NET_TOPOLOGY_H_
#define SRC_NET_TOPOLOGY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/faults/fault_plan.h"
#include "src/model/cost_model.h"
#include "src/net/link.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace symphony {

struct TopologyOptions {
  enum class Preset {
    kSingleSwitch,  // Ideal switch: direct per-pair links, uniform params.
    kTwoRack,       // Two rack switches joined by a shared uplink.
  };
  Preset preset = Preset::kSingleSwitch;
  // kTwoRack: replicas [0, rack_split) sit under "rack0", the rest under
  // "rack1". 0 = split in half (first rack rounded up).
  size_t rack_split = 0;
  // kTwoRack link parameters derive from HardwareConfig::interconnect_*:
  // edges (replica <-> rack switch) run at full bandwidth and HALF the
  // interconnect latency (edge + edge latency == the single-switch one-way
  // latency); the uplink (rack0 <-> rack1) at the full latency and this
  // bandwidth (<= 0: the interconnect bandwidth).
  double uplink_bandwidth = 0;
  // kTwoRack redundancy: a spare path rack0 <-> spine <-> rack1 at the
  // uplink's bandwidth and 4x its latency per hop, strictly worse than the
  // uplink, used only when a link-down window takes the uplink out.
  bool spine = false;
};

// Field names carry the net_ prefix because ClusterSnapshot inherits them.
struct TopologyStats {
  uint64_t net_transfers = 0;      // End-to-end transfers routed.
  uint64_t net_payload_bytes = 0;  // Payload bytes (counted once, not per hop).
  uint64_t net_multi_hop = 0;      // Transfers whose path had > 1 link.
  uint64_t net_reroutes = 0;       // Static path down; surviving path used.
  uint64_t net_link_blocked = 0;   // Routable() == false answers.
};

// One row of per-link observability (ClusterSnapshot::net_links).
struct TopoLinkReport {
  std::string name;
  LinkStats stats;
};

class NetworkTopology {
 public:
  // `sim` and `cost` are required; `faults` and `trace` are optional.
  // kTwoRack builds its fixed graph for `replicas` (at least 1) at
  // construction; kSingleSwitch grows lazily from it.
  NetworkTopology(Simulator* sim, const CostModel* cost, FaultPlan* faults,
                  TraceRecorder* trace, size_t replicas = 0,
                  TopologyOptions options = {});

  NetworkTopology(const NetworkTopology&) = delete;
  NetworkTopology& operator=(const NetworkTopology&) = delete;

  // Makes sure replica `index` exists as a node. kSingleSwitch grows the
  // mesh; fixed presets assert the index is within the built graph (runtime
  // growth on them goes through AddReplica).
  void EnsureReplica(size_t index);

  // Runtime elasticity: attaches one new replica and returns its index.
  // kSingleSwitch grows the mesh; kTwoRack hangs the new node off whichever
  // rack switch has fewer replicas (ties toward rack0) with the preset's
  // edge parameters. Existing routes are unaffected — the newcomer is a
  // leaf, so memoized static paths stay valid.
  size_t AddReplica();

  // True when at least one live path connects the replicas at `now`.
  // Counts a blocked transfer attempt when it answers false.
  bool Routable(size_t from, size_t to, SimTime now);

  // Routable without the stats/fault-plan accounting: the control plane's
  // heartbeat path consults this every beat, and a mere liveness check must
  // not inflate blocked-transfer counters.
  bool HasRoute(size_t from, size_t to, SimTime now);

  // Charges one end-to-end transfer of `bytes` starting now and returns its
  // absolute arrival time: each hop serializes on its link (queueing behind
  // earlier traffic) and pays that link's propagation latency, chained
  // store-and-forward. A zero-byte transfer still pays every hop's latency —
  // an empty packet is still a packet. The caller must have checked
  // Routable(); transferring across a fully severed cut falls back to the
  // static path (the bytes would sit at the cut in a real network; modeling
  // chooses the deterministic charge over dropping them silently).
  SimTime Transfer(size_t from, size_t to, uint64_t bytes,
                   const std::string& label);

  // All-links-up path latency between two replicas: the placement-affinity
  // metric (KillReplica/Rebalance prefer close survivors). Uniform on the
  // single-switch preset, so tie-breaks there never change placement.
  SimDuration Distance(size_t from, size_t to);

  size_t replica_count() const { return replica_count_; }
  const TopologyStats& stats() const { return stats_; }
  // Every link that carried traffic, in deterministic (from, to) order.
  std::vector<TopoLinkReport> LinkReport() const;

 private:
  struct Edge {
    size_t to = 0;
    double bandwidth = 0;
    SimDuration latency = 0;
  };

  void AddBidirectionalEdge(size_t a, size_t b, double bandwidth,
                            SimDuration latency);
  // Node id of a replica index. Identity on the mesh; on switch presets a
  // replica added after construction gets a node id past the switches, so
  // every public entry point translates through this.
  size_t NodeOf(size_t replica) const;
  Link& LinkFor(size_t from, size_t to);
  bool LinkUp(size_t a, size_t b, SimTime now) const;
  const Edge* EdgeBetween(size_t from, size_t to) const;
  // Shortest-latency path as a node sequence; empty when unreachable.
  // respect_down excludes links inside a FaultPlan down window at `now`.
  std::vector<size_t> Shortest(size_t from, size_t to, SimTime now,
                               bool respect_down) const;
  // The all-up static route, memoized.
  const std::vector<size_t>& StaticPath(size_t from, size_t to);
  // Route honoring down windows: the memoized static path while every hop
  // of it is up, else *detour, filled with the shortest surviving path
  // (empty when no live path exists).
  const std::vector<size_t>& PathFor(size_t from, size_t to, SimTime now,
                                     std::vector<size_t>* detour);

  Simulator* sim_;
  const CostModel* cost_;
  FaultPlan* faults_;      // Optional.
  TraceRecorder* trace_;   // Optional.
  size_t replica_count_ = 0;
  std::vector<size_t> replica_node_;     // Replica index -> node id.
  // kTwoRack growth state: rack switch node ids, per-rack replica counts,
  // and the edge parameters new members attach with.
  size_t rack0_node_ = SIZE_MAX;
  size_t rack1_node_ = SIZE_MAX;
  size_t rack_members_[2] = {0, 0};
  double edge_bw_ = 0;
  SimDuration edge_lat_ = 0;
  std::vector<std::string> names_;       // Node id -> name.
  std::vector<std::vector<Edge>> adj_;   // Switch presets; empty for mesh.
  // std::map: deterministic LinkReport order.
  std::map<std::pair<size_t, size_t>, std::unique_ptr<Link>> links_;
  std::map<std::pair<size_t, size_t>, std::vector<size_t>> static_paths_;
  TopologyStats stats_;
};

}  // namespace symphony

#endif  // SRC_NET_TOPOLOGY_H_
