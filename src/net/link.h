// A simulated directed physical link between two network nodes (replicas or
// switches) in the cluster's NetworkTopology (topology.h).
//
// A transfer serializes on the link's bandwidth — back-to-back transfers
// queue behind each other the way packets do on a NIC — and then pays the
// link's propagation latency on top. Since the topology routes EVERY
// cross-replica byte (IPC messages, journal shipping for migration, snapshot
// store chunk fetches, prefix-sharing warm imports) over these links, IPC
// traffic and migration traffic genuinely contend for the same wires: a
// migration flood delays concurrent IPC on any shared hop.
//
// Bandwidth and latency are per link: the default single-switch topology
// gives every link the uniform HardwareConfig::interconnect_* parameters,
// while multi-rack presets assign edge and uplink links their own values.
// TransmitFrom supports store-and-forward chaining: hop N of a multi-hop
// transfer cannot start serializing before hop N-1 delivered. Every transfer
// emits a span on the "net" trace track, and the stats record how long
// transfers waited behind earlier ones (queue_delay — the congestion signal).
#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <cstdint>
#include <string>

#include "src/model/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace symphony {

struct LinkStats {
  uint64_t transfers = 0;
  uint64_t bytes = 0;
  // Total time transfers spent queued behind earlier transfers still
  // serializing on this link (0 on an uncontended link).
  SimDuration queue_delay = 0;
};

class Link {
 public:
  // Uniform link: bandwidth/latency from the cost model's
  // HardwareConfig::interconnect_*. `cost` is required; `trace` is optional.
  Link(Simulator* sim, const CostModel* cost, TraceRecorder* trace,
       std::string name);

  // Per-link parameters (topology edge/uplink links).
  Link(Simulator* sim, double bandwidth, SimDuration latency,
       TraceRecorder* trace, std::string name);

  // Charges one transfer of `bytes` and returns its absolute arrival time:
  // serialization starts at max(now, `earliest`) — `earliest` is the
  // previous hop's arrival when this link is a later hop of a multi-hop
  // transfer — queues behind earlier transfers still on the wire, and then
  // the propagation latency applies.
  SimTime TransmitFrom(SimTime earliest, uint64_t bytes,
                       const std::string& label);

  double bandwidth() const { return bandwidth_; }
  SimDuration latency() const { return latency_; }
  const LinkStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

 private:
  Simulator* sim_;
  TraceRecorder* trace_;
  std::string name_;
  double bandwidth_;
  SimDuration latency_;
  SimTime busy_until_ = 0;
  LinkStats stats_;
};

}  // namespace symphony

#endif  // SRC_NET_LINK_H_
