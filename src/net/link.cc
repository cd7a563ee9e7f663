#include "src/net/link.h"

#include <algorithm>
#include <cassert>

namespace symphony {

Link::Link(Simulator* sim, const CostModel* cost, TraceRecorder* trace,
           std::string name)
    : sim_(sim), trace_(trace), name_(std::move(name)) {
  assert(sim != nullptr);
  assert(cost != nullptr);
  bandwidth_ = cost->hardware().interconnect_bandwidth;
  latency_ = cost->hardware().interconnect_latency;
}

Link::Link(Simulator* sim, double bandwidth, SimDuration latency,
           TraceRecorder* trace, std::string name)
    : sim_(sim),
      trace_(trace),
      name_(std::move(name)),
      bandwidth_(bandwidth),
      latency_(latency) {
  assert(sim != nullptr);
  assert(bandwidth > 0.0);
  assert(latency >= 0);
}

SimTime Link::TransmitFrom(SimTime earliest, uint64_t bytes,
                           const std::string& label) {
  SimTime start = std::max(earliest, sim_->now());
  SimDuration serialize =
      DurationFromSeconds(static_cast<double>(bytes) / bandwidth_);
  SimTime begin = std::max(start, busy_until_);
  stats_.queue_delay += begin - start;
  busy_until_ = begin + serialize;
  SimTime arrival = busy_until_ + latency_;
  ++stats_.transfers;
  stats_.bytes += bytes;
  if (trace_ != nullptr) {
    trace_->Span("net", name_ + ":" + label, start, arrival - start);
  }
  return arrival;
}

}  // namespace symphony
