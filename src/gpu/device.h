// Simulated GPU device.
//
// Executes one batch of model work at a time, consuming virtual time
// according to the CostModel; host<->device transfer bytes (KV restore,
// eviction offload) are charged before the compute phase. The device is the
// only component that advances time for model computation, so GPU utilization
// falls straight out of its busy-time accounting.
#ifndef SRC_GPU_DEVICE_H_
#define SRC_GPU_DEVICE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/model/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace symphony {

struct DeviceStats {
  uint64_t batches = 0;
  uint64_t items = 0;
  uint64_t new_tokens = 0;
  uint64_t transfer_bytes = 0;
  SimDuration busy_time = 0;
  SimDuration transfer_time = 0;
};

class Device {
 public:
  Device(Simulator* sim, CostModel cost_model)
      : sim_(sim), cost_(std::move(cost_model)) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  bool busy() const { return busy_; }
  const CostModel& cost_model() const { return cost_; }

  // Starts executing `items` after transferring `transfer_bytes` over PCIe.
  // `done` fires in virtual time when the batch completes. The device must
  // be idle. Returns the predicted completion time.
  SimTime Execute(std::vector<WorkItem> items, uint64_t transfer_bytes,
                  std::function<void()> done);

  // Predicted execution time for a hypothetical batch (for batch policies).
  SimDuration EstimateTime(std::span<const WorkItem> items,
                           uint64_t transfer_bytes) const;

  // Busy fraction since simulation start.
  double Utilization() const;

  const DeviceStats& stats() const { return stats_; }
  const SampleSeries& batch_sizes() const { return batch_sizes_; }

  // Optional execution tracing: one span per batch on `track`.
  void set_trace(TraceRecorder* trace, std::string track = "gpu") {
    trace_ = trace;
    trace_track_ = std::move(track);
  }

 private:
  Simulator* sim_;
  CostModel cost_;
  bool busy_ = false;
  DeviceStats stats_;
  SampleSeries batch_sizes_;
  TraceRecorder* trace_ = nullptr;
  std::string trace_track_ = "gpu";
};

}  // namespace symphony

#endif  // SRC_GPU_DEVICE_H_
