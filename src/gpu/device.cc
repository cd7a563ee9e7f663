#include "src/gpu/device.h"

#include <cassert>
#include <cstdio>

namespace symphony {

SimDuration Device::EstimateTime(std::span<const WorkItem> items,
                                 uint64_t transfer_bytes) const {
  SimDuration compute = cost_.BatchTime(items);
  if (transfer_bytes == 0) {
    return compute;
  }
  // Copy engines run PCIe transfers concurrently with compute (chunked
  // pipelining), so a batch is bounded by the slower of the two.
  return std::max(compute, cost_.TransferTime(transfer_bytes));
}

SimTime Device::Execute(std::span<const WorkItem> items, uint64_t transfer_bytes,
                        std::function<void()> done) {
  assert(!busy_ && "device already executing a batch");
  assert(!items.empty());
  busy_ = true;

  SimDuration transfer = transfer_bytes > 0 ? cost_.TransferTime(transfer_bytes) : 0;
  SimDuration compute = cost_.BatchTime(items);
  // Copy engines overlap PCIe with compute; the batch takes the longer one.
  SimDuration elapsed = std::max(transfer, compute);

  ++stats_.batches;
  stats_.items += items.size();
  for (const WorkItem& item : items) {
    stats_.new_tokens += item.new_tokens;
  }
  stats_.transfer_bytes += transfer_bytes;
  stats_.transfer_time += transfer;
  stats_.busy_time += elapsed;
  batch_sizes_.Add(static_cast<double>(items.size()));

  if (trace_ != nullptr) {
    char label[96];
    std::snprintf(label, sizeof(label), "batch n=%zu tok=%llu%s", items.size(),
                  static_cast<unsigned long long>(
                      static_cast<uint64_t>(
                          [&] {
                            uint64_t t = 0;
                            for (const WorkItem& item : items) {
                              t += item.new_tokens;
                            }
                            return t;
                          }())),
                  transfer_bytes > 0 ? " +pcie" : "");
    trace_->Span(trace_track_, label, sim_->now(), elapsed);
  }

  SimTime completion = sim_->now() + elapsed;
  done_ = std::move(done);
  sim_->ScheduleAt(completion, [this] {
    busy_ = false;
    // Out of the member first: the callback may start the next batch.
    std::function<void()> callback = std::move(done_);
    callback();
  });
  return completion;
}

double Device::Utilization() const {
  if (sim_->now() == 0) {
    return 0.0;
  }
  return static_cast<double>(stats_.busy_time) / static_cast<double>(sim_->now());
}

}  // namespace symphony
