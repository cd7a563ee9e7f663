#include "src/sim/event_queue.h"

#include <cassert>
#include <utility>

namespace symphony {

void Simulator::ScheduleAt(SimTime when, EventFn fn) {
  assert(fn && "scheduling a null event");
  if (when < now_) {
    when = now_;
  }
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  queue_.push(Key{when, next_seq_++, slot});
}

void Simulator::DispatchNext() {
  const Key key = queue_.top();
  queue_.pop();
  now_ = key.when;
  frontier_ = Stamp{key.when, key.seq};
  // Out of the slot before it runs: the callback may reuse the slot or grow
  // slots_, and its captures die with `fn`.
  EventFn fn = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  fn();
}

uint64_t Simulator::Run() {
  uint64_t dispatched = 0;
  while (!queue_.empty()) {
    DispatchNext();
    ++dispatched;
  }
  return dispatched;
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  uint64_t dispatched = 0;
  while (!queue_.empty() && queue_.top().when <= deadline) {
    DispatchNext();
    ++dispatched;
  }
  if (now_ <= deadline) {
    // Every event up to the deadline ran, stamped ones included.
    now_ = deadline;
    frontier_ = Stamp{deadline, next_seq_};
  }
  return dispatched;
}

bool Simulator::Step() {
  if (queue_.empty()) {
    return false;
  }
  DispatchNext();
  return true;
}

}  // namespace symphony
