#include "src/sim/event_queue.h"

#include <cassert>
#include <utility>

namespace symphony {

void Simulator::ScheduleAt(SimTime when, EventFn fn) {
  assert(fn && "scheduling a null event");
  if (when < now_) {
    when = now_;
  }
  queue_.push(Event{when, next_seq_++, std::move(fn)});
}

void Simulator::DispatchNext() {
  Event event = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = event.when;
  frontier_ = Stamp{event.when, event.seq};
  event.fn();
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
