// Discrete-event simulation core.
//
// Simulator owns the virtual clock and a time-ordered queue of callbacks.
// Components schedule work with ScheduleAt/ScheduleAfter; Run() dispatches
// events in (time, insertion order) until the queue drains or a deadline is
// hit. Ties break by insertion order, which makes runs fully deterministic.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/sim/time.h"

namespace symphony {

class Simulator {
 public:
  using EventFn = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute virtual time `when`. Times in the past run at
  // the current time (never rewinds the clock). There is no cancellation: a
  // component that may change its mind checks its own state when the event
  // fires.
  void ScheduleAt(SimTime when, EventFn fn);
  void ScheduleAfter(SimDuration delay, EventFn fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  // Dispatches events until the queue is empty. Returns number dispatched.
  uint64_t Run();

  // Dispatches events with time <= deadline; the clock ends at
  // max(now, deadline). Returns number dispatched.
  uint64_t RunUntil(SimTime deadline);

  // Dispatches a single event if available. Returns false if queue empty.
  bool Step();

  bool empty() const { return queue_.empty(); }
  size_t pending_count() const { return queue_.size(); }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;  // Tie-break: FIFO among same-time events.
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  // Pops the earliest event, advances the clock to it, and runs it.
  void DispatchNext();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace symphony

#endif  // SRC_SIM_EVENT_QUEUE_H_
