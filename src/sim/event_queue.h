// Discrete-event simulation core.
//
// Simulator owns the virtual clock and a time-ordered queue of callbacks.
// Components schedule work with ScheduleAt/ScheduleAfter; Run() dispatches
// events in (time, insertion order) until the queue drains or a deadline is
// hit. Ties break by insertion order, which makes runs fully deterministic.
//
// Stamps. An event whose only effect is a state update need not be
// scheduled at all. StampAt(when) returns the place such an event would
// take in the (time, insertion order) sequence; it uses up an insertion
// number exactly as ScheduleAt would, so every real event keeps its order.
// Dispatched(stamp) answers whether the queue would already have run it:
// inside an event, whether it orders before the event now running; between
// dispatches, whether it orders before the next one; after RunUntil,
// whether it is due by the deadline. The owner applies its stamped updates
// lazily, in front of every read and every other write of the state they
// touch, which leaves exactly the state the scheduled events would have
// left, ties included. It must still schedule one real event at its last
// stamped time when nothing else keeps the queue running that long, or
// Run() would stop the clock earlier. ControlPlane (src/ctrl) applies
// heartbeat arrivals this way.
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

  // A would-be event's place in the dispatch order (see the file comment).
  struct Stamp {
    SimTime when = 0;
    uint64_t seq = 0;
  };
  // The place an event scheduled now at `when` would take; schedules nothing.
  Stamp StampAt(SimTime when) {
    return Stamp{when < now_ ? now_ : when, next_seq_++};
  }
  // True when the queue would already have dispatched an event stamped so.
  bool Dispatched(Stamp stamp) const {
    return stamp.when != frontier_.when ? stamp.when < frontier_.when
                                        : stamp.seq < frontier_.seq;
  }

  // Dispatches events until the queue is empty. Returns number dispatched.
  uint64_t Run();

  // Dispatches events with time <= deadline; the clock ends at
  // max(now, deadline). Returns number dispatched.
  uint64_t RunUntil(SimTime deadline);

  // Dispatches a single event if available. Returns false if queue empty.
  bool Step();

  bool empty() const { return queue_.empty(); }

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
  // Everything ordered before this has been dispatched: the running (or
  // last dispatched) event, or a RunUntil deadline past it.
  Stamp frontier_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace symphony

#endif  // SRC_SIM_EVENT_QUEUE_H_
