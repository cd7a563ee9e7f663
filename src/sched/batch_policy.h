// Batch-trigger policies for the inference scheduler (paper §4.4).
//
// The core timing question of the two-level scheduler: with the device idle
// and N pred calls queued, launch now (lower latency, smaller batch) or wait
// for more arrivals (better GPU efficiency)? The paper proposes adapting the
// batch size to the observed system-call frequency using a Poisson model;
// PoissonAdaptivePolicy implements that, with Eager and SizeTimeout as the
// classic alternatives (and ablation baselines).
#ifndef SRC_SCHED_BATCH_POLICY_H_
#define SRC_SCHED_BATCH_POLICY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>

#include "src/sim/time.h"

namespace symphony {

// Inputs available to a policy when the device is idle and work is queued.
struct BatchPolicyInput {
  size_t queue_size = 0;
  SimDuration oldest_wait = 0;        // Age of the oldest queued request.
  double arrival_rate_per_sec = 0.0;  // EWMA estimate of pred arrivals.
  SimDuration est_batch_time = 0;     // Predicted execution time of the queue.
  size_t max_batch = 0;
};

struct BatchDecision {
  bool launch = false;
  // When not launching: re-evaluate after this long (must be > 0).
  SimDuration recheck_after = 0;
};

class BatchPolicy {
 public:
  virtual ~BatchPolicy() = default;
  virtual BatchDecision ShouldLaunch(const BatchPolicyInput& input) = 0;
  virtual const char* name() const = 0;
};

// Launch whenever there is work (continuous batching).
class EagerPolicy : public BatchPolicy {
 public:
  BatchDecision ShouldLaunch(const BatchPolicyInput&) override {
    return BatchDecision{true, 0};
  }
  const char* name() const override { return "eager"; }
};

// Launch at a fixed batch size, or when the oldest request exceeds a timeout.
class SizeTimeoutPolicy : public BatchPolicy {
 public:
  SizeTimeoutPolicy(size_t target_size, SimDuration timeout)
      : target_size_(target_size), timeout_(timeout) {}

  BatchDecision ShouldLaunch(const BatchPolicyInput& input) override {
    if (input.queue_size >= std::min(target_size_, input.max_batch) ||
        input.oldest_wait >= timeout_) {
      return BatchDecision{true, 0};
    }
    return BatchDecision{false, std::max<SimDuration>(timeout_ - input.oldest_wait,
                                                      Micros(50))};
  }
  const char* name() const override { return "size-timeout"; }

 private:
  size_t target_size_;
  SimDuration timeout_;
};

// Poisson-adaptive: target the batch size that arrivals can sustain during
// one batch execution. With arrival rate lambda and estimated execution time
// T, about lambda*T requests arrive while a batch runs; queueing deeper than
// that buys no extra efficiency at steady state, while launching much
// shallower wastes the weight pass. Waits are capped by max_wait.
class PoissonAdaptivePolicy : public BatchPolicy {
 public:
  explicit PoissonAdaptivePolicy(SimDuration max_wait = Millis(20))
      : max_wait_(max_wait) {}

  BatchDecision ShouldLaunch(const BatchPolicyInput& input) override {
    if (input.oldest_wait >= max_wait_) {
      return BatchDecision{true, 0};
    }
    double expected_arrivals =
        input.arrival_rate_per_sec * ToSeconds(input.est_batch_time);
    size_t target = static_cast<size_t>(std::ceil(expected_arrivals));
    target = std::clamp<size_t>(target, 1, input.max_batch);
    if (input.queue_size >= target) {
      return BatchDecision{true, 0};
    }
    // Wait for roughly the gap to the next arrival, but at least 50 us and
    // never past the remaining latency budget (which can be the shorter).
    SimDuration gap = input.arrival_rate_per_sec > 0.0
                          ? DurationFromSeconds(1.0 / input.arrival_rate_per_sec)
                          : max_wait_;
    SimDuration budget = max_wait_ - input.oldest_wait;
    return BatchDecision{false, std::min(std::max(gap, Micros(50)), budget)};
  }
  const char* name() const override { return "poisson-adaptive"; }

 private:
  SimDuration max_wait_;
};

}  // namespace symphony

#endif  // SRC_SCHED_BATCH_POLICY_H_
