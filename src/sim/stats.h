// Online statistics for simulation metrics.
//
// OnlineStats: numerically stable streaming mean/variance (Welford).
// SampleSeries: stores all samples for exact percentiles — simulation runs
// are bounded (<1e7 samples), so exactness beats sketching here.
// Invariant: samples()[0, sorted_) is sorted, and Add only appends. After k
// new samples, Percentile sorts just those k, O(k log k), and merges them
// into the sorted prefix, one linear pass that moves at most the n samples
// held. A series polled as it grows thus never re-sorts what it already
// sorted, and the merged array equals a full sort's, so percentiles are
// bit-identical to sorting everything.
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace symphony {

class OnlineStats {
 public:
  void Add(double x) {
    ++count_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = count_ == 1 ? x : std::min(min_, x);
    max_ = count_ == 1 ? x : std::max(max_, x);
    sum_ += x;
  }

  uint64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  void Reset() { *this = OnlineStats(); }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Retains every sample; provides exact order statistics.
class SampleSeries {
 public:
  void Add(double x) {
    samples_.push_back(x);
    stats_.Add(x);
  }

  uint64_t count() const { return stats_.count(); }
  double mean() const { return stats_.mean(); }
  double sum() const { return stats_.sum(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  double stddev() const { return stats_.stddev(); }

  // Exact percentile by nearest-rank with linear interpolation. q in [0,1].
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }

  const std::vector<double>& samples() const { return samples_; }
  void Reset();

 private:
  mutable std::vector<double> samples_;
  mutable size_t sorted_ = 0;  // samples_[0, sorted_) is sorted.
  OnlineStats stats_;
};

}  // namespace symphony

#endif  // SRC_SIM_STATS_H_
