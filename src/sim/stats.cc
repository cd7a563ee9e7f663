#include "src/sim/stats.h"

namespace symphony {

double SampleSeries::Percentile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  if (sorted_ < samples_.size()) {
    auto tail = samples_.begin() + static_cast<std::ptrdiff_t>(sorted_);
    std::sort(tail, samples_.end());
    std::inplace_merge(samples_.begin(), tail, samples_.end());
    sorted_ = samples_.size();
  }
  if (q <= 0.0) {
    return samples_.front();
  }
  if (q >= 1.0) {
    return samples_.back();
  }
  double rank = q * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) {
    return samples_.back();
  }
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

void SampleSeries::Reset() {
  samples_.clear();
  sorted_ = 0;
  stats_.Reset();
}

}  // namespace symphony
