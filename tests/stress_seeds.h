// Stress-scalable seed lists for the property suites. By default each sweep
// runs its curated base seeds; when SYMPHONY_STRESS is set (CI's stress
// profile), every sweep is widened with derived seeds — 64 extra, or the
// variable's integer value when it parses to something larger than 1.
// `stream` decorrelates the suites so they don't all replay the same derived
// sequence.
#ifndef TESTS_STRESS_SEEDS_H_
#define TESTS_STRESS_SEEDS_H_

#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "src/common/hash.h"

namespace symphony {

inline std::vector<uint64_t> StressSeeds(std::vector<uint64_t> base,
                                         uint64_t stream) {
  const char* stress = std::getenv("SYMPHONY_STRESS");
  if (stress == nullptr || *stress == '\0' ||
      std::string_view(stress) == "0") {
    return base;
  }
  uint64_t extra = 64;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(stress, &end, 10);
  if (end != stress && *end == '\0' && parsed > 1) {
    extra = parsed;
  }
  for (uint64_t i = 0; i < extra; ++i) {
    base.push_back(Mix64((stream << 32) ^ (i + 1)));
  }
  return base;
}

}  // namespace symphony

#endif  // TESTS_STRESS_SEEDS_H_
