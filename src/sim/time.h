// Virtual time for the discrete-event simulator.
//
// Time is an integer count of nanoseconds since simulation start. Integer time
// keeps event ordering exact and replayable; helpers convert to and from
// floating-point seconds at the edges (cost models, statistics).
#ifndef SRC_SIM_TIME_H_
#define SRC_SIM_TIME_H_

#include <cmath>
#include <cstdint>

namespace symphony {

using SimTime = int64_t;      // Absolute virtual time, ns.
using SimDuration = int64_t;  // Virtual duration, ns.

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;

constexpr SimDuration Micros(int64_t n) { return n * kMicrosecond; }
constexpr SimDuration Millis(int64_t n) { return n * kMillisecond; }
constexpr SimDuration Seconds(int64_t n) { return n * kSecond; }

// Converts a (possibly fractional) second count, rounding to nearest ns.
inline SimDuration DurationFromSeconds(double seconds) {
  return static_cast<SimDuration>(std::llround(seconds * static_cast<double>(kSecond)));
}

inline double ToSeconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

inline double ToMillis(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

}  // namespace symphony

#endif  // SRC_SIM_TIME_H_
