// Time representation used throughout the library.
//
// Neuromorphic vision sensors timestamp events at microsecond resolution
// (Section II of the paper), so the canonical unit everywhere in this code
// base is the microsecond, held in a signed 64-bit integer.
#pragma once

#include <cstdint>

namespace ebbiot {

/// Microseconds since the start of a recording.
using TimeUs = std::int64_t;

inline constexpr TimeUs kMicrosPerMilli = 1'000;
inline constexpr TimeUs kMicrosPerSecond = 1'000'000;

/// Frame period used in the paper: tF = 66 ms (~15 Hz readout).
inline constexpr TimeUs kDefaultFramePeriodUs = 66 * kMicrosPerMilli;

/// The per-pixel timestamp maps (NnFilter, RefractoryFilter) mark a
/// pixel that never fired with kNeverFired and accept only packets whose
/// window lies inside (-kMapTimeLimit, kMapTimeLimit).  With windows
/// below kMapTimeLimit / 2, "never" stays below every t - window and no
/// difference of two accepted times overflows.
inline constexpr TimeUs kNeverFired = INT64_MIN;
inline constexpr TimeUs kMapTimeLimit = TimeUs{1} << 47;

constexpr TimeUs millisToUs(double ms) {
  return static_cast<TimeUs>(ms * static_cast<double>(kMicrosPerMilli));
}

constexpr TimeUs secondsToUs(double s) {
  return static_cast<TimeUs>(s * static_cast<double>(kMicrosPerSecond));
}

constexpr double usToSeconds(TimeUs t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosPerSecond);
}

constexpr double usToMillis(TimeUs t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosPerMilli);
}

}  // namespace ebbiot
