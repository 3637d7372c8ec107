// Time representation used throughout sscor.
//
// All packet timestamps and durations are integer microseconds.  Pcap stores
// capture times as {seconds, microseconds} pairs, interactive inter-arrival
// scales range from sub-millisecond bursts to multi-second think times, and
// the watermark math only ever adds/subtracts/compares — so a 64-bit integer
// microsecond count is exact, overflow-safe for ~292k years, and keeps every
// comparison deterministic (no floating-point rounding in correlation
// decisions).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sscor {

/// A point in time, in microseconds since an arbitrary epoch.
using TimeUs = std::int64_t;

/// A signed duration in microseconds.
using DurationUs = std::int64_t;

inline constexpr DurationUs kMicrosPerMilli = 1'000;
inline constexpr DurationUs kMicrosPerSecond = 1'000'000;

/// Converts whole seconds to microseconds.
constexpr DurationUs seconds(std::int64_t s) { return s * kMicrosPerSecond; }

/// Converts fractional seconds to microseconds (rounding to nearest).
constexpr DurationUs seconds(double s) {
  return static_cast<DurationUs>(s * static_cast<double>(kMicrosPerSecond) +
                                 (s >= 0 ? 0.5 : -0.5));
}

/// seconds(double) for a value from outside the program (a command-line
/// flag): throws InvalidArgument naming `name` when `s` is not finite, is
/// negative, or has a microsecond count that does not fit in DurationUs —
/// the cases where the plain conversion is undefined or meaningless.
DurationUs checked_seconds(double s, std::string_view name);

/// Converts whole milliseconds to microseconds.
constexpr DurationUs millis(std::int64_t ms) { return ms * kMicrosPerMilli; }

/// Converts a microsecond duration to fractional seconds.
constexpr double to_seconds(DurationUs us) {
  return static_cast<double>(us) / static_cast<double>(kMicrosPerSecond);
}

/// Converts a microsecond duration to fractional milliseconds.
constexpr double to_millis(DurationUs us) {
  return static_cast<double>(us) / static_cast<double>(kMicrosPerMilli);
}

/// Formats a duration as a human-readable string, e.g. "1.500s" or "650ms".
std::string format_duration(DurationUs us);

}  // namespace sscor
