#include "sscor/util/time.hpp"

#include <cmath>
#include <cstdio>

#include "sscor/util/error.hpp"

namespace sscor {

DurationUs checked_seconds(double s, std::string_view name) {
  const auto refuse = [&](const char* what) {
    char value[32];
    std::snprintf(value, sizeof(value), "%g", s);
    throw InvalidArgument(std::string(name) + " must be " + what + ", got " +
                          value);
  };
  if (!std::isfinite(s)) refuse("a finite number of seconds");
  if (s < 0) refuse("non-negative");
  // 2^63 microseconds is the first count DurationUs cannot hold; below it,
  // adding the rounding half cannot reach it.
  if (!(s * static_cast<double>(kMicrosPerSecond) < 0x1p63)) {
    refuse("below 9223372036854 seconds");
  }
  return seconds(s);
}

std::string format_duration(DurationUs us) {
  char buf[64];
  const bool neg = us < 0;
  const std::int64_t mag = neg ? -us : us;
  if (mag >= kMicrosPerSecond) {
    std::snprintf(buf, sizeof(buf), "%s%.3fs", neg ? "-" : "",
                  static_cast<double>(mag) /
                      static_cast<double>(kMicrosPerSecond));
  } else if (mag >= kMicrosPerMilli) {
    std::snprintf(buf, sizeof(buf), "%s%.3fms", neg ? "-" : "",
                  static_cast<double>(mag) /
                      static_cast<double>(kMicrosPerMilli));
  } else {
    std::snprintf(buf, sizeof(buf), "%s%lldus", neg ? "-" : "",
                  static_cast<long long>(mag));
  }
  return buf;
}

}  // namespace sscor
