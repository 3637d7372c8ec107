#include "sscor/util/cancellation.hpp"

namespace sscor {

std::string to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCostBudget:
      return "cost-budget";
  }
  return "unknown";
}

Deadline Deadline::after(DurationUs us) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  // Compare in microseconds before adding: now + microseconds(us) is
  // computed in the clock's nanoseconds and would overflow.
  const auto headroom = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::time_point::max() - now);
  Deadline d;
  d.armed_ = true;
  d.when_ = us >= headroom.count()
                ? Clock::time_point::max()
                : now + std::chrono::microseconds(us < 0 ? 0 : us);
  return d;
}

bool CancelProbe::slow_check(std::uint64_t current_cost) {
  ++calls_;
  if (max_cost_ != 0 && current_cost >= max_cost_) {
    reason_ = StopReason::kCostBudget;
    return true;
  }
  if (deadline_.armed() && calls_ % kDeadlineStride == 1 &&
      deadline_.expired()) {
    reason_ = StopReason::kDeadline;
    return true;
  }
  return false;
}

}  // namespace sscor
