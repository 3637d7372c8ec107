// Budgeted stopping for long-running decodes.
//
// The matching-complete decoders (BruteForce, and Greedy*/Greedy+ at high
// chaff rates and large Delta) have combinatorial worst cases (paper §3.3,
// figs 7-10).  A production traceback service must be able to bound any
// single decode — by wall clock or by packet-access budget — and have it
// stop *cooperatively*: the algorithm returns its best-so-far result with
// `interrupted` set, never a torn state, never an exception.
//
// Two pieces:
//
//  * Deadline — a steady_clock point in time.  Because reading the clock
//    is not free, CancelProbe only consults it every kDeadlineStride
//    probes.
//  * CancelProbe — the per-run poll object the correlators' inner loops
//    call.  With no budget configured it is a single predictable branch on
//    a cached bool, so budget-unconstrained runs stay byte-identical (and
//    measurably identical) to a build without the probe.
//
// The probe also enforces a *resilience* cost budget (`max_cost`), distinct
// from the paper's `cost_bound`: cost_bound is part of the algorithm
// (Greedy*/BruteForce return best-so-far at 10^6 as the paper specifies),
// while max_cost is an operational guard that marks the run interrupted so
// Correlator::correlate can fall back to a cheaper tier.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "sscor/util/time.hpp"

namespace sscor {

/// Why a decode stopped early (recorded on CorrelationResult).
enum class StopReason : std::uint8_t {
  kNone = 0,       ///< ran to completion
  kDeadline,       ///< Deadline expired
  kCostBudget,     ///< resilience cost budget (DecodeBudget::max_cost) spent
};

std::string to_string(StopReason reason);

/// A point on the steady clock before which work must finish.  Default
/// constructed = unarmed (never expires).
class Deadline {
 public:
  Deadline() = default;

  /// A deadline `us` microseconds from now (clamped to non-negative).  It
  /// saturates: a deadline beyond the clock's range is armed and never
  /// expires.
  static Deadline after(DurationUs us);

  static Deadline at(std::chrono::steady_clock::time_point when) {
    Deadline d;
    d.armed_ = true;
    d.when_ = when;
    return d;
  }

  bool armed() const { return armed_; }

  /// Reads the clock; callers on hot paths go through CancelProbe, which
  /// strides these reads.
  bool expired() const {
    return armed_ && std::chrono::steady_clock::now() >= when_;
  }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point when_{};
};

/// The per-decode resilience budget, carried inside CorrelatorConfig.  All
/// fields default to "disabled"; a default DecodeBudget makes every probe a
/// single branch and the decode byte-identical to the pre-resilience code.
struct DecodeBudget {
  /// Wall-clock bound, absolute: every ladder tier of one
  /// Correlator::correlate call shares it.
  Deadline deadline{};
  /// Packet-access bound per decode attempt (same metric as
  /// CorrelationResult::cost); 0 = unlimited.  Distinct from the paper's
  /// cost_bound (see header).
  std::uint64_t max_cost = 0;

  bool enabled() const { return deadline.armed() || max_cost != 0; }
};

/// The poll object a correlator's inner loops call.  One probe per run,
/// never shared across threads (the decodes themselves are serial; only
/// sweep points run concurrently, each with its own probe).
class CancelProbe {
 public:
  /// Disabled probe: should_stop is `false` at the cost of one branch.
  CancelProbe() = default;

  explicit CancelProbe(const DecodeBudget& budget)
      : deadline_(budget.deadline),
        max_cost_(budget.max_cost),
        armed_(budget.enabled()) {}

  /// Polls the budget.  `current_cost` is the run's CostMeter reading (the
  /// paper's packet-access metric), used for the max_cost bound.  Once true
  /// the verdict is latched: every later call returns true immediately.
  bool should_stop(std::uint64_t current_cost = 0) {
    if (!armed_) return false;
    if (reason_ != StopReason::kNone) return true;
    return slow_check(current_cost);
  }

  bool stopped() const { return reason_ != StopReason::kNone; }
  StopReason reason() const { return reason_; }

 private:
  bool slow_check(std::uint64_t current_cost);

  /// Probes between clock reads when only a deadline is armed.  256 keeps
  /// the steady_clock syscall off the per-packet path while bounding
  /// overshoot to a few microseconds of work.
  static constexpr std::uint64_t kDeadlineStride = 256;

  Deadline deadline_{};
  std::uint64_t max_cost_ = 0;
  bool armed_ = false;
  StopReason reason_ = StopReason::kNone;
  std::uint64_t calls_ = 0;
};

}  // namespace sscor
