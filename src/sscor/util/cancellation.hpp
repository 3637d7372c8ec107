// Cooperative cancellation for long-running decodes.
//
// The matching-complete decoders (BruteForce, and Greedy*/Greedy+ at high
// chaff rates and large Delta) have combinatorial worst cases (paper §3.3,
// figs 7-10).  A production traceback service must be able to bound any
// single decode — by wall clock, by packet-access budget, or by an explicit
// cancel from the caller — and have it stop *cooperatively*: the algorithm
// returns its best-so-far result with `interrupted` set, never a torn
// state, never an exception.
//
// Three pieces:
//
//  * CancellationToken — shared stop flag.  Checking is one relaxed atomic
//    load (the same discipline as the trace probe); cancelling is rare.
//  * Deadline — a steady_clock point in time.  Because reading the clock
//    costs far more than a relaxed load, CancelProbe only consults it every
//    kDeadlineStride probes.
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

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "sscor/util/time.hpp"

namespace sscor {

/// Why a decode stopped early (recorded on CorrelationResult).
enum class StopReason : std::uint8_t {
  kNone = 0,       ///< ran to completion
  kCancelled,      ///< CancellationToken::cancel()
  kDeadline,       ///< Deadline expired
  kCostBudget,     ///< resilience cost budget (DecodeBudget::max_cost) spent
};

std::string to_string(StopReason reason);

/// Shared cooperative stop flag.  Thread-safe: any thread may cancel; any
/// number of probes may poll concurrently.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Requests a stop.  The first reason wins; later calls are no-ops.
  void cancel(StopReason reason = StopReason::kCancelled) {
    std::uint8_t expected = 0;
    state_.compare_exchange_strong(expected,
                                   static_cast<std::uint8_t>(reason),
                                   std::memory_order_relaxed);
  }

  /// One relaxed load — safe on the hottest path.
  bool stop_requested() const {
    return state_.load(std::memory_order_relaxed) != 0;
  }

  StopReason reason() const {
    return static_cast<StopReason>(state_.load(std::memory_order_relaxed));
  }

  /// Re-arms a used token (between ladder attempts or test cases).  Only
  /// call when no probe is concurrently polling.
  void reset() {
    state_.store(0, std::memory_order_relaxed);
    probe_countdown_.store(-1, std::memory_order_relaxed);
  }

  /// Chaos/test hook: the token self-cancels on the (n+1)-th probe after
  /// arming (n probes pass).  Deterministic for single-threaded decodes,
  /// which is exactly how the chaos harness injects "deadline expiry" at a
  /// reproducible point without touching the clock.
  void trip_after_probes(std::int64_t n) {
    probe_countdown_.store(n, std::memory_order_relaxed);
  }

 private:
  friend class CancelProbe;
  std::atomic<std::uint8_t> state_{0};
  std::atomic<std::int64_t> probe_countdown_{-1};  ///< < 0 = unarmed
};

/// A point on the steady clock before which work must finish.  Default
/// constructed = unarmed (never expires).
class Deadline {
 public:
  Deadline() = default;

  /// A deadline `us` microseconds from now (clamped to non-negative).
  static Deadline after(DurationUs us) {
    Deadline d;
    d.armed_ = true;
    d.when_ = std::chrono::steady_clock::now() +
              std::chrono::microseconds(us < 0 ? 0 : us);
    return d;
  }

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
  /// Cooperative cancel shared with the caller (not owned).
  CancellationToken* token = nullptr;
  /// Wall-clock bound, absolute: every ladder tier of one
  /// Correlator::correlate call shares it.
  Deadline deadline{};
  /// Packet-access bound per decode attempt (same metric as
  /// CorrelationResult::cost); 0 = unlimited.  Distinct from the paper's
  /// cost_bound (see header).
  std::uint64_t max_cost = 0;

  bool enabled() const {
    return token != nullptr || deadline.armed() || max_cost != 0;
  }
};

/// The poll object a correlator's inner loops call.  One probe per run,
/// never shared across threads (the decodes themselves are serial; only
/// sweep points run concurrently, each with its own probe).
class CancelProbe {
 public:
  /// Disabled probe: should_stop is `false` at the cost of one branch.
  CancelProbe() = default;

  explicit CancelProbe(const DecodeBudget& budget)
      : token_(budget.token),
        deadline_(budget.deadline),
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

  CancellationToken* token_ = nullptr;
  Deadline deadline_{};
  std::uint64_t max_cost_ = 0;
  bool armed_ = false;
  StopReason reason_ = StopReason::kNone;
  std::uint64_t calls_ = 0;
};

}  // namespace sscor
