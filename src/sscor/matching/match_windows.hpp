// Matching-set computation under the timing constraint (paper §3.2).
//
// The matching set of upstream packet p_i in suspicious flow f' is
//   M(p_i) = { p'_j : 0 <= t'_j - t_i <= Delta }.
// Because f' is time-ordered, every matching set is one contiguous index
// window [lo, hi).  Windows of consecutive upstream packets are monotone
// (t_i non-decreasing implies lo/hi non-decreasing), so the scan walks two
// forward-only pointers and touches each downstream packet at most twice —
// the O(m) bound of the paper's scan heuristic.

#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "sscor/matching/cost_meter.hpp"
#include "sscor/util/time.hpp"

namespace sscor {

/// A half-open range [lo, hi) of downstream packet indices.
struct MatchWindow {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;

  bool empty() const { return lo >= hi; }
  std::uint32_t size() const { return empty() ? 0 : hi - lo; }

  friend bool operator==(const MatchWindow&, const MatchWindow&) = default;
};

/// Computes M(p_i) for every upstream timestamp with the two-pointer scan.
/// Each pointer advance counts one packet access on `cost`.
std::vector<MatchWindow> scan_match_windows(
    std::span<const TimeUs> upstream, std::span<const TimeUs> downstream,
    DurationUs max_delay, CostMeter& cost);

/// The paper's own scan heuristic (§3.2), verbatim: starting from
/// M(p_i) = [lo, hi), M(p_{i+1}) is found by scanning forward from lo when
/// t_{i+1} - t_i <= Delta/2, backward from hi-1 when Delta/2 < t_{i+1} -
/// t_i <= Delta, and forward from hi when the windows cannot overlap.
/// Produces exactly the same windows as scan_match_windows (a tested
/// property) with the same O(m) bound; kept as the faithful reference and
/// for the cost-accounting comparison in the micro benchmarks.
std::vector<MatchWindow> scan_match_windows_paper_heuristic(
    std::span<const TimeUs> upstream, std::span<const TimeUs> downstream,
    DurationUs max_delay, CostMeter& cost);

/// Tight-loop variant of scan_match_windows for the batched decode engine:
/// identical windows and identical access counts, but the per-element
/// cost.count() calls are replaced by arithmetic on the pointer distances
/// (one bulk count at the end) and the output reuses `out`'s storage, so
/// repeated scans allocate nothing.  MatchContext::build scans through this
/// entry point; scan_match_windows stays as the counting reference the
/// parity tests compare against.
void scan_match_windows_batched(std::span<const TimeUs> upstream,
                                std::span<const TimeUs> downstream,
                                DurationUs max_delay, CostMeter& cost,
                                std::vector<MatchWindow>& out);

/// Computes the matching window of a single timestamp by binary search —
/// O(log m) accesses.  This is Greedy's cost model: it only needs the
/// embedding packets' windows, so it is charged the probes of two binary
/// searches per packet instead of the full scan (what keeps its measured
/// cost nearly flat in chaff; see DESIGN.md §4).  The scalar run_greedy
/// searches through this function; the batched engine reads the windows
/// from its MatchContext and charges lower_bound_probes() instead.
MatchWindow find_match_window(TimeUs upstream_time,
                              std::span<const TimeUs> downstream,
                              DurationUs max_delay, CostMeter& cost);

/// The number of probes find_match_window's lower-bound search over `n`
/// sorted elements makes when its answer is `answer` (0..n).  The count is
/// a pure function of the two: each probe at the midpoint of the remaining
/// range keeps either the lower half (answer <= mid) or the upper one, so
/// the search path is replayed on indices alone, with no element read.
/// The loop runs a fixed bit_width(n) steps (an exhausted range stops
/// counting: there lo == answer, so it stays exhausted) and selects each
/// step's half arithmetically, so the only branch is the loop's own.
constexpr std::uint32_t lower_bound_probes(std::uint32_t n,
                                           std::uint32_t answer) {
  std::uint32_t probes = 0;
  std::uint32_t lo = 0;
  std::uint32_t size = n;
  for (auto step = static_cast<std::uint32_t>(std::bit_width(n)); step > 0;
       --step) {
    probes += size != 0 ? 1 : 0;
    const std::uint32_t half = size / 2;
    const std::uint32_t upper = lo + half < answer ? 1 : 0;
    // Upper half: lo moves past the probe and size - half - 1 remain,
    // which is half for an odd size and half - 1 for an even one.
    lo += upper * (half + 1);
    size = half - (upper & ~size);
  }
  return probes;
}

}  // namespace sscor
