// Algorithm 3 — Greedy+ (paper §3.3.3) and the phase-1..3 machinery it
// shares with Greedy* (Algorithm 4).
//
// Phases:
//  1. Compute matching sets for *every* upstream packet (O(m) scan); reject
//     immediately when some packet has no match.  Prune candidates that can
//     appear in no complete order-preserving assignment.
//  2. Run Greedy on the pruned sets.  Greedy's Hamming distance lower-
//     bounds every order-consistent subsequence's, so if even Greedy
//     exceeds the threshold the pair is rejected; bits Greedy cannot match
//     are *never-match* bits and are skipped from now on.
//  3. Repair the greedy selection into an order-consistent one (keep
//     first-matches, re-point last-matches); accept if within threshold.
//  4. Local search: for each still-mismatched bit in increasing |D|, nudge
//     its packets (last to first) toward their greedy preference whenever
//     that strictly improves the bit without flipping a matched bit; stop
//     as soon as the Hamming distance reaches the threshold.

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sscor/correlation/result.hpp"
#include "sscor/correlation/selection.hpp"
#include "sscor/flow/flow.hpp"
#include "sscor/matching/candidate_sets.hpp"
#include "sscor/util/cancellation.hpp"
#include "sscor/watermark/decode_plan.hpp"
#include "sscor/watermark/key_schedule.hpp"

namespace sscor {

CorrelationResult run_greedy_plus(const KeySchedule& schedule,
                                  const Watermark& target,
                                  const Flow& upstream, const Flow& downstream,
                                  const CorrelatorConfig& config);

namespace detail {

/// State after the shared phases 1-3.  run_shared_phases hands it out
/// behind a unique_ptr, so SelectionState may point into sets and plan.
struct MatchedDecode {
  CostMeter cost;
  std::span<const TimeUs> down_ts;
  /// The pruned sets phase 2+ decodes from.
  CandidateSets sets;
  DecodePlan plan;
  std::unique_ptr<SelectionState> state;
  /// Bits even Greedy cannot match; no selection can fix them.
  std::vector<bool> never_match;
  /// Set when phases 1-3 already decided the outcome.
  std::optional<CorrelationResult> early;
};

/// Runs phases 1-3.  `algorithm` labels the result; `cost_bound` applies to
/// the whole run (Greedy* passes the configured bound, Greedy+ no bound).
/// `probe` is polled between phases; on stop the returned MatchedDecode
/// carries an `early` best-so-far result with `interrupted` set.
std::unique_ptr<MatchedDecode> run_shared_phases(
    const KeySchedule& schedule, const Watermark& target, const Flow& upstream,
    const Flow& downstream, const CorrelatorConfig& config,
    Algorithm algorithm, std::uint64_t cost_bound, CancelProbe& probe);

/// Mismatched, fixable (non-never-match) bits ordered by |D| ascending —
/// the paper's D-minus processing order.
std::vector<std::uint32_t> fixable_mismatches_by_abs_diff(
    const SelectionState& state, const std::vector<bool>& never_match);

/// Builds the result structure from a finished selection state.
CorrelationResult finish_result(Algorithm algorithm,
                                const SelectionState& state,
                                const CostMeter& cost,
                                const CorrelatorConfig& config);

}  // namespace detail

}  // namespace sscor
