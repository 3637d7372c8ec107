// Algorithm 2 — Greedy (paper §3.3.2).
//
// For each watermark bit the algorithm independently selects, per pair, the
// matching packets that push D as far as possible toward the wanted bit
// (figure 2: the largest IPD uses the first match of the pair's first
// packet and the last match of its second; the smallest IPD the opposite).
// It never checks consistency across bits or the order constraint, which
// makes it O(n), gives it the best achievable detection rate — its Hamming
// distance lower-bounds every order-consistent subsequence's, a property
// the test suite verifies against Brute Force — and the worst false-
// positive rate.
//
// Greedy only ever needs the matching windows of the ~4rl relevant packets,
// which it locates by binary search instead of the full O(m) matching scan;
// that is why its measured cost stays nearly flat as chaff grows (fig. 7).

#pragma once

#include "sscor/correlation/result.hpp"
#include "sscor/flow/flow.hpp"
#include "sscor/watermark/key_schedule.hpp"
#include "sscor/watermark/watermark.hpp"

namespace sscor {

/// Runs Greedy for `target` over `schedule`.  `upstream` is the
/// watermarked upstream flow the schedule indexes into; `downstream` the
/// suspicious flow.  Like the other three scalar runners, it builds its own
/// DecodePlan.
///
/// This scalar runner is the reference for Greedy's cost model, the ~4rl
/// binary-search window probes (fig. 7).  The batched engine decodes Greedy
/// from a MatchContext's scan output instead and charges the same probes
/// (lower_bound_probes of each window bound); the parity suite compares
/// the two.
CorrelationResult run_greedy(const KeySchedule& schedule,
                             const Watermark& target, const Flow& upstream,
                             const Flow& downstream,
                             const CorrelatorConfig& config);

}  // namespace sscor
