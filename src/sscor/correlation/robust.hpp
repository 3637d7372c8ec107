// Loss-tolerant correlation — the paper's §6 future work, implemented.
//
// The four main algorithms assume every upstream packet reaches the
// downstream flow as one packet; real relays drop packets and coalesce
// close ones (re-packetization), which empties some matching sets and
// makes the strict algorithms reject immediately
// (bench/ablation_loss shows detection collapsing at 2% loss).
//
// The robust variant tolerates a bounded fraction of unmatched upstream
// packets: it treats them as lost, drops the watermark pairs they carry,
// decodes the remaining redundancy, and counts bits that lose all their
// pairs as mismatches.  It runs phases 1-3 of Greedy+ (gap-aware pruning,
// greedy gate, order repair); the phase-4 local search is intentionally
// omitted — with pairs missing, its improvement guarantee no longer holds.
// A coalesced packet consumes one of the merge's inputs as "lost", so the
// same tolerance budget covers light re-packetization.

#pragma once

#include "sscor/correlation/result.hpp"
#include "sscor/flow/flow.hpp"
#include "sscor/watermark/key_schedule.hpp"
#include "sscor/watermark/watermark.hpp"

namespace sscor {

struct RobustOptions {
  /// Fraction of upstream packets allowed to have no match before the
  /// pair is rejected outright.
  double max_unmatched_fraction = 0.05;
};

/// Runs the loss-tolerant Greedy+ variant, matching phase included.
CorrelationResult run_greedy_plus_robust(const KeySchedule& schedule,
                                         const Watermark& target,
                                         const Flow& upstream,
                                         const Flow& downstream,
                                         const CorrelatorConfig& config,
                                         const RobustOptions& options = {});

}  // namespace sscor
