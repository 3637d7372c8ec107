// Algorithm 4 — Greedy* (paper §3.3.4).
//
// Identical to Greedy+ through phase 3; the final phase exhaustively
// enumerates the order-consistent combinations of matching packets for the
// packets behind the still-mismatched bits (all other selections held
// fixed) and keeps the best watermark.  The run is subject to a cost bound
// (10^6 packet accesses in the paper); when the bound is hit the best
// watermark found so far is returned.

#pragma once

#include "sscor/correlation/result.hpp"
#include "sscor/flow/flow.hpp"
#include "sscor/watermark/key_schedule.hpp"
#include "sscor/watermark/watermark.hpp"

namespace sscor {

CorrelationResult run_greedy_star(const KeySchedule& schedule,
                                  const Watermark& target,
                                  const Flow& upstream, const Flow& downstream,
                                  const CorrelatorConfig& config);

}  // namespace sscor
