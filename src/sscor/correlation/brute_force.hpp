// Algorithm 1 — Brute Force (paper §3.3.1).
//
// Enumerates every order-consistent complete assignment of upstream packets
// to matching candidates and decodes the watermark of each; the minimum
// Hamming distance found is exact.  Cost is ~prod |M(p_i)| — exponential —
// so it serves as small-scale ground truth for the other algorithms (the
// property suite checks Greedy's lower bound and Greedy*'s optimality
// against it) rather than as a practical correlator.  The enumeration
// always runs to the exact optimum, so the `differential` oracle can use it
// as ground truth.  The batched engine's port (matching/batch_kernel.hpp)
// decodes exactly like this runner with its default options.

#pragma once

#include "sscor/correlation/result.hpp"
#include "sscor/flow/flow.hpp"
#include "sscor/watermark/key_schedule.hpp"
#include "sscor/watermark/watermark.hpp"

namespace sscor {

/// The one option, for tests: production decodes always prune.
struct BruteForceOptions {
  /// Apply the phase-1 pruning before enumerating.  Pruning removes only
  /// candidates that occur in no complete assignment, so the optimum is
  /// unchanged; disabling it is useful for validating pruning itself.
  bool prune = true;
};

CorrelationResult run_brute_force(const KeySchedule& schedule,
                                  const Watermark& target,
                                  const Flow& upstream, const Flow& downstream,
                                  const CorrelatorConfig& config,
                                  const BruteForceOptions& options = {});

}  // namespace sscor
