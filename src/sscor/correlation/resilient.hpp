// Graceful-degradation front end over the correlation engine.
//
// The matching-complete decoders have combinatorial worst cases (paper
// §3.3): a single adversarial pair can pin a traceback service for seconds.
// ResilientCorrelator turns that hazard into a bounded-latency decision by
// running the configured algorithm under a DecodeBudget and, when the
// budget interrupts it, falling back tier by tier down a fixed ladder of
// strictly cheaper algorithms:
//
//     BruteForce  →  Greedy*  →  Greedy+  →  Greedy
//
// The ladder starts at the configured algorithm; the final tier runs with
// the wall-clock and cost caps removed (only an explicit caller cancel can
// stop it), so every correlate() call yields a usable decision.  Results
// produced below the configured tier carry `degraded = true`, and
// `algorithm` names the tier that actually ran.
//
// With all ResilientOptions disabled the ladder collapses to exactly one
// budget-free attempt of the configured algorithm — byte-identical to
// Correlator::correlate.

#pragma once

#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/util/cancellation.hpp"

namespace sscor {

/// The fallback ladder starting at `preferred`: `preferred` first, then
/// every strictly cheaper tier in the fixed order BruteForce → Greedy* →
/// Greedy+ → Greedy.  Never empty; Greedy is always last.
std::vector<Algorithm> fallback_ladder(Algorithm preferred);

struct ResilientOptions {
  /// Wall-clock budget, shared by the whole attempt sequence (tiers do not
  /// get fresh clocks).  0 = no deadline.
  DurationUs deadline_us = 0;
  /// Packet-access cap per attempt (the resilience cap, not the paper's
  /// cost_bound — see cancellation.hpp).  0 = unlimited.
  std::uint64_t max_cost_per_attempt = 0;
  /// Optional cooperative cancel shared with the caller (not owned).  An
  /// explicit cancel aborts the ladder — it never falls back.
  CancellationToken* token = nullptr;

  bool enabled() const {
    return deadline_us > 0 || max_cost_per_attempt != 0 || token != nullptr;
  }
};

class ResilientCorrelator {
 public:
  ResilientCorrelator(CorrelatorConfig config, Algorithm preferred,
                      ResilientOptions options = {});

  /// Same contract as Correlator::correlate, plus the degradation ladder:
  /// the result is the first tier's decision that completed within budget
  /// (or the final tier's, which always completes).  `degraded` is set when
  /// any tier below `preferred` produced it.  An explicit token cancel
  /// returns the best-so-far of the tier that was running, interrupted.
  /// Without a `context`, the pair's MatchContext is built once here and
  /// every tier decodes from it.
  CorrelationResult correlate(const WatermarkedFlow& watermarked,
                              const Flow& suspicious,
                              const MatchContext* context = nullptr) const;

  const CorrelatorConfig& config() const { return config_; }
  Algorithm preferred() const { return ladder_.front(); }
  const ResilientOptions& options() const { return options_; }

 private:
  CorrelatorConfig config_;
  ResilientOptions options_;
  std::vector<Algorithm> ladder_;
};

}  // namespace sscor
