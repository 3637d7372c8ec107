// Public result and configuration types of the correlation engine.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sscor/matching/candidate_sets.hpp"
#include "sscor/util/cancellation.hpp"
#include "sscor/util/time.hpp"
#include "sscor/watermark/watermark.hpp"

namespace sscor {

/// The paper's four best-watermark decoding algorithms (§3.3).
enum class Algorithm {
  kBruteForce,  ///< Algorithm 1: exhaustive, exact, exponential
  kGreedy,      ///< Algorithm 2: per-bit extremes, O(n), highest FP
  kGreedyPlus,  ///< Algorithm 3: + order-constraint repair & local search
  kGreedyStar,  ///< Algorithm 4: + bounded exhaustive final phase
};

std::string to_string(Algorithm algorithm);

struct CorrelatorConfig {
  /// The timing constraint Delta: clock-adjustment error + maximum attacker
  /// perturbation + other delays.
  DurationUs max_delay = seconds(std::int64_t{7});
  /// Report "correlated" when the best watermark is within this Hamming
  /// distance of the embedded one.
  std::uint32_t hamming_threshold = 7;
  /// Packet-access budget for the bounded algorithms (Greedy*'s final
  /// phase and Brute Force).  The paper uses 10^6.
  std::uint64_t cost_bound = 1'000'000;
  /// Optional quantized-packet-size matching constraint (paper §3.2).
  std::optional<SizeConstraint> size_constraint;
  /// Resilience budget: deadline / operational cost cap.  Defaults to
  /// disabled, in which case Correlator::correlate is one decode,
  /// byte-identical to a budget-free build (the probes short-circuit);
  /// set, it drives the degradation ladder.
  DecodeBudget budget;
};

struct CorrelationResult {
  Algorithm algorithm = Algorithm::kGreedyPlus;
  /// The decision: is the suspicious flow a downstream flow of ours?
  bool correlated = false;
  /// Hamming distance of the best decodable watermark to the embedded one.
  /// Meaningful only when `matching_complete` (otherwise the flows were
  /// rejected before any decoding).
  std::uint32_t hamming = 0;
  /// The best watermark found (empty when rejected before decoding).
  Watermark best_watermark;
  /// Packets accessed (the paper's cost metric), including matching.
  std::uint64_t cost = 0;
  /// False when some upstream packet had no match in the suspicious flow —
  /// an immediate negative under the paper's assumptions.  Algorithms that
  /// never compute full matching sets (Greedy) always report true.
  bool matching_complete = true;
  /// True when the algorithm stopped at its cost bound (Greedy*/BruteForce)
  /// and returned its best-so-far watermark.
  bool cost_bound_hit = false;
  /// True when the run was stopped cooperatively because its DecodeBudget
  /// ran out (deadline or resilience cost cap).  The remaining fields still
  /// describe a self-consistent best-so-far decode.
  bool interrupted = false;
  /// Why the run was interrupted (kNone when it ran to completion).
  StopReason stop_reason = StopReason::kNone;
  /// Set by Correlator::correlate when the configured algorithm exhausted
  /// its budget and a cheaper ladder tier produced this result;
  /// `algorithm` then names the tier that actually ran.
  bool degraded = false;
};

}  // namespace sscor
