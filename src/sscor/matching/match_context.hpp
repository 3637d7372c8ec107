// The shared, watermark-independent match context.
//
// Every matching-based decoder (Greedy+, Greedy*, Brute Force) starts from
// the same watermark-independent step: scan the matching windows under the
// [0, Delta] delay constraint (paper §3.2), materialise per-upstream-packet
// candidate sets (optionally size-filtered), and prune candidates that
// appear in no complete order-preserving assignment.  Greedy needs only
// the windows of its embedding packets.  The evaluation pipeline runs
// three or more decoders over the same (upstream, downstream) pair, and a
// defender may decode many key hypotheses against one pair, so rebuilding
// that artifact per decode pays the dominant matching cost several times
// over.
//
// MatchContext computes the artifact once for its one consumer, the
// batched decode engine (batch::BatchDecoder, behind Correlator::correlate).
// It is immutable after build() and holds
//
//   * zero-copy timestamp views into both flows,
//   * the scan_match_windows output,
//   * the upstream packets' pre-quantized sizes (size-constraint runs),
//   * one set of candidate sets, pruned in place when they are complete,
//   * the *recorded access-trace counts* of the build and prune phases.
//
// The recorded counts are the heart of the cost-replay invariant (see
// DESIGN.md "Match-context sharing and the cost-replay invariant"): a
// decode over the context charges its own CostMeter exactly the recorded
// counts, so the paper's reported packet-access metric is byte-identical
// to the scalar reference run_* decoders, which always run the matching
// phase themselves.  Greedy replays no recorded count: its reference cost
// is two binary searches per embedding packet, and it is charged their
// probe count (lower_bound_probes) from each window's bounds.  The parity
// tests pin this down for every algorithm.
//
// Lifetime: the context stores views into the two flows, which must outlive
// it.  A context is keyed by (upstream, downstream, Delta, size constraint);
// matches() lets consumers verify the key before trusting the cache.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sscor/flow/flow.hpp"
#include "sscor/matching/candidate_sets.hpp"
#include "sscor/matching/match_windows.hpp"

namespace sscor {

/// The watermark-independent parameters a MatchContext is keyed by (the
/// flows themselves form the rest of the key).
struct MatchContextKey {
  DurationUs max_delay = 0;
  std::optional<SizeConstraint> size;

  friend bool operator==(const MatchContextKey&,
                         const MatchContextKey&) = default;
};

class MatchContext {
 public:
  /// Runs the full watermark-independent matching phase once: window scan,
  /// candidate-set build (size-filtered when `size` is set), and — when the
  /// built sets are complete — the order-constraint pruning, recording the
  /// packet-access count of each phase.  `upstream` and `downstream` must
  /// outlive the context.
  static MatchContext build(const Flow& upstream, const Flow& downstream,
                            DurationUs max_delay,
                            const std::optional<SizeConstraint>& size);

  /// True when this context was built for exactly this pair and key.  The
  /// flow check is by identity: a context never outlives its flows, and
  /// consumers must not guess at value equality.
  bool matches(const Flow& upstream, const Flow& downstream,
               DurationUs max_delay,
               const std::optional<SizeConstraint>& size) const {
    return upstream_ == &upstream && downstream_ == &downstream &&
           key_ == MatchContextKey{max_delay, size};
  }

  const MatchContextKey& key() const { return key_; }

  std::span<const TimeUs> upstream_ts() const {
    return upstream_->timestamps();
  }
  std::span<const TimeUs> downstream_ts() const {
    return downstream_->timestamps();
  }

  /// The scan_match_windows output over the pair.  Without a size
  /// constraint the built candidate sets are exactly these windows.
  std::span<const MatchWindow> windows() const { return windows_; }

  /// Upstream packet sizes quantized to the size constraint's block (empty
  /// without a size constraint).  Hoisted here so size-constrained builds
  /// quantize each upstream packet exactly once per context.
  std::span<const std::uint32_t> upstream_quantized_sizes() const {
    return up_quantized_;
  }

  /// Downstream packet sizes quantized to the size constraint's block
  /// (empty without a size constraint), computed in one flat kernel sweep.
  /// Overlapping windows examine the same downstream packet many times;
  /// the sweep replaces each re-quantization with an array read.  The cost
  /// metric is unchanged: build_from_windows still counts one access per
  /// examined candidate.
  std::span<const std::uint32_t> downstream_quantized_sizes() const {
    return down_quantized_;
  }

  /// True when every upstream packet had at least one candidate after the
  /// build.
  bool complete() const { return complete_; }

  /// The candidate sets, strictly pruned in place.  Valid only when
  /// prune_ok(): otherwise they are unpruned (incomplete build) or
  /// partially pruned (pruning failed).
  const CandidateSets& pruned_sets() const { return sets_; }

  /// True when the built sets were complete and pruning kept them complete
  /// (i.e. some complete order-preserving assignment exists).
  bool prune_ok() const { return prune_ok_; }

  /// Recorded packet accesses of the window scan + candidate-set build.
  std::uint64_t build_cost() const { return build_cost_; }

  /// Recorded packet accesses of the strict pruning pass (0 when the built
  /// sets were incomplete and pruning never ran).
  std::uint64_t prune_cost() const { return prune_cost_; }

 private:
  MatchContext() = default;

  const Flow* upstream_ = nullptr;
  const Flow* downstream_ = nullptr;
  MatchContextKey key_;
  std::vector<MatchWindow> windows_;
  std::vector<std::uint32_t> up_quantized_;
  std::vector<std::uint32_t> down_quantized_;
  CandidateSets sets_;
  bool complete_ = false;
  bool prune_ok_ = false;
  std::uint64_t build_cost_ = 0;
  std::uint64_t prune_cost_ = 0;
};

}  // namespace sscor
