// Materialised matching sets with optional size filtering and the
// duplicate-first/last pruning of the Greedy+ algorithm's first phase.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sscor/flow/flow.hpp"
#include "sscor/matching/cost_meter.hpp"
#include "sscor/matching/match_windows.hpp"

namespace sscor {

/// Optional matching constraint from quantized packet sizes (paper §3.2):
/// a downstream packet can match an upstream packet only when their payload
/// sizes round up to the same multiple of `block_bytes` (an SSH block
/// cipher pads to the block boundary, so sizes survive re-encryption only
/// modulo the block).
struct SizeConstraint {
  std::uint32_t block_bytes = 16;

  friend bool operator==(const SizeConstraint&,
                         const SizeConstraint&) = default;
};

/// Per-upstream-packet candidate lists (sorted downstream indices).
class CandidateSets {
 public:
  /// Builds candidate sets for every upstream packet using the O(m)
  /// matching scan, then applies the optional size constraint (reading a
  /// packet size counts as an access).
  static CandidateSets build(const Flow& upstream, const Flow& downstream,
                             DurationUs max_delay,
                             const std::optional<SizeConstraint>& size,
                             CostMeter& cost);

  /// Builds candidate sets from precomputed matching windows (the
  /// watermark-independent scan output that MatchContext caches).
  /// `up_quantized` may supply the upstream packets' pre-quantized sizes
  /// (one entry per upstream packet) so repeated builds skip the upstream
  /// quantization; pass empty to quantize inline.  `down_quantized` may
  /// likewise supply the downstream packets' pre-quantized sizes (one
  /// entry per downstream packet, from MatchContext's flat kernel sweep) so
  /// the overlapping windows stop re-quantizing the same packet.  Cost
  /// accounting is identical to build() either way: each *examined*
  /// downstream candidate still counts one size read.  Without a size
  /// constraint nothing is examined and nothing is copied: each set is its
  /// window, a slice of one index array over the downstream packets, so
  /// the build is O(m) whatever the windows' overlap.
  static CandidateSets build_from_windows(
      std::span<const MatchWindow> windows, const Flow& upstream,
      const Flow& downstream, const std::optional<SizeConstraint>& size,
      std::span<const std::uint32_t> up_quantized, CostMeter& cost,
      std::span<const std::uint32_t> down_quantized = {});

  std::size_t upstream_size() const { return ranges_.size(); }

  std::span<const std::uint32_t> set(std::size_t i) const {
    const Range& r = ranges_.at(i);
    return {flat_.data() + r.begin, r.end - r.begin};
  }

  /// True when every upstream packet has at least one candidate — the
  /// paper's necessary condition for the flows to share a connection chain.
  bool complete() const;

  /// Phase-1 pruning: removes candidates that cannot occur in any complete
  /// order-preserving assignment (generalises the paper's "remove duplicate
  /// first or last packets").  A forward pass enforces strictly increasing
  /// set minima, a backward pass strictly decreasing set maxima.  Returns
  /// false when some set empties, i.e. no complete assignment exists.
  /// Each removed or inspected candidate counts one access.
  bool prune(CostMeter& cost);

  /// Gap-tolerant variant for the loss-robust correlator: upstream packets
  /// with empty candidate sets (lost or merged downstream) are skipped by
  /// the chains instead of failing.  Returns false when more than
  /// `max_empty` sets are empty or when pruning empties a non-empty set
  /// beyond that budget.
  bool prune_allowing_gaps(CostMeter& cost, std::size_t max_empty);

  /// Number of upstream packets currently without any candidate.
  std::size_t empty_count() const;

  bool pruned() const { return pruned_; }

 private:
  // All candidate lists live in one contiguous array; each upstream packet
  // owns the half-open slice [begin, end).  A size-filtered build stores
  // each packet's surviving candidates back to back; an unfiltered one
  // stores the downstream indices 0..m-1 once, and overlapping windows
  // share their slices of it.  Both prune variants only ever trim a
  // prefix / suffix of a (sorted) list, so pruning just narrows the slice
  // and never touches the flat array.
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<std::uint32_t> flat_;
  std::vector<Range> ranges_;
  bool pruned_ = false;
};

}  // namespace sscor
