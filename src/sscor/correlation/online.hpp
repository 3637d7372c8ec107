// Online (streaming) correlation.
//
// A deployed tracer watches live traffic: downstream packets arrive one at
// a time, and waiting for the whole capture before deciding wastes both
// memory bandwidth and reaction time.  OnlineCorrelator ingests packets in
// arrival order and maintains the matching windows of every upstream
// packet incrementally (two monotone cursors, O(1) amortised per packet).
// A window is *final* once a packet beyond its upper bound has arrived —
// nothing later can enter it.  Finality enables two sound early exits,
// long before the stream ends:
//
//  * an upstream packet whose window finalises empty can never be matched
//    — under the paper's assumptions the pair is immediately negative;
//  * per watermark bit, once all of its windows are final, the greedy
//    extreme over those windows lower-bounds every order-consistent
//    decoding of that bit (the paper's Greedy bound); if the number of
//    provably-unmatchable bits exceeds the Hamming threshold, no future
//    packet can save the pair.
//
// The final verdict (when neither early exit fired) is produced by the
// configured offline algorithm over the buffered flow and is bit-identical
// to running it offline — a property pinned by the golden interleaving test
// in tests/correlation_test.cpp and the streaming parity suite.
//
// Two ownership modes:
//
//  * Standalone (the original API): the correlator copies the watermarked
//    flow and owns its downstream buffer; feed it with ingest().
//  * Shared (the streaming engine's mode): the upstream side lives in one
//    immutable OnlineUpstream shared by every pair tracking that
//    watermarked flow, and the downstream packets live in one
//    AppendOnlyFlow shared by every pair tracking that suspicious flow.
//    The engine appends to the buffer once and calls ingest_appended() on
//    each undecided pair — N upstreams x M flows cost one packet copy, not
//    N copies, which is what lets tens of thousands of concurrent pairs
//    fit in bounded memory.

#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/flow/flow.hpp"
#include "sscor/matching/match_windows.hpp"
#include "sscor/watermark/decode_plan.hpp"
#include "sscor/watermark/embedder.hpp"

namespace sscor {

/// The immutable per-upstream half of an online decode, shared by every
/// pair tracking the same watermarked flow: the flow itself and its decode
/// plan, which also maps upstream indices to slots.  Building these once
/// per upstream (instead of once per pair) is what the streaming flow
/// table relies on.
class OnlineUpstream {
 public:
  explicit OnlineUpstream(WatermarkedFlow watermarked);

  const WatermarkedFlow& watermarked() const { return watermarked_; }
  const DecodePlan& plan() const { return plan_; }
  std::span<const TimeUs> timestamps() const {
    return watermarked_.flow.timestamps();
  }

 private:
  WatermarkedFlow watermarked_;
  DecodePlan plan_;
};

struct OnlineOptions {
  /// When false the two early exits never fire: the correlator only
  /// maintains windows and buffers, and the verdict is always the offline
  /// algorithm over the full stream — byte-identical to the batch pipeline
  /// even for pairs the exits would have rejected.  The streaming parity
  /// suite runs both modes.
  bool early_exit = true;
};

class OnlineCorrelator {
 public:
  /// Standalone mode: `watermarked` is copied (the upstream side is fully
  /// known up front — the defender produced it) and the correlator owns
  /// its downstream buffer.
  OnlineCorrelator(WatermarkedFlow watermarked, CorrelatorConfig config,
                   Algorithm algorithm = Algorithm::kGreedyPlus,
                   OnlineOptions options = {});

  /// Shared mode: upstream state and the downstream buffer are owned by
  /// the caller (the streaming engine) and shared across pairs.  Feed with
  /// ingest_appended() after appending to `downstream`.
  OnlineCorrelator(std::shared_ptr<const OnlineUpstream> upstream,
                   std::shared_ptr<const AppendOnlyFlow> downstream,
                   CorrelatorConfig config,
                   Algorithm algorithm = Algorithm::kGreedyPlus,
                   OnlineOptions options = {});

  /// Standalone mode only: appends the next downstream packet (timestamps
  /// must be non-decreasing) and processes it.  Returns true while the
  /// pair is still undecided (callers may stop feeding once it returns
  /// false).
  bool ingest(const PacketRecord& packet);

  /// Processes every packet appended to the shared downstream buffer since
  /// the last call.  Returns true while the pair is still undecided.
  bool ingest_appended();

  /// Declares the stream over: every window still open is finalised at
  /// the current end of stream.
  void finish();

  /// True once an early exit fired or finish() was called.
  bool decided() const { return early_rejected_ || finished_; }

  /// True when the pair was rejected before the stream ended.
  bool early_rejected() const { return early_rejected_; }

  /// Fraction of upstream packets whose matching window is final.
  double finalized_fraction() const;

  /// Watermark bits already provably unmatchable (greedy bound over final
  /// windows).  Monotically non-decreasing; the pair is rejected when it
  /// exceeds the Hamming threshold.
  std::uint32_t provably_mismatched_bits() const { return doomed_bits_; }

  /// Packets processed so far (equals the buffer length until the pair
  /// decides, then freezes).
  std::size_t packets_seen() const { return next_index_; }

  /// The verdict.  Available after decided(); early rejections synthesise
  /// a negative result, otherwise the configured offline algorithm runs
  /// over the buffered flow.
  CorrelationResult result();

 private:
  void process(std::uint32_t j, const PacketRecord& packet);
  void finalize_window(std::uint32_t index);
  void check_bit(std::uint32_t bit);

  std::shared_ptr<const OnlineUpstream> upstream_;
  std::shared_ptr<const AppendOnlyFlow> downstream_;
  /// Standalone mode appends into the same buffer downstream_ views.
  std::shared_ptr<AppendOnlyFlow> owned_downstream_;
  CorrelatorConfig config_;
  Algorithm algorithm_;
  OnlineOptions options_;

  /// View into the upstream flow's timestamp cache (owned by upstream_,
  /// which this object keeps alive).
  std::span<const TimeUs> up_ts_;
  std::vector<MatchWindow> windows_;
  std::vector<std::uint32_t> final_slots_per_bit_;
  std::vector<bool> bit_checked_;

  std::uint32_t next_index_ = 0;  ///< next downstream index to process
  std::uint32_t lo_cursor_ = 0;   ///< next upstream index awaiting its lo
  std::uint32_t hi_cursor_ = 0;   ///< next upstream index awaiting its hi
  std::uint32_t doomed_bits_ = 0;
  bool early_rejected_ = false;
  bool finished_ = false;
  std::optional<CorrelationResult> cached_result_;
};

}  // namespace sscor
