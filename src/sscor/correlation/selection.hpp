// Mutable selection state over pruned candidate sets.
//
// A *selection* assigns each relevant upstream packet (slot) one candidate
// downstream packet; the watermark is decoded from the selected packets'
// timestamps.  SelectionState implements the shared machinery of Greedy+
// and Greedy* (paper §3.3.3-§3.3.4):
//
//  * greedy initialisation (each slot takes its preferred extreme),
//  * order-constraint repair (phase 3): keep first-matches, re-point
//    last-matches to the latest non-conflicting candidate,
//  * cached per-bit D values and Hamming distance,
//  * the phase-4 move primitive: advance one slot toward its greedy
//    preference, cascade later slots to restore strict ordering, and commit
//    only when the move improves the focus bit without flipping any
//    currently-matching bit.
//
// Every downstream timestamp read counts one access on the cost meter.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sscor/matching/candidate_sets.hpp"
#include "sscor/matching/cost_meter.hpp"
#include "sscor/watermark/decode_plan.hpp"
#include "sscor/watermark/decoder.hpp"

namespace sscor {

class SelectionState {
 public:
  /// `sets` must be pruned and complete; `downstream_ts` must outlive the
  /// state.  Initialises every slot to its greedy-preferred extreme and
  /// computes the per-bit D values.
  SelectionState(const DecodePlan& plan, const CandidateSets& sets,
                 std::span<const TimeUs> downstream_ts, CostMeter& cost);

  std::uint32_t slot_count() const {
    return static_cast<std::uint32_t>(positions_.size());
  }

  /// Candidate list of a slot (by upstream packet).
  std::span<const std::uint32_t> candidates(std::uint32_t slot) const;

  /// Currently selected candidate position / downstream index of a slot.
  std::uint32_t position(std::uint32_t slot) const { return positions_[slot]; }
  std::uint32_t down_index(std::uint32_t slot) const {
    return candidates(slot)[positions_[slot]];
  }

  /// True when the slot still sits on its greedy-preferred extreme.
  bool at_greedy_choice(std::uint32_t slot) const {
    return positions_[slot] == greedy_positions_[slot];
  }

  /// Phase-3 repair: make the selected downstream indices strictly
  /// increasing in slot order.  Requires pruned sets (first matches are
  /// then always conflict-free).  Recomputes the bit differences.
  void repair_order();

  /// Unnormalised D of a bit under the current selection (cached).
  DurationUs bit_diff(std::uint32_t bit) const { return bit_diffs_[bit]; }

  std::uint8_t decoded_bit(std::uint32_t bit) const {
    return decode_bit(bit_diffs_[bit]);
  }

  bool bit_matches(std::uint32_t bit) const {
    return decoded_bit(bit) == plan_->target_bits()[bit];
  }

  std::uint32_t hamming() const;

  Watermark decode() const;

  /// Whether the current selection is strictly increasing (order
  /// constraint); greedy initialisation generally is not.
  bool order_consistent() const;

  enum class MoveOutcome {
    kCommitted,   ///< selection updated, caches refreshed
    kRejected,    ///< feasible but did not improve / flipped a matched bit
    kInfeasible,  ///< no further candidate / cascade ran off a set
  };

  /// Phase-4 primitive: move `slot` one candidate later (toward its greedy
  /// preference), cascading subsequent slots to the smallest candidates
  /// that restore strict ordering.  Commits only when the move strictly
  /// improves bit `focus_bit`'s D toward its wanted sign and no currently-
  /// matching bit flips.
  MoveOutcome try_advance(std::uint32_t slot, std::uint32_t focus_bit);

  /// Replaces the selection wholesale (used by Greedy* to adopt the best
  /// enumerated combination) and recomputes the caches.
  void set_positions(std::vector<std::uint32_t> positions);

  const DecodePlan& plan() const { return *plan_; }
  std::span<const std::uint32_t> positions() const { return positions_; }

 private:
  TimeUs ts_at(std::uint32_t down_idx) const;
  DurationUs compute_bit_diff(
      std::uint32_t bit,
      std::span<const std::pair<std::uint32_t, std::uint32_t>> overrides)
      const;
  void recompute_all_bits();

  const DecodePlan* plan_;
  const CandidateSets* sets_;
  std::span<const TimeUs> downstream_ts_;
  CostMeter* cost_;
  std::vector<std::uint32_t> positions_;
  std::vector<std::uint32_t> greedy_positions_;
  std::vector<DurationUs> bit_diffs_;
  // try_advance scratch, reused across the phase-4 hot loop so a rejected
  // move costs no allocation.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> scratch_changes_;
  std::vector<std::uint32_t> scratch_affected_;
  std::vector<DurationUs> scratch_new_diffs_;
};

}  // namespace sscor
