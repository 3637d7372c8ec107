#include "sscor/correlation/selection.hpp"

#include <algorithm>

#include "sscor/util/error.hpp"

namespace sscor {

SelectionState::SelectionState(const DecodePlan& plan,
                               const CandidateSets& sets,
                               std::span<const TimeUs> downstream_ts,
                               CostMeter& cost)
    : plan_(&plan),
      sets_(&sets),
      downstream_ts_(downstream_ts),
      cost_(&cost) {
  require(sets.pruned(), "SelectionState requires pruned candidate sets");
  positions_.resize(plan.slot_count());
  greedy_positions_.resize(plan.slot_count());
  for (std::uint32_t s = 0; s < plan.slot_count(); ++s) {
    const auto set = candidates(s);
    check_invariant(!set.empty(), "pruned sets must be complete");
    const auto pos =
        plan.slot_prefer()[s]
            ? 0u
            : static_cast<std::uint32_t>(set.size() - 1);
    positions_[s] = pos;
    greedy_positions_[s] = pos;
  }
  bit_diffs_.resize(plan.bit_count());
  recompute_all_bits();
}

std::span<const std::uint32_t> SelectionState::candidates(
    std::uint32_t slot) const {
  return sets_->set(plan_->slot_up()[slot]);
}

TimeUs SelectionState::ts_at(std::uint32_t down_idx) const {
  cost_->count();
  return downstream_ts_[down_idx];
}

DurationUs SelectionState::compute_bit_diff(
    std::uint32_t bit,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> overrides)
    const {
  auto index_of = [&](std::uint32_t slot) {
    for (const auto& [s, pos] : overrides) {
      if (s == slot) return candidates(slot)[pos];
    }
    return down_index(slot);
  };
  DurationUs sum = 0;
  for (std::uint32_t pair = 0; pair < plan_->pairs_per_bit(); ++pair) {
    const std::size_t p = std::size_t{bit} * plan_->pairs_per_bit() + pair;
    const DurationUs ipd = ts_at(index_of(plan_->pair_second_slot()[p])) -
                           ts_at(index_of(plan_->pair_first_slot()[p]));
    sum += plan_->pair_sign()[p] * ipd;
  }
  return sum;
}

void SelectionState::recompute_all_bits() {
  for (std::uint32_t bit = 0; bit < plan_->bit_count(); ++bit) {
    bit_diffs_[bit] = compute_bit_diff(bit, {});
  }
}

void SelectionState::repair_order() {
  // Walk backwards; the last slot keeps its selection (paper: "we can
  // always stick to its current selection").  Earlier slots that conflict
  // are re-pointed to the latest candidate below the successor's choice.
  // After pruning, each set's minimum is strictly below the successor's
  // minimum, so such a candidate always exists.
  for (std::uint32_t s = slot_count(); s-- > 1;) {
    const std::uint32_t prev = s - 1;
    const std::uint32_t bound = down_index(s);
    if (down_index(prev) < bound) continue;
    const auto set = candidates(prev);
    // Largest candidate strictly below `bound` (binary search; each probe
    // examines one packet record).
    std::uint32_t lo = 0;
    auto hi = static_cast<std::uint32_t>(set.size());
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      cost_->count();
      if (set[mid] < bound) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    check_invariant(lo > 0, "pruning guarantees a conflict-free candidate");
    positions_[prev] = lo - 1;
  }
  recompute_all_bits();
}

std::uint32_t SelectionState::hamming() const {
  std::uint32_t distance = 0;
  for (std::uint32_t bit = 0; bit < plan_->bit_count(); ++bit) {
    distance += !bit_matches(bit);
  }
  return distance;
}

Watermark SelectionState::decode() const {
  std::vector<std::uint8_t> bits;
  bits.reserve(plan_->bit_count());
  for (std::uint32_t bit = 0; bit < plan_->bit_count(); ++bit) {
    bits.push_back(decoded_bit(bit));
  }
  return Watermark(std::move(bits));
}

bool SelectionState::order_consistent() const {
  for (std::uint32_t s = 1; s < slot_count(); ++s) {
    if (down_index(s - 1) >= down_index(s)) return false;
  }
  return true;
}

SelectionState::MoveOutcome SelectionState::try_advance(
    std::uint32_t slot, std::uint32_t focus_bit) {
  const auto own = candidates(slot);
  if (positions_[slot] + 1 >= own.size()) return MoveOutcome::kInfeasible;

  // Build the hypothetical move: slot one step right, later slots cascaded
  // to the smallest candidates restoring strict order.
  auto& changes = scratch_changes_;
  changes.clear();
  changes.emplace_back(slot, positions_[slot] + 1);
  std::uint32_t prev_idx = own[positions_[slot] + 1];
  for (std::uint32_t q = slot + 1; q < slot_count(); ++q) {
    if (down_index(q) > prev_idx) break;  // rest already strictly above
    const auto set = candidates(q);
    // First candidate strictly above prev_idx.
    std::uint32_t lo = 0;
    auto hi = static_cast<std::uint32_t>(set.size());
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      cost_->count();
      if (set[mid] <= prev_idx) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == set.size()) return MoveOutcome::kInfeasible;
    changes.emplace_back(q, lo);
    prev_idx = set[lo];
  }

  // Which bits does the move touch?
  auto& affected = scratch_affected_;
  affected.clear();
  for (const auto& [s, pos] : changes) {
    (void)pos;
    const std::uint32_t bit = plan_->slot_bit()[s];
    if (std::find(affected.begin(), affected.end(), bit) == affected.end()) {
      affected.push_back(bit);
    }
  }

  // Evaluate: the focus bit must strictly improve toward its wanted sign
  // and no currently-matching bit may flip.
  auto& new_diffs = scratch_new_diffs_;
  new_diffs.assign(affected.size(), 0);
  bool focus_improved = false;
  for (std::size_t i = 0; i < affected.size(); ++i) {
    const std::uint32_t bit = affected[i];
    new_diffs[i] = compute_bit_diff(bit, changes);
    if (bit == focus_bit) {
      const bool want_one = plan_->target_bits()[bit] == 1;
      focus_improved = want_one ? new_diffs[i] > bit_diffs_[bit]
                                : new_diffs[i] < bit_diffs_[bit];
    } else if (bit_matches(bit) &&
               decode_bit(new_diffs[i]) != plan_->target_bits()[bit]) {
      return MoveOutcome::kRejected;
    }
  }
  if (!focus_improved) return MoveOutcome::kRejected;

  for (const auto& [s, pos] : changes) {
    positions_[s] = pos;
  }
  for (std::size_t i = 0; i < affected.size(); ++i) {
    bit_diffs_[affected[i]] = new_diffs[i];
  }
  return MoveOutcome::kCommitted;
}

void SelectionState::set_positions(std::vector<std::uint32_t> positions) {
  require(positions.size() == positions_.size(),
          "selection size mismatch");
  positions_ = std::move(positions);
  recompute_all_bits();
}

}  // namespace sscor
