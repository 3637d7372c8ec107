#include "sscor/correlation/greedy_star.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "sscor/correlation/greedy_plus.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/trace.hpp"
#include "sscor/watermark/decoder.hpp"

namespace sscor {
namespace {

/// Depth-first enumeration of the free slots' candidates under the order
/// constraint, with the fixed slots' phase-3 selections as immovable
/// bounds.  Every candidate visited and every timestamp read counts one
/// packet access; the meter's bound aborts the search with the best result
/// so far.
class StarEnumerator {
 public:
  StarEnumerator(const SelectionState& state, const DecodePlan& plan,
                 std::span<const TimeUs> down_ts, CostMeter& cost,
                 CancelProbe& probe, std::vector<std::uint32_t> free_slots,
                 std::vector<std::uint32_t> free_bits,
                 std::uint32_t fixed_mismatches, std::uint32_t threshold)
      : state_(state),
        plan_(plan),
        down_ts_(down_ts),
        cost_(cost),
        probe_(probe),
        free_slots_(std::move(free_slots)),
        free_bits_(std::move(free_bits)),
        fixed_mismatches_(fixed_mismatches),
        threshold_(threshold) {
    positions_.assign(state.positions().begin(), state.positions().end());
    best_positions_ = positions_;
    // All free bits are mismatched at phase-3; that is the score to beat.
    best_mismatches_ = static_cast<std::uint32_t>(free_bits_.size());

    is_free_.assign(state.slot_count(), false);
    for (const auto slot : free_slots_) is_free_[slot] = true;
    // For each free slot, the nearest fixed slot after it supplies an
    // exclusive upper bound on its candidates.
    upper_bound_.assign(free_slots_.size(),
                        std::numeric_limits<std::int64_t>::max());
    std::int64_t bound = std::numeric_limits<std::int64_t>::max();
    std::size_t fi = free_slots_.size();
    for (std::uint32_t slot = state.slot_count(); slot-- > 0;) {
      if (is_free_[slot]) {
        check_invariant(fi > 0, "free slot bookkeeping out of sync");
        upper_bound_[--fi] = bound;
      } else {
        bound = state.down_index(slot);
      }
    }
  }

  void run() {
    if (free_slots_.empty()) return;
    dfs(0, lower_bound_before(free_slots_[0]));
  }

  const std::vector<std::uint32_t>& best_positions() const {
    return best_positions_;
  }

  bool bound_hit() const { return bound_hit_; }
  bool interrupted() const { return interrupted_; }

 private:
  /// Exclusive lower bound for the first free slot: the selection of the
  /// nearest fixed slot before it.
  std::int64_t lower_bound_before(std::uint32_t slot) const {
    for (std::uint32_t s = slot; s-- > 0;) {
      if (!is_free_[s]) return state_.down_index(s);
    }
    return -1;
  }

  TimeUs ts_of(std::uint32_t slot) {
    cost_.count();
    return down_ts_[state_.candidates(slot)[positions_[slot]]];
  }

  /// Counts mismatches among the free bits under `positions_`.
  std::uint32_t evaluate() {
    std::uint32_t mismatches = 0;
    for (const std::uint32_t bit : free_bits_) {
      DurationUs sum = 0;
      for (std::uint32_t pair = 0; pair < plan_.pairs_per_bit(); ++pair) {
        const std::size_t p = std::size_t{bit} * plan_.pairs_per_bit() + pair;
        const DurationUs ipd = ts_of(plan_.pair_second_slot()[p]) -
                               ts_of(plan_.pair_first_slot()[p]);
        sum += plan_.pair_sign()[p] * ipd;
      }
      mismatches += decode_bit(sum) != plan_.target_bits()[bit];
    }
    return mismatches;
  }

  void dfs(std::size_t fi, std::int64_t prev_value) {
    if (bound_hit_ || done_ || interrupted_) return;
    if (fi == free_slots_.size()) {
      const std::uint32_t mismatches = evaluate();
      if (mismatches < best_mismatches_) {
        best_mismatches_ = mismatches;
        best_positions_ = positions_;
        if (fixed_mismatches_ + best_mismatches_ <= threshold_) {
          done_ = true;  // paper: terminate at the threshold
        }
      }
      return;
    }
    const std::uint32_t slot = free_slots_[fi];
    const auto set = state_.candidates(slot);
    for (std::uint32_t pos = 0; pos < set.size(); ++pos) {
      cost_.count();
      if (cost_.exhausted()) {
        bound_hit_ = true;
        return;
      }
      if (probe_.should_stop(cost_.accesses())) {
        interrupted_ = true;
        return;
      }
      const std::int64_t value = set[pos];
      if (value <= prev_value) continue;
      if (value >= upper_bound_[fi]) break;
      positions_[slot] = pos;
      dfs(fi + 1, value);
      if (bound_hit_ || done_ || interrupted_) return;
    }
    positions_[slot] = state_.position(slot);  // restore for ts_of callers
  }

  const SelectionState& state_;
  const DecodePlan& plan_;
  std::span<const TimeUs> down_ts_;
  CostMeter& cost_;
  CancelProbe& probe_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> free_bits_;
  std::uint32_t fixed_mismatches_;
  std::uint32_t threshold_;
  std::vector<std::uint32_t> positions_;
  std::vector<std::uint32_t> best_positions_;
  std::uint32_t best_mismatches_ = 0;
  std::vector<bool> is_free_;
  std::vector<std::int64_t> upper_bound_;
  bool bound_hit_ = false;
  bool done_ = false;
  bool interrupted_ = false;
};

}  // namespace

CorrelationResult run_greedy_star(const KeySchedule& schedule,
                                  const Watermark& target,
                                  const Flow& upstream, const Flow& downstream,
                                  const CorrelatorConfig& config) {
  CancelProbe probe(config.budget);
  auto md = detail::run_shared_phases(schedule, target, upstream, downstream,
                                      config, Algorithm::kGreedyStar,
                                      config.cost_bound, probe);
  if (md->early) {
    md->early->cost_bound_hit = md->cost.exhausted();
    return *md->early;
  }

  SelectionState& state = *md->state;

  // The final phase enumerates the packets of the still-fixable mismatched
  // bits; everything else stays at its phase-3 selection.
  const auto free_bits =
      detail::fixable_mismatches_by_abs_diff(state, md->never_match);
  if (free_bits.empty()) {
    return detail::finish_result(Algorithm::kGreedyStar, state, md->cost,
                                 config);
  }
  std::vector<std::uint32_t> free_slots;
  for (const std::uint32_t bit : free_bits) {
    const auto slots = md->plan.bit_slots(bit);
    free_slots.insert(free_slots.end(), slots.begin(), slots.end());
  }
  std::sort(free_slots.begin(), free_slots.end());

  std::uint32_t fixed_mismatches = 0;
  for (std::uint32_t bit = 0; bit < md->plan.bit_count(); ++bit) {
    if (!state.bit_matches(bit) &&
        std::find(free_bits.begin(), free_bits.end(), bit) ==
            free_bits.end()) {
      ++fixed_mismatches;
    }
  }

  StarEnumerator enumerator(state, md->plan, md->down_ts, md->cost, probe,
                            std::move(free_slots), free_bits,
                            fixed_mismatches, config.hamming_threshold);
  {
    TRACE_SPAN("correlate.star_enum");
    enumerator.run();
  }
  state.set_positions(enumerator.best_positions());

  auto result =
      detail::finish_result(Algorithm::kGreedyStar, state, md->cost, config);
  result.cost_bound_hit = enumerator.bound_hit() || md->cost.exhausted();
  result.interrupted = enumerator.interrupted() || probe.stopped();
  result.stop_reason = probe.reason();
  return result;
}

}  // namespace sscor
