#include "sscor/correlation/greedy_plus.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "sscor/util/trace.hpp"

namespace sscor {
namespace detail {

std::unique_ptr<MatchedDecode> run_shared_phases(
    const KeySchedule& schedule, const Watermark& target, const Flow& upstream,
    const Flow& downstream, const CorrelatorConfig& config,
    Algorithm algorithm, std::uint64_t cost_bound, CancelProbe& probe) {
  auto md = std::make_unique<MatchedDecode>();
  md->cost = CostMeter(cost_bound);
  md->down_ts = downstream.timestamps();

  auto rejected = [&](bool matching_complete) {
    CorrelationResult result;
    result.algorithm = algorithm;
    result.correlated = false;
    result.matching_complete = matching_complete;
    result.hamming = target.size() == 0
                         ? 0
                         : static_cast<std::uint32_t>(target.size());
    result.cost = md->cost.accesses();
    md->early = std::move(result);
    return std::move(md);
  };

  // Best-so-far early exit when the DecodeBudget stops the run between
  // phases: whatever the selection state currently decodes to (or a full-
  // distance negative when interrupted before any selection exists).
  auto interrupted_early = [&] {
    CorrelationResult result;
    result.algorithm = algorithm;
    result.correlated = false;
    if (md->state != nullptr) {
      result.best_watermark = md->state->decode();
      result.hamming = md->state->hamming();
      result.correlated = result.hamming <= config.hamming_threshold;
    } else {
      result.hamming = static_cast<std::uint32_t>(target.size());
    }
    result.cost = md->cost.accesses();
    result.interrupted = true;
    result.stop_reason = probe.reason();
    md->early = std::move(result);
    return std::move(md);
  };

  // Phase 1: full matching + pruning.  An upstream packet without a match,
  // or an infeasible pruning, is an immediate negative (paper §3.2).
  {
    TRACE_SPAN("correlate.match");
    {
      TRACE_SPAN("correlate.match.build");
      md->sets = CandidateSets::build(upstream, downstream, config.max_delay,
                                      config.size_constraint, md->cost);
    }
    if (!md->sets.complete()) return rejected(false);
    TRACE_SPAN("correlate.match.prune");
    if (!md->sets.prune(md->cost)) return rejected(false);
  }
  if (probe.should_stop(md->cost.accesses())) return interrupted_early();

  // Phase 2: Greedy on the pruned sets.
  TRACE_SPAN("correlate.greedy");
  md->plan.build(schedule, target);
  md->state = std::make_unique<SelectionState>(md->plan, md->sets,
                                               md->down_ts, md->cost);
  if (probe.should_stop(md->cost.accesses())) return interrupted_early();
  md->never_match.assign(md->plan.bit_count(), false);
  std::uint32_t greedy_hamming = 0;
  for (std::uint32_t bit = 0; bit < md->plan.bit_count(); ++bit) {
    if (!md->state->bit_matches(bit)) {
      md->never_match[bit] = true;
      ++greedy_hamming;
    }
  }
  if (greedy_hamming > config.hamming_threshold) {
    CorrelationResult result;
    result.algorithm = algorithm;
    result.correlated = false;
    result.hamming = greedy_hamming;
    result.best_watermark = md->state->decode();
    result.cost = md->cost.accesses();
    md->early = std::move(result);
    return md;
  }

  // Phase 3: repair into an order-consistent selection.
  TRACE_SPAN("correlate.repair");
  md->state->repair_order();
  if (probe.should_stop(md->cost.accesses())) return interrupted_early();
  if (md->state->hamming() <= config.hamming_threshold) {
    md->early = finish_result(algorithm, *md->state, md->cost, config);
  }
  return md;
}

std::vector<std::uint32_t> fixable_mismatches_by_abs_diff(
    const SelectionState& state, const std::vector<bool>& never_match) {
  std::vector<std::uint32_t> bits;
  for (std::uint32_t bit = 0; bit < state.plan().bit_count(); ++bit) {
    if (!state.bit_matches(bit) && !never_match[bit]) {
      bits.push_back(bit);
    }
  }
  std::sort(bits.begin(), bits.end(),
            [&state](std::uint32_t a, std::uint32_t b) {
              return std::llabs(state.bit_diff(a)) <
                     std::llabs(state.bit_diff(b));
            });
  return bits;
}

CorrelationResult finish_result(Algorithm algorithm,
                                const SelectionState& state,
                                const CostMeter& cost,
                                const CorrelatorConfig& config) {
  CorrelationResult result;
  result.algorithm = algorithm;
  result.best_watermark = state.decode();
  result.hamming = state.hamming();
  result.correlated = result.hamming <= config.hamming_threshold;
  result.cost = cost.accesses();
  return result;
}

}  // namespace detail

CorrelationResult run_greedy_plus(const KeySchedule& schedule,
                                  const Watermark& target,
                                  const Flow& upstream, const Flow& downstream,
                                  const CorrelatorConfig& config) {
  CancelProbe probe(config.budget);
  auto md = detail::run_shared_phases(
      schedule, target, upstream, downstream, config,
      Algorithm::kGreedyPlus,
      std::numeric_limits<std::uint64_t>::max(), probe);
  if (md->early) return *md->early;

  // Phase 4: local search over the still-fixable mismatched bits.
  TRACE_SPAN("correlate.local_search");
  SelectionState& state = *md->state;
  const auto fixable =
      detail::fixable_mismatches_by_abs_diff(state, md->never_match);
  for (const std::uint32_t bit : fixable) {
    if (probe.should_stop(md->cost.accesses())) break;
    if (state.bit_matches(bit)) continue;  // flipped by an earlier cascade
    const auto slots = md->plan.bit_slots(bit);
    for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
      const std::uint32_t slot = *it;
      // Paper step 1: a slot still at its greedy choice cannot move closer
      // to its preference; continue with the previous embedding packet.
      if (state.at_greedy_choice(slot)) continue;
      while (true) {
        if (probe.should_stop(md->cost.accesses())) break;
        const auto outcome = state.try_advance(slot, bit);
        if (outcome != SelectionState::MoveOutcome::kCommitted) break;
        if (state.bit_matches(bit)) break;
      }
      if (probe.stopped() || state.bit_matches(bit)) break;
    }
    // Paper: terminate as soon as the threshold is reached.
    if (state.hamming() <= config.hamming_threshold) break;
  }
  auto result = detail::finish_result(Algorithm::kGreedyPlus, state, md->cost,
                                      config);
  result.interrupted = probe.stopped();
  result.stop_reason = probe.reason();
  return result;
}

}  // namespace sscor
