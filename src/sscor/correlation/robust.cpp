#include "sscor/correlation/robust.hpp"

#include <limits>
#include <span>
#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/matching/candidate_sets.hpp"
#include "sscor/util/cancellation.hpp"
#include "sscor/util/trace.hpp"
#include "sscor/watermark/decode_plan.hpp"
#include "sscor/watermark/decoder.hpp"

namespace sscor {
namespace {

constexpr std::uint32_t kMissing = 0xffffffffu;

/// Decodes one bit from the current per-slot downstream choices, skipping
/// pairs with a missing endpoint.  Bits with no surviving pair decode as a
/// mismatch (conservative).  Returns the decoded bit.
std::uint8_t decode_bit_robust(const DecodePlan& plan, std::uint32_t bit,
                               const std::vector<std::uint32_t>& choice,
                               std::span<const TimeUs> down_ts,
                               CostMeter& cost) {
  DurationUs sum = 0;
  bool any = false;
  for (std::uint32_t pair = 0; pair < plan.pairs_per_bit(); ++pair) {
    const std::size_t p = std::size_t{bit} * plan.pairs_per_bit() + pair;
    const std::uint32_t first = plan.pair_first_slot()[p];
    const std::uint32_t second = plan.pair_second_slot()[p];
    if (choice[first] == kMissing || choice[second] == kMissing) continue;
    cost.count(2);
    sum += plan.pair_sign()[p] * (down_ts[choice[second]] -
                                  down_ts[choice[first]]);
    any = true;
  }
  if (!any) {
    return static_cast<std::uint8_t>(1 - plan.target_bits()[bit]);
  }
  return decode_bit(sum);
}

CorrelationResult run_robust_impl(const KeySchedule& schedule,
                                  const Watermark& target,
                                  const Flow& upstream,
                                  const Flow& downstream,
                                  const CorrelatorConfig& config,
                                  const RobustOptions& options) {
  TRACE_SPAN("correlate.robust");
  CostMeter cost;
  CancelProbe probe(config.budget);
  CorrelationResult result;
  result.algorithm = Algorithm::kGreedyPlus;
  const DecodePlan plan(schedule, target);

  // Best-so-far exit shared by the probe checks below: whatever `bits`
  // currently holds decodes cleanly (missing choices already read as
  // unformable pairs), so an interrupted run is merely less repaired.
  auto interrupted_at = [&](std::vector<std::uint8_t> bits) {
    if (!bits.empty()) {
      result.best_watermark = Watermark(std::move(bits));
      result.hamming = static_cast<std::uint32_t>(
          result.best_watermark.hamming_distance(target));
      result.correlated = result.hamming <= config.hamming_threshold;
    } else {
      result.correlated = false;
      result.hamming = static_cast<std::uint32_t>(target.size());
    }
    result.cost = cost.accesses();
    result.interrupted = true;
    result.stop_reason = probe.reason();
    return result;
  };

  CandidateSets sets;
  {
    TRACE_SPAN("correlate.match");
    sets = CandidateSets::build(upstream, downstream, config.max_delay,
                                config.size_constraint, cost);
  }
  const auto budget = static_cast<std::size_t>(
      options.max_unmatched_fraction *
      static_cast<double>(upstream.size()));
  result.matching_complete = sets.empty_count() == 0;

  // Phase 1 (gap-aware): prune, treating lost packets as gaps.
  if (!sets.prune_allowing_gaps(cost, budget)) {
    result.correlated = false;
    result.matching_complete = false;
    result.hamming = static_cast<std::uint32_t>(target.size());
    result.cost = cost.accesses();
    return result;
  }

  if (probe.should_stop(cost.accesses())) return interrupted_at({});

  std::span<const TimeUs> down_ts = downstream.timestamps();
  const auto slot_up = plan.slot_up();
  const auto prefer = plan.slot_prefer();

  // Phase 2: greedy on the pruned sets (per-bit extremes), skipping
  // missing slots.  Interrupted slots stay kMissing — still decodable.
  std::vector<std::uint32_t> choice(plan.slot_count(), kMissing);
  for (std::uint32_t s = 0; s < plan.slot_count(); ++s) {
    if (probe.should_stop(cost.accesses())) break;
    const auto set = sets.set(slot_up[s]);
    if (set.empty()) continue;
    choice[s] = prefer[s] ? set.front() : set.back();
    cost.count();
  }
  std::vector<std::uint8_t> greedy_bits(plan.bit_count());
  std::uint32_t greedy_hamming = 0;
  for (std::uint32_t bit = 0; bit < plan.bit_count(); ++bit) {
    greedy_bits[bit] = decode_bit_robust(plan, bit, choice, down_ts, cost);
    greedy_hamming += greedy_bits[bit] != target.bit(bit);
  }
  if (probe.stopped()) {
    return interrupted_at(std::move(greedy_bits));
  }
  if (greedy_hamming > config.hamming_threshold) {
    result.correlated = false;
    result.hamming = greedy_hamming;
    result.best_watermark = Watermark(std::move(greedy_bits));
    result.cost = cost.accesses();
    return result;
  }

  // Phase 3: order repair over the surviving slots (backward pass; keep
  // first-matches, re-point last-matches below the successor's choice).
  std::int64_t bound = std::numeric_limits<std::int64_t>::max();
  for (std::uint32_t s = plan.slot_count(); s-- > 0;) {
    if (probe.should_stop(cost.accesses())) {
      // Abandoning the backward pass mid-way leaves a prefix that is not
      // yet order-repaired; fall back to the (always consistent) greedy
      // decode rather than a half-repaired mixture.
      return interrupted_at(std::move(greedy_bits));
    }
    if (choice[s] == kMissing) continue;
    if (static_cast<std::int64_t>(choice[s]) < bound) {
      bound = choice[s];
      continue;
    }
    const auto set = sets.set(slot_up[s]);
    // Largest candidate strictly below `bound`; gap-aware pruning keeps
    // minima strictly increasing across non-empty sets, so one exists.
    std::uint32_t lo = 0;
    auto hi = static_cast<std::uint32_t>(set.size());
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      cost.count();
      if (static_cast<std::int64_t>(set[mid]) < bound) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == 0) {
      // No candidate fits below the successor (can happen next to gaps):
      // treat this packet as lost as well.
      choice[s] = kMissing;
      continue;
    }
    choice[s] = set[lo - 1];
    bound = choice[s];
  }

  std::vector<std::uint8_t> bits(plan.bit_count());
  for (std::uint32_t bit = 0; bit < plan.bit_count(); ++bit) {
    bits[bit] = decode_bit_robust(plan, bit, choice, down_ts, cost);
  }
  result.best_watermark = Watermark(std::move(bits));
  result.hamming = static_cast<std::uint32_t>(
      result.best_watermark.hamming_distance(target));
  result.correlated = result.hamming <= config.hamming_threshold;
  result.cost = cost.accesses();
  return result;
}

}  // namespace

CorrelationResult run_greedy_plus_robust(const KeySchedule& schedule,
                                         const Watermark& target,
                                         const Flow& upstream,
                                         const Flow& downstream,
                                         const CorrelatorConfig& config,
                                         const RobustOptions& options) {
  const CorrelationResult result = run_robust_impl(
      schedule, target, upstream, downstream, config, options);
  if (trace::decode_enabled()) {
    // The robust variant is invoked directly (not via Correlator), so it
    // emits its own introspection row; the window scan below is diagnostic
    // and never charged to the paper's cost metric.
    CostMeter scratch;
    const auto windows = scan_match_windows(
        upstream.timestamps(), downstream.timestamps(), config.max_delay,
        scratch);
    record_decode_trace("Greedy+robust", target, result, windows,
                        upstream.size(), downstream.size());
  }
  return result;
}

}  // namespace sscor
