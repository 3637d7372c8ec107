#include "sscor/correlation/brute_force.hpp"

#include <limits>
#include <span>
#include <vector>

#include "sscor/matching/candidate_sets.hpp"
#include "sscor/util/cancellation.hpp"
#include "sscor/util/trace.hpp"
#include "sscor/watermark/decode_plan.hpp"
#include "sscor/watermark/decoder.hpp"

namespace sscor {
namespace {

class BruteForceSearch {
 public:
  BruteForceSearch(const DecodePlan& plan, const CandidateSets& sets,
                   std::span<const TimeUs> down_ts, CostMeter& cost,
                   CancelProbe& probe)
      : plan_(plan),
        sets_(sets),
        down_ts_(down_ts),
        cost_(cost),
        probe_(probe) {
    slot_down_index_.assign(plan.slot_count(), 0);
    leaf_bits_.resize(plan.bit_count());
    best_hamming_ = std::numeric_limits<std::uint32_t>::max();
  }

  void run() { dfs(0, -1); }

  std::uint32_t best_hamming() const { return best_hamming_; }
  const Watermark& best_watermark() const { return best_watermark_; }
  bool bound_hit() const { return bound_hit_; }
  bool interrupted() const { return interrupted_; }
  bool found_any() const {
    return best_hamming_ != std::numeric_limits<std::uint32_t>::max();
  }

 private:
  void dfs(std::size_t i, std::int64_t prev) {
    if (bound_hit_ || interrupted_) return;
    if (i == sets_.upstream_size()) {
      evaluate_leaf();
      return;
    }
    const auto set = sets_.set(i);
    const std::uint32_t slot = plan_.slot_of(i);
    for (const std::uint32_t candidate : set) {
      cost_.count();
      if (cost_.exhausted()) {
        bound_hit_ = true;
        return;
      }
      if (probe_.should_stop(cost_.accesses())) {
        interrupted_ = true;
        return;
      }
      if (static_cast<std::int64_t>(candidate) <= prev) continue;
      if (slot != DecodePlan::kNoSlot) slot_down_index_[slot] = candidate;
      dfs(i + 1, candidate);
      if (bound_hit_ || interrupted_) return;
    }
  }

  void evaluate_leaf() {
    std::uint32_t hamming = 0;
    for (std::uint32_t bit = 0; bit < plan_.bit_count(); ++bit) {
      DurationUs sum = 0;
      for (std::uint32_t pair = 0; pair < plan_.pairs_per_bit(); ++pair) {
        const std::size_t p = std::size_t{bit} * plan_.pairs_per_bit() + pair;
        cost_.count(2);
        const DurationUs ipd =
            down_ts_[slot_down_index_[plan_.pair_second_slot()[p]]] -
            down_ts_[slot_down_index_[plan_.pair_first_slot()[p]]];
        sum += plan_.pair_sign()[p] * ipd;
      }
      leaf_bits_[bit] = decode_bit(sum);
      hamming += leaf_bits_[bit] != plan_.target_bits()[bit];
    }
    if (hamming < best_hamming_) {
      best_hamming_ = hamming;
      best_watermark_ = Watermark(leaf_bits_);
    }
  }

  const DecodePlan& plan_;
  const CandidateSets& sets_;
  std::span<const TimeUs> down_ts_;
  CostMeter& cost_;
  CancelProbe& probe_;
  std::vector<std::uint32_t> slot_down_index_;
  /// Per-leaf decode scratch, reused across the exponential enumeration so
  /// each leaf costs no allocation.
  std::vector<std::uint8_t> leaf_bits_;
  std::uint32_t best_hamming_ = 0;
  Watermark best_watermark_;
  bool bound_hit_ = false;
  bool interrupted_ = false;
};

}  // namespace

CorrelationResult run_brute_force(const KeySchedule& schedule,
                                  const Watermark& target,
                                  const Flow& upstream, const Flow& downstream,
                                  const CorrelatorConfig& config,
                                  const BruteForceOptions& options) {
  CostMeter cost(config.cost_bound);
  CancelProbe probe(config.budget);
  CorrelationResult result;
  result.algorithm = Algorithm::kBruteForce;

  auto rejected = [&] {
    result.correlated = false;
    result.matching_complete = false;
    result.hamming = static_cast<std::uint32_t>(target.size());
    result.cost = cost.accesses();
    return result;
  };

  TRACE_SPAN("correlate.brute_force");
  CandidateSets sets = CandidateSets::build(
      upstream, downstream, config.max_delay, config.size_constraint, cost);
  if (!sets.complete() || (options.prune && !sets.prune(cost))) {
    return rejected();
  }

  const DecodePlan plan(schedule, target);
  std::span<const TimeUs> down_ts = downstream.timestamps();
  BruteForceSearch search(plan, sets, down_ts, cost, probe);
  {
    TRACE_SPAN("correlate.bf_enum");
    search.run();
  }

  result.cost_bound_hit = search.bound_hit();
  result.interrupted = search.interrupted();
  result.stop_reason = probe.reason();
  result.cost = cost.accesses();
  if (!search.found_any()) {
    // No complete order-consistent assignment exists (possible without
    // pruning); equivalent to incomplete matching.
    result.correlated = false;
    result.matching_complete = false;
    result.hamming = static_cast<std::uint32_t>(target.size());
    return result;
  }
  result.best_watermark = search.best_watermark();
  result.hamming = search.best_hamming();
  result.correlated = result.hamming <= config.hamming_threshold;
  return result;
}

}  // namespace sscor
