#include "sscor/correlation/greedy.hpp"

#include <optional>
#include <vector>

#include "sscor/matching/match_windows.hpp"
#include "sscor/traffic/size_model.hpp"
#include "sscor/util/cancellation.hpp"
#include "sscor/util/trace.hpp"
#include "sscor/watermark/decoder.hpp"

namespace sscor {
namespace {

/// Finds the extreme (earliest/latest) candidate of `slot` within its
/// matching window, honouring the optional size constraint by scanning
/// inward from the window edge.  Returns nullopt when no candidate exists.
std::optional<std::uint32_t> extreme_candidate(
    const SlotInfo& slot, const MatchWindow& window, const Flow& upstream,
    const Flow& downstream, const std::optional<SizeConstraint>& size,
    CostMeter& cost) {
  if (window.empty()) return std::nullopt;
  if (!size) {
    return slot.prefer_earliest ? window.lo : window.hi - 1;
  }
  const std::uint32_t quantized_up = traffic::quantize_size(
      upstream.packet(slot.up_index).size, size->block_bytes);
  if (slot.prefer_earliest) {
    for (std::uint32_t j = window.lo; j < window.hi; ++j) {
      cost.count();
      if (traffic::quantize_size(downstream.packet(j).size,
                                 size->block_bytes) == quantized_up) {
        return j;
      }
    }
  } else {
    for (std::uint32_t j = window.hi; j-- > window.lo;) {
      cost.count();
      if (traffic::quantize_size(downstream.packet(j).size,
                                 size->block_bytes) == quantized_up) {
        return j;
      }
    }
  }
  return std::nullopt;
}

}  // namespace

CorrelationResult run_greedy(const DecodePlan& plan, const Flow& upstream,
                             const Flow& downstream,
                             const CorrelatorConfig& config) {
  TRACE_SPAN("correlate.greedy");
  CostMeter cost;
  CancelProbe probe(config.budget);
  const std::vector<TimeUs>& down_ts = downstream.timestamps();

  // Locate each relevant packet's preferred candidate.  On interruption the
  // remaining slots stay unset, which the bit loop below already treats as
  // unformable pairs — a self-consistent partial decode.
  const auto slots = plan.slots();
  std::vector<std::optional<std::uint32_t>> choice(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (probe.should_stop(cost.accesses())) break;
    const MatchWindow window =
        find_match_window(upstream.timestamp(slots[s].up_index), down_ts,
                          config.max_delay, cost);
    choice[s] = extreme_candidate(slots[s], window, upstream, downstream,
                                  config.size_constraint, cost);
  }

  // Decode each bit from whatever pairs are formable.  A pair missing a
  // candidate is skipped; a bit with no formable pair cannot be steered and
  // decodes as a mismatch.
  std::vector<std::uint8_t> bits(plan.bit_count());
  for (std::uint32_t bit = 0; bit < plan.bit_count(); ++bit) {
    DurationUs sum = 0;
    bool any_pair = false;
    for (std::uint32_t pair = 0; pair < plan.pairs_per_bit(); ++pair) {
      const PairSlots& ps = plan.pair_slots(bit, pair);
      if (!choice[ps.first_slot] || !choice[ps.second_slot]) continue;
      cost.count(2);
      const DurationUs ipd = down_ts[*choice[ps.second_slot]] -
                             down_ts[*choice[ps.first_slot]];
      sum += ps.group1 ? ipd : -ipd;
      any_pair = true;
    }
    bits[bit] = any_pair ? decode_bit(sum)
                         : static_cast<std::uint8_t>(
                               1 - plan.target().bit(bit));
  }

  CorrelationResult result;
  result.algorithm = Algorithm::kGreedy;
  result.best_watermark = Watermark(std::move(bits));
  result.hamming = static_cast<std::uint32_t>(
      result.best_watermark.hamming_distance(plan.target()));
  result.correlated = result.hamming <= config.hamming_threshold;
  result.cost = cost.accesses();
  result.interrupted = probe.stopped();
  result.stop_reason = probe.reason();
  return result;
}

}  // namespace sscor
