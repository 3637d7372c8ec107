#include "sscor/correlation/greedy.hpp"

#include <optional>
#include <vector>

#include "sscor/matching/match_windows.hpp"
#include "sscor/traffic/size_model.hpp"
#include "sscor/util/cancellation.hpp"
#include "sscor/util/trace.hpp"
#include "sscor/watermark/decode_plan.hpp"
#include "sscor/watermark/decoder.hpp"

namespace sscor {
namespace {

/// Finds the extreme (earliest/latest) candidate of upstream packet
/// `up_index` within its matching window, honouring the optional size
/// constraint by scanning inward from the window edge.  Returns nullopt
/// when no candidate exists.
std::optional<std::uint32_t> extreme_candidate(
    std::uint32_t up_index, bool prefer_earliest, const MatchWindow& window,
    const Flow& upstream, const Flow& downstream,
    const std::optional<SizeConstraint>& size, CostMeter& cost) {
  if (window.empty()) return std::nullopt;
  if (!size) {
    return prefer_earliest ? window.lo : window.hi - 1;
  }
  const std::uint32_t quantized_up = traffic::quantize_size(
      upstream.packet(up_index).size, size->block_bytes);
  if (prefer_earliest) {
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

CorrelationResult run_greedy(const KeySchedule& schedule,
                             const Watermark& target, const Flow& upstream,
                             const Flow& downstream,
                             const CorrelatorConfig& config) {
  TRACE_SPAN("correlate.greedy");
  CostMeter cost;
  CancelProbe probe(config.budget);
  const std::vector<TimeUs>& down_ts = downstream.timestamps();
  const DecodePlan plan(schedule, target);
  const auto slot_up = plan.slot_up();
  const auto prefer = plan.slot_prefer();

  // Locate each relevant packet's preferred candidate.  On interruption the
  // remaining slots stay unset, which the bit loop below already treats as
  // unformable pairs — a self-consistent partial decode.
  std::vector<std::optional<std::uint32_t>> choice(plan.slot_count());
  for (std::uint32_t s = 0; s < plan.slot_count(); ++s) {
    if (probe.should_stop(cost.accesses())) break;
    const MatchWindow window = find_match_window(
        upstream.timestamp(slot_up[s]), down_ts, config.max_delay, cost);
    choice[s] = extreme_candidate(slot_up[s], prefer[s] != 0, window,
                                  upstream, downstream,
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
      const std::size_t p = std::size_t{bit} * plan.pairs_per_bit() + pair;
      const auto& first = choice[plan.pair_first_slot()[p]];
      const auto& second = choice[plan.pair_second_slot()[p]];
      if (!first || !second) continue;
      cost.count(2);
      sum += plan.pair_sign()[p] * (down_ts[*second] - down_ts[*first]);
      any_pair = true;
    }
    bits[bit] = any_pair ? decode_bit(sum)
                         : static_cast<std::uint8_t>(
                               1 - plan.target_bits()[bit]);
  }

  CorrelationResult result;
  result.algorithm = Algorithm::kGreedy;
  result.best_watermark = Watermark(std::move(bits));
  result.hamming = static_cast<std::uint32_t>(
      result.best_watermark.hamming_distance(target));
  result.correlated = result.hamming <= config.hamming_threshold;
  result.cost = cost.accesses();
  result.interrupted = probe.stopped();
  result.stop_reason = probe.reason();
  return result;
}

}  // namespace sscor
