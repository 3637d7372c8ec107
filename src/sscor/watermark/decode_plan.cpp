#include "sscor/watermark/decode_plan.hpp"

#include "sscor/util/error.hpp"

namespace sscor {

DecodePlan::DecodePlan(const KeySchedule& schedule, const Watermark& target) {
  build(schedule, target);
}

void DecodePlan::build(const KeySchedule& schedule, const Watermark& target) {
  const std::uint32_t bits = schedule.params().bits;
  const std::uint32_t pairs_per_bit = 2 * schedule.params().redundancy;
  require(target.size() == bits,
          "target watermark length does not match the schedule");
  const std::vector<std::uint32_t>& relevant = schedule.relevant_packets();
  const std::size_t n_pairs = static_cast<std::size_t>(bits) * pairs_per_bit;
  const std::size_t n_slots = 2 * n_pairs;
  // relevant_packets() deduplicates, so a shortfall means two pairs share a
  // packet.
  check_invariant(relevant.size() == n_slots,
                  "key schedule produced overlapping pairs");

  // Slots are the relevant packets in ascending order; slot_of_ maps them
  // back.  It grows before slot_up_ changes, so every index slot_up_ holds
  // stays in range even when an allocation throws.
  for (const std::uint32_t up : slot_up_) slot_of_[up] = kNoSlot;
  if (!relevant.empty() && slot_of_.size() <= relevant.back()) {
    slot_of_.resize(relevant.back() + std::size_t{1}, kNoSlot);
  }
  slot_up_.assign(relevant.begin(), relevant.end());
  for (std::uint32_t s = 0; s < n_slots; ++s) slot_of_[slot_up_[s]] = s;

  bit_count_ = bits;
  pairs_per_bit_ = pairs_per_bit;
  slot_bit_.resize(n_slots);
  slot_prefer_.resize(n_slots);
  pair_first_.resize(n_pairs);
  pair_second_.resize(n_pairs);
  pair_sign_.resize(n_pairs);
  target_bits_.resize(bits);
  std::size_t p = 0;
  for (std::uint32_t bit = 0; bit < bits; ++bit) {
    const BitPlan& plan = schedule.bit_plan(bit);
    target_bits_[bit] = target.bit(bit);
    for (const auto* group : {&plan.group1, &plan.group2}) {
      const bool group1 = group == &plan.group1;
      // A group-1 pair wants a large IPD iff the wanted bit is 1, and a
      // large IPD takes its first packet early and its second late.
      const bool want_large = (target_bits_[bit] == 1) == group1;
      for (const PacketPair& pair : *group) {
        const std::uint32_t first = slot_of_[pair.first];
        const std::uint32_t second = slot_of_[pair.second];
        slot_bit_[first] = static_cast<std::uint16_t>(bit);
        slot_bit_[second] = static_cast<std::uint16_t>(bit);
        slot_prefer_[first] = want_large;
        slot_prefer_[second] = !want_large;
        pair_first_[p] = first;
        pair_second_[p] = second;
        pair_sign_[p] = group1 ? std::int8_t{1} : std::int8_t{-1};
        ++p;
      }
    }
  }

  bit_slots_.resize(n_slots);
  bit_cursor_.assign(bits, 0);
  for (std::uint32_t s = 0; s < n_slots; ++s) {
    const std::uint32_t bit = slot_bit_[s];
    bit_slots_[std::size_t{bit} * 2 * pairs_per_bit + bit_cursor_[bit]++] = s;
  }
}

}  // namespace sscor
