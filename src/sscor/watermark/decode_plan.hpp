// The decode plan: the key schedule re-indexed for matching-based decoding.
//
// All four decoders (paper §3.3), the online early-exit bound and the
// loss-tolerant decoder read the key schedule through this one index.  A
// *slot* is one relevant upstream packet (a pair endpoint); slots are
// numbered in increasing upstream order, the order the order constraint
// walks.  Each bit has 2r pairs, group-1 pairs first.
//
// Greedy preference (paper §3.3.2, figure 2): to make an IPD as large as
// possible choose the *first* match of its first packet and the *last*
// match of its second; to make it small, the opposite.  A pair in group 1
// wants a large IPD iff the wanted bit is 1; group 2 wants the opposite.
//
// The plan is stored as parallel arrays, so the batched engine's inner
// loops read only what they use, and build() reuses all of them.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sscor/watermark/key_schedule.hpp"
#include "sscor/watermark/watermark.hpp"

namespace sscor {

class DecodePlan {
 public:
  /// slot_of()'s answer for an upstream packet that no pair uses.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// An empty plan; build() fills it.
  DecodePlan() = default;
  DecodePlan(const KeySchedule& schedule, const Watermark& target);

  /// (Re)builds the plan for decoding `target` over `schedule`, reusing
  /// its storage.  Throws InvalidArgument when `target`'s length does not
  /// match the schedule.
  void build(const KeySchedule& schedule, const Watermark& target);

  std::uint32_t slot_count() const {
    return static_cast<std::uint32_t>(slot_up_.size());
  }
  std::uint32_t bit_count() const { return bit_count_; }
  std::uint32_t pairs_per_bit() const { return pairs_per_bit_; }

  /// Slot → upstream packet index (strictly increasing).
  std::span<const std::uint32_t> slot_up() const { return slot_up_; }
  /// Slot → watermark bit it carries.
  std::span<const std::uint16_t> slot_bit() const { return slot_bit_; }
  /// Slot → greedy preference (1 = earliest candidate, 0 = latest).
  std::span<const std::uint8_t> slot_prefer() const { return slot_prefer_; }

  /// Upstream packet index → its slot, or kNoSlot for any index that no
  /// pair uses, however large.
  std::uint32_t slot_of(std::size_t up_index) const {
    return up_index < slot_of_.size() ? slot_of_[up_index] : kNoSlot;
  }

  /// Pair (bit-major, bit * pairs_per_bit + pair) → endpoint slot ids and
  /// group sign (+1 for group 1, -1 for group 2).
  std::span<const std::uint32_t> pair_first_slot() const {
    return pair_first_;
  }
  std::span<const std::uint32_t> pair_second_slot() const {
    return pair_second_;
  }
  std::span<const std::int8_t> pair_sign() const { return pair_sign_; }

  /// Slot ids carrying `bit`, in increasing slot order (a slice of one
  /// flat array — every bit owns exactly 2 * pairs_per_bit slots).
  std::span<const std::uint32_t> bit_slots(std::uint32_t bit) const {
    const std::size_t per_bit = 2ull * pairs_per_bit_;
    return {bit_slots_.data() + bit * per_bit, per_bit};
  }

  /// Target watermark bit values, one byte per bit.
  std::span<const std::uint8_t> target_bits() const { return target_bits_; }

 private:
  std::uint32_t bit_count_ = 0;
  std::uint32_t pairs_per_bit_ = 0;
  std::vector<std::uint32_t> slot_up_;
  std::vector<std::uint16_t> slot_bit_;
  std::vector<std::uint8_t> slot_prefer_;
  /// Sized to the largest upstream index any build used.  A build resets
  /// only the entries the previous one set.
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::uint32_t> pair_first_;
  std::vector<std::uint32_t> pair_second_;
  std::vector<std::int8_t> pair_sign_;
  std::vector<std::uint32_t> bit_slots_;
  /// Per-bit fill cursor for the bit_slots_ slices; reused across builds.
  std::vector<std::uint32_t> bit_cursor_;
  std::vector<std::uint8_t> target_bits_;
};

}  // namespace sscor
