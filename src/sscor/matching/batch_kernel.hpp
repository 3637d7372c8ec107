// The SoA decode engine behind Correlator::correlate: every production
// decode of the paper's four algorithms runs here, over a MatchContext.
//
// The scalar correlators (run_greedy_plus & friends) interleave plan
// bookkeeping, candidate-set lookups through bounds-checked accessors, and
// around thirty-five allocations per decode (DecodePlan's pending vector and
// sort, the per-bit slot vectors, SelectionState's position arrays).  This
// layer restructures the per-decode work onto contiguous
// structure-of-arrays storage:
//
//   SoaPlan         the DecodePlan flattened to parallel arrays (slot →
//                   upstream index / bit / greedy preference; pair → slot
//                   ids + group sign; bit → slot-id slice), built without
//                   sorting by scattering through KeySchedule's already-
//                   sorted relevant_packets().
//   DecodeWorkspace a reusable arena (thread-local by default) holding the
//                   plan, flat candidate pointer/length tables, selection
//                   state, and all per-algorithm scratch — after warm-up a
//                   decode allocates only its result watermark.
//   BatchDecoder    exact ports of the four correlators (Greedy, Greedy+,
//                   Greedy*, BruteForce) over the flat arrays, with the
//                   inner sweeps (timestamp gathers, signed pair
//                   differences, per-bit reductions) routed through the
//                   batch_kernels.hpp scalar/vectorized pairs.
//
// The scalar run_* functions stay as the reference implementation, and they
// decode cold: each runs its own matching phase, sharing no state with a
// context.  The cost-replay invariant ties the two: the context is the
// only consumer of the matching phase here, its recorded costs are
// replayed into each decode, and every CorrelationResult field — cost
// included — is byte-identical to the cold reference run.  The ports
// replicate the reference algorithms' access counting at every observable
// point: bulk counts are only substituted between probe/exhaustion polls,
// and early-out paths (try_advance's reject-before-later-bits, the DFS
// bound checks) keep the reference evaluation order.
// tests/batch_kernel_test.cpp and the batch_parity fuzz oracle pin this
// for all four algorithms.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sscor/correlation/result.hpp"
#include "sscor/matching/batch_kernels.hpp"
#include "sscor/matching/candidate_sets.hpp"
#include "sscor/matching/match_context.hpp"
#include "sscor/util/cancellation.hpp"
#include "sscor/watermark/key_schedule.hpp"
#include "sscor/watermark/watermark.hpp"

namespace sscor::batch {

/// One (key schedule, expected watermark) decode hypothesis.  Both objects
/// must outlive the decode call.
struct DecodeHypothesis {
  const KeySchedule* schedule = nullptr;
  const Watermark* target = nullptr;
};

/// The key schedule re-indexed for matching-based decoding, as parallel
/// arrays (the SoA mirror of DecodePlan).  Slots are sorted by upstream
/// index; the build is sort-free because KeySchedule::relevant_packets()
/// is already ascending — pair roles are scattered into a scratch table
/// keyed by upstream index and emitted in relevant-packet order.
class SoaPlan {
 public:
  SoaPlan() = default;

  /// (Re)builds the plan in place, reusing all storage.  Throws
  /// InvalidArgument when `target`'s length does not match the schedule.
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
  std::vector<std::uint32_t> pair_first_;
  std::vector<std::uint32_t> pair_second_;
  std::vector<std::int8_t> pair_sign_;
  std::vector<std::uint32_t> bit_slots_;
  std::vector<std::uint8_t> target_bits_;
  /// Scatter table keyed by upstream index (packed bit/pair/role), sized to
  /// the schedule's max packet index; reused across builds.
  std::vector<std::uint64_t> scratch_;
  /// Per-bit fill cursor for the bit_slots_ slices; reused across builds.
  std::vector<std::uint32_t> bit_cursor_;
};

/// Reusable decode arena.  One workspace serves any number of sequential
/// decodes over any pairs and hypothesis sizes; vectors only ever grow.
/// Never shared across threads — use thread_workspace() for the per-thread
/// instance.
struct DecodeWorkspace {
  SoaPlan plan;
  // Flat candidate tables: per-slot (selection algorithms) and per-upstream-
  // packet (brute force) views into the CandidateSets slices.
  std::vector<const std::uint32_t*> cand_ptr;
  std::vector<std::uint32_t> cand_len;
  std::vector<const std::uint32_t*> up_cand_ptr;
  std::vector<std::uint32_t> up_cand_len;
  // Selection state (Greedy+/Greedy*).
  std::vector<std::uint32_t> positions;
  std::vector<std::uint32_t> greedy_positions;
  std::vector<std::uint32_t> sel_down;
  std::vector<TimeUs> slot_ts;
  std::vector<DurationUs> pair_diff;
  std::vector<DurationUs> bit_diffs;
  std::vector<std::uint8_t> never_match;
  std::vector<std::uint32_t> fixable;
  // try_advance scratch.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> changes;
  std::vector<std::uint32_t> affected;
  std::vector<DurationUs> new_diffs;
  // Greedy* enumeration.
  std::vector<std::uint32_t> free_slots;
  std::vector<std::uint32_t> free_bits;
  std::vector<std::uint32_t> star_positions;
  std::vector<std::uint32_t> best_positions;
  std::vector<std::uint8_t> is_free;
  std::vector<std::int64_t> upper_bound;
  // Brute force.
  std::vector<std::uint32_t> slot_of;
  std::vector<std::uint32_t> slot_down_index;
  std::vector<std::uint8_t> leaf_bits;
  // Greedy.
  std::vector<std::uint32_t> choice;
  std::vector<std::uint8_t> bits8;
};

/// The calling thread's decode workspace (constructed on first use).
DecodeWorkspace& thread_workspace();

/// Batched decoder: exact SoA ports of the four correlators over a shared
/// MatchContext.  A decoder is cheap to construct; it binds the calling
/// thread's workspace unless one is supplied.  Not thread-safe (the
/// workspace is mutable state); construct one per thread.
class BatchDecoder {
 public:
  explicit BatchDecoder(const CorrelatorConfig& config,
                        DecodeWorkspace* workspace = nullptr);

  /// Decodes one hypothesis with the given algorithm.  `context` must have
  /// been built for the pair being decoded (its flows and key are the
  /// single source of truth — there is no separate flow argument to
  /// mismatch).  Byte-identical to the cold scalar run_* reference (Brute
  /// Force with its default options).  Many hypotheses against one pair
  /// share one context: call this once per hypothesis.
  CorrelationResult decode_one(Algorithm algorithm,
                               const MatchContext& context,
                               const DecodeHypothesis& hypothesis);

 private:
  CorrelatorConfig config_;
  DecodeWorkspace* ws_;
};

}  // namespace sscor::batch
