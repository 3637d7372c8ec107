// The SoA decode engine behind Correlator::correlate: every production
// decode of the paper's four algorithms runs here, over a MatchContext and
// a DecodePlan (watermark/decode_plan.hpp), the key schedule re-indexed as
// parallel arrays.  The scalar correlators (run_greedy_plus & friends)
// read candidate sets through bounds-checked accessors and allocate their
// plan and selection arrays per decode; this layer keeps the same
// algorithms on contiguous, reused storage:
//
//   DecodeWorkspace a reusable arena (thread-local by default) holding
//                   flat candidate pointer/length tables, selection state,
//                   and all per-algorithm scratch — after warm-up a decode
//                   allocates only its result watermark.
//   BatchDecoder    exact ports of the four correlators (Greedy, Greedy+,
//                   Greedy*, BruteForce) over the flat arrays, with the
//                   inner sweeps (timestamp gathers, signed pair
//                   differences, per-bit reductions) routed through the
//                   batch_kernels.hpp scalar/vectorized pairs.
//
// decode_one takes a built plan and only reads it, so every decode of one
// hypothesis (the degradation ladder's tiers, say) shares one build.
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
#include "sscor/watermark/decode_plan.hpp"

namespace sscor::batch {

/// Reusable decode arena.  One workspace serves any number of sequential
/// decodes over any pairs and hypothesis sizes; vectors only ever grow.
/// Never shared across threads — use thread_workspace() for the per-thread
/// instance.
struct DecodeWorkspace {
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

  /// Decodes one hypothesis, the (schedule, target) pair `plan` was built
  /// from, with the given algorithm.  `context` must have been built for
  /// the pair being decoded (its flows and key are the single source of
  /// truth — there is no separate flow argument to mismatch).
  /// Byte-identical to the cold scalar run_* reference.  Many hypotheses
  /// against one pair share one context: build one plan per hypothesis and
  /// call this once per plan.
  CorrelationResult decode_one(Algorithm algorithm,
                               const MatchContext& context,
                               const DecodePlan& plan);

 private:
  CorrelatorConfig config_;
  DecodeWorkspace* ws_;
};

}  // namespace sscor::batch
