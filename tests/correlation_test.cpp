// Tests for the core correlation engine: decode plans, selection state,
// and the four best-watermark algorithms, including the paper's key
// algorithmic invariants:
//
//   * Greedy's Hamming distance lower-bounds Brute Force's (paper §3.3.2).
//   * Greedy* with an unlimited bound never beats Brute Force and always
//     satisfies the order constraint.
//   * Greedy+ selections satisfy the timing and order constraints.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sscor/correlation/brute_force.hpp"
#include "sscor/correlation/correlator.hpp"
#include "sscor/correlation/greedy.hpp"
#include "sscor/correlation/greedy_plus.hpp"
#include "sscor/correlation/greedy_star.hpp"
#include "sscor/correlation/online.hpp"
#include "sscor/correlation/selection.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/watermark/decode_plan.hpp"
#include "sscor/watermark/embedder.hpp"

namespace sscor {
namespace {

WatermarkParams small_params() {
  WatermarkParams params;
  params.bits = 4;
  params.redundancy = 1;  // 8 pairs -> 16 relevant packets
  params.pair_offset = 1;
  // Large relative to the 0.5 pkt/s test flows so the embedding is nearly
  // error-free even at redundancy 1.
  params.embedding_delay = seconds(std::int64_t{2});
  return params;
}

/// A small correlated instance: watermarked Poisson flow, perturbed and
/// chaffed, with matching sets small enough for Brute Force.
struct SmallInstance {
  WatermarkedFlow marked;
  Flow downstream;
};

SmallInstance make_small_instance(std::uint64_t seed, double chaff_rate,
                                  DurationUs delta) {
  const traffic::PoissonFlowModel model(0.5);
  const Flow flow = model.generate(20, 0, mix_seeds(seed, 1));
  Rng rng(mix_seeds(seed, 2));
  const Watermark wm = Watermark::random(small_params().bits, rng);
  const Embedder embedder(small_params(), mix_seeds(seed, 3));
  SmallInstance instance{embedder.embed(flow, wm), Flow{}};
  const traffic::UniformPerturber perturber(delta, mix_seeds(seed, 4));
  const traffic::PoissonChaffInjector chaff(chaff_rate, mix_seeds(seed, 5));
  instance.downstream = chaff.apply(perturber.apply(instance.marked.flow));
  return instance;
}

// The plan is checked against the key schedule itself: every expected
// slot, role, group sign and preference comes from schedule.bit_plan().

TEST(DecodePlan, SlotsSortedUniqueAndConsistent) {
  const auto params = small_params();
  const auto schedule = KeySchedule::create(params, 100, 5);
  Rng rng(6);
  const Watermark target = Watermark::random(params.bits, rng);
  const DecodePlan plan(schedule, target);

  // The slots are the pair endpoints in increasing upstream order, and
  // slot_of inverts them; any other index, however large, has no slot.
  std::vector<std::uint32_t> endpoints;
  for (const BitPlan& bits : schedule.bit_plans()) {
    for (const auto* group : {&bits.group1, &bits.group2}) {
      for (const PacketPair& pair : *group) {
        endpoints.insert(endpoints.end(), {pair.first, pair.second});
      }
    }
  }
  std::sort(endpoints.begin(), endpoints.end());
  ASSERT_EQ(endpoints.size(), 2 * params.total_pairs());
  const auto slot_up = plan.slot_up();
  ASSERT_EQ(std::vector<std::uint32_t>(slot_up.begin(), slot_up.end()),
            endpoints);
  for (std::size_t s = 1; s < slot_up.size(); ++s) {
    EXPECT_LT(slot_up[s - 1], slot_up[s]);
  }
  for (std::uint32_t up = 0; up < schedule.flow_length(); ++up) {
    const auto it = std::find(slot_up.begin(), slot_up.end(), up);
    EXPECT_EQ(plan.slot_of(up),
              it == slot_up.end()
                  ? DecodePlan::kNoSlot
                  : static_cast<std::uint32_t>(it - slot_up.begin()))
        << "upstream index " << up;
  }
  EXPECT_EQ(plan.slot_of(std::numeric_limits<std::size_t>::max()),
            DecodePlan::kNoSlot);
  // Rebuilt over a longer flow's plan, it answers like a fresh build: the
  // build resets every entry the previous one set.
  DecodePlan rebuilt(KeySchedule::create(params, 200, 6), target);
  rebuilt.build(schedule, target);
  for (std::uint32_t up = 0; up < 200; ++up) {
    EXPECT_EQ(rebuilt.slot_of(up), plan.slot_of(up)) << "rebuilt, " << up;
  }

  // Each bit's pairs, group 1 first, point at their endpoints' slots with
  // the group's sign; those slots carry the bit and make up its slice.
  std::size_t p = 0;
  for (std::uint32_t bit = 0; bit < params.bits; ++bit) {
    const BitPlan& bits = schedule.bit_plan(bit);
    std::vector<std::uint32_t> want_slots;
    for (const auto* group : {&bits.group1, &bits.group2}) {
      for (const PacketPair& pair : *group) {
        const std::uint32_t first = plan.pair_first_slot()[p];
        const std::uint32_t second = plan.pair_second_slot()[p];
        EXPECT_EQ(first, plan.slot_of(pair.first));
        EXPECT_EQ(second, plan.slot_of(pair.second));
        EXPECT_EQ(plan.pair_sign()[p++], group == &bits.group1 ? 1 : -1);
        EXPECT_EQ(plan.slot_bit()[first], bit);
        EXPECT_EQ(plan.slot_bit()[second], bit);
        want_slots.insert(want_slots.end(), {first, second});
      }
    }
    std::sort(want_slots.begin(), want_slots.end());
    const auto got = plan.bit_slots(bit);
    EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want_slots);
    EXPECT_EQ(plan.target_bits()[bit], target.bit(bit));
  }
  EXPECT_EQ(p, std::size_t{params.total_pairs()});
}

TEST(DecodePlan, GreedyPreferenceMatchesFigure2) {
  // Wanted bit 1, group 1 (wants a large IPD): first packet earliest,
  // second latest.  Group 2 (wants small): the opposite.  A wanted 0
  // swaps the groups.
  const auto params = small_params();
  const auto schedule = KeySchedule::create(params, 100, 5);
  for (const std::string bits : {"1111", "0000", "0110"}) {
    const DecodePlan plan(schedule, Watermark::parse(bits));
    for (std::uint32_t bit = 0; bit < params.bits; ++bit) {
      const BitPlan& pairs = schedule.bit_plan(bit);
      for (const auto* group : {&pairs.group1, &pairs.group2}) {
        const bool earliest = (bits[bit] == '1') == (group == &pairs.group1);
        for (const PacketPair& pair : *group) {
          EXPECT_EQ(plan.slot_prefer()[plan.slot_of(pair.first)] == 1,
                    earliest) << bits;
          EXPECT_EQ(plan.slot_prefer()[plan.slot_of(pair.second)] == 1,
                    !earliest) << bits;
        }
      }
    }
  }
}

class AlgorithmPropertyTest : public testing::TestWithParam<int> {};

TEST_P(AlgorithmPropertyTest, GreedyLowerBoundsBruteForce) {
  const auto instance = make_small_instance(100 + GetParam(), 0.5,
                                            seconds(std::int64_t{1}));
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{1});
  config.hamming_threshold = 1;
  config.cost_bound = 200'000'000;

  const auto brute =
      run_brute_force(instance.marked.schedule, instance.marked.watermark,
                      instance.marked.flow, instance.downstream, config);
  const auto greedy =
      run_greedy(instance.marked.schedule, instance.marked.watermark,
                 instance.marked.flow, instance.downstream, config);
  if (brute.matching_complete) {
    ASSERT_FALSE(brute.cost_bound_hit) << "instance too large for the test";
    EXPECT_LE(greedy.hamming, brute.hamming) << "greedy must lower-bound";
  }
}

TEST_P(AlgorithmPropertyTest, GreedyStarNeverBeatsBruteForceAndPlusIsValid) {
  const auto instance = make_small_instance(200 + GetParam(), 1.0,
                                            seconds(std::int64_t{1}));
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{1});
  config.hamming_threshold = 0;  // force the final phases to run
  config.cost_bound = 200'000'000;

  const auto brute =
      run_brute_force(instance.marked.schedule, instance.marked.watermark,
                      instance.marked.flow, instance.downstream, config);
  const auto star =
      run_greedy_star(instance.marked.schedule, instance.marked.watermark,
                      instance.marked.flow, instance.downstream, config);
  const auto plus =
      run_greedy_plus(instance.marked.schedule, instance.marked.watermark,
                      instance.marked.flow, instance.downstream, config);
  ASSERT_EQ(star.matching_complete, brute.matching_complete);
  if (!brute.matching_complete) return;
  ASSERT_FALSE(brute.cost_bound_hit) << "instance too large for the test";
  // Brute Force is exact over order-consistent assignments; Greedy* and
  // Greedy+ decode only order-consistent selections, so neither can beat
  // it.
  EXPECT_GE(star.hamming, brute.hamming);
  EXPECT_GE(plus.hamming, star.hamming * 0u + brute.hamming);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmPropertyTest, testing::Range(0, 10));

TEST(SelectionState, RepairProducesOrderConsistentSelection) {
  for (int s = 0; s < 8; ++s) {
    const auto instance = make_small_instance(300 + s, 2.0,
                                              seconds(std::int64_t{2}));
    CostMeter cost;
    auto sets = CandidateSets::build(instance.marked.flow,
                                     instance.downstream,
                                     seconds(std::int64_t{2}),
                                     std::nullopt, cost);
    ASSERT_TRUE(sets.complete());
    ASSERT_TRUE(sets.prune(cost));
    const DecodePlan plan(instance.marked.schedule,
                          instance.marked.watermark);
    const auto down_ts = instance.downstream.timestamps();
    SelectionState state(plan, sets, down_ts, cost);
    // Greedy initialisation generally violates order; repair must fix it.
    state.repair_order();
    EXPECT_TRUE(state.order_consistent()) << "seed " << s;
  }
}

TEST(SelectionState, TryAdvanceKeepsOrderAndImproves) {
  const auto instance = make_small_instance(999, 2.0,
                                            seconds(std::int64_t{2}));
  CostMeter cost;
  auto sets = CandidateSets::build(instance.marked.flow, instance.downstream,
                                   seconds(std::int64_t{2}), std::nullopt,
                                   cost);
  ASSERT_TRUE(sets.complete());
  ASSERT_TRUE(sets.prune(cost));
  const DecodePlan plan(instance.marked.schedule, instance.marked.watermark);
  const auto down_ts = instance.downstream.timestamps();
  SelectionState state(plan, sets, down_ts, cost);
  state.repair_order();

  for (std::uint32_t bit = 0; bit < plan.bit_count(); ++bit) {
    if (state.bit_matches(bit)) continue;
    const DurationUs before = state.bit_diff(bit);
    for (const auto slot : plan.bit_slots(bit)) {
      const auto outcome = state.try_advance(slot, bit);
      if (outcome == SelectionState::MoveOutcome::kCommitted) {
        EXPECT_TRUE(state.order_consistent());
        const bool want_one = plan.target_bits()[bit] == 1;
        if (want_one) {
          EXPECT_GT(state.bit_diff(bit), before);
        } else {
          EXPECT_LT(state.bit_diff(bit), before);
        }
      }
    }
  }
}

TEST(Correlator, DetectsIdenticalFlow) {
  const auto instance = make_small_instance(42, 0.0, 0);
  CorrelatorConfig config;
  config.max_delay = 0;
  config.hamming_threshold = 1;
  for (const auto algorithm :
       {Algorithm::kBruteForce, Algorithm::kGreedy, Algorithm::kGreedyPlus,
        Algorithm::kGreedyStar}) {
    const Correlator correlator(config, algorithm);
    const auto result =
        correlator.correlate(instance.marked, instance.marked.flow);
    EXPECT_TRUE(result.correlated) << to_string(algorithm);
    EXPECT_EQ(result.hamming, 0u) << to_string(algorithm);
    EXPECT_GT(result.cost, 0u) << to_string(algorithm);
  }
}

TEST(Correlator, RejectsDisjointTimeRanges) {
  const auto instance = make_small_instance(43, 0.0, 0);
  // A flow entirely in the far future: no matches possible.
  const Flow future = instance.marked.flow.shifted(seconds(std::int64_t{10'000}));
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{2});
  config.hamming_threshold = 1;  // the 4-bit instance needs a tight bar
  for (const auto algorithm :
       {Algorithm::kBruteForce, Algorithm::kGreedyPlus,
        Algorithm::kGreedyStar}) {
    const Correlator correlator(config, algorithm);
    const auto result = correlator.correlate(instance.marked, future);
    EXPECT_FALSE(result.correlated) << to_string(algorithm);
    EXPECT_FALSE(result.matching_complete) << to_string(algorithm);
  }
  // Greedy never computes full matching but still cannot decode a close
  // watermark out of nothing.
  const Correlator greedy(config, Algorithm::kGreedy);
  EXPECT_FALSE(greedy.correlate(instance.marked, future).correlated);
}

TEST(Correlator, EndToEndUnderPerturbationAndChaff) {
  // The flagship scenario at small scale: perturbed + chaffed downstream
  // flow is recovered by the matching-based algorithms.
  int detected_plus = 0;
  int detected_star = 0;
  constexpr int kTrials = 8;
  for (int t = 0; t < kTrials; ++t) {
    const auto instance = make_small_instance(700 + t, 1.0,
                                              seconds(std::int64_t{2}));
    CorrelatorConfig config;
    config.max_delay = seconds(std::int64_t{2});
    config.hamming_threshold = 1;
    detected_plus += Correlator(config, Algorithm::kGreedyPlus)
                         .correlate(instance.marked, instance.downstream)
                         .correlated;
    detected_star += Correlator(config, Algorithm::kGreedyStar)
                         .correlate(instance.marked, instance.downstream)
                         .correlated;
  }
  EXPECT_GE(detected_plus, kTrials - 2);
  EXPECT_GE(detected_star, kTrials - 2);
}

TEST(Correlator, GreedyStarRespectsCostBound) {
  const auto instance = make_small_instance(55, 3.0,
                                            seconds(std::int64_t{3}));
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{3});
  config.hamming_threshold = 0;
  config.cost_bound = 500;  // absurdly tight
  const Correlator correlator(config, Algorithm::kGreedyStar);
  const auto result =
      correlator.correlate(instance.marked, instance.downstream);
  // The bound may stop the run anywhere, but cost accounting must show
  // we stopped promptly after it.
  EXPECT_LE(result.cost, 2'000u);
}

TEST(BruteForce, PruningDoesNotChangeTheOptimum) {
  for (int s = 0; s < 6; ++s) {
    const auto instance = make_small_instance(800 + s, 0.7,
                                              seconds(std::int64_t{1}));
    CorrelatorConfig config;
    config.max_delay = seconds(std::int64_t{1});
    config.cost_bound = 500'000'000;
    BruteForceOptions no_prune;
    no_prune.prune = false;
    const auto pruned =
        run_brute_force(instance.marked.schedule, instance.marked.watermark,
                        instance.marked.flow, instance.downstream, config);
    const auto raw =
        run_brute_force(instance.marked.schedule, instance.marked.watermark,
                        instance.marked.flow, instance.downstream, config,
                        no_prune);
    ASSERT_FALSE(raw.cost_bound_hit) << "instance too large for the test";
    EXPECT_EQ(pruned.matching_complete, raw.matching_complete);
    if (raw.matching_complete) {
      EXPECT_EQ(pruned.hamming, raw.hamming) << "seed " << s;
      EXPECT_LE(pruned.cost, raw.cost) << "pruning should not cost more";
    }
  }
}

/// Field-by-field equality of two results — the golden interleaving tests
/// pin every observable, not just the verdict.
void expect_identical_result(const CorrelationResult& got,
                             const CorrelationResult& want,
                             const std::string& label) {
  EXPECT_EQ(got.algorithm, want.algorithm) << label;
  EXPECT_EQ(got.correlated, want.correlated) << label;
  EXPECT_EQ(got.hamming, want.hamming) << label;
  EXPECT_EQ(got.best_watermark, want.best_watermark) << label;
  EXPECT_EQ(got.cost, want.cost) << label;
  EXPECT_EQ(got.matching_complete, want.matching_complete) << label;
  EXPECT_EQ(got.cost_bound_hit, want.cost_bound_hit) << label;
  EXPECT_EQ(got.interrupted, want.interrupted) << label;
  EXPECT_EQ(got.stop_reason, want.stop_reason) << label;
  EXPECT_EQ(got.degraded, want.degraded) << label;
}

// Golden interleaving test: the same downstream flow replayed under three
// arrival-order interleavings — one packet per ingest(), shared-buffer
// chunked ingest_appended(), and one bulk append — must produce a
// CorrelationResult identical to the batch Correlator in every field,
// including the paper's cost metric.  Early exits are disabled so even
// pairs the finality proofs would reject take the offline path.
TEST(OnlineCorrelator, GoldenInterleavingsMatchBatch) {
  OnlineOptions no_exit;
  no_exit.early_exit = false;
  for (const Algorithm algorithm :
       {Algorithm::kGreedy, Algorithm::kGreedyPlus, Algorithm::kGreedyStar,
        Algorithm::kBruteForce}) {
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      const SmallInstance instance =
          make_small_instance(seed, 2.0, seconds(std::int64_t{1}));
      CorrelatorConfig config;
      config.max_delay = seconds(std::int64_t{2});
      const CorrelationResult batch = Correlator(config, algorithm)
                                          .correlate(instance.marked,
                                                     instance.downstream);
      const std::string label = "algorithm " + to_string(algorithm) +
                                ", seed " + std::to_string(seed);

      // Interleaving 1: standalone, one packet per ingest() call.
      OnlineCorrelator per_packet(instance.marked, config, algorithm,
                                  no_exit);
      for (const PacketRecord& packet : instance.downstream.packets()) {
        per_packet.ingest(packet);
      }
      per_packet.finish();
      expect_identical_result(per_packet.result(), batch,
                              label + ", per-packet");

      // Interleaving 2: shared buffer, ingest_appended() every 3 packets
      // (the streaming engine's batched cadence).
      const auto upstream =
          std::make_shared<OnlineUpstream>(instance.marked);
      const auto chunk_buffer = std::make_shared<AppendOnlyFlow>();
      OnlineCorrelator chunked(upstream, chunk_buffer, config, algorithm,
                               no_exit);
      std::size_t pending = 0;
      for (const PacketRecord& packet : instance.downstream.packets()) {
        chunk_buffer->append(packet);
        if (++pending == 3) {
          chunked.ingest_appended();
          pending = 0;
        }
      }
      chunked.ingest_appended();
      chunked.finish();
      expect_identical_result(chunked.result(), batch, label + ", chunked");

      // Interleaving 3: the whole capture lands in one append burst.
      const auto bulk_buffer = std::make_shared<AppendOnlyFlow>();
      OnlineCorrelator bulk(upstream, bulk_buffer, config, algorithm,
                            no_exit);
      for (const PacketRecord& packet : instance.downstream.packets()) {
        bulk_buffer->append(packet);
      }
      bulk.ingest_appended();
      bulk.finish();
      expect_identical_result(bulk.result(), batch, label + ", bulk");
    }
  }
}

// With early exits enabled the online verdict must still agree with batch
// on the decision, and a caller that stops feeding once ingest() returns
// false gets the same verdict as one that replays the full stream.
TEST(OnlineCorrelator, EarlyExitVerdictAgreesWithBatch) {
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    // Mismatched pair: watermarked flow from one instance, downstream from
    // another — the typical candidate for a finality-proof rejection.
    const SmallInstance a =
        make_small_instance(seed, 2.0, seconds(std::int64_t{1}));
    const SmallInstance b =
        make_small_instance(seed + 100, 2.0, seconds(std::int64_t{1}));
    CorrelatorConfig config;
    config.max_delay = seconds(std::int64_t{2});
    const Algorithm algorithm = Algorithm::kGreedyPlus;
    const CorrelationResult batch =
        Correlator(config, algorithm).correlate(a.marked, b.downstream);

    OnlineCorrelator online(a.marked, config, algorithm);
    bool undecided = true;
    std::size_t fed = 0;
    for (const PacketRecord& packet : b.downstream.packets()) {
      if (!undecided) break;  // stop-feeding-once-decided interleaving
      undecided = online.ingest(packet);
      ++fed;
    }
    online.finish();
    const CorrelationResult result = online.result();
    EXPECT_EQ(result.correlated, batch.correlated) << "seed " << seed;
    if (online.early_rejected()) {
      // Early rejection freezes the cost at the packets actually seen.
      EXPECT_FALSE(result.correlated);
      EXPECT_EQ(result.cost, fed);
      EXPECT_FALSE(result.matching_complete);
    } else {
      expect_identical_result(result, batch,
                              "undecided pair, seed " + std::to_string(seed));
    }
  }
}

TEST(AlgorithmNames, ToString) {
  EXPECT_EQ(to_string(Algorithm::kBruteForce), "BruteForce");
  EXPECT_EQ(to_string(Algorithm::kGreedy), "Greedy");
  EXPECT_EQ(to_string(Algorithm::kGreedyPlus), "Greedy+");
  EXPECT_EQ(to_string(Algorithm::kGreedyStar), "Greedy*");
}

}  // namespace
}  // namespace sscor
