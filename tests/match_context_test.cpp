// Tests for the shared MatchContext: what its build records (the candidate
// sets, pruned in place, and the access counts of the build and prune
// phases) and its key check.  Decodes over a context are checked against
// the cold scalar reference in batch_kernel_test.cpp.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/matching/match_context.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/traffic/size_model.hpp"
#include "sscor/util/rng.hpp"
#include "sscor/watermark/embedder.hpp"

namespace sscor {
namespace {

void expect_same_result(const CorrelationResult& cold,
                        const CorrelationResult& cached) {
  EXPECT_EQ(cold.algorithm, cached.algorithm);
  EXPECT_EQ(cold.correlated, cached.correlated);
  EXPECT_EQ(cold.hamming, cached.hamming);
  EXPECT_EQ(cold.best_watermark, cached.best_watermark);
  EXPECT_EQ(cold.cost, cached.cost) << "cost-replay invariant violated";
  EXPECT_EQ(cold.matching_complete, cached.matching_complete);
  EXPECT_EQ(cold.cost_bound_hit, cached.cost_bound_hit);
}

void expect_same_sets(const CandidateSets& a, const CandidateSets& b) {
  ASSERT_EQ(a.upstream_size(), b.upstream_size());
  for (std::size_t i = 0; i < a.upstream_size(); ++i) {
    const auto sa = a.set(i);
    const auto sb = b.set(i);
    ASSERT_EQ(sa.size(), sb.size()) << "set " << i;
    for (std::size_t k = 0; k < sa.size(); ++k) {
      EXPECT_EQ(sa[k], sb[k]) << "set " << i << " candidate " << k;
    }
  }
}

WatermarkParams small_params() {
  WatermarkParams params;
  params.bits = 4;
  params.redundancy = 1;
  params.pair_offset = 1;
  params.embedding_delay = seconds(std::int64_t{2});
  return params;
}

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

CorrelatorConfig small_config() {
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{1});
  config.hamming_threshold = 1;
  config.cost_bound = 200'000'000;
  return config;
}

TEST(MatchContextRecording, CostsMatchManualMeters) {
  const auto instance = make_small_instance(81, 1.5, seconds(std::int64_t{1}));
  const Flow& up = instance.marked.flow;
  const Flow& down = instance.downstream;
  const DurationUs delta = seconds(std::int64_t{1});

  const MatchContext context =
      MatchContext::build(up, down, delta, std::nullopt);

  CostMeter build_meter;
  auto sets = CandidateSets::build(up, down, delta, std::nullopt,
                                   build_meter);
  EXPECT_EQ(context.build_cost(), build_meter.accesses());
  EXPECT_EQ(context.complete(), sets.complete());

  ASSERT_TRUE(sets.complete());
  CostMeter prune_meter;
  const bool ok = sets.prune(prune_meter);
  EXPECT_EQ(context.prune_ok(), ok);
  EXPECT_EQ(context.prune_cost(), prune_meter.accesses());
  expect_same_sets(context.pruned_sets(), sets);
}

TEST(MatchContextRecording, QuantizedSizeHoistIsEquivalent) {
  const auto instance = make_small_instance(82, 1.0, seconds(std::int64_t{1}));
  const Flow& up = instance.marked.flow;
  const Flow& down = instance.downstream;
  const DurationUs delta = seconds(std::int64_t{1});
  const SizeConstraint size{16};

  CostMeter scan_meter;
  const auto windows = scan_match_windows(up.timestamps(), down.timestamps(),
                                          delta, scan_meter);

  CostMeter inline_meter;
  const auto built_inline = CandidateSets::build_from_windows(
      windows, up, down, size, {}, inline_meter);

  std::vector<std::uint32_t> quantized;
  for (std::size_t i = 0; i < up.size(); ++i) {
    quantized.push_back(
        traffic::quantize_size(up.packet(i).size, size.block_bytes));
  }
  CostMeter hoisted_meter;
  const auto built_hoisted = CandidateSets::build_from_windows(
      windows, up, down, size, quantized, hoisted_meter);

  expect_same_sets(built_inline, built_hoisted);
  EXPECT_EQ(inline_meter.accesses(), hoisted_meter.accesses());

  // The context hoists exactly these values.
  const MatchContext context = MatchContext::build(up, down, delta, size);
  ASSERT_EQ(context.upstream_quantized_sizes().size(), up.size());
  for (std::size_t i = 0; i < up.size(); ++i) {
    EXPECT_EQ(context.upstream_quantized_sizes()[i], quantized[i]);
  }
}

TEST(MatchContextApi, MatchesChecksPairIdentityAndKey) {
  const auto a = make_small_instance(91, 0.5, seconds(std::int64_t{1}));
  const auto b = make_small_instance(92, 0.5, seconds(std::int64_t{1}));
  const DurationUs delta = seconds(std::int64_t{1});
  const MatchContext context =
      MatchContext::build(a.marked.flow, a.downstream, delta, std::nullopt);

  EXPECT_TRUE(
      context.matches(a.marked.flow, a.downstream, delta, std::nullopt));
  EXPECT_FALSE(
      context.matches(b.marked.flow, a.downstream, delta, std::nullopt));
  EXPECT_FALSE(
      context.matches(a.marked.flow, b.downstream, delta, std::nullopt));
  EXPECT_FALSE(context.matches(a.marked.flow, a.downstream,
                               seconds(std::int64_t{2}), std::nullopt));
  EXPECT_FALSE(context.matches(a.marked.flow, a.downstream, delta,
                               SizeConstraint{16}));
}

TEST(MatchContextApi, CorrelatorFallsBackOnMismatchedContext) {
  // A context for the wrong pair is silently dropped by the high-level
  // Correlator: the result equals a cold run on the actual pair.
  const auto a = make_small_instance(93, 0.5, seconds(std::int64_t{1}));
  const auto b = make_small_instance(94, 0.5, seconds(std::int64_t{1}));
  const auto config = small_config();
  const MatchContext wrong =
      MatchContext::build(a.marked.flow, a.downstream, config.max_delay,
                          config.size_constraint);
  for (const Algorithm algorithm :
       {Algorithm::kGreedy, Algorithm::kGreedyPlus, Algorithm::kGreedyStar,
        Algorithm::kBruteForce}) {
    SCOPED_TRACE(to_string(algorithm));
    const Correlator correlator(config, algorithm);
    expect_same_result(correlator.correlate(a.marked, b.downstream),
                       correlator.correlate(a.marked, b.downstream, &wrong));
  }
}

}  // namespace
}  // namespace sscor
