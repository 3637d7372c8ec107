// Parity tests for production decoding (batch::BatchDecoder over a shared
// MatchContext, and Correlator::correlate on top of it).
//
// The load-bearing property: for every algorithm, a decode over the pair's
// context returns a CorrelationResult identical *in every field, including
// the paper's cost metric and the interruption fields* to the cold scalar
// run_* reference, which runs its own matching phase and shares no state
// with the context.  The fig07-fig10 cost CSVs therefore cannot drift with
// context sharing, and SoA layout and kernel dispatch must never change a
// number.

#include <gtest/gtest.h>

#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "sscor/correlation/brute_force.hpp"
#include "sscor/correlation/correlator.hpp"
#include "sscor/correlation/greedy.hpp"
#include "sscor/correlation/greedy_plus.hpp"
#include "sscor/correlation/greedy_star.hpp"
#include "sscor/flow/flow_extractor.hpp"
#include "sscor/flow/pcap_synth.hpp"
#include "sscor/matching/batch_kernel.hpp"
#include "sscor/matching/batch_kernels.hpp"
#include "sscor/matching/match_context.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/loss_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/traffic/size_model.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/rng.hpp"
#include "sscor/watermark/decode_plan.hpp"
#include "sscor/watermark/embedder.hpp"

namespace sscor {
namespace {

constexpr Algorithm kAlgorithms[] = {Algorithm::kGreedy,
                                     Algorithm::kGreedyPlus,
                                     Algorithm::kGreedyStar,
                                     Algorithm::kBruteForce};

void expect_same_result(const CorrelationResult& reference,
                        const CorrelationResult& production) {
  EXPECT_EQ(reference.algorithm, production.algorithm);
  EXPECT_EQ(reference.correlated, production.correlated);
  EXPECT_EQ(reference.hamming, production.hamming);
  EXPECT_EQ(reference.best_watermark, production.best_watermark);
  EXPECT_EQ(reference.cost, production.cost)
      << "cost-replay invariant violated";
  EXPECT_EQ(reference.matching_complete, production.matching_complete);
  EXPECT_EQ(reference.cost_bound_hit, production.cost_bound_hit);
  EXPECT_EQ(reference.interrupted, production.interrupted);
  EXPECT_EQ(reference.stop_reason, production.stop_reason);
  EXPECT_EQ(reference.degraded, production.degraded);
}

/// The cold scalar reference run of `algorithm`: the matching phase runs
/// inline.
CorrelationResult cold_scalar_run(Algorithm algorithm,
                                  const KeySchedule& schedule,
                                  const Watermark& target,
                                  const Flow& upstream,
                                  const Flow& downstream,
                                  const CorrelatorConfig& config) {
  switch (algorithm) {
    case Algorithm::kBruteForce:
      return run_brute_force(schedule, target, upstream, downstream, config);
    case Algorithm::kGreedy:
      return run_greedy(schedule, target, upstream, downstream, config);
    case Algorithm::kGreedyPlus:
      return run_greedy_plus(schedule, target, upstream, downstream, config);
    case Algorithm::kGreedyStar:
      return run_greedy_star(schedule, target, upstream, downstream, config);
  }
  throw InternalError("unhandled algorithm");
}

CorrelationResult cold_scalar_run(Algorithm algorithm,
                                  const WatermarkedFlow& marked,
                                  const Flow& downstream,
                                  const CorrelatorConfig& config) {
  return cold_scalar_run(algorithm, marked.schedule, marked.watermark,
                         marked.flow, downstream, config);
}

/// Decodes every algorithm over one shared context and checks it against
/// the cold reference.  Brute force is opt-in (exponential on larger
/// instances).
void check_parity(const WatermarkedFlow& marked, const Flow& downstream,
                  const CorrelatorConfig& config, bool include_brute = true) {
  const MatchContext context =
      MatchContext::build(marked.flow, downstream, config.max_delay,
                          config.size_constraint);
  batch::BatchDecoder decoder(config);
  const DecodePlan plan(marked.schedule, marked.watermark);
  for (const Algorithm algorithm : kAlgorithms) {
    if (algorithm == Algorithm::kBruteForce && !include_brute) continue;
    SCOPED_TRACE(to_string(algorithm));
    expect_same_result(cold_scalar_run(algorithm, marked, downstream, config),
                       decoder.decode_one(algorithm, context, plan));
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

/// A paper-scale pair over the tcplib-style generator: 400 packets, a
/// 24-bit watermark, Delta = 7 s and 5 pkt/s of chaff.
SmallInstance make_tcplib_instance(std::uint64_t seed) {
  const traffic::TcplibTelnetModel model;
  const Flow flow = model.generate(400, 0, seed);
  Rng rng(seed + 1);
  const Embedder embedder(WatermarkParams{}, seed + 2);
  SmallInstance instance{embedder.embed(flow, Watermark::random(24, rng)),
                         Flow{}};
  const traffic::UniformPerturber perturber(seconds(std::int64_t{7}),
                                            seed + 3);
  const traffic::PoissonChaffInjector chaff(5.0, seed + 4);
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

/// Parity on the small instance of each seed.
void check_small_seeds(std::initializer_list<std::uint64_t> seeds,
                       double chaff_rate, const CorrelatorConfig& config) {
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(seed);
    const auto instance =
        make_small_instance(seed, chaff_rate, seconds(std::int64_t{1}));
    check_parity(instance.marked, instance.downstream, config);
  }
}

CorrelatorConfig sized_config() {
  auto config = small_config();
  config.size_constraint = SizeConstraint{16};
  return config;
}

/// A bound small enough that the replayed matching cost alone exhausts the
/// meter; bound-hit and interruption reporting must stay identical.
CorrelatorConfig tight_bound_config() {
  auto config = small_config();
  config.cost_bound = 50;
  return config;
}

/// Upstream of one instance against the downstream of another: the
/// incomplete-matching reject path must replay with identical cost too.
void check_uncorrelated_pair(std::uint64_t seed) {
  const auto a = make_small_instance(seed, 1.0, seconds(std::int64_t{1}));
  const auto b = make_small_instance(seed + 1, 1.0, seconds(std::int64_t{1}));
  check_parity(a.marked, b.downstream, small_config());
}

/// Paper-scale parameters (brute force excluded: exponential).
void check_tcplib_pair(std::uint64_t seed) {
  const auto instance = make_tcplib_instance(seed);
  CorrelatorConfig config;  // defaults: Delta=7s, h=7, bound=10^6
  check_parity(instance.marked, instance.downstream, config,
               /*include_brute=*/false);
}

/// The matching phase is watermark-independent: one context serves every
/// (schedule, watermark) hypothesis a defender scans over the same pair,
/// and each decode over it must equal the cold reference, matches or not.
void check_key_scan(std::uint64_t seed, std::uint64_t first_key,
                    std::uint64_t keys) {
  const auto instance =
      make_small_instance(seed, 0.5, seconds(std::int64_t{1}));
  const auto config = small_config();
  const MatchContext context =
      MatchContext::build(instance.marked.flow, instance.downstream,
                          config.max_delay, config.size_constraint);
  batch::BatchDecoder decoder(config);
  Rng rng(seed + 1);
  for (std::uint64_t key = first_key; key < first_key + keys; ++key) {
    SCOPED_TRACE(key);
    const auto schedule = KeySchedule::create(
        small_params(), instance.marked.flow.size(), key);
    const Watermark target = Watermark::random(small_params().bits, rng);
    const DecodePlan plan(schedule, target);
    for (const Algorithm algorithm : kAlgorithms) {
      SCOPED_TRACE(to_string(algorithm));
      expect_same_result(
          cold_scalar_run(algorithm, schedule, target, instance.marked.flow,
                          instance.downstream, config),
          decoder.decode_one(algorithm, context, plan));
    }
  }
}

// MatchContextParity, MatchContextReuse and BatchKernelParity check one
// property, production over a context against the cold reference; each test
// keeps the name and the inputs it has always had.

TEST(MatchContextParity, AllAlgorithmsOnSmallInstances) {
  check_small_seeds({10, 11, 12, 13, 14, 15}, 0.5, small_config());
}

TEST(MatchContextParity, UncorrelatedPairsRejectIdentically) {
  check_uncorrelated_pair(21);
}

TEST(MatchContextParity, SizeConstraint) {
  check_small_seeds({31, 32, 33}, 0.5, sized_config());
}

TEST(MatchContextParity, TightCostBound) {
  check_small_seeds({41}, 2.0, tight_bound_config());
}

TEST(MatchContextParity, TcplibFlows) { check_tcplib_pair(71); }

TEST(MatchContextParity, RecordedTraceRoundTrip) {
  // "Recorded" fixture: synthesize the pair into a pcap capture, extract
  // the flows back (keeping zero-payload packets so nothing is dropped),
  // and run parity on the extracted flows — timestamps that survived the
  // usec-resolution pcap round trip.
  const auto instance = make_small_instance(51, 1.0, seconds(std::int64_t{1}));
  const net::FiveTuple up_tuple{net::Ipv4Address::parse("10.1.0.1"),
                                net::Ipv4Address::parse("10.2.0.1"), 40001,
                                22, net::IpProtocol::kTcp};
  const net::FiveTuple down_tuple{net::Ipv4Address::parse("10.2.0.1"),
                                  net::Ipv4Address::parse("10.3.0.1"), 40002,
                                  22, net::IpProtocol::kTcp};
  const auto records =
      synthesize_capture({SynthesisInput{up_tuple, &instance.marked.flow},
                          SynthesisInput{down_tuple, &instance.downstream}});
  ExtractorOptions options;
  options.payload_only = false;
  const auto flows =
      extract_flows(records, pcap::LinkType::kRawIp, options);
  ASSERT_EQ(flows.size(), 2u);
  const Flow& up = flows[0].tuple == up_tuple ? flows[0].flow : flows[1].flow;
  const Flow& down =
      flows[0].tuple == up_tuple ? flows[1].flow : flows[0].flow;
  ASSERT_EQ(up.size(), instance.marked.flow.size());
  ASSERT_EQ(down.size(), instance.downstream.size());

  const WatermarkedFlow extracted{up, instance.marked.schedule,
                                  instance.marked.watermark};
  check_parity(extracted, down, small_config());
}

TEST(MatchContextReuse, AcrossWatermarkHypotheses) {
  check_key_scan(61, 900, 4);
}

TEST(BatchKernelParity, AllAlgorithmsOnSmallInstances) {
  check_small_seeds({110, 111, 112, 113, 114, 115}, 0.5, small_config());
}

TEST(BatchKernelParity, HeavyChaff) {
  check_small_seeds({120, 121, 122}, 3.0, small_config());
}

TEST(BatchKernelParity, SizeConstraint) {
  check_small_seeds({131, 132, 133}, 0.5, sized_config());
}

TEST(BatchKernelParity, UncorrelatedPairsRejectIdentically) {
  check_uncorrelated_pair(141);
}

TEST(BatchKernelParity, TightCostBound) {
  check_small_seeds({151}, 2.0, tight_bound_config());
}

TEST(BatchKernelParity, LossAndRepacketization) {
  // Downstream loses packets (violates the paper's assumption 2): the
  // strict algorithms' reject path must replay exactly.
  for (const std::uint64_t seed : {161u, 162u, 163u}) {
    SCOPED_TRACE(seed);
    auto instance = make_small_instance(seed, 1.0, seconds(std::int64_t{1}));
    const traffic::LossRepacketizationModel loss(0.15, 0, mix_seeds(seed, 9));
    instance.downstream = loss.apply(instance.downstream);
    check_parity(instance.marked, instance.downstream, small_config());
  }
}

TEST(BatchKernelParity, DegenerateDownstreams) {
  const auto instance =
      make_small_instance(171, 0.5, seconds(std::int64_t{1}));
  const auto config = small_config();
  // Empty downstream.
  check_parity(instance.marked, Flow{}, config);
  // One-packet downstream.
  const TimeUs first = instance.downstream.timestamp(0);
  check_parity(instance.marked,
               Flow::from_timestamps(std::vector<TimeUs>{first}), config);
}

TEST(BatchKernelParity, WrongKeyHypotheses) {
  check_key_scan(181, 1900, 6);
}

TEST(BatchKernelParity, WorkspaceReuseAcrossPairs) {
  // One explicit workspace carried across different pairs, constraints,
  // and algorithms: stale scratch must never leak into a later decode.
  batch::DecodeWorkspace workspace;
  for (const std::uint64_t seed : {201u, 202u}) {
    SCOPED_TRACE(seed);
    const auto instance =
        make_small_instance(seed, 1.5, seconds(std::int64_t{1}));
    for (const bool sized : {false, true}) {
      auto config = small_config();
      if (sized) config.size_constraint = SizeConstraint{16};
      const MatchContext context =
          MatchContext::build(instance.marked.flow, instance.downstream,
                              config.max_delay, config.size_constraint);
      batch::BatchDecoder decoder(config, &workspace);
      const DecodePlan plan(instance.marked.schedule,
                            instance.marked.watermark);
      for (const Algorithm algorithm :
           {Algorithm::kBruteForce, Algorithm::kGreedyStar,
            Algorithm::kGreedyPlus, Algorithm::kGreedy}) {
        SCOPED_TRACE(to_string(algorithm));
        batch::DecodeWorkspace fresh;
        batch::BatchDecoder reference(config, &fresh);
        expect_same_result(
            reference.decode_one(algorithm, context, plan),
            decoder.decode_one(algorithm, context, plan));
      }
    }
  }
}

TEST(BatchKernelParity, KernelModesAgree) {
  // The vectorized and scalar kernel variants perform identical integer
  // arithmetic; flipping the dispatch must not change any field.
  const auto saved = batch::kernel_mode();
  const auto instance =
      make_small_instance(211, 1.0, seconds(std::int64_t{1}));
  const auto config = small_config();
  const MatchContext context =
      MatchContext::build(instance.marked.flow, instance.downstream,
                          config.max_delay, config.size_constraint);
  const DecodePlan plan(instance.marked.schedule, instance.marked.watermark);
  for (const Algorithm algorithm :
       {Algorithm::kGreedy, Algorithm::kGreedyPlus, Algorithm::kGreedyStar,
        Algorithm::kBruteForce}) {
    SCOPED_TRACE(to_string(algorithm));
    batch::set_kernel_mode(batch::KernelMode::kScalar);
    batch::BatchDecoder scalar_decoder(config);
    const auto scalar = scalar_decoder.decode_one(algorithm, context, plan);
    batch::set_kernel_mode(batch::KernelMode::kVectorized);
    batch::BatchDecoder vector_decoder(config);
    const auto vectorized =
        vector_decoder.decode_one(algorithm, context, plan);
    expect_same_result(scalar, vectorized);
  }
  batch::set_kernel_mode(saved);
}

TEST(BatchKernelParity, TcplibPaperScale) { check_tcplib_pair(271); }

TEST(BatchKernelApi, RejectsMismatchedContextAndBadHypotheses) {
  const auto a = make_small_instance(221, 0.5, seconds(std::int64_t{1}));
  const auto config = small_config();
  const MatchContext context =
      MatchContext::build(a.marked.flow, a.downstream, config.max_delay,
                          config.size_constraint);

  // A context built under a different key is a precondition violation.
  auto other = config;
  other.max_delay = seconds(std::int64_t{2});
  batch::BatchDecoder mismatched(other);
  const DecodePlan plan(a.marked.schedule, a.marked.watermark);
  EXPECT_THROW(mismatched.decode_one(Algorithm::kGreedyPlus, context, plan),
               InvalidArgument);

  // A target of the wrong length cannot build a plan.
  Rng rng(222);
  const Watermark wrong_length = Watermark::random(7, rng);
  EXPECT_THROW(DecodePlan(a.marked.schedule, wrong_length), InvalidArgument);

  // Config preconditions mirror the Correlator's.
  auto negative = config;
  negative.max_delay = -1;
  EXPECT_THROW(batch::BatchDecoder{negative}, InvalidArgument);
  auto zero_bound = config;
  zero_bound.cost_bound = 0;
  EXPECT_THROW(batch::BatchDecoder{zero_bound}, InvalidArgument);
}

TEST(BatchKernelIntegration, CorrelateMatchesColdScalarRuns) {
  // Correlator::correlate is the one production decode entry point.  With
  // no context, with the pair's own context, and with another pair's
  // context (which it must ignore), it equals the cold scalar run in every
  // field.  Under a resilience cost cap Correlator falls back down the
  // ladder, so the capped runs pin one budgeted attempt, which is
  // BatchDecoder's, interruption fields included.
  const auto small = make_small_instance(241, 0.5, seconds(std::int64_t{1}));
  const auto heavy = make_small_instance(242, 3.0, seconds(std::int64_t{1}));
  const auto sized = make_small_instance(243, 0.5, seconds(std::int64_t{1}));
  const auto a = make_small_instance(244, 1.0, seconds(std::int64_t{1}));
  const auto b = make_small_instance(245, 1.0, seconds(std::int64_t{1}));
  const auto other = make_small_instance(246, 1.0, seconds(std::int64_t{1}));
  auto sized_config = small_config();
  sized_config.size_constraint = SizeConstraint{16};
  struct Case {
    const char* name;
    const WatermarkedFlow& marked;
    const Flow& downstream;
    CorrelatorConfig config;
  };
  const Case cases[] = {
      {"small", small.marked, small.downstream, small_config()},
      {"heavy chaff", heavy.marked, heavy.downstream, small_config()},
      {"size constraint", sized.marked, sized.downstream, sized_config},
      {"uncorrelated", a.marked, b.downstream, small_config()},
  };

  std::size_t interrupted = 0;
  for (const Case& c : cases) {
    for (const std::uint64_t max_cost : {std::uint64_t{0}, std::uint64_t{60},
                                         std::uint64_t{150}}) {
      auto config = c.config;
      config.budget.max_cost = max_cost;
      const MatchContext own =
          MatchContext::build(c.marked.flow, c.downstream, config.max_delay,
                              config.size_constraint);
      const MatchContext foreign =
          MatchContext::build(other.marked.flow, other.downstream,
                              config.max_delay, config.size_constraint);
      for (const Algorithm algorithm :
           {Algorithm::kGreedy, Algorithm::kGreedyPlus,
            Algorithm::kGreedyStar, Algorithm::kBruteForce}) {
        SCOPED_TRACE(std::string(c.name) + ", max_cost " +
                     std::to_string(max_cost) + ", " + to_string(algorithm));
        const CorrelationResult want =
            cold_scalar_run(algorithm, c.marked, c.downstream, config);
        interrupted += want.interrupted;
        if (max_cost != 0) {
          const DecodePlan plan(c.marked.schedule, c.marked.watermark);
          expect_same_result(want, batch::BatchDecoder(config).decode_one(
                                       algorithm, own, plan));
          continue;
        }
        const Correlator correlator(config, algorithm);
        expect_same_result(want, correlator.correlate(c.marked, c.downstream));
        expect_same_result(want,
                           correlator.correlate(c.marked, c.downstream, &own));
        expect_same_result(
            want, correlator.correlate(c.marked, c.downstream, &foreign));
      }
    }
  }
  EXPECT_GT(interrupted, 0u) << "no cost cap interrupted a decode";
}

TEST(BatchKernelScan, BatchedWindowScanMatchesReference) {
  // scan_match_windows_batched must reproduce the counting reference's
  // windows *and* recorded cost over adversarial shapes: disjoint ranges,
  // empty sides, heavy overlap, duplicate timestamps.
  Rng rng(231);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    const std::size_t n_up = rng.uniform_i64(0, 24);
    const std::size_t n_down = rng.uniform_i64(0, 48);
    std::vector<TimeUs> up;
    std::vector<TimeUs> down;
    TimeUs t = 0;
    for (std::size_t i = 0; i < n_up; ++i) {
      t += rng.uniform_i64(0, 2'000'000);
      up.push_back(t);
    }
    t = rng.uniform_i64(0, 1'000'000);
    for (std::size_t j = 0; j < n_down; ++j) {
      t += rng.uniform_i64(0, 2'000'000);
      down.push_back(t);
    }
    const DurationUs delta = rng.uniform_i64(1, 3'000'000);

    CostMeter reference_meter;
    const auto reference =
        scan_match_windows(up, down, delta, reference_meter);
    CostMeter batched_meter;
    std::vector<MatchWindow> batched;
    scan_match_windows_batched(up, down, delta, batched_meter, batched);

    ASSERT_EQ(reference.size(), batched.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i], batched[i]) << "window " << i;
    }
    EXPECT_EQ(reference_meter.accesses(), batched_meter.accesses());
  }
}

}  // namespace
}  // namespace sscor
