// Tests for the library extensions beyond the paper's core: the
// quantization (QIM) watermark, the Blum counting baseline, the
// loss-tolerant correlator, the online correlator, and multi-origin
// traceback.

#include <gtest/gtest.h>

#include "sscor/baselines/blum_counting.hpp"
#include "sscor/correlation/online.hpp"
#include "sscor/correlation/robust.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/loss_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/watermark/embedder.hpp"
#include "sscor/watermark/quantization.hpp"

namespace sscor {
namespace {

WatermarkedFlow make_marked(std::uint64_t seed, std::size_t packets = 1000) {
  const traffic::InteractiveSessionModel model;
  const Flow flow = model.generate(packets, 0, mix_seeds(seed, 1));
  Rng rng(mix_seeds(seed, 2));
  const Embedder embedder(WatermarkParams{}, mix_seeds(seed, 3));
  return embedder.embed(flow, Watermark::random(24, rng));
}

// ---------------------------------------------------------------- QIM ---

TEST(Qim, ExactDecodeOnWidelySpacedFlow) {
  // No FIFO interference when IPDs dwarf the quantization step.
  QimParams params;
  std::vector<TimeUs> timestamps;
  for (int i = 0; i < 500; ++i) {
    timestamps.push_back(seconds(std::int64_t{10}) * i);
  }
  const Flow flow = Flow::from_timestamps(timestamps);
  Rng rng(3);
  for (int t = 0; t < 5; ++t) {
    const Watermark wm = Watermark::random(params.bits, rng);
    const QimEmbedder embedder(params, 200 + t);
    const auto marked = embedder.embed(flow, wm);
    const auto decoded =
        decode_qim_positional(marked.schedule, params.step, marked.flow);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->hamming_distance(wm), 0u) << "trial " << t;
  }
}

TEST(Qim, ExactCellBoundaryDecodes) {
  // Regression: an IPD exactly at centre + step/2 must round-trip.  The
  // decoder's parity_of rounds half up, so its cell for index q is the
  // half-open [centre - s/2, centre + (s - s/2)); the embedder used to keep
  // any IPD with ipd - centre <= s/2, which for even steps left a boundary
  // IPD unchanged yet decoding to the *opposite* parity.  Both parities of
  // step are pinned: even steps exercised the bug, odd steps were already
  // correct and must stay so.
  for (const DurationUs step : {millis(400), millis(400) - 1}) {
    QimParams params;
    params.bits = 24;
    params.redundancy = 2;
    params.step = step;
    // Uniform spacing of 2*step + step/2: every pair-offset-1 IPD sits in
    // the even-parity cell q=2, exactly on the half-cell boundary.
    const DurationUs ipd0 = 2 * step + step / 2;
    std::vector<TimeUs> timestamps;
    for (int i = 0; i < 500; ++i) timestamps.push_back(ipd0 * i);
    const Flow flow = Flow::from_timestamps(timestamps);
    for (const std::uint8_t value : {0, 1}) {
      const Watermark wm(std::vector<std::uint8_t>(params.bits, value));
      const QimEmbedder embedder(params, 77);
      const auto marked = embedder.embed(flow, wm);
      const auto decoded =
          decode_qim_positional(marked.schedule, params.step, marked.flow);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->hamming_distance(wm), 0u)
          << "step " << step << " bit value " << int(value);
    }
  }
}

TEST(Qim, NearExactDecodeOnInteractiveFlow) {
  // Dense interactive flows suffer a little FIFO cascade interference
  // (delaying a pair's second packet pushes neighbours), costing a couple
  // of the 24 bits — well inside the detection threshold.
  const traffic::InteractiveSessionModel model;
  QimParams params;
  Rng rng(3);
  for (int t = 0; t < 5; ++t) {
    const Flow flow = model.generate(1000, 0, 100 + t);
    const Watermark wm = Watermark::random(params.bits, rng);
    const QimEmbedder embedder(params, 200 + t);
    const auto marked = embedder.embed(flow, wm);
    const auto decoded =
        decode_qim_positional(marked.schedule, params.step, marked.flow);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_LE(decoded->hamming_distance(wm), 4u) << "trial " << t;
  }
}

TEST(Qim, EmbeddingDelaysBounded) {
  const traffic::InteractiveSessionModel model;
  const Flow flow = model.generate(1000, 0, 7);
  QimParams params;
  Rng rng(5);
  const QimEmbedder embedder(params, 11);
  const auto marked = embedder.embed(flow, Watermark::random(24, rng));
  for (std::size_t i = 0; i < flow.size(); ++i) {
    const DurationUs delay = marked.flow.timestamp(i) - flow.timestamp(i);
    EXPECT_GE(delay, 0);
    // One adjustment of < 2*step per packet plus possible FIFO push.
    EXPECT_LE(delay, 4 * params.step);
  }
}

TEST(Qim, RobustToSmallJitterFragileToLarge) {
  const traffic::InteractiveSessionModel model;
  QimParams params;  // step 400ms -> tolerates ~200ms of IPD jitter
  Rng rng(9);
  int small_hits = 0;
  int large_hits = 0;
  constexpr int kTrials = 10;
  for (int t = 0; t < kTrials; ++t) {
    const Flow flow = model.generate(1000, 0, 300 + t);
    const Watermark wm = Watermark::random(params.bits, rng);
    const QimEmbedder embedder(params, 400 + t);
    const auto marked = embedder.embed(flow, wm);
    const auto decode_hit = [&](DurationUs delta, std::uint64_t seed) {
      // IID jitter directly attacks the quantization cells.
      const traffic::IidSortPerturber perturber(delta, seed);
      const auto decoded = decode_qim_positional(
          marked.schedule, params.step, perturber.apply(marked.flow));
      return decoded && decoded->hamming_distance(wm) <= 7;
    };
    small_hits += decode_hit(millis(80), 500 + t);
    large_hits += decode_hit(seconds(std::int64_t{4}), 600 + t);
  }
  EXPECT_GE(small_hits, 8);
  EXPECT_LE(large_hits, 2);
}

// --------------------------------------------------------------- Blum ---

TEST(Blum, RelayedFlowCorrelates) {
  const auto marked = make_marked(21);
  const traffic::UniformPerturber perturber(seconds(std::int64_t{5}), 31);
  const traffic::PoissonChaffInjector chaff(2.0, 37);
  BlumCountingParams params;
  params.max_delay = seconds(std::int64_t{5});
  const auto r = blum_counting_correlate(
      marked.flow, chaff.apply(perturber.apply(marked.flow)), params);
  EXPECT_TRUE(r.correlated);
  EXPECT_LE(r.max_deficit, params.slack);
  EXPECT_GT(r.cost, 0u);
}

TEST(Blum, UnrelatedFlowsGoDeficit) {
  const traffic::InteractiveSessionModel model;
  const Flow a = model.generate(1000, 0, 41);
  const Flow b = model.generate(400, 0, 43);  // far fewer packets
  BlumCountingParams params;
  const auto r = blum_counting_correlate(a, b, params);
  EXPECT_FALSE(r.correlated);
  EXPECT_GT(r.max_deficit, params.slack);
}

TEST(Blum, EdgeCases) {
  BlumCountingParams params;
  EXPECT_TRUE(blum_counting_correlate(Flow{}, Flow{}, params).correlated);
  const Flow one = Flow::from_timestamps(std::vector<TimeUs>{0});
  EXPECT_FALSE(blum_counting_correlate(one, Flow{}, params).correlated);
}

// ------------------------------------------------------------- Robust ---

TEST(Robust, MatchesStrictGreedyPlusWithoutLoss) {
  const auto marked = make_marked(51);
  const traffic::UniformPerturber perturber(seconds(std::int64_t{4}), 53);
  const traffic::PoissonChaffInjector chaff(2.0, 59);
  const Flow down = chaff.apply(perturber.apply(marked.flow));
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{4});
  const auto strict =
      Correlator(config, Algorithm::kGreedyPlus).correlate(marked, down);
  const auto robust = run_greedy_plus_robust(
      marked.schedule, marked.watermark, marked.flow, down, config);
  EXPECT_EQ(robust.correlated, strict.correlated);
  EXPECT_TRUE(robust.matching_complete);
}

TEST(Robust, SurvivesLossThatBreaksStrict) {
  // With a tight delay bound and no chaff, windows are narrow: a lost
  // packet usually empties one, which the strict algorithm treats as an
  // immediate negative (paper assumption 1) while the robust mode keeps
  // decoding the surviving redundancy.
  int strict_hits = 0;
  int robust_hits = 0;
  constexpr int kTrials = 8;
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{1});
  for (int t = 0; t < kTrials; ++t) {
    const auto marked = make_marked(600 + t);
    const traffic::UniformPerturber perturber(seconds(std::int64_t{1}),
                                              700 + t);
    const traffic::LossRepacketizationModel loss(0.02, 0, 900 + t);
    const Flow down = loss.apply(perturber.apply(marked.flow));
    strict_hits += Correlator(config, Algorithm::kGreedyPlus)
                       .correlate(marked, down)
                       .correlated;
    robust_hits += run_greedy_plus_robust(marked.schedule, marked.watermark,
                                          marked.flow, down, config)
                       .correlated;
  }
  EXPECT_LE(strict_hits, 2) << "2% loss should break the strict algorithm";
  EXPECT_GE(robust_hits, kTrials - 2) << "the robust mode should survive";
}

TEST(Robust, RejectsUnrelatedFlowsAndExcessLoss) {
  const auto marked = make_marked(61);
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{4});
  // Unrelated flow.
  const auto other = make_marked(62);
  const traffic::UniformPerturber perturber(seconds(std::int64_t{4}), 63);
  EXPECT_FALSE(run_greedy_plus_robust(marked.schedule, marked.watermark,
                                      marked.flow,
                                      perturber.apply(other.flow), config)
                   .correlated);
  // Loss far beyond the tolerance budget.
  const traffic::LossRepacketizationModel heavy_loss(0.30, 0, 67);
  const auto r = run_greedy_plus_robust(
      marked.schedule, marked.watermark, marked.flow,
      heavy_loss.apply(perturber.apply(marked.flow)), config);
  EXPECT_FALSE(r.correlated);
  EXPECT_FALSE(r.matching_complete);
}

TEST(Robust, ZeroPacketDownstreamRejectsCleanly) {
  // Total loss (the limit the paper's assumption 1 forbids outright):
  // every matching set is empty, which must be a clean reject for every
  // tolerance budget — including the one that tolerates everything.
  const auto marked = make_marked(71);
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{4});
  for (const double fraction : {0.0, 0.05, 1.0}) {
    RobustOptions options;
    options.max_unmatched_fraction = fraction;
    const auto r =
        run_greedy_plus_robust(marked.schedule, marked.watermark,
                               marked.flow, Flow(), config, options);
    EXPECT_FALSE(r.correlated) << "fraction " << fraction;
    EXPECT_FALSE(r.matching_complete) << "fraction " << fraction;
    EXPECT_FALSE(r.interrupted) << "fraction " << fraction;
  }
}

TEST(Robust, AllChaffDownstreamRejectsCleanly) {
  // A downstream flow that shares the time span but contains none of the
  // real packets — only cover traffic.  The decoder sees plausible
  // windows full of wrong candidates; it must terminate cleanly and (for
  // this seed) reject.
  const auto marked = make_marked(72);
  const TimeUs start = marked.flow.start_time();
  const DurationUs span = marked.flow.end_time() - start;
  Rng rng(73);
  std::vector<TimeUs> times;
  for (int i = 0; i < 800; ++i) {
    times.push_back(start + static_cast<TimeUs>(
                                rng.uniform_u64(static_cast<std::uint64_t>(
                                    span + seconds(std::int64_t{4})))));
  }
  std::sort(times.begin(), times.end());
  std::vector<PacketRecord> packets;
  for (const TimeUs t : times) packets.push_back(PacketRecord{t, 0, true});
  const Flow chaff_only(std::move(packets), "all-chaff");

  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{4});
  const auto r = run_greedy_plus_robust(marked.schedule, marked.watermark,
                                        marked.flow, chaff_only, config);
  EXPECT_FALSE(r.correlated);
  if (r.correlated) {
    EXPECT_LE(r.hamming, config.hamming_threshold);
  }
}

TEST(Robust, ZeroToleranceMatchesStrictVerdictUnderLoss) {
  // max_unmatched_fraction = 0 removes the robustness budget: a single
  // lost packet must reject exactly like the strict algorithm does.
  const auto marked = make_marked(74);
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{1});
  const traffic::LossRepacketizationModel loss(0.05, 0, 75);
  const Flow down = loss.apply(marked.flow);
  ASSERT_LT(down.size(), marked.flow.size());  // something was dropped
  RobustOptions zero;
  zero.max_unmatched_fraction = 0.0;
  const auto r = run_greedy_plus_robust(marked.schedule, marked.watermark,
                                        marked.flow, down, config, zero);
  EXPECT_FALSE(r.matching_complete);
  EXPECT_FALSE(r.correlated);
}

TEST(Robust, SurvivesLossAfterMaximalPerturbation) {
  // Worst admissible timing first (perturbation at the full Delta the
  // matcher allows for), then loss on top: the pair the paper's §6 future
  // work is about.  The robust decode must stay clean and, with the loss
  // inside its tolerance budget, usually still detect.
  int hits = 0;
  constexpr int kTrials = 6;
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{2});
  for (int t = 0; t < kTrials; ++t) {
    const auto marked = make_marked(800 + t);
    const traffic::UniformPerturber max_perturb(config.max_delay, 810 + t);
    const traffic::LossRepacketizationModel loss(0.02, 0, 820 + t);
    const Flow down = loss.apply(max_perturb.apply(marked.flow));
    const auto r = run_greedy_plus_robust(marked.schedule, marked.watermark,
                                          marked.flow, down, config);
    EXPECT_FALSE(r.interrupted);
    if (r.correlated) {
      EXPECT_LE(r.hamming, config.hamming_threshold);
      ++hits;
    }
  }
  EXPECT_GE(hits, kTrials - 2)
      << "robust decode should survive loss after maximal perturbation";
}

// ------------------------------------------------------------- Online ---

TEST(Online, MatchesOfflineVerdictOnFullStreams) {
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{4});
  for (int t = 0; t < 6; ++t) {
    const auto marked = make_marked(1000 + t);
    const traffic::UniformPerturber perturber(seconds(std::int64_t{4}),
                                              1100 + t);
    const traffic::PoissonChaffInjector chaff(2.0, 1200 + t);
    const Flow down = chaff.apply(perturber.apply(marked.flow));

    OnlineCorrelator online(marked, config);
    for (const auto& p : down.packets()) {
      if (!online.ingest(p)) break;
    }
    online.finish();
    const auto streamed = online.result();
    const auto offline =
        Correlator(config, Algorithm::kGreedyPlus).correlate(marked, down);
    EXPECT_EQ(streamed.correlated, offline.correlated) << "trial " << t;
    if (!online.early_rejected()) {
      EXPECT_EQ(streamed.hamming, offline.hamming);
      EXPECT_EQ(streamed.cost, offline.cost);
    }
  }
}

TEST(Online, EarlyRejectsDisjointStreamBeforeItEnds) {
  const auto marked = make_marked(71);
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{2});
  // An unrelated flow that starts an hour later: the very first upstream
  // window finalises empty early in the stream.
  const Flow late = marked.flow.shifted(seconds(std::int64_t{3600}));
  OnlineCorrelator online(marked, config);
  std::size_t consumed = 0;
  for (const auto& p : late.packets()) {
    ++consumed;
    if (!online.ingest(p)) break;
  }
  EXPECT_TRUE(online.early_rejected());
  EXPECT_LT(consumed, late.size() / 10) << "should reject almost instantly";
  EXPECT_FALSE(online.result().correlated);
}

TEST(Online, EarlyRejectionAgreesWithOfflineDecision) {
  // Whenever the online path rejects early, the offline run on the full
  // stream must also reject (the early exits are sound, never eager).
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{3});
  int early = 0;
  for (int t = 0; t < 8; ++t) {
    const auto marked = make_marked(2000 + t);
    const auto other = make_marked(3000 + t);
    const traffic::UniformPerturber perturber(seconds(std::int64_t{3}),
                                              4000 + t);
    const traffic::PoissonChaffInjector chaff(1.0, 5000 + t);
    const Flow down = chaff.apply(perturber.apply(other.flow));

    OnlineCorrelator online(marked, config);
    for (const auto& p : down.packets()) {
      if (!online.ingest(p)) break;
    }
    online.finish();
    if (online.early_rejected()) {
      ++early;
      const auto offline =
          Correlator(config, Algorithm::kGreedyPlus).correlate(marked, down);
      EXPECT_FALSE(offline.correlated) << "early exit was not sound";
    }
  }
  EXPECT_GT(early, 0) << "expected at least one early rejection";
}

TEST(Online, ProgressReporting) {
  const auto marked = make_marked(81);
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{2});
  const traffic::UniformPerturber perturber(seconds(std::int64_t{2}), 83);
  const Flow down = perturber.apply(marked.flow);
  OnlineCorrelator online(marked, config);
  EXPECT_DOUBLE_EQ(online.finalized_fraction(), 0.0);
  std::size_t half = down.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    online.ingest(down.packet(i));
  }
  const double mid = online.finalized_fraction();
  EXPECT_GT(mid, 0.1);
  EXPECT_LT(mid, 0.9);
  EXPECT_EQ(online.packets_seen(), half);
}

// ---------------------------------------------------------- Traceback ---

TEST(Traceback, IdentifiesTheRightOriginAmongMany) {
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{4});
  const Correlator correlator(config, Algorithm::kGreedyPlus);
  std::vector<WatermarkedFlow> origins;
  for (int i = 0; i < 5; ++i) origins.push_back(make_marked(7000 + i));

  const traffic::UniformPerturber perturber(seconds(std::int64_t{4}), 7100);
  const traffic::PoissonChaffInjector chaff(2.0, 7101);
  const Flow downstream = chaff.apply(perturber.apply(origins[3].flow));

  std::vector<std::size_t> matches;
  for (std::size_t id = 0; id < origins.size(); ++id) {
    const CorrelationResult r = correlator.correlate(origins[id], downstream);
    EXPECT_GT(r.cost, 0u);
    if (r.correlated) matches.push_back(id);
  }
  EXPECT_EQ(matches, std::vector<std::size_t>{3});
}

}  // namespace
}  // namespace sscor
