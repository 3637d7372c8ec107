// Unit and property tests for sscor/matching: the matching-window scan,
// binary-search windows, size-constrained candidate sets, and pruning.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "sscor/matching/candidate_sets.hpp"
#include "sscor/matching/cost_meter.hpp"
#include "sscor/matching/match_windows.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/util/rng.hpp"

namespace sscor {
namespace {

/// Naive O(n*m) reference for matching windows.
std::vector<MatchWindow> reference_windows(std::span<const TimeUs> up,
                                           std::span<const TimeUs> down,
                                           DurationUs delta) {
  std::vector<MatchWindow> out;
  for (const TimeUs t : up) {
    MatchWindow w{static_cast<std::uint32_t>(down.size()), 0};
    bool any = false;
    for (std::uint32_t j = 0; j < down.size(); ++j) {
      if (down[j] >= t && down[j] - t <= delta) {
        if (!any) w.lo = j;
        w.hi = j + 1;
        any = true;
      }
    }
    if (!any) {
      // Normalise the empty window the same way the scan does: both bounds
      // at the first element past the window.
      std::uint32_t lo = 0;
      while (lo < down.size() && down[lo] < t) ++lo;
      w = MatchWindow{lo, lo};
    }
    out.push_back(w);
  }
  return out;
}

TEST(CostMeter, CountsAndBounds) {
  CostMeter unbounded;
  unbounded.count(5);
  EXPECT_EQ(unbounded.accesses(), 5u);
  EXPECT_FALSE(unbounded.exhausted());

  CostMeter bounded(10);
  bounded.count(9);
  EXPECT_FALSE(bounded.exhausted());
  bounded.count();
  EXPECT_TRUE(bounded.exhausted());
}

TEST(MatchWindows, SimpleCases) {
  const std::vector<TimeUs> up{100, 200, 300};
  const std::vector<TimeUs> down{90, 100, 150, 210, 290, 305};
  CostMeter cost;
  const auto windows = scan_match_windows(up, down, 50, cost);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0], (MatchWindow{1, 3}));  // 100, 150
  EXPECT_EQ(windows[1], (MatchWindow{3, 4}));  // 210
  EXPECT_EQ(windows[2], (MatchWindow{5, 6}));  // 305 (290 < 300 excluded)
  EXPECT_GT(cost.accesses(), 0u);
}

TEST(MatchWindows, ZeroDelayExactMatch) {
  const std::vector<TimeUs> up{100, 200};
  const std::vector<TimeUs> down{100, 150, 200};
  CostMeter cost;
  const auto windows = scan_match_windows(up, down, 0, cost);
  EXPECT_EQ(windows[0], (MatchWindow{0, 1}));
  EXPECT_EQ(windows[1], (MatchWindow{2, 3}));
}

class MatchWindowPropertyTest : public testing::TestWithParam<int> {};

TEST_P(MatchWindowPropertyTest, ScanMatchesNaiveReference) {
  Rng rng(10'000 + GetParam());
  // Random flows with duplicates and bursts to stress the pointers.
  auto random_flow = [&](std::size_t count) {
    std::vector<TimeUs> ts;
    TimeUs t = 0;
    for (std::size_t i = 0; i < count; ++i) {
      t += rng.uniform_i64(0, 1000);  // zero gaps allowed
      ts.push_back(t);
    }
    return ts;
  };
  const auto up = random_flow(60);
  const auto down = random_flow(120);
  const DurationUs delta = rng.uniform_i64(0, 2000);

  CostMeter cost;
  const auto scanned = scan_match_windows(up, down, delta, cost);
  const auto expected = reference_windows(up, down, delta);
  ASSERT_EQ(scanned.size(), expected.size());
  for (std::size_t i = 0; i < scanned.size(); ++i) {
    if (expected[i].empty()) {
      EXPECT_TRUE(scanned[i].empty()) << "window " << i;
    } else {
      EXPECT_EQ(scanned[i], expected[i]) << "window " << i;
    }
  }
  // The scan touches each downstream packet at most twice per pointer plus
  // one re-probe per upstream packet.
  EXPECT_LE(cost.accesses(), 2 * down.size() + 2 * up.size());

  // The paper's own scan heuristic produces identical windows within the
  // same O(m) access bound.
  CostMeter paper_cost;
  const auto paper =
      scan_match_windows_paper_heuristic(up, down, delta, paper_cost);
  ASSERT_EQ(paper.size(), expected.size());
  for (std::size_t i = 0; i < paper.size(); ++i) {
    if (expected[i].empty()) {
      EXPECT_TRUE(paper[i].empty()) << "paper-heuristic window " << i;
    } else {
      EXPECT_EQ(paper[i], expected[i]) << "paper-heuristic window " << i;
    }
  }
  EXPECT_LE(paper_cost.accesses(), 2 * down.size() + 3 * up.size());

  // Binary-search windows agree with the scan, and their cost is the probe
  // count the batched Greedy charges from the window's bounds.
  const auto m = static_cast<std::uint32_t>(down.size());
  for (std::size_t i = 0; i < up.size(); ++i) {
    CostMeter bs_cost;
    const auto window = find_match_window(up[i], down, delta, bs_cost);
    if (expected[i].empty()) {
      EXPECT_TRUE(window.empty());
    } else {
      EXPECT_EQ(window, expected[i]);
    }
    EXPECT_LE(bs_cost.accesses(), 2 * (std::bit_width(down.size()) + 1));
    EXPECT_EQ(bs_cost.accesses(), lower_bound_probes(m, window.lo) +
                                      lower_bound_probes(m, window.hi))
        << "window " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchWindowPropertyTest,
                         testing::Range(0, 16));

TEST(MatchWindows, ProbeCountIsExactForEverySizeAndAnswer) {
  // Even timestamps 0, 2, 4, ...: searching 2k answers k for every k in
  // 0..n.  With zero delay the window is [k, min(k + 1, n)); with a delay
  // past the last packet it is [k, n), so a wrong count for answer k
  // cannot hide behind a compensating error for its neighbour.
  constexpr std::uint32_t kMaxSize = 1024;
  std::vector<TimeUs> all(kMaxSize);
  for (std::uint32_t j = 0; j < kMaxSize; ++j) all[j] = 2 * TimeUs{j};
  for (std::uint32_t n = 0; n <= kMaxSize; ++n) {
    const std::span<const TimeUs> down(all.data(), n);
    for (std::uint32_t k = 0; k <= n; ++k) {
      for (const DurationUs delta : {DurationUs{0}, 2 * TimeUs{kMaxSize}}) {
        CostMeter cost;
        const auto window = find_match_window(2 * TimeUs{k}, down, delta,
                                              cost);
        ASSERT_EQ(window.lo, k);
        ASSERT_EQ(cost.accesses(), lower_bound_probes(n, window.lo) +
                                       lower_bound_probes(n, window.hi))
            << "size " << n << ", answer " << k << ", delay " << delta;
      }
    }
  }
}

Flow flow_of(std::vector<TimeUs> ts) {
  return Flow::from_timestamps(ts);
}

TEST(CandidateSets, BuildWithoutSizeConstraint) {
  const Flow up = flow_of({100, 200});
  const Flow down = flow_of({100, 150, 210, 260});
  CostMeter cost;
  const auto sets =
      CandidateSets::build(up, down, 60, std::nullopt, cost);
  ASSERT_EQ(sets.upstream_size(), 2u);
  EXPECT_EQ(std::vector<std::uint32_t>(sets.set(0).begin(), sets.set(0).end()),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(std::vector<std::uint32_t>(sets.set(1).begin(), sets.set(1).end()),
            (std::vector<std::uint32_t>{2, 3}));
  EXPECT_TRUE(sets.complete());
}

TEST(CandidateSets, UnconstrainedSetsAreTheirWindows) {
  const traffic::InteractiveSessionModel model;
  const Flow up = model.generate(200, 0, 61);
  const traffic::UniformPerturber perturber(seconds(std::int64_t{3}), 62);
  const traffic::PoissonChaffInjector chaff(4.0, 63);
  const Flow down = chaff.apply(perturber.apply(up));
  CostMeter scan_cost;
  const auto windows = scan_match_windows(
      up.timestamps(), down.timestamps(), seconds(std::int64_t{3}),
      scan_cost);
  CostMeter build_cost;
  const auto sets = CandidateSets::build(up, down, seconds(std::int64_t{3}),
                                         std::nullopt, build_cost);
  // Only the scan is charged: the sets read no packet.
  EXPECT_EQ(build_cost.accesses(), scan_cost.accesses());
  ASSERT_EQ(sets.upstream_size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t j = windows[i].lo; j < windows[i].hi; ++j) {
      expected.push_back(j);
    }
    EXPECT_EQ(std::vector<std::uint32_t>(sets.set(i).begin(),
                                         sets.set(i).end()),
              expected)
        << "set " << i;
  }
}

TEST(CandidateSets, SizeConstraintFilters) {
  Flow up({PacketRecord{100, 20, false}});       // quantizes to 32
  Flow down({PacketRecord{100, 31, false},        // 32: match
             PacketRecord{110, 33, false},        // 48: no match
             PacketRecord{120, 32, false}});      // 32: match
  CostMeter cost;
  const auto sets = CandidateSets::build(up, down, 60,
                                         SizeConstraint{16}, cost);
  EXPECT_EQ(std::vector<std::uint32_t>(sets.set(0).begin(), sets.set(0).end()),
            (std::vector<std::uint32_t>{0, 2}));
}

TEST(CandidateSets, IncompleteWhenNoMatch) {
  const Flow up = flow_of({100, 5'000});
  const Flow down = flow_of({100});
  CostMeter cost;
  const auto sets =
      CandidateSets::build(up, down, 60, std::nullopt, cost);
  EXPECT_FALSE(sets.complete());
}

TEST(CandidateSets, PruneEnforcesStrictChains) {
  // Paper's example: M(p1) = M(p2) = {1, 2}; pruning must remove 2 from
  // M(p1)'s options? No — remove 1 as a *choice for p2* and 2 as a choice
  // for p1 is about firsts/lasts: after pruning, minima strictly increase
  // and maxima strictly decrease backwards.
  const Flow up = flow_of({100, 105});
  const Flow down = flow_of({110, 120});
  CostMeter cost;
  auto sets = CandidateSets::build(up, down, 100, std::nullopt, cost);
  ASSERT_TRUE(sets.complete());
  ASSERT_TRUE(sets.prune(cost));
  EXPECT_EQ(std::vector<std::uint32_t>(sets.set(0).begin(), sets.set(0).end()),
            (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(std::vector<std::uint32_t>(sets.set(1).begin(), sets.set(1).end()),
            (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(sets.pruned());
}

TEST(CandidateSets, PruneDetectsInfeasibility) {
  // Three upstream packets but only two candidates.
  const Flow up = flow_of({100, 101, 102});
  const Flow down = flow_of({110, 120});
  CostMeter cost;
  auto sets = CandidateSets::build(up, down, 100, std::nullopt, cost);
  ASSERT_TRUE(sets.complete());
  EXPECT_FALSE(sets.prune(cost));
}

class PrunePropertyTest : public testing::TestWithParam<int> {};

TEST_P(PrunePropertyTest, PruningPreservesCompleteAssignments) {
  Rng rng(20'000 + GetParam());
  const traffic::InteractiveSessionModel model;
  const Flow up = model.generate(40, 0, 30'000 + GetParam());
  const traffic::UniformPerturber perturber(seconds(std::int64_t{2}),
                                            40'000 + GetParam());
  const traffic::PoissonChaffInjector chaff(1.0, 50'000 + GetParam());
  const Flow down = chaff.apply(perturber.apply(up));

  CostMeter cost;
  auto sets = CandidateSets::build(up, down, seconds(std::int64_t{2}),
                                   std::nullopt, cost);
  ASSERT_TRUE(sets.complete());
  auto pruned = sets;
  ASSERT_TRUE(pruned.prune(cost));

  // 1. Pruned sets are subsets of the originals.
  for (std::size_t i = 0; i < sets.upstream_size(); ++i) {
    for (const auto c : pruned.set(i)) {
      EXPECT_TRUE(std::find(sets.set(i).begin(), sets.set(i).end(), c) !=
                  sets.set(i).end());
    }
  }
  // 2. Minima strictly increase; maxima strictly increase as well.
  for (std::size_t i = 1; i < pruned.upstream_size(); ++i) {
    EXPECT_LT(pruned.set(i - 1).front(), pruned.set(i).front());
    EXPECT_LT(pruned.set(i - 1).back(), pruned.set(i).back());
  }
  // 3. The all-minima and all-maxima assignments are valid complete
  //    order-preserving assignments (feasibility witness).
  // 4. The true correspondence (packet k of `up` -> position of its copy
  //    in `down`) survives pruning.
  std::vector<std::uint32_t> truth;
  for (std::uint32_t j = 0; j < down.size(); ++j) {
    if (!down.packet(j).is_chaff) truth.push_back(j);
  }
  ASSERT_EQ(truth.size(), up.size());
  for (std::size_t i = 0; i < up.size(); ++i) {
    EXPECT_TRUE(std::find(pruned.set(i).begin(), pruned.set(i).end(),
                          truth[i]) != pruned.set(i).end())
        << "true match pruned away for packet " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunePropertyTest, testing::Range(0, 12));

}  // namespace
}  // namespace sscor
