// Tests for the resilience layer: budgeted stopping (deadlines, cost caps,
// probes), the graceful-degradation ladder, crash-safe sweep journaling as
// shard 0 of 1 (including a real fork+SIGKILL kill-and-resume), and the
// metrics that make interrupted decodes observable.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/correlation/robust.hpp"
#include "sscor/experiment/checkpoint.hpp"
#include "sscor/experiment/sweep.hpp"
#include "sscor/matching/batch_kernel.hpp"
#include "sscor/matching/match_context.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/util/cancellation.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/watermark/embedder.hpp"

namespace sscor {
namespace {

// ------------------------------------------ stop reasons and deadline ---

TEST(CancellationToken, StopReasonNames) {
  EXPECT_EQ(to_string(StopReason::kNone), "none");
  EXPECT_EQ(to_string(StopReason::kDeadline), "deadline");
  EXPECT_EQ(to_string(StopReason::kCostBudget), "cost-budget");
}

TEST(Deadline, ArmedAndExpiry) {
  const Deadline unarmed;
  EXPECT_FALSE(unarmed.armed());
  EXPECT_FALSE(unarmed.expired());

  const Deadline epoch = Deadline::at(std::chrono::steady_clock::time_point{});
  EXPECT_TRUE(epoch.armed());
  EXPECT_TRUE(epoch.expired());

  const Deadline generous = Deadline::after(seconds(std::int64_t{3600}));
  EXPECT_TRUE(generous.armed());
  EXPECT_FALSE(generous.expired());

  // Past the clock's range the deadline saturates instead of wrapping
  // into the past.
  const Deadline forever =
      Deadline::after(std::numeric_limits<DurationUs>::max());
  EXPECT_TRUE(forever.armed());
  EXPECT_FALSE(forever.expired());
}

TEST(CancelProbe, DisabledProbeNeverStops) {
  CancelProbe probe;  // no budget
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_FALSE(probe.should_stop(static_cast<std::uint64_t>(i) << 20));
  }
  EXPECT_FALSE(probe.stopped());

  DecodeBudget empty;
  EXPECT_FALSE(empty.enabled());
  CancelProbe probe2(empty);
  EXPECT_FALSE(probe2.should_stop(1'000'000'000));
}

TEST(CancelProbe, CostBudgetTripsAndLatches) {
  DecodeBudget budget;
  budget.max_cost = 100;
  CancelProbe probe(budget);
  EXPECT_FALSE(probe.should_stop(50));
  EXPECT_FALSE(probe.should_stop(99));
  EXPECT_TRUE(probe.should_stop(100));  // spent budget == bound trips
  EXPECT_EQ(probe.reason(), StopReason::kCostBudget);
  // Latched: the verdict survives the cost going "back down".
  EXPECT_TRUE(probe.should_stop(0));
  EXPECT_TRUE(probe.stopped());
}

TEST(CancelProbe, ExpiredDeadlineStopsOnFirstProbe) {
  DecodeBudget budget;
  budget.deadline = Deadline::at(std::chrono::steady_clock::time_point{});
  CancelProbe probe(budget);
  EXPECT_TRUE(probe.should_stop());
  EXPECT_EQ(probe.reason(), StopReason::kDeadline);
}

// ------------------------------------------- interrupted decodes ---

struct Scenario {
  WatermarkedFlow marked;
  Flow downstream;
  CorrelatorConfig config;
};

Scenario make_scenario(std::uint64_t seed, double chaff_pps = 2.0) {
  const traffic::InteractiveSessionModel model;
  const Flow flow = model.generate(900, 0, mix_seeds(seed, 1));
  Rng rng(mix_seeds(seed, 2));
  const Embedder embedder(WatermarkParams{}, mix_seeds(seed, 3));
  Scenario s;
  s.marked = embedder.embed(flow, Watermark::random(24, rng));
  Flow down = traffic::UniformPerturber(millis(800), mix_seeds(seed, 4))
                  .apply(s.marked.flow);
  s.downstream =
      traffic::PoissonChaffInjector(chaff_pps, mix_seeds(seed, 5)).apply(down);
  s.config.max_delay = seconds(std::int64_t{2});
  return s;
}

const Algorithm kAllAlgorithms[] = {Algorithm::kBruteForce,
                                    Algorithm::kGreedyStar,
                                    Algorithm::kGreedyPlus, Algorithm::kGreedy};

void expect_identical(const CorrelationResult& a, const CorrelationResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.correlated, b.correlated) << label;
  EXPECT_EQ(a.hamming, b.hamming) << label;
  EXPECT_EQ(a.cost, b.cost) << label;
  EXPECT_EQ(a.matching_complete, b.matching_complete) << label;
  EXPECT_EQ(a.cost_bound_hit, b.cost_bound_hit) << label;
  EXPECT_EQ(a.interrupted, b.interrupted) << label;
  EXPECT_TRUE(a.best_watermark == b.best_watermark) << label;
}

TEST(InterruptedDecode, GenerousBudgetIsByteIdentical) {
  const Scenario s = make_scenario(11);
  for (const Algorithm algo : kAllAlgorithms) {
    const CorrelationResult plain =
        Correlator(s.config, algo).correlate(s.marked, s.downstream);

    CorrelatorConfig budgeted = s.config;
    budgeted.budget.max_cost = ~std::uint64_t{0} >> 1;
    budgeted.budget.deadline = Deadline::after(seconds(std::int64_t{3600}));
    const CorrelationResult under_budget =
        Correlator(budgeted, algo).correlate(s.marked, s.downstream);

    expect_identical(plain, under_budget, to_string(algo));
    EXPECT_FALSE(under_budget.interrupted) << to_string(algo);
    EXPECT_EQ(under_budget.stop_reason, StopReason::kNone) << to_string(algo);
  }
}

TEST(InterruptedDecode, CostBudgetInterruptsExpensiveAlgorithms) {
  const Scenario s = make_scenario(13);
  // The brute-force search on a chaffed 900-packet flow costs far more
  // than 500 accesses; a tiny budget must interrupt one attempt, not hang
  // or crash.  (Correlator would fall back down the ladder instead.)
  const MatchContext context =
      MatchContext::build(s.marked.flow, s.downstream, s.config.max_delay,
                          s.config.size_constraint);
  const DecodePlan plan(s.marked.schedule, s.marked.watermark);
  for (const Algorithm algo :
       {Algorithm::kBruteForce, Algorithm::kGreedyStar,
        Algorithm::kGreedyPlus}) {
    CorrelatorConfig config = s.config;
    config.budget.max_cost = 500;
    const CorrelationResult r =
        batch::BatchDecoder(config).decode_one(algo, context, plan);
    ASSERT_TRUE(r.interrupted) << to_string(algo);
    EXPECT_EQ(r.stop_reason, StopReason::kCostBudget) << to_string(algo);
  }
  // The interruption points count accesses past the first probe's cost,
  // so they land inside each decode rather than in its replayed matching
  // phase.  Wherever one stops an attempt, the best-so-far result is never
  // a torn correlated verdict.
  for (const Algorithm algo : kAllAlgorithms) {
    CorrelatorConfig config = s.config;
    config.budget.max_cost = 1;
    const std::uint64_t first_probe =
        batch::BatchDecoder(config).decode_one(algo, context, plan).cost;
    for (const std::uint64_t point : {1, 7, 100, 2000}) {
      config.budget.max_cost = first_probe + point;
      const CorrelationResult r =
          batch::BatchDecoder(config).decode_one(algo, context, plan);
      if (!r.interrupted) continue;  // decode finished within the cap
      EXPECT_EQ(r.stop_reason, StopReason::kCostBudget)
          << to_string(algo) << " point " << point;
      if (r.correlated) {
        EXPECT_LE(r.hamming, config.hamming_threshold)
            << to_string(algo) << " returned a torn correlated verdict";
      }
    }
  }
}

TEST(InterruptedDecode, RobustModeHonoursBudget) {
  const Scenario s = make_scenario(14);
  CorrelatorConfig config = s.config;
  config.budget.max_cost = 500;
  const CorrelationResult r =
      run_greedy_plus_robust(s.marked.schedule, s.marked.watermark,
                             s.marked.flow, s.downstream, config);
  EXPECT_TRUE(r.interrupted);
  EXPECT_EQ(r.stop_reason, StopReason::kCostBudget);

  CorrelatorConfig clean = s.config;
  const CorrelationResult full =
      run_greedy_plus_robust(s.marked.schedule, s.marked.watermark,
                             s.marked.flow, s.downstream, clean);
  EXPECT_FALSE(full.interrupted);
}

TEST(InterruptedDecode, MetricsCountInterruptions) {
  const Scenario s = make_scenario(15);
  const std::uint64_t before = metrics::counter("correlate.interrupted").value();
  CorrelatorConfig config = s.config;
  config.budget.max_cost = 500;  // interrupts Greedy+; Greedy finishes
  const CorrelationResult r =
      Correlator(config, Algorithm::kGreedyPlus).correlate(s.marked,
                                                           s.downstream);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(metrics::counter("correlate.interrupted").value(), before + 1);
}

// --------------------------------------------------- fallback ladder ---

TEST(ResilientLadder, LadderOrderIsSuffixOfTierOrder) {
  using A = Algorithm;
  const auto ladder = [](A preferred) {
    const auto tiers = fallback_ladder(preferred);
    return std::vector<A>(tiers.begin(), tiers.end());
  };
  EXPECT_EQ(ladder(A::kBruteForce),
            (std::vector<A>{A::kBruteForce, A::kGreedyStar, A::kGreedyPlus,
                            A::kGreedy}));
  EXPECT_EQ(ladder(A::kGreedyStar),
            (std::vector<A>{A::kGreedyStar, A::kGreedyPlus, A::kGreedy}));
  EXPECT_EQ(ladder(A::kGreedyPlus),
            (std::vector<A>{A::kGreedyPlus, A::kGreedy}));
  EXPECT_EQ(ladder(A::kGreedy), (std::vector<A>{A::kGreedy}));
}

TEST(ResilientLadder, CostBudgetDegradesDownTheLadder) {
  const Scenario s = make_scenario(22);
  CorrelatorConfig config = s.config;
  config.budget.max_cost = 500;  // interrupts everything but Greedy
  const CorrelationResult r = Correlator(config, Algorithm::kBruteForce)
                                  .correlate(s.marked, s.downstream);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.algorithm, Algorithm::kGreedy);  // final tier, budget lifted
  EXPECT_FALSE(r.interrupted);

  // The degraded result equals Greedy run directly with no budget (the
  // final tier's caps are removed so it always completes).
  const CorrelationResult direct =
      Correlator(s.config, Algorithm::kGreedy).correlate(s.marked,
                                                         s.downstream);
  expect_identical(direct, r, "degraded-to-greedy");
}

TEST(ResilientLadder, ExpiredDeadlineFallsBackToTheLastTier) {
  const Scenario s = make_scenario(26);
  CorrelatorConfig config = s.config;
  // The deadline is shared by the tiers: expired before the first starts,
  // it stops every tier but the last, which runs without it.
  config.budget.deadline =
      Deadline::at(std::chrono::steady_clock::time_point{});
  const CorrelationResult r = Correlator(config, Algorithm::kBruteForce)
                                  .correlate(s.marked, s.downstream);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.algorithm, Algorithm::kGreedy);
  EXPECT_FALSE(r.interrupted);
  const CorrelationResult direct =
      Correlator(s.config, Algorithm::kGreedy).correlate(s.marked,
                                                         s.downstream);
  expect_identical(direct, r, "expired-deadline");
}

TEST(ResilientLadder, GenerousBudgetNeverDegrades) {
  const Scenario s = make_scenario(23);
  CorrelatorConfig config = s.config;
  config.budget.max_cost = ~std::uint64_t{0} >> 1;
  const CorrelationResult r = Correlator(config, Algorithm::kGreedyPlus)
                                  .correlate(s.marked, s.downstream);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.algorithm, Algorithm::kGreedyPlus);
  const CorrelationResult plain =
      Correlator(s.config, Algorithm::kGreedyPlus)
          .correlate(s.marked, s.downstream);
  expect_identical(plain, r, "generous-budget");

  // A deadline past the clock's range never expires.
  CorrelatorConfig forever = s.config;
  forever.budget.deadline =
      Deadline::after(std::numeric_limits<DurationUs>::max());
  const CorrelationResult unbounded =
      Correlator(forever, Algorithm::kGreedyPlus)
          .correlate(s.marked, s.downstream);
  EXPECT_FALSE(unbounded.degraded);
  expect_identical(plain, unbounded, "far-off-deadline");
}

TEST(ResilientLadder, DegradationIsObservableInMetrics) {
  const Scenario s = make_scenario(25);
  const std::uint64_t degraded_before =
      metrics::counter("resilient.degraded").value();
  CorrelatorConfig config = s.config;
  config.budget.max_cost = 500;
  const CorrelationResult r = Correlator(config, Algorithm::kGreedyPlus)
                                  .correlate(s.marked, s.downstream);
  ASSERT_TRUE(r.degraded);
  EXPECT_EQ(metrics::counter("resilient.degraded").value(),
            degraded_before + 1);
}

// ------------------------------------------------------- checkpointing ---

namespace fs = std::filesystem;
using experiment::CheckpointJournal;
using experiment::load_checkpoint;

std::string temp_path(const std::string& stem) {
  return (fs::temp_directory_path() / (stem + "-" + std::to_string(getpid()) +
                                       ".jsonl"))
      .string();
}

TEST(Checkpoint, Crc32KnownVector) {
  EXPECT_EQ(experiment::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(experiment::crc32(""), 0x00000000u);
}

/// A table-free byte-at-a-time CRC-32 (reflected 0xEDB88320, shifted one
/// bit at a time): the reference the slice-by-8 crc32 must agree with.
std::uint32_t crc32_bytewise(std::string_view data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Checkpoint, Crc32MatchesBytewiseReferenceAtEveryAlignment) {
  // Random bytes at every start offset 0-7 (so the eight-byte strides
  // meet every alignment) and lengths 0-4096 (every tail length 0-7).
  std::mt19937_64 rng(20261019);
  std::string buffer(4096 + 8, '\0');
  for (char& ch : buffer) ch = static_cast<char>(rng() & 0xFFu);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 4096;
         length += length < 64 ? 1 : 61) {
      const std::string_view view(buffer.data() + offset, length);
      ASSERT_EQ(experiment::crc32(view), crc32_bytewise(view))
          << "offset " << offset << " length " << length;
    }
    const std::string_view full(buffer.data() + offset, 4096);
    EXPECT_EQ(experiment::crc32(full), crc32_bytewise(full));
  }
}

TEST(Checkpoint, JournalRoundTrip) {
  const std::string path = temp_path("ckpt-roundtrip");
  {
    auto journal = CheckpointJournal::create(
        path, experiment::encode_checkpoint_header(0xabcdef12u, 3, 2));
    journal.append(experiment::encode_checkpoint_row(0, {"0.0", "1.0000"}));
    journal.append(
        experiment::encode_checkpoint_row(2, {"5.0", "va\"l\\ue"}));
    EXPECT_EQ(journal.appended(), 2u);
  }
  const auto loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.dropped_lines, 0u);
  std::uint64_t fingerprint = 0;
  std::size_t points = 0, columns = 0;
  ASSERT_TRUE(experiment::decode_checkpoint_header(loaded.header, fingerprint,
                                                   points, columns));
  EXPECT_EQ(fingerprint, 0xabcdef12u);
  EXPECT_EQ(points, 3u);
  EXPECT_EQ(columns, 2u);
  ASSERT_EQ(loaded.records.size(), 2u);
  std::size_t point = 0;
  std::vector<std::string> row;
  ASSERT_TRUE(experiment::decode_checkpoint_row(loaded.records[1], point, row));
  EXPECT_EQ(point, 2u);
  EXPECT_EQ(row, (std::vector<std::string>{"5.0", "va\"l\\ue"}));
  fs::remove(path);
}

TEST(Checkpoint, CorruptBodyLineIsDroppedNotFatal) {
  const std::string path = temp_path("ckpt-corrupt");
  {
    auto journal = CheckpointJournal::create(
        path, experiment::encode_checkpoint_header(1, 2, 1));
    journal.append(experiment::encode_checkpoint_row(0, {"a"}));
    journal.append(experiment::encode_checkpoint_row(1, {"b"}));
  }
  // Flip one byte inside the second record's data: its CRC no longer
  // matches, so the loader must drop exactly that line.
  std::string text;
  {
    std::ifstream in(path);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    lines[2][lines[2].size() - 4] ^= 1;
    for (const auto& l : lines) text += l + "\n";
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }
  const auto loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.dropped_lines, 1u);
  fs::remove(path);
}

TEST(Checkpoint, TornTailIsDropped) {
  const std::string path = temp_path("ckpt-torn");
  {
    auto journal = CheckpointJournal::create(
        path, experiment::encode_checkpoint_header(1, 2, 1));
    journal.append(experiment::encode_checkpoint_row(0, {"a"}));
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"crc32\":\"0abc";  // SIGKILL mid-write
  }
  const auto loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.dropped_lines, 1u);
  fs::remove(path);
}

/// The headline regression pin for the torn-tail append bug: a SIGKILL
/// mid-line leaves a fragment with no trailing '\n'; append_to must
/// truncate it before writing, or the first new record glues onto the
/// fragment and BOTH lines are lost on the next load.  Tear at several
/// byte offsets to cover "lost the CRC", "lost half the data", and "lost
/// only the newline".
TEST(Checkpoint, AppendAfterTornTailRepairsTheJournal) {
  const std::string intact_row = experiment::encode_checkpoint_row(0, {"a"});
  const std::string torn_row = experiment::encode_checkpoint_row(1, {"b"});
  const std::string new_row = experiment::encode_checkpoint_row(2, {"c"});
  for (const std::size_t keep : {std::size_t{1}, std::size_t{8},
                                 std::size_t{20}, std::size_t{35}}) {
    const std::string path =
        temp_path("ckpt-torn-append-" + std::to_string(keep));
    std::uintmax_t full_size = 0;
    {
      auto journal = CheckpointJournal::create(
          path, experiment::encode_checkpoint_header(1, 3, 1));
      journal.append(intact_row);
      full_size = fs::file_size(path);
      journal.append(torn_row);
    }
    // Simulate the SIGKILL: keep only the first `keep` bytes of the final
    // record's line (keep == line length - 1 tears just the newline).
    const std::uintmax_t line_bytes = fs::file_size(path) - full_size;
    ASSERT_LT(keep, line_bytes);
    fs::resize_file(path, full_size + keep);

    {
      auto journal = CheckpointJournal::append_to(path);
      journal.append(new_row);
    }
    const auto loaded = load_checkpoint(path);
    EXPECT_EQ(loaded.dropped_lines, 0u) << "torn at byte " << keep;
    ASSERT_EQ(loaded.records.size(), 2u) << "torn at byte " << keep;
    EXPECT_EQ(loaded.records[0], intact_row);
    EXPECT_EQ(loaded.records[1], new_row);
    fs::remove(path);
  }
}

TEST(Checkpoint, RepairTornTailReportsBytesRemoved) {
  const std::string path = temp_path("ckpt-repair");
  {
    auto journal = CheckpointJournal::create(
        path, experiment::encode_checkpoint_header(1, 1, 1));
  }
  EXPECT_EQ(experiment::repair_torn_tail(path), 0u);  // clean file: no-op
  const auto clean_size = fs::file_size(path);
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"crc32\":\"0abc";
  }
  EXPECT_EQ(experiment::repair_torn_tail(path), 14u);
  EXPECT_EQ(fs::file_size(path), clean_size);
  EXPECT_EQ(experiment::repair_torn_tail("/nonexistent/nowhere.jsonl"), 0u);

  // A file with no newline at all (death mid-header) truncates to empty.
  const std::string headerless = temp_path("ckpt-headerless");
  {
    std::ofstream out(headerless, std::ios::trunc);
    out << "{\"crc32\":\"12";
  }
  EXPECT_EQ(experiment::repair_torn_tail(headerless), 12u);
  EXPECT_EQ(fs::file_size(headerless), 0u);
  fs::remove(path);
  fs::remove(headerless);
}

TEST(Checkpoint, OverflowingSizeFieldIsRejected) {
  // 25 digits cannot fit in uint64; pre-fix the parser wrapped it into a
  // plausible small index.
  std::size_t point = 0;
  std::vector<std::string> row;
  EXPECT_FALSE(experiment::decode_checkpoint_row(
      "{\"point\":1234567890123456789012345,\"row\":[\"a\"]}", point, row));
  // UINT64_MAX is representable and must still parse...
  EXPECT_TRUE(experiment::decode_checkpoint_row(
      "{\"point\":18446744073709551615,\"row\":[\"a\"]}", point, row));
  EXPECT_EQ(point, 18446744073709551615ull);
  // ...but one more is an overflow, not a wrap to 0.
  EXPECT_FALSE(experiment::decode_checkpoint_row(
      "{\"point\":18446744073709551616,\"row\":[\"a\"]}", point, row));
}

TEST(Checkpoint, DecodersRejectTrailingGarbage) {
  std::uint64_t fingerprint = 0;
  std::size_t points = 0, columns = 0, point = 0, shard = 0;
  std::vector<std::string> names, row;

  const std::string header = experiment::encode_checkpoint_header(7, 2, 1);
  ASSERT_TRUE(experiment::decode_checkpoint_header(header, fingerprint,
                                                   points, columns, names));
  EXPECT_FALSE(experiment::decode_checkpoint_header(
      header + "junk", fingerprint, points, columns, names));

  const std::string row_rec = experiment::encode_checkpoint_row(1, {"a"});
  ASSERT_TRUE(experiment::decode_checkpoint_row(row_rec, point, row));
  EXPECT_FALSE(
      experiment::decode_checkpoint_row(row_rec + ",\"x\":1", point, row));
  EXPECT_FALSE(experiment::decode_checkpoint_row(
      "{\"point\":1,\"row\":[\"a\"]}}", point, row));

  const std::string claim = experiment::encode_checkpoint_claim(3, 1);
  ASSERT_TRUE(experiment::decode_checkpoint_claim(claim, point, shard));
  EXPECT_FALSE(
      experiment::decode_checkpoint_claim(claim + " ", point, shard));
}

TEST(Checkpoint, ClaimRecordRoundTrip) {
  std::size_t point = 0, shard = 0;
  ASSERT_TRUE(experiment::decode_checkpoint_claim(
      experiment::encode_checkpoint_claim(7, 3), point, shard));
  EXPECT_EQ(point, 7u);
  EXPECT_EQ(shard, 3u);
  // A claim is not a row and vice versa.
  std::vector<std::string> row;
  EXPECT_FALSE(experiment::decode_checkpoint_row(
      experiment::encode_checkpoint_claim(7, 3), point, row));
  EXPECT_FALSE(experiment::decode_checkpoint_claim(
      experiment::encode_checkpoint_row(7, {"x"}), point, shard));
}

TEST(Checkpoint, ShardJournalNameRoundTrip) {
  EXPECT_EQ(experiment::shard_journal_name(2, 4), "shard-2-of-4.jsonl");
  std::size_t index = 0, count = 0;
  ASSERT_TRUE(experiment::parse_shard_journal_name("shard-2-of-4.jsonl",
                                                   index, count));
  EXPECT_EQ(index, 2u);
  EXPECT_EQ(count, 4u);
  EXPECT_FALSE(
      experiment::parse_shard_journal_name("shard-4-of-4.jsonl", index, count));
  EXPECT_FALSE(
      experiment::parse_shard_journal_name("shard-2-of-4.json", index, count));
  EXPECT_FALSE(
      experiment::parse_shard_journal_name("shard--1-of-4.jsonl", index, count));
  EXPECT_FALSE(experiment::parse_shard_journal_name("serial.jsonl", index,
                                                    count));
}

TEST(Checkpoint, CorruptHeaderIsFatal) {
  const std::string path = temp_path("ckpt-badheader");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "this is not a checkpoint\n";
  }
  EXPECT_THROW(load_checkpoint(path), IoError);
  fs::remove(path);
}

// ------------------------------------------------- sweep integration ---

experiment::ExperimentConfig mini_config(std::uint64_t seed = 77) {
  experiment::ExperimentConfig config;
  config.watermark.bits = 4;
  config.watermark.redundancy = 1;
  config.flows = 2;
  config.packets_per_flow = 60;
  config.fp_pairs = 2;
  config.cost_bound = 50'000;
  config.master_seed = seed;
  config.threads = 1;
  return config;
}

experiment::SweepSpec mini_spec() {
  experiment::SweepSpec spec;
  spec.metric = experiment::Metric::kDetectionRate;
  spec.axis = experiment::SweepAxis::kChaffRate;
  spec.chaff_rates = {0.0, 1.0, 2.0, 3.0};
  return spec;
}

TEST(SweepFingerprint, SensitiveToValuesNotSchedule) {
  const auto config = mini_config();
  const auto spec = mini_spec();
  const std::uint64_t base = experiment::sweep_fingerprint(config, spec);

  auto other_seed = config;
  other_seed.master_seed += 1;
  EXPECT_NE(experiment::sweep_fingerprint(other_seed, spec), base);

  auto other_axis = spec;
  other_axis.chaff_rates.push_back(9.0);
  EXPECT_NE(experiment::sweep_fingerprint(config, other_axis), base);

  auto other_threads = config;
  other_threads.threads = 8;  // scheduling knob: tables are identical
  EXPECT_EQ(experiment::sweep_fingerprint(other_threads, spec), base);
}

/// A single crash-safe sweep is shard 0 of 1, journaling into a fresh
/// temp directory.
experiment::ShardSpec one_shard(const std::string& stem) {
  experiment::ShardSpec shard;
  shard.journal_dir = (fs::temp_directory_path() /
                       (stem + "-" + std::to_string(getpid())))
                          .string();
  fs::remove_all(shard.journal_dir);
  return shard;
}

std::string journal_of(const experiment::ShardSpec& shard) {
  return (fs::path(shard.journal_dir) / experiment::shard_journal_name(0, 1))
      .string();
}

/// The journaled sweep's table, or "" when it returned none.
std::string table_of(const std::optional<TextTable>& table) {
  return table ? table->to_string() : std::string();
}

TEST(SweepCheckpoint, ResumeRecomputesOnlyMissingPoints) {
  const auto config = mini_config();
  const auto spec = mini_spec();
  const std::string clean = run_sweep(config, spec).to_string();

  // Progress runs before its point computes: throwing from the third call
  // stops the sweep after two journaled points.
  auto shard = one_shard("sweep-abort");
  std::size_t started = 0;
  EXPECT_THROW(
      run_sweep_shard(config, spec, shard,
                      [&](std::size_t, std::size_t, const std::string&) {
                        if (++started > 2) throw std::runtime_error("abort");
                      }),
      std::runtime_error);

  // Only the journaled points may be replayed; the rest recompute.
  const auto loaded = load_checkpoint(journal_of(shard));
  EXPECT_LT(loaded.records.size(), spec.chaff_rates.size());
  EXPECT_GE(loaded.records.size(), 2u);

  shard.resume = true;
  EXPECT_EQ(table_of(run_sweep_shard(config, spec, shard)), clean);
  fs::remove_all(shard.journal_dir);
}

TEST(SweepCheckpoint, ResumeRejectsForeignCheckpoint) {
  const auto config = mini_config();
  const auto spec = mini_spec();
  auto shard = one_shard("sweep-foreign");
  run_sweep_shard(config, spec, shard);
  auto other = config;
  other.master_seed += 1;  // different sweep, same table shape
  shard.resume = true;
  EXPECT_THROW(run_sweep_shard(other, spec, shard), IoError);
  fs::remove_all(shard.journal_dir);
}

TEST(SweepCheckpoint, ResumeWithMissingFileStartsFresh) {
  const auto config = mini_config();
  const auto spec = mini_spec();
  auto shard = one_shard("sweep-missing");
  shard.resume = true;
  EXPECT_EQ(table_of(run_sweep_shard(config, spec, shard)),
            run_sweep(config, spec).to_string());
  fs::remove_all(shard.journal_dir);
}

/// The acceptance pin for crash safety: SIGKILL the process mid-sweep at
/// three different seeded points, resume from the journal each time, and
/// require the byte-identical table.  fork() gives each kill a real
/// process death — no stack unwinding, no destructors, exactly what a
/// crash or OOM-kill does.
TEST(SweepCheckpoint, KillAndResumeReproducesTheTable) {
  const auto config = mini_config(91);
  const auto spec = mini_spec();
  const std::string clean = run_sweep(config, spec).to_string();

  for (const int kill_after : {1, 2, 3}) {
    auto shard = one_shard("sweep-kill-" + std::to_string(kill_after));

    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: run the journaled sweep with the SIGKILL injection armed.
      // threads=1 keeps the inline parallel_for path, so the child never
      // touches the parent's (forked-away) thread pool.
      shard.sigkill_after_points = kill_after;
      try {
        run_sweep_shard(config, spec, shard);
      } catch (...) {
      }
      _exit(42);  // unreachable when the injection fires
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited instead of dying by signal (status " << status
        << ")";
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // The journal must hold exactly the points completed before the kill.
    const auto loaded = load_checkpoint(journal_of(shard));
    EXPECT_EQ(loaded.records.size(), static_cast<std::size_t>(kill_after));

    shard.resume = true;
    EXPECT_EQ(table_of(run_sweep_shard(config, spec, shard)), clean)
        << "kill after " << kill_after << " points";
    fs::remove_all(shard.journal_dir);
  }
}

/// Exhaustive torn-tail sweep: whatever byte a crash tears the journal at,
/// load + resume must reproduce the clean table byte for byte.  Truncate
/// at EVERY offset within the final record's line (including losing just
/// the trailing newline) and resume from each mutilated copy.
TEST(SweepCheckpoint, TruncateEverywhereAlwaysResumes) {
  const auto config = mini_config(83);
  const auto spec = mini_spec();
  const std::string clean = run_sweep(config, spec).to_string();

  const auto shard = one_shard("sweep-truncate");
  run_sweep_shard(config, spec, shard);
  std::string text;
  {
    std::ifstream in(journal_of(shard), std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  // Offsets spanning the whole final line: from "last record fully gone"
  // to "only its newline missing".
  const std::size_t last_line_start = text.rfind('\n', text.size() - 2) + 1;
  for (std::size_t cut = last_line_start; cut < text.size(); ++cut) {
    auto torn = one_shard("sweep-truncate-at");
    fs::create_directories(torn.journal_dir);
    {
      std::ofstream out(journal_of(torn), std::ios::trunc | std::ios::binary);
      out << text.substr(0, cut);
    }
    torn.resume = true;
    EXPECT_EQ(table_of(run_sweep_shard(config, spec, torn)), clean)
        << "truncated at byte " << cut << " of " << text.size();
    fs::remove_all(torn.journal_dir);
  }
  fs::remove_all(shard.journal_dir);
}

}  // namespace
}  // namespace sscor
