// Tests for the experiment harness: dataset construction, evaluation, and
// the figure sweep driver.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sscor/experiment/bench_main.hpp"
#include "sscor/experiment/dataset.hpp"
#include "sscor/experiment/evaluation.hpp"
#include "sscor/experiment/sweep.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/metrics.hpp"

namespace sscor::experiment {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.flows = 6;
  config.packets_per_flow = 600;
  config.fp_pairs = 10;
  return config;
}

TEST(Dataset, BuildIsDeterministic) {
  const auto config = tiny_config();
  const Dataset a = Dataset::build(config);
  const Dataset b = Dataset::build(config);
  ASSERT_EQ(a.size(), config.flows);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.upstream(i).flow.timestamps(),
              b.upstream(i).flow.timestamps());
    EXPECT_EQ(a.upstream(i).watermark, b.upstream(i).watermark);
  }
  auto different = config;
  different.master_seed += 1;
  const Dataset c = Dataset::build(different);
  EXPECT_NE(a.upstream(0).flow.timestamps(),
            c.upstream(0).flow.timestamps());
}

TEST(Dataset, FlowsDifferAndOverlapInTime) {
  const Dataset dataset = Dataset::build(tiny_config());
  for (std::size_t i = 1; i < dataset.size(); ++i) {
    EXPECT_NE(dataset.upstream(i).flow.timestamps(),
              dataset.upstream(0).flow.timestamps());
    EXPECT_LT(dataset.upstream(i).flow.start_time(), seconds(std::int64_t{1}));
  }
}

TEST(Dataset, DownstreamPropertiesAndDeterminism) {
  const Dataset dataset = Dataset::build(tiny_config());
  const auto delta = seconds(std::int64_t{3});
  const Flow d1 = dataset.downstream(0, delta, 1.5);
  const Flow d2 = dataset.downstream(0, delta, 1.5);
  EXPECT_EQ(d1.timestamps(), d2.timestamps());

  const Flow& upstream = dataset.upstream(0).flow;
  EXPECT_GT(d1.size(), upstream.size());  // chaff added
  // Real packets keep bounded delays in upstream order.
  std::size_t real = 0;
  for (const auto& p : d1.packets()) {
    if (p.is_chaff) continue;
    const DurationUs delay = p.timestamp - upstream.timestamp(real);
    EXPECT_GE(delay, 0);
    EXPECT_LE(delay, delta);
    ++real;
  }
  EXPECT_EQ(real, upstream.size());

  // No chaff at rate 0.
  EXPECT_EQ(dataset.downstream(0, delta, 0.0).size(), upstream.size());
}

TEST(Dataset, FpPairsValidAndExhaustiveWhenAsked) {
  const Dataset dataset = Dataset::build(tiny_config());
  const auto sampled = dataset.sample_fp_pairs(10);
  EXPECT_EQ(sampled.size(), 10u);
  for (const auto& [i, j] : sampled) {
    EXPECT_NE(i, j);
    EXPECT_LT(i, dataset.size());
    EXPECT_LT(j, dataset.size());
  }
  const auto all = dataset.sample_fp_pairs(10'000);
  EXPECT_EQ(all.size(), dataset.size() * (dataset.size() - 1));
}

TEST(Dataset, TcplibCorpus) {
  auto config = tiny_config();
  config.corpus = Corpus::kTcplib;
  const Dataset dataset = Dataset::build(config);
  EXPECT_EQ(dataset.size(), config.flows);
  EXPECT_EQ(dataset.upstream(0).flow.size(), config.packets_per_flow);
}

TEST(Evaluation, PaperDetectorsLineUp) {
  const auto detectors =
      paper_detectors(tiny_config(), seconds(std::int64_t{7}));
  ASSERT_EQ(detectors.size(), 5u);
  EXPECT_EQ(detectors[0]->name(), "Greedy");
  EXPECT_EQ(detectors[1]->name(), "Greedy+");
  EXPECT_EQ(detectors[2]->name(), "Greedy*");
  EXPECT_EQ(detectors[3]->name(), "BasicWM");
  EXPECT_EQ(detectors[4]->name(), "Zhang");
}

TEST(Evaluation, EasyPointHasHighDetectionAndSaneRates) {
  const auto config = tiny_config();
  const Dataset dataset = Dataset::build(config);
  const auto detectors = paper_detectors(config, seconds(std::int64_t{1}));
  EvaluationRequest request;
  request.max_delay = seconds(std::int64_t{1});
  request.chaff_rate = 0.5;
  const auto metrics = evaluate_point(dataset, detectors, request);
  ASSERT_EQ(metrics.size(), detectors.size());
  for (const auto& m : metrics) {
    EXPECT_GE(m.detection_rate, 0.0);
    EXPECT_LE(m.detection_rate, 1.0);
    EXPECT_GE(m.false_positive_rate, 0.0);
    EXPECT_LE(m.false_positive_rate, 1.0);
  }
  // Greedy+ must nail the easy point (tiny perturbation, light chaff).
  EXPECT_GE(metrics[1].detection_rate, 0.8);
  EXPECT_GT(metrics[1].cost_correlated.mean(), 0.0);
}

TEST(Sweep, ProducesOneRowPerAxisValue) {
  auto config = tiny_config();
  config.flows = 4;
  config.fp_pairs = 4;
  config.packets_per_flow = 500;
  SweepSpec spec;
  spec.metric = Metric::kDetectionRate;
  spec.axis = SweepAxis::kChaffRate;
  spec.fixed_delay = seconds(std::int64_t{2});
  spec.chaff_rates = {0.0, 1.0};
  std::size_t progress_calls = 0;
  const TextTable table =
      run_sweep(config, spec, [&](std::size_t, std::size_t,
                                  const std::string&) { ++progress_calls; });
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.columns(), 6u);  // axis + 5 detectors
  EXPECT_EQ(progress_calls, 2u);

  SweepSpec delays;
  delays.metric = Metric::kCostUncorrelated;
  delays.axis = SweepAxis::kMaxDelay;
  delays.fixed_chaff = 1.0;
  delays.max_delays = {0, seconds(std::int64_t{1})};
  const TextTable table2 = run_sweep(config, delays);
  EXPECT_EQ(table2.rows(), 2u);
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(SSCOR_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The small scale of the checked-in figures: `sscor_tool sweep`'s
/// defaults at one thread.
ExperimentConfig golden_config() {
  ExperimentConfig config;
  config.flows = 8;
  config.packets_per_flow = 600;
  config.fp_pairs = 40;
  config.threads = 1;
  return config;
}

SweepSpec golden_spec(Metric metric) {
  SweepSpec spec;
  spec.metric = metric;
  spec.axis = SweepAxis::kChaffRate;
  spec.fixed_delay = kFig3FixedDelay;
  return spec;
}

// The paper's cost figures (7 and 9) at a small scale, pinned byte for byte
// together with the exact packet-access total behind each: a change to any
// decoder's matching phase or cost accounting shows here, not only in the
// figures' rounded means.
TEST(GoldenCost, Fig07AndFig09MatchCheckedInOutputs) {
  const ExperimentConfig config = golden_config();
  struct Golden {
    const char* file;
    Metric metric;
    std::uint64_t packets_accessed;
  };
  const Golden goldens[] = {
      {"fig07_small.csv", Metric::kCostCorrelated, 6'396'894},
      {"fig09_small.csv", Metric::kCostUncorrelated, 11'497'191},
  };
  const metrics::Counter& accessed =
      metrics::counter("eval.packets_accessed");
  for (const Golden& golden : goldens) {
    const std::uint64_t before = accessed.value();
    const TextTable table = run_sweep(config, golden_spec(golden.metric));
    EXPECT_EQ(accessed.value() - before, golden.packets_accessed)
        << golden.file;
    EXPECT_EQ(table.to_csv(), read_golden(golden.file)) << golden.file;
  }
}

// The paper's detection and false-positive figures (3 and 5) at the same
// scale, through both sweep drivers: the in-memory sweep and a journaled
// shard 0 of 1 must write the same bytes.
TEST(GoldenDetection, Fig03AndFig05MatchCheckedInOutputs) {
  const ExperimentConfig config = golden_config();
  const std::pair<const char*, Metric> goldens[] = {
      {"fig03_small.csv", Metric::kDetectionRate},
      {"fig05_small.csv", Metric::kFalsePositiveRate},
  };
  for (const auto& [file, metric] : goldens) {
    const std::string golden = read_golden(file);
    EXPECT_EQ(run_sweep(config, golden_spec(metric)).to_csv(), golden)
        << file;
    ShardSpec shard;
    shard.journal_dir = testing::TempDir() + "sscor_golden_detection";
    std::filesystem::remove_all(shard.journal_dir);
    const auto journaled = run_sweep_shard(config, golden_spec(metric), shard);
    ASSERT_TRUE(journaled.has_value()) << file;
    EXPECT_EQ(journaled->to_csv(), golden) << file;
    std::filesystem::remove_all(shard.journal_dir);
  }
}

/// Both sweep entry points must refuse `config` for `metric` up front with
/// an InvalidArgument containing `message`: a sweep with no sample behind
/// its cells would otherwise print a table of NaN or zero cells and
/// succeed.  Refusing up front means the sharded worker never creates its
/// journal directory.
void expect_refused(const ExperimentConfig& config, Metric metric,
                    const std::string& message) {
  SweepSpec spec;
  spec.metric = metric;
  spec.chaff_rates = {0.0};
  try {
    run_sweep(config, spec);
    ADD_FAILURE() << "run_sweep was not refused";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
  ShardSpec shard;
  shard.journal_dir = testing::TempDir() + "sscor_refused_sweep";
  std::filesystem::remove_all(shard.journal_dir);
  try {
    run_sweep_shard(config, spec, shard);
    ADD_FAILURE() << "run_sweep_shard was not refused";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(shard.journal_dir));
  std::filesystem::remove_all(shard.journal_dir);
}

TEST(Sweep, RefusesZeroFlows) {
  auto config = tiny_config();
  config.flows = 0;
  for (const Metric metric :
       {Metric::kDetectionRate, Metric::kCostCorrelated,
        Metric::kFalsePositiveRate, Metric::kCostUncorrelated}) {
    SCOPED_TRACE(to_string(metric));
    expect_refused(config, metric, "flows must be positive");
  }
}

TEST(Sweep, RefusesFalsePositiveMetricsOverOneFlow) {
  auto config = tiny_config();
  config.flows = 1;
  for (const Metric metric :
       {Metric::kFalsePositiveRate, Metric::kCostUncorrelated}) {
    SCOPED_TRACE(to_string(metric));
    expect_refused(config, metric, "flows must be >= 2");
  }
}

TEST(Sweep, RefusesFalsePositiveMetricsWithoutPairs) {
  auto config = tiny_config();
  config.fp_pairs = 0;
  for (const Metric metric :
       {Metric::kFalsePositiveRate, Metric::kCostUncorrelated}) {
    SCOPED_TRACE(to_string(metric));
    expect_refused(config, metric, "fp_pairs must be positive");
  }
}

TEST(BenchOptions, MalformedNumbersExitWithUsage) {
  // Numbers must be whole, non-negative and in range: strtoull would read
  // "3x" as 3, "abc" as 0 and "-1" as 2^64 - 1.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* flag :
       {"--flows=abc", "--flows=3x", "--flows=", "--fp-pairs=-1",
        "--packets=+5", "--seed=18446744073709551616", "--threads=4294967296",
        "--threads= 2"}) {
    SCOPED_TRACE(flag);
    std::vector<std::string> args{"fig03", flag};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    EXPECT_EXIT(parse_bench_options(static_cast<int>(argv.size()),
                                    argv.data()),
                testing::ExitedWithCode(2), "usage: fig03");
  }
  // Well-formed values still parse, the maximum included.
  std::vector<std::string> args{"fig03", "--flows=12", "--fp-pairs=0",
                                "--seed=18446744073709551615"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  const BenchOptions options =
      parse_bench_options(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(options.config.flows, 12u);
  EXPECT_EQ(options.config.fp_pairs, 0u);
  EXPECT_EQ(options.config.master_seed, 18446744073709551615ull);
}

TEST(Sweep, MetricNames) {
  EXPECT_EQ(to_string(Metric::kDetectionRate), "detection rate");
  EXPECT_NE(to_string(Metric::kCostCorrelated),
            to_string(Metric::kCostUncorrelated));
}

}  // namespace
}  // namespace sscor::experiment
