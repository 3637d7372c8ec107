// Unit tests for sscor/util: time, rng, stats, table, thread pool, metrics.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sscor/util/error.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/parallel.hpp"
#include "sscor/util/rng.hpp"
#include "sscor/util/stats.hpp"
#include "sscor/util/table.hpp"
#include "sscor/util/thread_pool.hpp"
#include "sscor/util/time.hpp"

namespace sscor {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(seconds(std::int64_t{3}), 3'000'000);
  EXPECT_EQ(millis(250), 250'000);
  EXPECT_DOUBLE_EQ(to_seconds(1'500'000), 1.5);
  EXPECT_DOUBLE_EQ(to_millis(1'500), 1.5);
  EXPECT_EQ(seconds(0.0005), 500);
  EXPECT_EQ(seconds(-0.0005), -500);
}

TEST(Time, CheckedSecondsRefusesWhatCannotConvert) {
  EXPECT_EQ(checked_seconds(0.0, "--ttl-s"), 0);
  EXPECT_EQ(checked_seconds(2.5, "--ttl-s"), 2'500'000);
  EXPECT_EQ(checked_seconds(9e12, "--ttl-s"), seconds(9e12));
  const auto refusal = [](double s) {
    try {
      (void)checked_seconds(s, "--max-delay-s");
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double s : {-1.0, -1e-9, nan, inf, -inf, 1e13, 9.3e12}) {
    const std::string text = refusal(s);
    EXPECT_EQ(text.rfind("--max-delay-s must be ", 0), 0u)
        << s << " gave: " << text;
  }
  EXPECT_NE(refusal(-1.0).find("non-negative"), std::string::npos);
  EXPECT_NE(refusal(nan).find("finite"), std::string::npos);
}

TEST(Time, FormatDuration) {
  EXPECT_EQ(format_duration(seconds(std::int64_t{2})), "2.000s");
  EXPECT_EQ(format_duration(millis(600)), "600.000ms");
  EXPECT_EQ(format_duration(42), "42us");
  EXPECT_EQ(format_duration(-millis(5)), "-5.000ms");
}

TEST(Rng, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a() == b();
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
    const auto v = rng.uniform_i64(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU64IsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 10;
  int counts[kBuckets] = {};
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) {
    counts[rng.uniform_u64(kBuckets)]++;
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, 500);
  }
}

TEST(Rng, UniformDuration) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_duration(0), 0);
  for (int i = 0; i < 1000; ++i) {
    const auto d = rng.uniform_duration(seconds(std::int64_t{2}));
    EXPECT_GE(d, 0);
    EXPECT_LE(d, seconds(std::int64_t{2}));
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50'000; ++i) {
    stats.add(rng.exponential(2.0));
  }
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50'000; ++i) {
    stats.add(rng.normal(5.0, 3.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(Rng, ParetoSupport) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(1.5, 2.0), 1.5);
  }
}

TEST(Rng, PoissonMean) {
  Rng rng(19);
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 20'000; ++i) {
    small.add(static_cast<double>(rng.poisson(3.0)));
    large.add(static_cast<double>(rng.poisson(100.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 0.5);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(23);
  const auto sample = rng.sample_without_replacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  for (const auto v : sample) {
    EXPECT_LT(v, 100u);
  }
  EXPECT_EQ(rng.sample_without_replacement(5, 5).size(), 5u);
  EXPECT_TRUE(rng.sample_without_replacement(5, 0).empty());
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng base(31);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += f1() == f2();
  }
  EXPECT_LT(equal, 4);
}

TEST(Stats, RunningStatsBasics) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(v);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Stats, Merge) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(0, 1);
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, Quantile) {
  std::vector<double> values{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 2.0);
  EXPECT_THROW(quantile({}, 0.5), InvalidArgument);
  EXPECT_THROW(quantile(values, 1.5), InvalidArgument);
}

TEST(Stats, Histogram) {
  Histogram h(0.0, 10.0, 5);
  for (double v = 0.5; v < 10; v += 1.0) h.add(v);
  h.add(-100.0);  // clamps into the first bucket
  h.add(100.0);   // clamps into the last bucket
  EXPECT_EQ(h.total(), 12u);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_EQ(h.count(4), 3u);
  EXPECT_DOUBLE_EQ(h.bucket_low(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_high(1), 4.0);
  EXPECT_NEAR(h.fraction(1), 2.0 / 12.0, 1e-12);
}

TEST(Stats, WilsonInterval) {
  // Hand-checked values for 8/10 at 95%.
  const auto ci = wilson_interval(8, 10);
  EXPECT_NEAR(ci.low, 0.49, 0.01);
  EXPECT_NEAR(ci.high, 0.943, 0.01);
  // Degenerate and boundary cases.
  const auto none = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(none.low, 0.0);
  EXPECT_DOUBLE_EQ(none.high, 1.0);
  const auto zero = wilson_interval(0, 50);
  EXPECT_DOUBLE_EQ(zero.low, 0.0);
  EXPECT_GT(zero.high, 0.0);
  EXPECT_LT(zero.high, 0.12);
  const auto all = wilson_interval(50, 50);
  EXPECT_DOUBLE_EQ(all.high, 1.0);
  EXPECT_GT(all.low, 0.88);
  EXPECT_THROW(wilson_interval(5, 3), InvalidArgument);
}

TEST(Parallel, CoversEveryIndexOnce) {
  for (const unsigned threads : {0u, 1u, 3u, 8u}) {
    std::vector<std::atomic<int>> hits(500);
    parallel_for(
        hits.size(),
        [&](std::size_t i) { hits[i].fetch_add(1); },
        threads);
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1);
    }
  }
  // Zero items is a no-op.
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 57) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

// Regression: a throwing item must stop sibling workers promptly — before
// the fix, the worker that caught the exception returned while the others
// kept draining every remaining item.  The thrower's whole first chunk is
// abandoned, so at least chunk-many items can never run.
TEST(Parallel, ErrorStopsSiblingsPromptly) {
  constexpr std::size_t kCount = 20'000;
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      parallel_for(
          kCount,
          [&](std::size_t i) {
            if (i == 0) throw std::runtime_error("first item fails");
            executed.fetch_add(1, std::memory_order_relaxed);
          },
          4),
      std::runtime_error);
  EXPECT_LT(executed.load(), kCount - 1)
      << "all items after the throwing one still ran";
}

namespace {

// Linux: current thread count of this process, or 0 if unreadable.
std::size_t os_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(
          std::stoul(line.substr(sizeof("Threads:") - 1)));
    }
  }
  return 0;
}

}  // namespace

TEST(ThreadPool, ZeroCountIsNoOp) {
  ThreadPool::shared().for_each(
      0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, CountSmallerThanThreads) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, NestedParallelForCompletesWithoutDeadlock) {
  std::atomic<std::size_t> total{0};
  parallel_for(
      8,
      [&](std::size_t) {
        parallel_for(
            1000,
            [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); },
            4);
      },
      4);
  EXPECT_EQ(total.load(), 8u * 1000u);
}

TEST(ThreadPool, ExceptionFromArbitraryItemPropagatesExactlyOnce) {
  // Many items throw; exactly one exception must reach the caller and the
  // pool must stay usable afterwards.
  int caught = 0;
  try {
    parallel_for(
        1000, [](std::size_t) { throw std::runtime_error("every item"); }, 4);
  } catch (const std::runtime_error&) {
    ++caught;
  }
  EXPECT_EQ(caught, 1);
  std::atomic<std::size_t> after{0};
  parallel_for(
      100, [&](std::size_t) { after.fetch_add(1); }, 4);
  EXPECT_EQ(after.load(), 100u);
}

TEST(ThreadPool, SurvivesManySmallDispatchesWithoutThreadGrowth) {
  std::atomic<std::size_t> total{0};
  // Warm the shared pool so its workers exist before the baseline count.
  parallel_for(64, [&](std::size_t) { total.fetch_add(1); }, 4);
  const std::size_t before = os_thread_count();
  for (int round = 0; round < 10'000; ++round) {
    parallel_for(4, [&](std::size_t) { total.fetch_add(1); }, 4);
  }
  const std::size_t after = os_thread_count();
  EXPECT_EQ(total.load(), 64u + 10'000u * 4u);
  if (before != 0) {
    EXPECT_EQ(after, before) << "pool grew threads across dispatches";
  }
}

TEST(ThreadPool, ConcurrentTopLevelSubmissionsSerialise) {
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        parallel_for(
            200, [&](std::size_t) { total.fetch_add(1); }, 4);
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), 4u * 50u * 200u);
}

TEST(Metrics, CounterAccumulatesAcrossThreads) {
  metrics::Counter c;
  parallel_for(
      1000, [&](std::size_t) { c.add(2); }, 4);
  EXPECT_EQ(c.value(), 2000u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, RegistryTimersAndSnapshot) {
  metrics::reset();
  metrics::counter("test.events").add(7);
  { const metrics::ScopedTimer timer("test.phase"); }
  { const metrics::ScopedTimer timer("test.phase"); }
  const auto snap = metrics::snapshot();

  bool found_counter = false;
  for (const auto& c : snap.counters) {
    if (c.name == "test.events") {
      found_counter = true;
      EXPECT_EQ(c.value, 7u);
    }
  }
  EXPECT_TRUE(found_counter);

  // A timed phase is a histogram of its scopes' microseconds.
  bool found_timer = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "test.phase_us") {
      found_timer = true;
      EXPECT_EQ(h.data.count, 2u);
    }
  }
  EXPECT_TRUE(found_timer);

  const std::string table = snap.to_table().to_string();
  EXPECT_NE(table.find("test.events"), std::string::npos);
  EXPECT_NE(table.find("test.phase_us"), std::string::npos);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"test.events\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"test.phase_us\": {\"count\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_EQ(json.find("\"timers\""), std::string::npos);

  metrics::reset();
  EXPECT_EQ(metrics::counter("test.events").value(), 0u);
}

// A scope far shorter than a microsecond records a 0 µs sample: it is
// still counted, never dropped.
TEST(Metrics, SubMicrosecondScopesAccumulate) {
  metrics::Histogram& hist = metrics::histogram("test.empty_scopes_us");
  hist.reset();
  for (int i = 0; i < 1000; ++i) {
    const metrics::ScopedTimer timer(hist, "test.empty_scopes");
  }
  EXPECT_EQ(hist.count(), 1000u);
}

TEST(Metrics, GaugeSetAddAndSnapshot) {
  metrics::reset();
  metrics::Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.reset();
  EXPECT_EQ(g.value(), 0);

  metrics::gauge("test.level").set(42);
  metrics::gauge("test.depth").add(-5);
  const auto snap = metrics::snapshot();
  bool found = false;
  for (const auto& entry : snap.gauges) {
    if (entry.name == "test.level") {
      found = true;
      EXPECT_EQ(entry.value, 42);
    }
  }
  EXPECT_TRUE(found);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"test.level\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"test.depth\": -5"), std::string::npos);
  EXPECT_NE(snap.to_table().to_string().find("test.level"),
            std::string::npos);
  metrics::reset();
  EXPECT_EQ(metrics::gauge("test.level").value(), 0);
}

TEST(Metrics, HistogramRecordConcurrentWithSnapshot) {
  // The stats server snapshots the registry while workers keep recording.
  // Mid-flight snapshots may be mutually torn between fields (documented),
  // but each field must be exact: never exceeding the true total, and the
  // final snapshot must account for every write (no lost updates).
  metrics::reset();
  constexpr std::uint64_t kPerThread = 20'000;
  constexpr unsigned kWriters = 4;
  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    while (!done.load()) {
      const auto snap = metrics::snapshot();
      for (const auto& h : snap.histograms) {
        if (h.name != "test.concurrent") continue;
        std::uint64_t bucket_sum = 0;
        for (const auto b : h.data.buckets) bucket_sum += b;
        EXPECT_LE(bucket_sum, kPerThread * kWriters);
        EXPECT_LE(h.data.count, kPerThread * kWriters);
      }
    }
  });
  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto& hist = metrics::histogram("test.concurrent");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hist.record(w * 13 + i % 7);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  snapshotter.join();

  const auto snap = metrics::snapshot();
  bool found = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "test.concurrent") {
      found = true;
      EXPECT_EQ(h.data.count, kPerThread * kWriters);
      std::uint64_t bucket_sum = 0;
      for (const auto b : h.data.buckets) bucket_sum += b;
      EXPECT_EQ(bucket_sum, kPerThread * kWriters);
    }
  }
  EXPECT_TRUE(found);
  metrics::reset();
}

TEST(Table, RenderAndCsv) {
  TextTable table({"x", "value"});
  table.add_row({"1", "alpha"});
  table.add_row({"2", "beta,with comma"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| x | value"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"beta,with comma\""), std::string::npos);
  EXPECT_THROW(table.add_row({"only one"}), InvalidArgument);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(TextTable::cell(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::cell(std::uint64_t{42}), "42");
  EXPECT_EQ(TextTable::cell(std::int64_t{-42}), "-42");
}

TEST(Error, RequireThrowsWithContext) {
  EXPECT_NO_THROW(require(true, "fine"));
  try {
    require(false, "boom");
    FAIL() << "require(false) must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  EXPECT_THROW(check_invariant(false, "bug"), InternalError);
}

}  // namespace
}  // namespace sscor
