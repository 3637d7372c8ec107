// Observability layer tests: JSON escaping, log-linear histograms, span
// recording/export, decode introspection, and the metrics integration.
//
// The JSONL determinism test runs real correlators through parallel_for at
// two thread counts and requires byte-identical exports; together with the
// concurrent-recording tests this binary is part of the TSan smoke set
// driven by tools/run_checks.sh.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <regex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/correlation/robust.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/histogram.hpp"
#include "sscor/util/json.hpp"
#include "sscor/util/json_parse.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/parallel.hpp"
#include "sscor/util/trace.hpp"
#include "sscor/watermark/embedder.hpp"

namespace {

using namespace sscor;

// ---------------------------------------------------------------------------
// JSON emission helpers.

TEST(JsonTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json::escape("plain"), "\"plain\"");
  EXPECT_EQ(json::escape("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json::escape("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json::escape("\b\t\n\f\r"), "\"\\b\\t\\n\\f\\r\"");
  EXPECT_EQ(json::escape(std::string_view("\x01\x1f", 2)),
            "\"\\u0001\\u001f\"");
  // UTF-8 multibyte sequences pass through untouched.
  EXPECT_EQ(json::escape("\xc3\xa9"), "\"\xc3\xa9\"");

  std::string out = "x=";
  json::append_escaped(out, "y");
  EXPECT_EQ(out, "x=\"y\"");
}

TEST(JsonTest, FormatsNumbersLocaleIndependently) {
  EXPECT_EQ(json::number(1.5, 2), "1.50");
  EXPECT_EQ(json::number(0.0, 3), "0.000");
  EXPECT_EQ(json::number(-2.25, 1), "-2.2");
  EXPECT_EQ(json::number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()), "null");
}

// ---------------------------------------------------------------------------
// JSON reading (util/json_parse, which trace_check validates with).

TEST(JsonParse, RejectsMalformedDocuments) {
  // Pinned so the one grammar cannot loosen silently: trace_check accepts
  // exactly what this parser accepts.
  const std::string malformed[] = {
      "01", "-01", "00", "1.", "1.e5", "1e", "1e+", "-", ".5", "+1",
      "\"\\u12\"", "\"\\u12G4\"", "\"\\u\"", "\"\\x\"",
      std::string("\"a\x01b\""), "\"a\tb\"", "\"a\nb\"", "\"open",
      "[1,]", "{\"a\":1,}", "[1,2]x", "{} {}", "tru", "nul", "True", "NaN",
      "Infinity", "'a'", "{a:1}", "",
      // Nesting past the limit is refused, not recursed into until the
      // stack overflows.
      std::string(100'000, '[') + std::string(100'000, ']')};
  for (const std::string& doc : malformed) {
    EXPECT_THROW(json::parse(doc), json::ParseError) << doc;
  }
  EXPECT_EQ(json::parse(" {\"a\": [1, -0.5e3, \"\\u00e9\\n\", true, null]} ")
                .at("a")
                .as_array()
                .size(),
            5u);
}

TEST(JsonParse, ParseErrorsCarryTheOffset) {
  try {
    json::parse("{\"a\": 01}");
    ADD_FAILURE() << "accepted a leading zero";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(e.offset(), 7u);
    EXPECT_EQ(e.reason(), "expected ',' or '}' in object");
  }
}

TEST(JsonParse, IntegerAccessorsAreExactOrThrow) {
  EXPECT_EQ(json::parse("18446744073709551615").as_uint(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(json::parse("18446744073709551616").as_uint(),
               InvalidArgument);
  EXPECT_THROW(json::parse("9223372036854775808").as_int(), InvalidArgument);
  EXPECT_EQ(json::parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(json::parse("9007199254740993").as_uint(), 9007199254740993u);
  EXPECT_EQ(json::parse("9007199254740993").as_int(), 9007199254740993);
  EXPECT_THROW(json::parse("1.5").as_int(), InvalidArgument);
  EXPECT_THROW(json::parse("1.5").as_uint(), InvalidArgument);
  EXPECT_THROW(json::parse("-1").as_uint(), InvalidArgument);
  EXPECT_EQ(json::parse("-1").as_int(), -1);
  EXPECT_DOUBLE_EQ(json::parse("1.5").as_number(), 1.5);
}

// ---------------------------------------------------------------------------
// Histogram bucket layout.

TEST(HistogramTest, SingletonBucketsBelowFour) {
  for (std::uint64_t v = 0; v < metrics::kHistogramSubBuckets; ++v) {
    EXPECT_EQ(metrics::histogram_bucket_index(v), v);
    EXPECT_EQ(metrics::histogram_bucket_lower_bound(
                  static_cast<std::uint32_t>(v)),
              v);
  }
}

TEST(HistogramTest, BucketRoundTripAndMonotonicity) {
  // Reachable indices are 0..251: values < 4 map to singletons and the
  // highest power-of-two range (msb 63) ends at (63-1)*4 + 3 = 251.
  constexpr std::uint32_t kTopIndex = 251;
  for (std::uint32_t i = 0; i <= kTopIndex; ++i) {
    const std::uint64_t lower = metrics::histogram_bucket_lower_bound(i);
    EXPECT_EQ(metrics::histogram_bucket_index(lower), i) << "index " << i;
    if (i > 0) {
      EXPECT_GT(lower, metrics::histogram_bucket_lower_bound(i - 1));
    }
    if (i < kTopIndex) {
      // The value just below the next bucket still belongs to this one.
      const std::uint64_t next = metrics::histogram_bucket_lower_bound(i + 1);
      EXPECT_EQ(metrics::histogram_bucket_index(next - 1), i);
    }
  }
  EXPECT_EQ(metrics::histogram_bucket_index(
                std::numeric_limits<std::uint64_t>::max()),
            kTopIndex);
}

TEST(HistogramTest, BucketRelativeErrorIsAtMostAQuarter) {
  for (std::uint32_t i = metrics::kHistogramSubBuckets; i < 251; ++i) {
    const double lower =
        static_cast<double>(metrics::histogram_bucket_lower_bound(i));
    const double width =
        static_cast<double>(metrics::histogram_bucket_lower_bound(i + 1)) -
        lower;
    EXPECT_LE(width / lower, 0.25 + 1e-12) << "index " << i;
  }
}

TEST(HistogramTest, PercentilesReportBucketLowerBounds) {
  metrics::HistogramData data;
  // 96 is an exact bucket lower bound ((4+2)<<4), so the percentile is
  // exact rather than merely bucket-accurate.
  for (int i = 0; i < 90; ++i) data.record(2);
  for (int i = 0; i < 10; ++i) data.record(96);
  EXPECT_EQ(data.count, 100u);
  EXPECT_EQ(data.sum, 90u * 2 + 10u * 96);
  EXPECT_EQ(data.max, 96u);
  EXPECT_EQ(data.percentile(0.50), 2u);
  EXPECT_EQ(data.percentile(0.90), 2u);
  EXPECT_EQ(data.percentile(0.95), 96u);
  EXPECT_EQ(data.percentile(0.99), 96u);
  EXPECT_EQ(data.percentile(1.00), 96u);
  EXPECT_DOUBLE_EQ(data.mean(), 11.4);

  const metrics::HistogramData empty;
  EXPECT_EQ(empty.percentile(0.5), 0u);
  EXPECT_EQ(empty.mean(), 0.0);
}

TEST(HistogramTest, MergeIsAssociativeAndMatchesSerialRecording) {
  std::mt19937_64 rng(0x5eed);
  std::vector<std::uint64_t> values(3000);
  for (auto& v : values) {
    // Mix small and huge magnitudes so many bucket ranges participate.
    v = rng() >> (rng() % 60);
  }

  metrics::HistogramData serial;
  for (const auto v : values) serial.record(v);

  metrics::HistogramData a;
  metrics::HistogramData b;
  metrics::HistogramData c;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(values[i]);
  }

  metrics::HistogramData left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  metrics::HistogramData bc = b;     // a + (b + c)
  bc.merge(c);
  metrics::HistogramData right = a;
  right.merge(bc);

  EXPECT_EQ(left.buckets, serial.buckets);
  EXPECT_EQ(right.buckets, serial.buckets);
  EXPECT_EQ(left.count, serial.count);
  EXPECT_EQ(right.sum, serial.sum);
  EXPECT_EQ(left.max, serial.max);

  // The atomic registry histogram agrees with the plain accumulator.
  metrics::Histogram atomic;
  atomic.merge(a);
  atomic.merge(b);
  atomic.merge(c);
  const metrics::HistogramData snap = atomic.snapshot();
  EXPECT_EQ(snap.buckets, serial.buckets);
  EXPECT_EQ(snap.count, serial.count);
  EXPECT_EQ(snap.sum, serial.sum);
  EXPECT_EQ(snap.max, serial.max);
}

TEST(HistogramTest, ConcurrentRecordingKeepsExactTotals) {
  metrics::Histogram hist;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hist, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hist.record(t * 1000 + i % 100);
      }
    });
  }
  for (auto& w : workers) w.join();
  const metrics::HistogramData snap = hist.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t expected_sum = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      expected_sum += t * 1000 + i % 100;
    }
  }
  EXPECT_EQ(snap.sum, expected_sum);
  EXPECT_EQ(snap.max, 3000u + 99u);
}

// ---------------------------------------------------------------------------
// Spans.

TEST(SpanTest, DisabledRecordsNothing) {
  trace::set_spans_enabled(false);
  trace::clear_spans();
  {
    TRACE_SPAN("span_test.disabled");
  }
  EXPECT_TRUE(trace::snapshot_spans().empty());
  EXPECT_EQ(trace::export_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
}

TEST(SpanTest, RecordsNestingDepthAndThreadAttribution) {
  trace::clear_spans();
  trace::set_spans_enabled(true);
  {
    TRACE_SPAN("span_test.outer");
    {
      TRACE_SPAN("span_test.inner");
    }
  }
  std::thread worker([] { TRACE_SPAN("span_test.worker"); });
  worker.join();
  trace::set_spans_enabled(false);

  const std::vector<trace::SpanEvent> events = trace::snapshot_spans();
  ASSERT_EQ(events.size(), 3u);
  std::uint32_t main_tid = 0;
  std::uint32_t worker_tid = 0;
  for (const auto& e : events) {
    const std::string name = e.name;
    if (name == "span_test.outer") {
      EXPECT_EQ(e.depth, 0u);
      main_tid = e.tid;
    } else if (name == "span_test.inner") {
      EXPECT_EQ(e.depth, 1u);
      EXPECT_EQ(e.tid, main_tid);
    } else if (name == "span_test.worker") {
      EXPECT_EQ(e.depth, 0u);
      worker_tid = e.tid;
    } else {
      FAIL() << "unexpected span " << name;
    }
    EXPECT_GE(e.duration_us, 0);
  }
  EXPECT_NE(main_tid, 0u);
  EXPECT_NE(worker_tid, 0u);
  EXPECT_NE(main_tid, worker_tid);
  trace::clear_spans();
}

TEST(SpanTest, RingOverflowDropsOldestAndCounts) {
  trace::clear_spans();
  trace::set_spans_enabled(true);
  constexpr std::uint64_t kExtra = 7;
  for (std::size_t i = 0; i < trace::kSpanRingCapacity + kExtra; ++i) {
    TRACE_SPAN("span_test.flood");
  }
  trace::set_spans_enabled(false);
  EXPECT_EQ(trace::dropped_spans(), kExtra);
  // Only this thread recorded since the clear, so exactly one full ring.
  std::size_t flood = 0;
  for (const auto& e : trace::snapshot_spans()) {
    flood += std::string(e.name) == "span_test.flood";
  }
  EXPECT_EQ(flood, trace::kSpanRingCapacity);
  trace::clear_spans();
  EXPECT_EQ(trace::dropped_spans(), 0u);
}

TEST(SpanTest, ConcurrentRecordingIsComplete) {
  trace::clear_spans();
  trace::set_spans_enabled(true);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpansEach = 250;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (std::size_t i = 0; i < kSpansEach; ++i) {
        TRACE_SPAN("span_test.concurrent");
      }
    });
  }
  for (auto& w : workers) w.join();
  trace::set_spans_enabled(false);
  std::size_t seen = 0;
  for (const auto& e : trace::snapshot_spans()) {
    seen += std::string(e.name) == "span_test.concurrent";
  }
  EXPECT_EQ(seen, kThreads * kSpansEach);
  trace::clear_spans();
}

TEST(SpanTest, ChromeJsonGolden) {
  trace::clear_spans();
  trace::set_spans_enabled(true);
  {
    TRACE_SPAN("alpha");
    {
      TRACE_SPAN("beta");
    }
  }
  trace::set_spans_enabled(false);

  // Timestamps and thread ids vary run to run; everything else is exact.
  std::string got = trace::export_chrome_json();
  got = std::regex_replace(got, std::regex(R"("ts":\d+)"), "\"ts\":0");
  got = std::regex_replace(got, std::regex(R"("dur":\d+)"), "\"dur\":0");
  got = std::regex_replace(got, std::regex(R"("tid":\d+)"), "\"tid\":1");

  const std::string golden =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"alpha\",\"cat\":\"sscor\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":0,\"pid\":0,\"tid\":1,\"args\":{\"depth\":0}},\n"
      "{\"name\":\"beta\",\"cat\":\"sscor\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":0,\"pid\":0,\"tid\":1,\"args\":{\"depth\":1}}\n"
      "]}\n";
  EXPECT_EQ(got, golden);
  trace::clear_spans();
}

// A timed phase needs no TRACE_SPAN beside it: the timer records the one
// span of its name, and its histogram sample, over the same scope.
TEST(SpanTest, ScopedTimerRecordsOneSpanOfItsName) {
  metrics::Histogram& hist = metrics::histogram("span_test.timed_us");
  hist.reset();
  trace::clear_spans();
  trace::set_spans_enabled(true);
  {
    const metrics::ScopedTimer timer("span_test.timed");
  }
  trace::set_spans_enabled(false);
  const std::vector<trace::SpanEvent> events = trace::snapshot_spans();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name), "span_test.timed");
  EXPECT_EQ(hist.count(), 1u);
  trace::clear_spans();
}

// ---------------------------------------------------------------------------
// Decode introspection.

TEST(DecodeTraceTest, PairScopesNestAndRestore) {
  EXPECT_EQ(trace::current_pair_label(), "");
  {
    const trace::DecodePairScope outer("outer");
    EXPECT_EQ(trace::current_pair_label(), "outer");
    {
      const trace::DecodePairScope inner("inner");
      EXPECT_EQ(trace::current_pair_label(), "inner");
    }
    EXPECT_EQ(trace::current_pair_label(), "outer");
  }
  EXPECT_EQ(trace::current_pair_label(), "");
}

TEST(DecodeTraceTest, ExportsFixedFieldOrderSortedByPair) {
  trace::clear_decode();

  trace::DecodeRecord second;
  second.pair = "p2";
  second.algorithm = "Greedy";
  trace::record_decode(second);

  trace::DecodeRecord first;
  first.pair = "p\"1";  // exercises escaping in the pair label
  first.algorithm = "Greedy";
  first.correlated = true;
  first.hamming = 2;
  first.cost = 42;
  first.matching_complete = true;
  first.cost_bound_hit = false;
  first.bit_outcomes = "110-";
  first.upstream_packets = 10;
  first.downstream_packets = 12;
  first.excess_packets = 2;
  first.matched_upstream = 9;
  first.window_total = 30;
  first.window_max = 5;
  trace::record_decode(first);

  EXPECT_EQ(trace::decode_record_count(), 2u);
  const std::string jsonl = trace::export_decode_jsonl();
  const std::string expected_first =
      "{\"pair\":\"p\\\"1\",\"algorithm\":\"Greedy\",\"correlated\":true,"
      "\"hamming\":2,\"cost\":42,\"matching_complete\":true,"
      "\"cost_bound_hit\":false,\"bits\":\"110-\",\"up_packets\":10,"
      "\"down_packets\":12,\"excess_packets\":2,\"matched_upstream\":9,"
      "\"window_total\":30,\"window_max\":5}\n";
  // "p\"1" < "p2", so the later-recorded row sorts first.
  ASSERT_GE(jsonl.size(), expected_first.size());
  EXPECT_EQ(jsonl.substr(0, expected_first.size()), expected_first);
  EXPECT_NE(jsonl.find("\"pair\":\"p2\""), std::string::npos);
  trace::clear_decode();
  EXPECT_EQ(trace::decode_record_count(), 0u);
}

TEST(DecodeTraceTest, RecordInheritsThePairScopeLabel) {
  trace::clear_decode();
  {
    const trace::DecodePairScope scope("scoped-pair");
    trace::DecodeRecord record;
    record.algorithm = "Greedy";
    trace::record_decode(std::move(record));
  }
  const std::string jsonl = trace::export_decode_jsonl();
  EXPECT_NE(jsonl.find("\"pair\":\"scoped-pair\""), std::string::npos);
  trace::clear_decode();
}

namespace jsonl_determinism {

struct PairSet {
  std::vector<WatermarkedFlow> marked;
  std::vector<Flow> down;
};

PairSet make_pairs(std::size_t pairs, std::size_t packets) {
  const traffic::InteractiveSessionModel model;
  const Embedder embedder(WatermarkParams{}, 0xbeef);
  Rng rng(0x5151);
  PairSet set;
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto seed = static_cast<std::uint64_t>(9000 + i);
    const Flow flow = model.generate(packets, 0, seed);
    set.marked.push_back(embedder.embed(flow, Watermark::random(24, rng)));
    const traffic::UniformPerturber perturber(seconds(std::int64_t{2}),
                                              seed + 17);
    const traffic::PoissonChaffInjector chaff(2.0, seed + 29);
    set.down.push_back(chaff.apply(perturber.apply(set.marked.back().flow)));
  }
  return set;
}

std::string run_pass(const PairSet& set, unsigned threads) {
  trace::clear_decode();
  trace::set_decode_enabled(true);
  const CorrelatorConfig config;
  const std::vector<Correlator> correlators = {
      Correlator(config, Algorithm::kGreedy),
      Correlator(config, Algorithm::kGreedyPlus),
      Correlator(config, Algorithm::kGreedyStar)};
  parallel_for(
      set.marked.size(),
      [&](std::size_t i) {
        char label[32];
        std::snprintf(label, sizeof(label), "pair=%04zu", i);
        const trace::DecodePairScope scope(label);
        for (const auto& c : correlators) {
          c.correlate(set.marked[i], set.down[i]);
        }
        run_greedy_plus_robust(set.marked[i].schedule,
                               set.marked[i].watermark, set.marked[i].flow,
                               set.down[i], config);
      },
      threads);
  trace::set_decode_enabled(false);
  std::string out = trace::export_decode_jsonl();
  trace::clear_decode();
  return out;
}

}  // namespace jsonl_determinism

TEST(DecodeTraceTest, JsonlIsByteIdenticalAcrossThreadCounts) {
  using jsonl_determinism::make_pairs;
  using jsonl_determinism::run_pass;
  const auto set = make_pairs(5, 800);
  const std::string serial = run_pass(set, 1);
  const std::string pooled = run_pass(set, 4);
  EXPECT_EQ(serial, pooled);

  // One row per (pair, detector): three correlators plus the robust run.
  std::size_t lines = 0;
  for (const char c : serial) lines += c == '\n';
  EXPECT_EQ(lines, set.marked.size() * 4);
  EXPECT_NE(serial.find("\"algorithm\":\"Greedy+robust\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics integration.

TEST(MetricsTest, ScopedTimerRecordsWhenUnwindingThroughAnException) {
  metrics::Histogram& hist = metrics::histogram("trace_test.throw_us");
  const std::uint64_t before = hist.count();
  try {
    const metrics::ScopedTimer timed("trace_test.throw");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(hist.count(), before + 1);
}

TEST(MetricsTest, RegistryHistogramsAppearWithPercentiles) {
  metrics::Histogram& hist = metrics::histogram("trace_test.hist");
  hist.reset();
  for (int i = 0; i < 90; ++i) hist.record(2);
  for (int i = 0; i < 10; ++i) hist.record(96);

  const metrics::Snapshot snap = metrics::snapshot();
  bool found = false;
  for (const auto& h : snap.histograms) {
    if (h.name != "trace_test.hist") continue;
    found = true;
    EXPECT_EQ(h.data.count, 100u);
    EXPECT_EQ(h.data.percentile(0.50), 2u);
    EXPECT_EQ(h.data.percentile(0.95), 96u);
  }
  EXPECT_TRUE(found);

  const std::string table = snap.to_table().to_string();
  EXPECT_NE(table.find("p50"), std::string::npos);
  EXPECT_NE(table.find("p95"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
  EXPECT_NE(table.find("trace_test.hist"), std::string::npos);

  const std::string json_out = snap.to_json();
  EXPECT_NE(json_out.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json_out.find("\"trace_test.hist\": {\"count\": 100"),
            std::string::npos);
  EXPECT_NE(json_out.find("\"p50\": 2"), std::string::npos);
  EXPECT_NE(json_out.find("\"p95\": 96"), std::string::npos);
}

}  // namespace
