// Tests for the live ops surface: Prometheus rendering, the structured
// event log, the HTTP stats server/client pair, and the StreamTelemetry
// endpoints over a real engine — including the invariant the whole surface
// is built on: telemetry changes no verdict.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sscor/experiment/stream_corpus.hpp"
#include "sscor/net/http_client.hpp"
#include "sscor/net/stats_server.hpp"
#include "sscor/stream/stream_engine.hpp"
#include "sscor/stream/telemetry.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/event_log.hpp"
#include "sscor/util/histogram.hpp"
#include "sscor/util/json_parse.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/prometheus.hpp"

namespace sscor {
namespace {

// The event log appends across open() calls (a daemon restart must not
// clobber history), so tests always start from a clean file.
std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + "sscor_telemetry_" + name;
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Prometheus, SanitizesNames) {
  EXPECT_EQ(metrics::prometheus_name("stream.flows.created"),
            "stream_flows_created");
  EXPECT_EQ(metrics::prometheus_name("a-b c+d"), "a_b_c_d");
  EXPECT_EQ(metrics::prometheus_name("already_fine_123"),
            "already_fine_123");
}

TEST(Prometheus, RendersEveryRegistrySection) {
  metrics::reset();
  metrics::counter("prom.test.events").add(42);
  metrics::gauge("prom.test.level").set(-7);
  metrics::histogram("prom.test.sizes").record(1);
  metrics::histogram("prom.test.sizes").record(100);
  metrics::histogram("prom.test.sizes").record(100);

  const std::string text = metrics::render_prometheus(metrics::snapshot());

  EXPECT_NE(text.find("# TYPE sscor_prom_test_events_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("sscor_prom_test_events_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sscor_prom_test_level gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("sscor_prom_test_level -7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sscor_prom_test_sizes histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("sscor_prom_test_sizes_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("sscor_prom_test_sizes_sum 201\n"), std::string::npos);
  EXPECT_NE(text.find("sscor_prom_test_sizes_count 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("sscor_prom_test_sizes_quantile{q=\"0.5\"}"),
            std::string::npos);
  metrics::reset();
}

TEST(Prometheus, HistogramBucketsAreCumulativeWithInclusiveBounds) {
  metrics::reset();
  metrics::histogram("prom.test.cume").record(0);
  metrics::histogram("prom.test.cume").record(1);
  metrics::histogram("prom.test.cume").record(1);
  const std::string text = metrics::render_prometheus(metrics::snapshot());
  // Value 0 lands in bucket 0 (upper bound lower_bound(1) - 1 = 0), the
  // two 1s in bucket 1; cumulative counts must include the prefix.
  EXPECT_NE(text.find("sscor_prom_test_cume_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("sscor_prom_test_cume_bucket{le=\"1\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("sscor_prom_test_cume_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  metrics::reset();
}

TEST(EventLog, WritesParsableRecordsAndHonoursSeverityFloor) {
  const std::string path = temp_path("events_basic.jsonl");
  eventlog::Options options;
  options.min_severity = eventlog::Severity::kInfo;
  eventlog::open(path, options);
  ASSERT_TRUE(eventlog::enabled());
  eventlog::emit(eventlog::Severity::kDebug, "below.floor", {});
  eventlog::emit(eventlog::Severity::kInfo, "flow.admitted",
                 {{"tuple", std::string("1.2.3.4:5 -> 6.7.8.9:10 tcp")},
                  {"flow_seq", std::uint64_t{7}},
                  {"early", true},
                  {"score", 0.25}});
  eventlog::close();
  EXPECT_FALSE(eventlog::enabled());

  std::istringstream lines(read_file(path));
  std::string line;
  std::size_t records = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++records;
    const json::Value record = json::parse(line);
    EXPECT_EQ(record.at("severity").as_string(), "info");
    EXPECT_EQ(record.at("event").as_string(), "flow.admitted");
    EXPECT_EQ(record.at("flow_seq").as_uint(), 7u);
    EXPECT_TRUE(record.at("early").as_bool());
    EXPECT_GE(record.at("ts_us").as_number(), 0.0);
  }
  EXPECT_EQ(records, 1u);  // the kDebug event fell below the floor
}

TEST(EventLog, TokenBucketSuppressesFloodsButNeverWarnings) {
  const std::string path = temp_path("events_flood.jsonl");
  eventlog::Options options;
  options.tokens_per_second = 0.0;  // no refill: exactly `burst` tokens
  options.burst = 3.0;
  eventlog::open(path, options);
  for (int i = 0; i < 10; ++i) {
    eventlog::emit(eventlog::Severity::kInfo, "flood", {});
  }
  eventlog::emit(eventlog::Severity::kWarn, "always.logged", {});
  const std::uint64_t emitted = eventlog::emitted();
  const std::uint64_t suppressed = eventlog::suppressed();
  eventlog::close();

  EXPECT_EQ(emitted, 4u);  // 3 info through the bucket + the warning
  EXPECT_EQ(suppressed, 7u);

  // The record after the drops carries the suppressed count.
  std::istringstream lines(read_file(path));
  std::string line;
  bool saw_suppressed_marker = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const json::Value record = json::parse(line);
    if (const json::Value* n = record.find("suppressed")) {
      EXPECT_EQ(n->as_uint(), 7u);
      EXPECT_EQ(record.at("event").as_string(), "always.logged");
      saw_suppressed_marker = true;
    }
  }
  EXPECT_TRUE(saw_suppressed_marker);
}

TEST(StatsServer, ParsesHostPort) {
  const net::HostPort a = net::parse_host_port("127.0.0.1:9100");
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 9100);
  const net::HostPort b = net::parse_host_port("localhost:0");
  EXPECT_EQ(b.host, "127.0.0.1");
  EXPECT_EQ(b.port, 0);
  EXPECT_THROW(net::parse_host_port("127.0.0.1"), InvalidArgument);
  EXPECT_THROW(net::parse_host_port(":80"), InvalidArgument);
  EXPECT_THROW(net::parse_host_port("127.0.0.1:"), InvalidArgument);
  EXPECT_THROW(net::parse_host_port("127.0.0.1:70000"), InvalidArgument);
  EXPECT_THROW(net::parse_host_port("127.0.0.1:8x0"), InvalidArgument);
  EXPECT_THROW(net::parse_host_port("not-a-host:80"), InvalidArgument);
}

TEST(StatsServer, ServesRegisteredHandlers) {
  net::StatsServer server;
  server.handle("/ping", [](const net::HttpRequest& request) {
    net::HttpResponse response;
    response.body = "pong:" + request.path;
    return response;
  });
  server.handle("/boom", [](const net::HttpRequest&) -> net::HttpResponse {
    throw std::runtime_error("handler exploded");
  });
  server.start("127.0.0.1", 0);
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const net::HttpResult ok =
      net::http_get("127.0.0.1", server.port(), "/ping");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "pong:/ping");

  const net::HttpResult query =
      net::http_get("127.0.0.1", server.port(), "/ping?x=1");
  EXPECT_EQ(query.status, 200);  // query strings are stripped before match

  const net::HttpResult missing =
      net::http_get("127.0.0.1", server.port(), "/nope");
  EXPECT_EQ(missing.status, 404);

  const net::HttpResult error =
      net::http_get("127.0.0.1", server.port(), "/boom");
  EXPECT_EQ(error.status, 500);
  EXPECT_NE(error.body.find("handler exploded"), std::string::npos);

  EXPECT_EQ(server.requests_served(), 4u);
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_THROW(net::http_get("127.0.0.1", server.port(), "/ping"), IoError);
}

// Small watermark so 100-ish-packet corpus flows have capacity for it
// (the default parameters need far longer flows).
WatermarkParams small_watermark() {
  WatermarkParams watermark;
  watermark.bits = 8;
  watermark.redundancy = 2;
  return watermark;
}

stream::StreamOptions small_engine_options(std::size_t shards) {
  stream::StreamOptions options;
  options.table.shards = shards;
  options.batch_size = 64;
  options.threads = 2;
  return options;
}

struct VerdictDigest {
  std::vector<std::string> lines;
};

VerdictDigest run_corpus(const experiment::StreamCorpus& corpus,
                         std::size_t shards, bool telemetry_on,
                         const std::string& event_log_path) {
  stream::StreamEngine engine(corpus.upstreams, CorrelatorConfig{},
                              small_engine_options(shards));
  stream::StreamTelemetry telemetry(engine);
  if (telemetry_on) {
    eventlog::open(event_log_path);
    telemetry.start("127.0.0.1", 0);
  }
  for (const auto& packet : corpus.packets) engine.ingest(packet);
  engine.finish();
  if (telemetry_on) {
    // Scrape everything once while the engine object is still alive.
    EXPECT_EQ(
        net::http_get("127.0.0.1", telemetry.port(), "/metrics").status, 200);
    EXPECT_EQ(
        net::http_get("127.0.0.1", telemetry.port(), "/statusz").status, 200);
    telemetry.stop();
    eventlog::close();
  }
  VerdictDigest digest;
  for (const auto& verdict : engine.drain_verdicts()) {
    digest.lines.push_back(
        verdict.tuple.to_string() + "#" + std::to_string(verdict.flow_seq) +
        " up" + std::to_string(verdict.upstream) + " " +
        to_string(verdict.kind) + (verdict.early ? " early" : "") + " h" +
        std::to_string(verdict.result.hamming) + " c" +
        std::to_string(verdict.result.cost));
  }
  return digest;
}

TEST(Prometheus, LadderTierFamiliesAreDistinct) {
  // The daemon's budgeted end-of-stream decodes run the ladder, whose
  // per-tier counters must render as distinct families: "Greedy+" and
  // "Greedy*" in a metric name would both read "Greedy_".
  experiment::StreamCorpusConfig config;
  config.watermarked_flows = 1;
  config.decoy_flows = 3;
  config.packets_per_flow = 200;
  config.watermark = small_watermark();
  const experiment::StreamCorpus corpus = experiment::make_stream_corpus(config);
  stream::StreamOptions options = small_engine_options(1);
  options.admission.max_cost_per_attempt = 1;  // every tier but the last stops
  stream::StreamEngine engine(corpus.upstreams, CorrelatorConfig{}, options);
  for (const auto& packet : corpus.packets) engine.ingest(packet);
  engine.finish();
  std::size_t degraded = 0;
  for (const auto& verdict : engine.drain_verdicts()) {
    degraded += verdict.kind == stream::VerdictKind::kDegraded;
  }
  ASSERT_GT(degraded, 0u) << "no decode fell back a tier";

  const std::string text =
      metrics::render_prometheus(metrics::snapshot());
  std::istringstream lines(text);
  std::set<std::string> families;
  std::size_t tier_families = 0;
  for (std::string line; std::getline(lines, line);) {
    if (!line.starts_with("# TYPE ")) continue;
    const std::string family = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_TRUE(families.insert(family).second) << "duplicate " << family;
    tier_families += family.starts_with("sscor_resilient_tier_") ||
                     family.starts_with("sscor_resilient_fallback_from_");
  }
  EXPECT_EQ(tier_families, 8u);
}

TEST(StreamTelemetry, EndpointsDescribeALiveEngine) {
  metrics::reset();
  experiment::StreamCorpusConfig config;
  config.watermarked_flows = 1;
  config.decoy_flows = 3;
  config.packets_per_flow = 200;
  config.watermark = small_watermark();
  const experiment::StreamCorpus corpus = experiment::make_stream_corpus(config);

  stream::StreamEngine engine(corpus.upstreams, CorrelatorConfig{},
                              small_engine_options(4));
  stream::StreamTelemetry telemetry(engine);
  telemetry.start("127.0.0.1", 0);
  for (const auto& packet : corpus.packets) engine.ingest(packet);
  engine.finish();

  const net::HttpResult statusz =
      net::http_get("127.0.0.1", telemetry.port(), "/statusz");
  ASSERT_EQ(statusz.status, 200);
  const json::Value doc = json::parse(statusz.body);
  EXPECT_EQ(doc.at("packets_ingested").as_uint(), corpus.packets.size());
  EXPECT_TRUE(doc.at("finished").as_bool());
  EXPECT_EQ(doc.at("upstreams").as_uint(), 1u);
  EXPECT_EQ(doc.at("shards").as_array().size(), 4u);
  std::uint64_t shard_flows = 0;
  for (const json::Value& shard : doc.at("shards").as_array()) {
    shard_flows += shard.at("flows").as_uint();
  }
  EXPECT_EQ(shard_flows, doc.at("flows_live").as_uint());
  const json::Value& verdicts = doc.at("verdicts");
  EXPECT_EQ(verdicts.at("total").as_uint(),
            verdicts.at("positive").as_uint() +
                verdicts.at("negative").as_uint() +
                verdicts.at("evicted").as_uint() +
                verdicts.at("degraded").as_uint());
  EXPECT_GT(verdicts.at("total").as_uint(), 0u);
  const auto& hottest = doc.at("hottest").as_array();
  ASSERT_FALSE(hottest.empty());
  // Ranked by buffered packets, descending.
  for (std::size_t i = 1; i < hottest.size(); ++i) {
    EXPECT_GE(hottest[i - 1].at("buffered").as_uint(),
              hottest[i].at("buffered").as_uint());
  }

  const net::HttpResult healthz =
      net::http_get("127.0.0.1", telemetry.port(), "/healthz");
  ASSERT_EQ(healthz.status, 200);
  const json::Value health = json::parse(healthz.body);
  EXPECT_EQ(health.at("status").as_string(), "ok");
  EXPECT_GE(health.at("uptime_s").as_number(), 0.0);

  const net::HttpResult prom =
      net::http_get("127.0.0.1", telemetry.port(), "/metrics");
  ASSERT_EQ(prom.status, 200);
  EXPECT_NE(prom.body.find("# TYPE sscor_stream_packets_ingested_total"),
            std::string::npos);
  EXPECT_NE(prom.body.find("sscor_stream_flows_live "), std::string::npos);
  EXPECT_NE(prom.body.find("sscor_stream_shard_0_flows "),
            std::string::npos);

  telemetry.stop();
  metrics::reset();
}

// /metrics is a pure read of the registry: a scrape moves no baseline, so
// two scrapes with nothing recorded between them are byte-identical, and
// any number of scrapers see the same series.  A timed phase is there as
// its microseconds histogram.
TEST(StreamTelemetry, MetricsScrapeIsAPureRead) {
  metrics::reset();
  experiment::StreamCorpusConfig config;
  config.watermarked_flows = 1;
  config.decoy_flows = 3;
  config.packets_per_flow = 200;
  config.watermark = small_watermark();
  const experiment::StreamCorpus corpus = experiment::make_stream_corpus(config);
  stream::StreamEngine engine(corpus.upstreams, CorrelatorConfig{},
                              small_engine_options(2));
  stream::StreamTelemetry telemetry(engine);
  for (const auto& packet : corpus.packets) engine.ingest(packet);
  engine.finish();

  const std::string first = telemetry.metrics_text();
  const std::string second = telemetry.metrics_text();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("# TYPE sscor_stream_flush_us histogram\n"),
            std::string::npos);
  EXPECT_NE(first.find("sscor_stream_flush_us_count "), std::string::npos);
  metrics::reset();
}

TEST(StreamTelemetry, HealthzReportsOverloadAfterPressureEviction) {
  metrics::reset();
  experiment::StreamCorpusConfig config;
  config.watermarked_flows = 1;
  config.decoy_flows = 5;
  config.packets_per_flow = 120;
  config.watermark = small_watermark();
  const experiment::StreamCorpus corpus = experiment::make_stream_corpus(config);

  stream::StreamOptions options = small_engine_options(1);
  options.table.max_flows = 2;  // guarantees flow-count evictions
  stream::StreamEngine engine(corpus.upstreams, CorrelatorConfig{}, options);
  stream::StreamTelemetry telemetry(engine);
  for (const auto& packet : corpus.packets) engine.ingest(packet);
  engine.finish();

  const json::Value health = json::parse(telemetry.healthz_json());
  EXPECT_EQ(health.at("status").as_string(), "overloaded");
  EXPECT_GE(health.at("seconds_since_pressure").as_number(), 0.0);
  EXPECT_TRUE(telemetry.overloaded());
  metrics::reset();
}

TEST(StreamTelemetry, ObserverOnlyVerdictParity) {
  experiment::StreamCorpusConfig config;
  config.watermarked_flows = 2;
  config.decoy_flows = 4;
  config.packets_per_flow = 150;
  config.watermark = small_watermark();
  const experiment::StreamCorpus corpus = experiment::make_stream_corpus(config);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    metrics::reset();
    const VerdictDigest off = run_corpus(corpus, shards, false, "");
    metrics::reset();
    const VerdictDigest on = run_corpus(
        corpus, shards, true,
        temp_path("parity_" + std::to_string(shards) + ".jsonl"));
    EXPECT_EQ(off.lines, on.lines)
        << "telemetry changed verdicts at shards=" << shards;
    ASSERT_FALSE(off.lines.empty());
  }
  metrics::reset();
}

}  // namespace
}  // namespace sscor
