// Tests for the streaming flow table: the three eviction bounds (idle TTL,
// flow count, buffered-packet memory cap) held through churn, tombstone
// behaviour, and the engine-level eviction
// contract — every flow cut short still yields a verdict, and flows never
// evicted yield verdicts identical to an unbounded run.
//
// The StreamStress suite at the bottom drives concurrent multi-shard
// ingest — with and without a telemetry scraper hammering the stats
// endpoints — and is also run under TSan by run_checks.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "sscor/experiment/stream_corpus.hpp"
#include "sscor/net/http_client.hpp"
#include "sscor/stream/flow_table.hpp"
#include "sscor/stream/stream_engine.hpp"
#include "sscor/stream/telemetry.hpp"
#include "sscor/util/error.hpp"

namespace sscor::stream {
namespace {

net::FiveTuple tuple_n(std::size_t n) {
  return experiment::stream_corpus_tuple(n);
}

PacketRecord packet_at(TimeUs t) {
  PacketRecord packet;
  packet.timestamp = t;
  packet.size = 64;
  return packet;
}

TEST(FlowTable, ShardAssignmentIsPureAndInRange) {
  FlowTableConfig config;
  config.shards = 8;
  const FlowTable table(config);
  for (std::size_t n = 0; n < 64; ++n) {
    const std::size_t shard = table.shard_of(tuple_n(n));
    EXPECT_LT(shard, table.shard_count());
    EXPECT_EQ(shard, table.shard_of(tuple_n(n))) << "not a pure function";
  }
}

TEST(FlowTable, FlowCountBoundHoldsUnderChurnAndEvictsLru) {
  FlowTableConfig config;
  config.max_flows = 4;
  FlowTable table(config);
  std::vector<EvictedFlow> evicted;

  // 16 distinct flows through a 4-entry table, oldest-touched first out.
  for (std::size_t n = 0; n < 16; ++n) {
    table.touch(0, tuple_n(n), packet_at(static_cast<TimeUs>(n)), n, evicted);
    EXPECT_LE(table.flows(), config.max_flows) << "after flow " << n;
  }
  ASSERT_EQ(evicted.size(), 12u);
  for (std::size_t e = 0; e < evicted.size(); ++e) {
    EXPECT_EQ(evicted[e].cause, EvictionCause::kFlowCount);
    // LRU order: the flow created earliest goes first.
    EXPECT_EQ(evicted[e].tuple, tuple_n(e));
  }

  // Touching an existing flow refreshes it: flow 12 survives the next
  // insertion round while the untouched 13 is displaced first.
  table.touch(0, tuple_n(12), packet_at(100), 16, evicted);
  evicted.clear();
  table.touch(0, tuple_n(20), packet_at(101), 17, evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].tuple, tuple_n(13));
}

TEST(FlowTable, IdleTtlEvictsAndSplitsFlows) {
  FlowTableConfig config;
  config.idle_ttl = seconds(std::int64_t{10});
  FlowTable table(config);
  std::vector<EvictedFlow> evicted;

  FlowEntry* a = table.touch(0, tuple_n(0), packet_at(0), 0, evicted);
  EXPECT_EQ(a->first_seen_seq, 0u);
  table.touch(0, tuple_n(1), packet_at(seconds(std::int64_t{1})), 1, evicted);
  table.touch(0, tuple_n(1), packet_at(seconds(std::int64_t{8})), 2, evicted);
  EXPECT_TRUE(evicted.empty());

  // At t=12s flow 0 has been idle past the TTL, so touching flow 1 (itself
  // fresh: last packet at 8 s) sweeps flow 0 out...
  table.touch(0, tuple_n(1), packet_at(seconds(std::int64_t{12})), 3, evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].tuple, tuple_n(0));
  EXPECT_EQ(evicted[0].cause, EvictionCause::kIdle);
  EXPECT_EQ(table.flows(), 1u);

  // ...and a flow whose own gap exceeds the TTL splits: old instance
  // evicted, new instance created with a fresh first_seen_seq.
  evicted.clear();
  FlowEntry* b =
      table.touch(0, tuple_n(1), packet_at(seconds(std::int64_t{40})), 4,
                  evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].tuple, tuple_n(1));
  EXPECT_EQ(evicted[0].cause, EvictionCause::kIdle);
  EXPECT_EQ(b->first_seen_seq, 4u);
  EXPECT_EQ(b->packets, 1u);
}

TEST(FlowTable, RejectsNegativeIdleTtl) {
  // A negative TTL would split the flow at every packet, so no flow would
  // ever live long enough to yield a verdict.  INT64_MIN is what a NaN
  // seconds value converts to on x86.
  for (const DurationUs ttl :
       {DurationUs{-1}, -seconds(std::int64_t{1}),
        std::numeric_limits<DurationUs>::min()}) {
    FlowTableConfig config;
    config.idle_ttl = ttl;
    EXPECT_THROW(FlowTable{config}, InvalidArgument) << "ttl " << ttl;
  }
  FlowTableConfig config;
  config.idle_ttl = 0;
  EXPECT_NO_THROW(FlowTable{config});
}

TEST(FlowTable, MemoryCapHoldsUnconditionally) {
  FlowTableConfig config;
  config.max_buffered_packets = 10;
  FlowTable table(config);
  std::vector<EvictedFlow> evicted;

  FlowEntry* a = table.touch(0, tuple_n(0), packet_at(0), 0, evicted);
  FlowEntry* b = table.touch(0, tuple_n(1), packet_at(1), 1, evicted);
  ASSERT_TRUE(table.add_buffered(0, a, 6, evicted));
  ASSERT_TRUE(table.add_buffered(0, b, 3, evicted));
  EXPECT_EQ(table.buffered_packets(), 9u);
  EXPECT_TRUE(evicted.empty());

  // Charging b past the cap displaces the LRU flow holding buffer (a).
  ASSERT_TRUE(table.add_buffered(0, b, 4, evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].tuple, tuple_n(0));
  EXPECT_EQ(evicted[0].cause, EvictionCause::kMemory);
  EXPECT_LE(table.buffered_packets(), 10u);

  // A single charge bigger than the whole cap can only be satisfied by
  // evicting the charged flow itself: add_buffered reports the dangling
  // entry with `false` and the record lands in `evicted`.
  evicted.clear();
  EXPECT_FALSE(table.add_buffered(0, b, 20, evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].tuple, tuple_n(1));
  EXPECT_EQ(evicted[0].cause, EvictionCause::kMemory);
  EXPECT_EQ(table.flows(), 0u);
  EXPECT_EQ(table.buffered_packets(), 0u);
}

TEST(FlowTable, CapsStayTableWideAcrossShards) {
  // With N shards the per-shard share is floor(total / N); the table-wide
  // count can therefore never exceed the configured totals no matter how
  // flows distribute.
  FlowTableConfig config;
  config.shards = 4;
  config.max_flows = 10;
  config.max_buffered_packets = 40;
  FlowTable table(config);
  std::vector<EvictedFlow> evicted;
  for (std::size_t n = 0; n < 200; ++n) {
    const net::FiveTuple tuple = tuple_n(n);
    const std::size_t shard = table.shard_of(tuple);
    FlowEntry* entry =
        table.touch(shard, tuple, packet_at(static_cast<TimeUs>(n)), n,
                    evicted);
    table.add_buffered(shard, entry, 1 + n % 5, evicted);
    EXPECT_LE(table.flows(), config.max_flows);
    EXPECT_LE(table.buffered_packets(), config.max_buffered_packets);
  }
}

TEST(FlowTable, TombstonesReturnChargeAndAbsorbLatePackets) {
  FlowTableConfig config;
  config.max_buffered_packets = 100;
  FlowTable table(config);
  std::vector<EvictedFlow> evicted;

  FlowEntry* entry = table.touch(0, tuple_n(0), packet_at(0), 0, evicted);
  ASSERT_TRUE(table.add_buffered(0, entry, 50, evicted));
  EXPECT_EQ(table.buffered_packets(), 50u);

  table.tombstone(0, entry);
  EXPECT_TRUE(entry->tombstone);
  EXPECT_EQ(table.buffered_packets(), 0u);

  // A late packet keeps hitting the tombstone instead of opening a fresh
  // flow instance.
  FlowEntry* again = table.touch(0, tuple_n(0), packet_at(5), 1, evicted);
  EXPECT_EQ(again, entry);
  EXPECT_TRUE(again->tombstone);
  EXPECT_EQ(again->packets, 2u);
  EXPECT_EQ(again->first_seen_seq, 0u);
}

// ---------------------------------------------------------------------------
// Engine-level eviction contract, on a deterministic two-phase capture:
// three "early" flows (one watermarked) finish entirely, then three "late"
// decoys arrive.  With max_flows = 4, inserting the late flows must
// displace exactly two idle early flows — no luck involved.

struct TwoPhaseCapture {
  std::vector<WatermarkedFlow> upstreams;
  std::vector<StreamPacket> packets;
  std::vector<net::FiveTuple> early_tuples;
  std::vector<net::FiveTuple> late_tuples;
};

TwoPhaseCapture make_two_phase_capture() {
  // Small watermark so 100-packet flows have capacity for it.
  WatermarkParams watermark;
  watermark.bits = 8;
  watermark.redundancy = 2;  // 32 pairs -> 64 relevant packets

  experiment::StreamCorpusConfig early_config;
  early_config.watermarked_flows = 1;
  early_config.decoy_flows = 2;
  early_config.packets_per_flow = 100;
  early_config.chaff_rate = 1.0;
  early_config.seed = 404;
  early_config.watermark = watermark;
  const experiment::StreamCorpus early =
      experiment::make_stream_corpus(early_config);

  experiment::StreamCorpusConfig late_config;
  late_config.watermarked_flows = 0;
  late_config.decoy_flows = 3;
  late_config.packets_per_flow = 100;
  late_config.seed = 505;
  const experiment::StreamCorpus late =
      experiment::make_stream_corpus(late_config);

  TwoPhaseCapture capture;
  capture.upstreams = early.upstreams;
  capture.early_tuples = early.tuples;
  capture.packets = early.packets;

  // Shift the late flows past the end of the early phase and remap their
  // tuples out of the early tuple range.
  const TimeUs shift =
      early.packets.back().packet.timestamp + seconds(std::int64_t{1});
  for (const StreamPacket& packet : late.packets) {
    StreamPacket shifted = packet;
    shifted.packet.timestamp += shift;
    const auto it = std::find(late.tuples.begin(), late.tuples.end(),
                              packet.tuple);
    const std::size_t index =
        static_cast<std::size_t>(it - late.tuples.begin());
    shifted.tuple = tuple_n(10 + index);
    capture.packets.push_back(shifted);
  }
  for (std::size_t k = 0; k < late.tuples.size(); ++k) {
    capture.late_tuples.push_back(tuple_n(10 + k));
  }
  return capture;
}

CorrelatorConfig corpus_correlator_config() {
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{4});
  return config;
}

std::vector<StreamVerdict> run_engine(const TwoPhaseCapture& capture,
                                      StreamOptions options) {
  StreamEngine engine(capture.upstreams, corpus_correlator_config(),
                      std::move(options));
  for (const StreamPacket& packet : capture.packets) engine.ingest(packet);
  engine.finish();
  return engine.drain_verdicts();
}

TEST(FlowTable, EvictedFlowsStillYieldVerdicts) {
  const TwoPhaseCapture capture = make_two_phase_capture();

  StreamOptions options;
  options.table.max_flows = 4;  // 3 early + 3 late flows through 4 slots
  options.early_exit = false;   // keep every pair alive until eviction
  const std::vector<StreamVerdict> verdicts = run_engine(capture, options);

  // Every flow instance produced exactly one verdict: 3 early + 3 late,
  // of which exactly two early flows were displaced by the late phase.
  ASSERT_EQ(verdicts.size(), 6u);
  std::size_t evicted_count = 0;
  std::map<net::FiveTuple, std::size_t> per_tuple;
  for (const StreamVerdict& v : verdicts) {
    if (v.kind == VerdictKind::kEvicted) {
      ++evicted_count;
      EXPECT_FALSE(v.result.correlated);
      EXPECT_FALSE(v.result.matching_complete);
      EXPECT_EQ(v.result.cost, v.packets_seen);
      // Only early flows can be displaced (late flows fit in the table).
      EXPECT_NE(std::find(capture.early_tuples.begin(),
                          capture.early_tuples.end(), v.tuple),
                capture.early_tuples.end());
    }
    ++per_tuple[v.tuple];
  }
  EXPECT_EQ(evicted_count, 2u);
  EXPECT_EQ(per_tuple.size(), 6u);
}

TEST(FlowTable, NeverEvictedFlowsMatchUnboundedRun) {
  const TwoPhaseCapture capture = make_two_phase_capture();

  StreamOptions unbounded;
  unbounded.early_exit = false;
  const std::vector<StreamVerdict> golden = run_engine(capture, unbounded);
  ASSERT_EQ(golden.size(), 6u);

  StreamOptions bounded = unbounded;
  bounded.table.max_flows = 4;
  const std::vector<StreamVerdict> capped = run_engine(capture, bounded);
  ASSERT_EQ(capped.size(), golden.size());

  std::map<std::pair<net::FiveTuple, std::size_t>, const StreamVerdict*>
      golden_by_pair;
  for (const StreamVerdict& v : golden) {
    golden_by_pair[{v.tuple, v.upstream}] = &v;
  }

  // A flow the bound never touched must match the unbounded verdict byte
  // for byte — the cap is invisible to survivors.
  std::size_t checked = 0;
  for (const StreamVerdict& v : capped) {
    if (v.kind == VerdictKind::kEvicted) continue;
    const StreamVerdict* want = golden_by_pair[{v.tuple, v.upstream}];
    ASSERT_NE(want, nullptr);
    EXPECT_EQ(v.kind, want->kind);
    EXPECT_EQ(v.flow_seq, want->flow_seq);
    EXPECT_EQ(v.packets_seen, want->packets_seen);
    EXPECT_EQ(v.result.correlated, want->result.correlated);
    EXPECT_EQ(v.result.hamming, want->result.hamming);
    EXPECT_EQ(v.result.cost, want->result.cost);
    ++checked;
  }
  EXPECT_EQ(checked, 4u) << "expected 1 surviving early + 3 late flows";
}

// ---------------------------------------------------------------------------
// Concurrency stress: multi-shard ingest with a worker pool, run under
// TSan by run_checks.sh (ctest regex "StreamStress").  The assertion is
// thread-sanity plus determinism: the threaded run must equal the serial
// run verdict for verdict.

TEST(StreamStress, ConcurrentShardIngestMatchesSerial) {
  const TwoPhaseCapture capture = make_two_phase_capture();

  StreamOptions serial;
  serial.table.shards = 4;
  serial.table.max_flows = 8;
  serial.table.idle_ttl = seconds(std::int64_t{3600});
  serial.batch_size = 64;
  serial.threads = 1;
  const std::vector<StreamVerdict> golden = run_engine(capture, serial);

  StreamOptions threaded = serial;
  threaded.threads = 4;
  const std::vector<StreamVerdict> verdicts = run_engine(capture, threaded);

  ASSERT_EQ(verdicts.size(), golden.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].tuple, golden[i].tuple) << "verdict " << i;
    EXPECT_EQ(verdicts[i].flow_seq, golden[i].flow_seq) << "verdict " << i;
    EXPECT_EQ(verdicts[i].upstream, golden[i].upstream) << "verdict " << i;
    EXPECT_EQ(verdicts[i].kind, golden[i].kind) << "verdict " << i;
    EXPECT_EQ(verdicts[i].result.cost, golden[i].result.cost)
        << "verdict " << i;
  }
}

// The observer-only contract under contention: a scraper thread hammers
// /metrics, /statusz, /healthz, and engine.status() while the worker pool
// ingests — TSan must stay quiet and the verdict stream must still equal
// the serial golden run.
TEST(StreamStress, ConcurrentScrapeLeavesVerdictsUntouched) {
  const TwoPhaseCapture capture = make_two_phase_capture();

  StreamOptions serial;
  serial.table.shards = 4;
  serial.table.max_flows = 8;
  serial.table.idle_ttl = seconds(std::int64_t{3600});
  serial.batch_size = 64;
  serial.threads = 1;
  const std::vector<StreamVerdict> golden = run_engine(capture, serial);

  StreamOptions threaded = serial;
  threaded.threads = 4;
  StreamEngine engine(capture.upstreams, corpus_correlator_config(),
                      threaded);
  StreamTelemetry telemetry(engine);
  telemetry.start("127.0.0.1", 0);
  const std::uint16_t port = telemetry.port();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const net::HttpResult metrics =
          net::http_get("127.0.0.1", port, "/metrics");
      EXPECT_EQ(metrics.status, 200);
      const net::HttpResult statusz =
          net::http_get("127.0.0.1", port, "/statusz");
      EXPECT_EQ(statusz.status, 200);
      const net::HttpResult healthz =
          net::http_get("127.0.0.1", port, "/healthz");
      EXPECT_EQ(healthz.status, 200);
      const EngineStatus status = engine.status();
      EXPECT_LE(status.flows_live, 8u);
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (const StreamPacket& packet : capture.packets) engine.ingest(packet);
  engine.finish();
  std::vector<StreamVerdict> verdicts = engine.drain_verdicts();

  // Guarantee at least one full scrape round overlapped the run before
  // releasing the scraper (endpoints stay live until telemetry.stop()).
  while (scrapes.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  scraper.join();
  telemetry.stop();
  EXPECT_GE(scrapes.load(), 1u) << "scraper never completed a round";

  ASSERT_EQ(verdicts.size(), golden.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].tuple, golden[i].tuple) << "verdict " << i;
    EXPECT_EQ(verdicts[i].flow_seq, golden[i].flow_seq) << "verdict " << i;
    EXPECT_EQ(verdicts[i].upstream, golden[i].upstream) << "verdict " << i;
    EXPECT_EQ(verdicts[i].kind, golden[i].kind) << "verdict " << i;
    EXPECT_EQ(verdicts[i].result.cost, golden[i].result.cost)
        << "verdict " << i;
  }
}

}  // namespace
}  // namespace sscor::stream
