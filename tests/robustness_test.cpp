// Robustness suite for the crash-safe live-feed daemon.
//
// Four layers, bottom up:
//
//   * frame codec / parser — round-trips, garbage quarantine, resync
//     accounting, chunking independence, reconnect reset semantics;
//   * reconnect backoff — schedules are a pure function of (policy,
//     seed): replayable, resettable, capped;
//   * socket transport — FrameFeeder -> SocketPacketSource delivers the
//     stream exactly once across clean runs and forced frame-boundary
//     disconnects, gives up on an unreachable endpoint, stops on demand,
//     and degrades without corruption behind the chaos proxy;
//   * durability — engine snapshot/restore continues the verdict stream
//     byte-identically at shard counts 1 and 8, and a real SIGKILL at a
//     commit boundary (fork + DurabilityOptions::sigkill_after_commits)
//     followed by `resume` re-emits the uninterrupted run's verdicts
//     exactly: committed ones from the WAL, the rest recomputed.  The
//     snapshot's delta log folds back into the engine's own snapshot at
//     every point, and torn, stale or corrupt logs cost at most the
//     points they hold.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sscor/experiment/stream_corpus.hpp"
#include "sscor/stream/chaos_proxy.hpp"
#include "sscor/stream/durability.hpp"
#include "sscor/stream/frame.hpp"
#include "sscor/stream/socket_source.hpp"
#include "sscor/stream/stream_engine.hpp"
#include "sscor/util/backoff.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/journal.hpp"
#include "sscor/util/json_parse.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/time.hpp"

namespace sscor::stream {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string path = testing::TempDir() + "sscor_robustness_" + name;
  std::filesystem::remove_all(path);
  return path;
}

StreamPacket make_packet(std::size_t flow, std::int64_t timestamp,
                         std::uint32_t size, bool chaff) {
  StreamPacket packet;
  packet.tuple = experiment::stream_corpus_tuple(flow);
  packet.packet.timestamp = timestamp;
  packet.packet.size = size;
  packet.packet.is_chaff = chaff;
  return packet;
}

bool same_packet(const StreamPacket& a, const StreamPacket& b) {
  return a.tuple == b.tuple && a.packet == b.packet;
}

// ---------------------------------------------------------------------------
// Frame codec and parser.

TEST(FrameCodec, PacketRoundTrip) {
  const StreamPacket original = make_packet(3, 123456789, 512, true);
  const std::string encoded = encode_packet_frame(original);
  EXPECT_EQ(encoded.size(), kFrameHeaderBytes + kPacketPayloadBytes);

  FrameParser parser;
  parser.feed(encoded);
  const auto frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kPacket);

  StreamPacket decoded;
  ASSERT_TRUE(decode_packet_payload(frame->payload, decoded));
  EXPECT_TRUE(same_packet(original, decoded));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.resyncs(), 0u);
  EXPECT_EQ(parser.bytes_quarantined(), 0u);
}

TEST(FrameParser, QuarantinesGarbageAndResyncsPastCorruption) {
  FrameParser parser;

  // Pure garbage with no sync mark is quarantined byte-for-byte.
  parser.feed("not a frame!");
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.bytes_quarantined(), 12u);

  // A CRC-corrupted frame is abandoned (resync) and the healthy frame
  // behind it still parses.
  std::string corrupt = encode_heartbeat();
  corrupt[8] ^= 0x01;  // flip a CRC byte
  parser.feed(corrupt + encode_hello());
  const auto frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kHello);
  EXPECT_EQ(frame->payload, kHelloPayload);
  EXPECT_GE(parser.resyncs(), 1u);
  EXPECT_GT(parser.bytes_quarantined(), 12u);
  EXPECT_EQ(parser.frames_parsed(), 1u);
}

TEST(FrameParser, ChunkingIndependence) {
  std::string stream = encode_hello();
  stream += "junk\xa5 bytes";
  stream += encode_packet_frame(make_packet(1, 1000, 64, false));
  stream += encode_heartbeat();
  std::string torn = encode_packet_frame(make_packet(2, 2000, 128, true));
  torn[9] ^= 0x40;  // corrupt mid-header
  stream += torn;
  stream += encode_end();

  const auto parse = [&](std::size_t chunk) {
    FrameParser parser;
    std::vector<Frame> frames;
    for (std::size_t i = 0; i < stream.size(); i += chunk) {
      parser.feed(std::string_view(stream).substr(
          i, std::min(chunk, stream.size() - i)));
      while (auto frame = parser.next()) frames.push_back(*frame);
    }
    return std::tuple(frames, parser.frames_parsed(), parser.resyncs(),
                      parser.bytes_quarantined());
  };

  const auto whole = parse(stream.size());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, std::size_t{13}}) {
    const auto split = parse(chunk);
    EXPECT_EQ(std::get<1>(split), std::get<1>(whole)) << "chunk " << chunk;
    EXPECT_EQ(std::get<2>(split), std::get<2>(whole)) << "chunk " << chunk;
    EXPECT_EQ(std::get<3>(split), std::get<3>(whole)) << "chunk " << chunk;
    const auto& a = std::get<0>(whole);
    const auto& b = std::get<0>(split);
    ASSERT_EQ(a.size(), b.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].type, b[i].type);
      EXPECT_EQ(a[i].payload, b[i].payload);
    }
  }
}

TEST(FrameParser, ResetStreamDropsPartialInputButKeepsCounters) {
  FrameParser parser;
  parser.feed(encode_hello());
  ASSERT_TRUE(parser.next().has_value());

  // Half a frame buffered, then the connection dies: reset_stream().
  const std::string packet = encode_packet_frame(make_packet(4, 500, 32, false));
  parser.feed(packet.substr(0, 7));
  parser.reset_stream();
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.frames_parsed(), 1u);

  // The next connection's bytes parse from a clean slate.
  parser.feed(packet);
  const auto frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kPacket);
  EXPECT_EQ(parser.frames_parsed(), 2u);
}

// ---------------------------------------------------------------------------
// Backoff.

TEST(Backoff, ScheduleIsDeterministicPerSeedAndReplayableAfterReset) {
  BackoffPolicy policy;
  policy.initial_ms = 100;
  policy.max_ms = 2000;
  policy.multiplier = 2.0;
  policy.jitter = 0.5;

  BackoffSchedule a(policy, 42);
  BackoffSchedule b(policy, 42);
  std::vector<std::int64_t> first;
  for (int i = 0; i < 12; ++i) {
    const std::int64_t delay = a.next_delay_ms();
    EXPECT_EQ(delay, b.next_delay_ms());
    first.push_back(delay);
  }
  EXPECT_EQ(a.attempts(), 12u);

  // reset() replays the identical schedule: same seed, fresh stream.
  a.reset();
  EXPECT_EQ(a.attempts(), 0u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(a.next_delay_ms(), first[i]);

  // A different seed produces a different jitter stream.
  BackoffSchedule c(policy, 43);
  bool any_differs = false;
  for (int i = 0; i < 12; ++i) any_differs |= (c.next_delay_ms() != first[i]);
  EXPECT_TRUE(any_differs);
}

TEST(Backoff, DelaysRespectJitterBoundsAndCap) {
  BackoffPolicy policy;
  policy.initial_ms = 50;
  policy.max_ms = 400;
  policy.multiplier = 2.0;
  policy.jitter = 0.5;

  BackoffSchedule schedule(policy, 7);
  std::int64_t base = policy.initial_ms;
  for (int i = 0; i < 16; ++i) {
    const std::int64_t delay = schedule.next_delay_ms();
    EXPECT_LE(delay, base);
    EXPECT_GE(delay, static_cast<std::int64_t>(
                         static_cast<double>(base) * (1.0 - policy.jitter)) -
                         1);
    EXPECT_LE(delay, policy.max_ms);
    base = std::min<std::int64_t>(
        policy.max_ms,
        static_cast<std::int64_t>(static_cast<double>(base) *
                                  policy.multiplier));
  }
}

// ---------------------------------------------------------------------------
// Socket transport.

std::vector<StreamPacket> sample_stream(std::size_t count) {
  std::vector<StreamPacket> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    packets.push_back(make_packet(i % 5, 1000 + static_cast<std::int64_t>(i) * 10,
                                  100 + static_cast<std::uint32_t>(i), i % 3 == 0));
  }
  return packets;
}

std::vector<StreamPacket> drain_source(SocketPacketSource& source) {
  std::vector<StreamPacket> received;
  while (auto packet = source.next()) received.push_back(*packet);
  return received;
}

TEST(SocketSource, DeliversFramedStreamWithHeartbeatsAndEndsCleanly) {
  const auto packets = sample_stream(200);
  FrameFeederOptions feed_options;
  feed_options.heartbeat_every = 7;
  FrameFeeder feeder(packets, feed_options);
  feeder.start();

  SocketSourceOptions options;
  options.endpoint = "127.0.0.1:" + std::to_string(feeder.port());
  options.backoff.initial_ms = 5;
  options.backoff.max_ms = 50;
  SocketPacketSource source(options);

  const auto received = drain_source(source);
  ASSERT_EQ(received.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_TRUE(same_packet(packets[i], received[i])) << "packet " << i;
  }
  const auto stats = source.stats();
  EXPECT_TRUE(stats.ended_cleanly);
  EXPECT_EQ(stats.connects, 1u);
  EXPECT_EQ(stats.packets, packets.size());
  EXPECT_GT(stats.heartbeats, 0u);
  EXPECT_EQ(stats.resyncs, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  feeder.stop();
}

TEST(SocketSource, ReconnectsAcrossFrameBoundaryDropsWithZeroLoss) {
  const auto packets = sample_stream(120);
  FrameFeederOptions feed_options;
  feed_options.drop_after_frames = 17;  // forced disconnect every 17 packets
  FrameFeeder feeder(packets, feed_options);
  feeder.start();

  SocketSourceOptions options;
  options.endpoint = "127.0.0.1:" + std::to_string(feeder.port());
  options.backoff.initial_ms = 2;
  options.backoff.max_ms = 20;
  options.max_reconnects = 32;
  SocketPacketSource source(options);

  const auto received = drain_source(source);
  ASSERT_EQ(received.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_TRUE(same_packet(packets[i], received[i])) << "packet " << i;
  }
  const auto stats = source.stats();
  EXPECT_TRUE(stats.ended_cleanly);
  EXPECT_GE(stats.disconnects, 1u);
  EXPECT_GT(feeder.connections(), 1u);
  feeder.stop();
}

TEST(SocketSource, GivesUpAfterReconnectBudgetOnUnreachableEndpoint) {
  // Bind an ephemeral port, note it, close it: dialing it now fails fast.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(fd);

  SocketSourceOptions options;
  options.endpoint = "127.0.0.1:" + std::to_string(dead_port);
  options.backoff.initial_ms = 1;
  options.backoff.max_ms = 5;
  options.max_reconnects = 3;
  SocketPacketSource source(options);

  EXPECT_FALSE(source.next().has_value());
  const auto stats = source.stats();
  EXPECT_TRUE(stats.gave_up);
  EXPECT_FALSE(stats.ended_cleanly);
  EXPECT_EQ(stats.connects, 0u);
  EXPECT_GE(stats.reconnect_attempts, 3u);
}

TEST(SocketSource, StopsPromptlyWhenShouldStopFires) {
  SocketSourceOptions options;
  options.endpoint = "127.0.0.1:1";
  options.backoff.initial_ms = 1;
  options.max_reconnects = 1 << 20;  // only should_stop can end this
  options.should_stop = [] { return true; };
  SocketPacketSource source(options);

  EXPECT_FALSE(source.next().has_value());
  EXPECT_TRUE(source.stats().stopped);
}

TEST(ChaosProxy, LossyRelayNeverCorruptsDeliveredPackets) {
  const auto packets = sample_stream(150);
  FrameFeederOptions feed_options;
  feed_options.pace_us = 200;  // keep the in-flight window small
  FrameFeeder feeder(packets, feed_options);
  feeder.start();

  ChaosProxyOptions proxy_options;
  proxy_options.upstream = "127.0.0.1:" + std::to_string(feeder.port());
  proxy_options.fault_rate = 0.25;
  proxy_options.seed = 11;
  ChaosProxy proxy(proxy_options);
  proxy.start();

  SocketSourceOptions options;
  options.endpoint = "127.0.0.1:" + std::to_string(proxy.port());
  options.backoff.initial_ms = 2;
  options.backoff.max_ms = 20;
  options.read_timeout_ms = 500;
  options.max_reconnects = 6;
  SocketPacketSource source(options);

  const auto received = drain_source(source);

  // Faults may LOSE packets (drops, corruption -> quarantine) but the CRC
  // makes inventing or altering one next to impossible: everything
  // delivered must be a subsequence of the original stream.
  std::size_t pos = 0;
  for (std::size_t i = 0; i < received.size(); ++i) {
    while (pos < packets.size() && !same_packet(packets[pos], received[i])) {
      ++pos;
    }
    ASSERT_LT(pos, packets.size())
        << "delivered packet " << i << " not found in original order";
    ++pos;
  }

  const auto stats = source.stats();
  EXPECT_TRUE(stats.ended_cleanly || stats.gave_up || stats.stopped);
  proxy.stop();
  feeder.stop();
}

// ---------------------------------------------------------------------------
// Durability: snapshot/restore and crash-resume parity.

WatermarkParams corpus_watermark() {
  WatermarkParams params;
  params.bits = 8;
  params.redundancy = 2;
  return params;
}

CorrelatorConfig corpus_config() {
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{4});
  config.hamming_threshold = 2;
  return config;
}

experiment::StreamCorpus make_corpus(std::uint64_t seed) {
  experiment::StreamCorpusConfig config;
  config.watermarked_flows = 2;
  config.decoy_flows = 4;
  config.packets_per_flow = 300;
  config.chaff_rate = 2.0;
  config.seed = seed;
  config.watermark = corpus_watermark();
  return experiment::make_stream_corpus(config);
}

StreamOptions engine_options(std::size_t shards, std::size_t batch) {
  StreamOptions options;
  options.table.shards = shards;
  options.batch_size = batch;
  return options;
}

/// One run with drains at every batch boundary (the daemon's cadence);
/// when `snapshot_at` is a nonzero batch multiple, the engine is torn
/// down there via snapshot() and rebuilt fresh via restore().
std::vector<std::string> run_with_restart(const experiment::StreamCorpus& corpus,
                                          std::size_t shards, std::size_t batch,
                                          std::uint64_t snapshot_at) {
  const StreamOptions options = engine_options(shards, batch);
  auto engine = std::make_unique<StreamEngine>(corpus.upstreams,
                                               corpus_config(), options);
  std::vector<std::string> emitted;
  const auto drain = [&] {
    for (const auto& verdict : engine->drain_verdicts()) {
      emitted.push_back(encode_verdict(verdict));
    }
  };
  for (const StreamPacket& packet : corpus.packets) {
    engine->ingest(packet);
    if (engine->packets_ingested() % batch == 0) drain();
    if (snapshot_at != 0 && engine->packets_ingested() == snapshot_at) {
      engine->flush();
      drain();
      const EngineSnapshot snapshot = engine->snapshot();
      engine = std::make_unique<StreamEngine>(corpus.upstreams,
                                              corpus_config(), options);
      engine->restore(snapshot);
    }
  }
  engine->finish();
  drain();
  return emitted;
}

TEST(Durability, SnapshotRestoreContinuesVerdictStreamExactly) {
  const auto corpus = make_corpus(2026);
  constexpr std::size_t kBatch = 64;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    const auto reference = run_with_restart(corpus, shards, kBatch, 0);
    ASSERT_FALSE(reference.empty());
    const auto restarted =
        run_with_restart(corpus, shards, kBatch, kBatch * 6);
    EXPECT_EQ(restarted, reference) << "shards " << shards;
  }
}

constexpr std::uint64_t kFingerprint = 0x5c0fde57;

/// The daemon loop distilled: commit-before-emit against a DurableSession,
/// drains and snapshot attempts at batch boundaries, resume replays the
/// WAL then skips snapshotted input.  Returns the emitted verdict stream;
/// `restored`, when given, reports whether resume restored a snapshot.
std::vector<std::string> run_daemon(const experiment::StreamCorpus& corpus,
                                    std::size_t shards, std::size_t batch,
                                    const std::string& state_dir, bool resume,
                                    std::int64_t sigkill_after_commits,
                                    bool* restored = nullptr) {
  StreamEngine engine(corpus.upstreams, corpus_config(),
                      engine_options(shards, batch));
  DurabilityOptions durability;
  durability.state_dir = state_dir;
  durability.snapshot_interval = 256;
  durability.sigkill_after_commits = sigkill_after_commits;
  DurableSession session(durability, kFingerprint);

  std::vector<std::string> emitted;
  const auto drain = [&] {
    for (const auto& verdict : engine.drain_verdicts()) {
      if (!session.commit(verdict)) continue;
      emitted.push_back(encode_verdict(verdict));
    }
  };

  std::uint64_t skip = 0;
  if (resume) {
    ResumeState recovered = session.resume();
    for (const auto& verdict : recovered.committed) {
      emitted.push_back(encode_verdict(verdict));
    }
    if (recovered.have_snapshot) {
      engine.restore(recovered.snapshot);
      skip = recovered.snapshot.next_seq;
    }
    if (restored != nullptr) *restored = recovered.have_snapshot;
  } else {
    session.begin_fresh();
  }

  for (const StreamPacket& packet : corpus.packets) {
    if (skip > 0) {
      --skip;
      continue;
    }
    engine.ingest(packet);
    if (engine.packets_ingested() % batch == 0) {
      drain();
      session.maybe_snapshot(engine);
    }
  }
  engine.finish();
  drain();
  return emitted;
}

/// Child process: runs the daemon loop into `state_dir` with a SIGKILL
/// armed after the `commits`-th fresh commit — a real, unhandleable kill
/// at the worst moment.
void crash_daemon(const experiment::StreamCorpus& corpus, std::size_t shards,
                  std::size_t batch, const std::string& state_dir,
                  std::int64_t commits) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      run_daemon(corpus, shards, batch, state_dir, false, commits);
    } catch (...) {
      _exit(7);
    }
    _exit(0);  // not reached when the kill fires
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child was not killed";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

/// Body records of the journal at `path`.
std::size_t journal_records(const std::string& path) {
  return journal::load_journal(path).records.size();
}

/// next_seq of the base in `state_dir`.
std::uint64_t base_next_seq(const std::string& state_dir) {
  const journal::LoadedJournal base =
      journal::load_journal(state_dir + "/snapshot.journal");
  return json::parse(base.header).at("next_seq").as_uint();
}

TEST(Durability, SigkillAtCommitBoundaryThenResumeMatchesUninterruptedRun) {
  // Corpus 777 dies after its 3rd commit.  Corpus 2026 dies after its 8th,
  // which lands after two deltas and a compaction, with three delta
  // records in the log: resume folds them onto a base that is not the
  // first.  (Corpus 777 commits nothing more until the stream ends, after
  // its last compaction.)
  struct Case {
    std::uint64_t seed;
    std::int64_t kill_at;
    bool deltas_on_compacted_base;
  };
  constexpr std::size_t kBatch = 64;
  for (const auto& [seed, kill_at, deltas_on_compacted_base] :
       {Case{777, 3, false}, Case{2026, 8, true}}) {
    const auto corpus = make_corpus(seed);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      const std::string tag =
          std::to_string(seed) + "_" + std::to_string(shards);
      const std::string ref_dir = temp_dir("ref" + tag);
      const std::string crash_dir = temp_dir("crash" + tag);

      const auto reference =
          run_daemon(corpus, shards, kBatch, ref_dir, false, -1);
      ASSERT_GT(reference.size(), static_cast<std::size_t>(kill_at))
          << "corpus too small to crash mid-run";
      ASSERT_NO_FATAL_FAILURE(
          crash_daemon(corpus, shards, kBatch, crash_dir, kill_at));
      if (deltas_on_compacted_base) {
        EXPECT_GE(journal_records(crash_dir + "/snapshot.delta"), 2u)
            << "shards " << shards;
        EXPECT_GT(base_next_seq(crash_dir), 256u)
            << "no compaction before the kill, shards " << shards;
      }

      // Resume in this process: WAL replay + snapshot restore + the rest
      // of the feed must reproduce the uninterrupted verdict stream
      // exactly.
      const auto resumed =
          run_daemon(corpus, shards, kBatch, crash_dir, true, -1);
      EXPECT_EQ(resumed, reference)
          << "corpus " << seed << ", shards " << shards;

      std::filesystem::remove_all(ref_dir);
      std::filesystem::remove_all(crash_dir);
    }
  }
}

/// One snapshot point of a run: the engine's own snapshot there, and a
/// copy of the state dir as the point left it.
struct Point {
  EngineSnapshot snapshot;
  std::string dir;
};

/// Runs the daemon loop fresh into `state_dir` (snapshot interval 256) and
/// records every snapshot point.  Each copy is what a kill -9 right after
/// its point would leave: every append is already in the page cache.
std::vector<Point> run_points(const experiment::StreamCorpus& corpus,
                              const StreamOptions& options,
                              const std::string& state_dir) {
  StreamEngine engine(corpus.upstreams, corpus_config(), options);
  DurabilityOptions durability;
  durability.state_dir = state_dir;
  durability.snapshot_interval = 256;
  DurableSession session(durability, kFingerprint);
  session.begin_fresh();
  std::vector<Point> points;
  for (const StreamPacket& packet : corpus.packets) {
    engine.ingest(packet);
    if (engine.packets_ingested() % options.batch_size != 0) continue;
    for (const auto& verdict : engine.drain_verdicts()) session.commit(verdict);
    const std::uint64_t written = session.snapshots_written();
    session.maybe_snapshot(engine);
    if (session.snapshots_written() == written) continue;
    Point& point = points.emplace_back();
    point.snapshot = engine.snapshot();
    point.dir = state_dir + ".point" + std::to_string(points.size() - 1);
    std::filesystem::remove_all(point.dir);
    std::filesystem::copy(state_dir, point.dir);
  }
  return points;
}

/// Resumes `state_dir` and returns the snapshot it recovered (next_seq 0
/// and no shards when it recovered none).  Resume only reads the snapshot
/// files and reopens the WAL for appending, so the dir is left as it was.
EngineSnapshot resume_snapshot(const std::string& state_dir) {
  DurabilityOptions options;
  options.state_dir = state_dir;
  DurableSession session(options, kFingerprint);
  ResumeState recovered = session.resume();
  return recovered.have_snapshot ? std::move(recovered.snapshot)
                                 : EngineSnapshot{};
}

testing::AssertionResult same_snapshot(const EngineSnapshot& a,
                                       const EngineSnapshot& b) {
  if (a.next_seq != b.next_seq) {
    return testing::AssertionFailure()
           << "next_seq " << a.next_seq << " vs " << b.next_seq;
  }
  if (a.shards.size() != b.shards.size()) {
    return testing::AssertionFailure() << "shard count";
  }
  for (std::size_t i = 0; i < a.shards.size(); ++i) {
    const EngineSnapshot::Shard& x = a.shards[i];
    const EngineSnapshot::Shard& y = b.shards[i];
    if (x.verdicts_emitted != y.verdicts_emitted ||
        !std::equal(std::begin(x.tally_by_kind), std::end(x.tally_by_kind),
                    std::begin(y.tally_by_kind)) ||
        x.tally_early != y.tally_early) {
      return testing::AssertionFailure() << "shard " << i << " tallies";
    }
    if (x.flows.size() != y.flows.size()) {
      return testing::AssertionFailure()
             << "shard " << i << " flows " << x.flows.size() << " vs "
             << y.flows.size();
    }
    for (std::size_t f = 0; f < x.flows.size(); ++f) {
      const EngineSnapshot::Flow& p = x.flows[f];
      const EngineSnapshot::Flow& q = y.flows[f];
      const auto held = [](const EngineSnapshot::Flow& flow) {
        std::vector<std::string> out;
        for (const auto& verdict : flow.held) {
          out.push_back(encode_verdict(verdict));
        }
        return out;
      };
      if (!(p.entry.tuple == q.entry.tuple) ||
          p.entry.first_seen_seq != q.entry.first_seen_seq ||
          p.entry.last_seen != q.entry.last_seen ||
          p.entry.packets != q.entry.packets ||
          p.entry.tombstone != q.entry.tombstone ||
          p.buffered != q.buffered || held(p) != held(q)) {
        return testing::AssertionFailure()
               << "shard " << i << " flow " << f << " (seq "
               << p.entry.first_seen_seq << ")";
      }
    }
  }
  return testing::AssertionSuccess();
}

TEST(Durability, DeltaFoldEqualsEngineSnapshotAtEverySnapshotPoint) {
  // Caps small enough to evict, early exits that tombstone decided flows,
  // and a min_packets filter that holds early verdicts back: every kind of
  // change a delta carries.
  const auto corpus = make_corpus(2026);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    StreamOptions options = engine_options(shards, 64);
    options.table.max_buffered_packets = 1200;
    options.table.max_flows = std::max<std::size_t>(shards, 5);
    options.min_packets = 120;
    const std::string state_dir = temp_dir("fold" + std::to_string(shards));
    const std::uint64_t evicted_before =
        metrics::counter("stream.flows.evicted").value();
    const std::uint64_t bases_before =
        metrics::counter("durability.snapshot.bases").value();
    const std::uint64_t deltas_before =
        metrics::counter("durability.snapshot.deltas").value();
    const auto points = run_points(corpus, options, state_dir);

    bool tombstones = false;
    bool held = false;
    for (std::size_t k = 0; k < points.size(); ++k) {
      EXPECT_TRUE(same_snapshot(resume_snapshot(points[k].dir),
                                points[k].snapshot))
          << "shards " << shards << ", point " << k;
      for (const auto& shard : points[k].snapshot.shards) {
        for (const auto& flow : shard.flows) {
          tombstones = tombstones || flow.entry.tombstone;
          held = held || !flow.held.empty();
        }
      }
      std::filesystem::remove_all(points[k].dir);
    }
    EXPECT_GT(metrics::counter("stream.flows.evicted").value(),
              evicted_before);
    EXPECT_TRUE(tombstones) << "no snapshot point held a tombstone";
    EXPECT_TRUE(held) << "no snapshot point held a verdict back";
    EXPECT_GE(metrics::counter("durability.snapshot.bases").value(),
              bases_before + 2)
        << "no compaction";
    EXPECT_GE(metrics::counter("durability.snapshot.deltas").value(),
              deltas_before + 2);
    std::filesystem::remove_all(state_dir);
  }
}

TEST(Durability, TornDeltaTailResumesFromThePreviousPoint) {
  // A kill -9 mid-append leaves a prefix of the last delta record.  At
  // every cut inside that record, resume must fold up to the point before
  // it and still reproduce the uninterrupted verdict stream.
  const auto corpus = make_corpus(777);
  constexpr std::size_t kBatch = 64;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    const std::string tag = std::to_string(shards);
    const std::string ref_dir = temp_dir("torn_ref" + tag);
    const auto reference =
        run_daemon(corpus, shards, kBatch, ref_dir, false, -1);

    // The first point whose log holds two records, so the cut record has
    // a delta before it.
    const std::string state_dir = temp_dir("torn_state" + tag);
    const auto points =
        run_points(corpus, engine_options(shards, kBatch), state_dir);
    std::size_t last = points.size();
    for (std::size_t k = 0; k < points.size(); ++k) {
      if (journal_records(points[k].dir + "/snapshot.delta") == 2) {
        last = k;
        break;
      }
    }
    ASSERT_LT(last, points.size()) << "no log with two records";
    const std::string log = points[last].dir + "/snapshot.delta";
    const std::uintmax_t size = std::filesystem::file_size(log);
    std::uintmax_t line_start = 0;
    {
      std::ifstream in(log, std::ios::binary);
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      line_start = text.rfind('\n', text.size() - 2) + 1;
    }

    const std::string cut_dir = temp_dir("torn_cut" + tag);
    const std::string run_dir = temp_dir("torn_run" + tag);
    std::filesystem::copy(points[last].dir, cut_dir);
    for (std::uintmax_t cut = line_start; cut < size; ++cut) {
      std::filesystem::copy_file(
          log, cut_dir + "/snapshot.delta",
          std::filesystem::copy_options::overwrite_existing);
      std::filesystem::resize_file(cut_dir + "/snapshot.delta", cut);
      // Only a cut of the final newline leaves the record whole.
      const bool whole = cut + 1 == size;
      ASSERT_TRUE(same_snapshot(resume_snapshot(cut_dir),
                                points[whole ? last : last - 1].snapshot))
          << "shards " << shards << ", cut at byte " << cut;
      // The resumed stream is a function of the WAL, the same at every
      // cut, and of the snapshot just checked; run it at the record's
      // start, its middle and its end.
      if (cut == line_start || cut == (line_start + size) / 2 || whole) {
        std::filesystem::remove_all(run_dir);
        std::filesystem::copy(cut_dir, run_dir);
        ASSERT_EQ(run_daemon(corpus, shards, kBatch, run_dir, true, -1),
                  reference)
            << "shards " << shards << ", cut at byte " << cut;
      }
    }
    for (const Point& point : points) std::filesystem::remove_all(point.dir);
    for (const auto& path : {ref_dir, state_dir, cut_dir, run_dir}) {
      std::filesystem::remove_all(path);
    }
  }
}

TEST(Durability, StaleDeltaLogIsIgnoredAndCorruptRecordEndsTheFold) {
  const auto corpus = make_corpus(777);
  constexpr std::size_t kBatch = 64;
  const std::string ref_dir = temp_dir("stale_ref");
  const auto reference = run_daemon(corpus, 1, kBatch, ref_dir, false, -1);
  const std::string state_dir = temp_dir("stale_state");
  const auto points = run_points(corpus, engine_options(1, kBatch), state_dir);

  // A compaction: a point, after the first, that wrote a base.
  std::size_t compacted = points.size();
  for (std::size_t k = 1; k < points.size(); ++k) {
    if (base_next_seq(points[k].dir) == points[k].snapshot.next_seq) {
      compacted = k;
      break;
    }
  }
  ASSERT_LT(compacted, points.size()) << "no compaction";
  ASSERT_GE(journal_records(points[compacted - 1].dir + "/snapshot.delta"),
            1u);

  // A crash between the new base's rename and the log's reset leaves the
  // old log, which names the previous base: resume ignores it.
  const std::string stale_dir = temp_dir("stale");
  std::filesystem::copy(points[compacted].dir, stale_dir);
  std::filesystem::copy_file(
      points[compacted - 1].dir + "/snapshot.delta",
      stale_dir + "/snapshot.delta",
      std::filesystem::copy_options::overwrite_existing);
  const std::uint64_t ignored =
      metrics::counter("durability.snapshot.delta_log_ignored").value();
  EXPECT_TRUE(same_snapshot(resume_snapshot(stale_dir),
                            points[compacted].snapshot));
  EXPECT_EQ(
      metrics::counter("durability.snapshot.delta_log_ignored").value(),
      ignored + 1);

  // A corrupt middle record ends the fold at the point before it; the
  // records after it are lost and counted, and the verdict stream still
  // equals the uninterrupted run.
  std::size_t three = points.size();
  for (std::size_t k = 0; k < points.size(); ++k) {
    if (journal_records(points[k].dir + "/snapshot.delta") == 3) {
      three = k;
      break;
    }
  }
  ASSERT_LT(three, points.size()) << "no log with three records";
  const std::string corrupt_dir = temp_dir("corrupt");
  std::filesystem::copy(points[three].dir, corrupt_dir);
  {
    const std::string path = corrupt_dir + "/snapshot.delta";
    std::ifstream in(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    // Lines: header, record 0, record 1, record 2.  Flip a digit inside
    // record 1's data.
    const std::size_t second = text.find('\n', text.find('\n') + 1) + 1;
    const std::size_t digit = text.find("\"next_seq\":", second) + 11;
    text[digit] = text[digit] == '9' ? '8' : '9';
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  }
  const std::uint64_t lost =
      metrics::counter("durability.snapshot.deltas_lost").value();
  EXPECT_TRUE(same_snapshot(resume_snapshot(corrupt_dir),
                            points[three - 2].snapshot));
  EXPECT_EQ(metrics::counter("durability.snapshot.deltas_lost").value(),
            lost + 2);
  EXPECT_EQ(run_daemon(corpus, 1, kBatch, corrupt_dir, true, -1), reference);

  for (const Point& point : points) std::filesystem::remove_all(point.dir);
  for (const auto& path :
       {ref_dir, state_dir, stale_dir, corrupt_dir}) {
    std::filesystem::remove_all(path);
  }
}

/// Rewrites every flow record of the snapshot at `path` in the layout of
/// the encoder that still kept a per-flow timestamp ring: `first_seen`
/// before `last_seen`, then `ring_pushed` and `ring` before `buffered`.
void add_legacy_ring_keys(const std::string& path) {
  const journal::LoadedJournal loaded = journal::load_journal(path);
  journal::Journal out = journal::Journal::create(path, loaded.header);
  for (std::string record : loaded.records) {
    const json::Value value = json::parse(record);
    if (value.find("first_seen_seq") != nullptr) {
      const std::string last_seen =
          std::to_string(value.at("last_seen").as_int());
      const std::uint64_t packets = value.at("packets").as_uint();
      std::string ring;
      for (std::uint64_t i = 0; i < std::min<std::uint64_t>(packets, 8);
           ++i) {
        ring += (i == 0 ? "" : ",") + last_seen;
      }
      record.insert(record.find(",\"last_seen\":"),
                    ",\"first_seen\":" + last_seen);
      record.insert(record.find(",\"buffered\":"),
                    ",\"ring_pushed\":" + std::to_string(packets) +
                        ",\"ring\":[" + ring + "]");
    }
    out.append(record);
  }
}

TEST(Durability, ResumesFromSnapshotWithLegacyRingKeys) {
  // A state dir written while flows still carried a timestamp ring has
  // snapshot keys the decoder no longer reads.  It reads keys by name, so
  // such a snapshot is restored, not discarded, and the resumed stream
  // equals the uninterrupted run.
  const auto corpus = make_corpus(777);
  constexpr std::size_t kBatch = 64;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    const std::string tag = std::to_string(shards);
    const std::string ref_dir = temp_dir("legacy_ref" + tag);
    const std::string crash_dir = temp_dir("legacy_crash" + tag);

    const auto reference =
        run_daemon(corpus, shards, kBatch, ref_dir, false, -1);
    ASSERT_GT(reference.size(), 1u);
    // Die before the last commit, late enough for a snapshot to exist.
    ASSERT_NO_FATAL_FAILURE(crash_daemon(
        corpus, shards, kBatch, crash_dir,
        static_cast<std::int64_t>(reference.size()) - 1));
    const std::string snapshot = crash_dir + "/snapshot.journal";
    ASSERT_TRUE(std::filesystem::exists(snapshot))
        << "the daemon died before its first snapshot";
    add_legacy_ring_keys(snapshot);
    const auto records = journal::load_journal(snapshot).records;
    ASSERT_TRUE(std::any_of(records.begin(), records.end(),
                            [](const std::string& record) {
                              return record.find("\"ring_pushed\"") !=
                                     std::string::npos;
                            }))
        << "the snapshot holds no flow";

    bool restored = false;
    const auto resumed =
        run_daemon(corpus, shards, kBatch, crash_dir, true, -1, &restored);
    EXPECT_TRUE(restored) << "the legacy snapshot was discarded";
    EXPECT_EQ(resumed, reference) << "shards " << shards;

    std::filesystem::remove_all(ref_dir);
    std::filesystem::remove_all(crash_dir);
  }
}

StreamVerdict fabricate_verdict(std::size_t flow, std::uint64_t flow_seq,
                                std::size_t upstream, VerdictKind kind) {
  StreamVerdict verdict;
  verdict.tuple = experiment::stream_corpus_tuple(flow);
  verdict.flow_seq = flow_seq;
  verdict.upstream = upstream;
  verdict.kind = kind;
  verdict.early = kind == VerdictKind::kNegative;
  verdict.packets_seen = 40 + flow_seq;
  return verdict;
}

TEST(Durability, VerdictCodecRoundTrip) {
  const StreamVerdict verdict =
      fabricate_verdict(5, 91, 1, VerdictKind::kDegraded);
  const std::string encoded = encode_verdict(verdict);
  const StreamVerdict decoded = decode_verdict(encoded);
  EXPECT_EQ(encode_verdict(decoded), encoded);
  EXPECT_EQ(decoded.flow_seq, verdict.flow_seq);
  EXPECT_EQ(decoded.upstream, verdict.upstream);
  EXPECT_EQ(decoded.kind, verdict.kind);
  EXPECT_EQ(decoded.tuple, verdict.tuple);
  EXPECT_THROW(decode_verdict("not a verdict"), InvalidArgument);
}

TEST(Durability, WalTornTailIsRepairedAndReplayDeduplicates) {
  const std::string state_dir = temp_dir("torn");
  const std::vector<StreamVerdict> verdicts = {
      fabricate_verdict(0, 1, 0, VerdictKind::kNegative),
      fabricate_verdict(1, 2, 0, VerdictKind::kPositive),
      fabricate_verdict(2, 3, 1, VerdictKind::kEvicted),
  };

  std::string wal_path;
  {
    DurabilityOptions options;
    options.state_dir = state_dir;
    DurableSession session(options, kFingerprint);
    session.begin_fresh();
    for (const auto& verdict : verdicts) {
      EXPECT_TRUE(session.commit(verdict));
    }
    wal_path = session.wal_path();
  }

  // A crash mid-append leaves a torn (newline-less) tail; resume must
  // repair it and keep every committed verdict.
  {
    std::ofstream tail(wal_path, std::ios::app | std::ios::binary);
    tail << "torn-partial-record-without-newline";
  }

  DurabilityOptions options;
  options.state_dir = state_dir;
  DurableSession session(options, kFingerprint);
  const ResumeState recovered = session.resume();
  ASSERT_EQ(recovered.committed.size(), verdicts.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(encode_verdict(recovered.committed[i]),
              encode_verdict(verdicts[i]));
  }

  // Catch-up dedup: an already-committed verdict is suppressed, a new one
  // is accepted.
  EXPECT_FALSE(session.commit(verdicts[1]));
  const std::uint64_t records = metrics::counter("journal.records").value();
  EXPECT_TRUE(session.commit(fabricate_verdict(3, 4, 1, VerdictKind::kNegative)));
  // A WAL verdict is a journal record, counted under the journal's name.
  EXPECT_EQ(metrics::counter("journal.records").value(), records + 1);
  std::filesystem::remove_all(state_dir);
}

TEST(Durability, FingerprintMismatchRefusesResume) {
  const std::string state_dir = temp_dir("fingerprint");
  {
    DurabilityOptions options;
    options.state_dir = state_dir;
    DurableSession session(options, kFingerprint);
    session.begin_fresh();
    EXPECT_TRUE(
        session.commit(fabricate_verdict(0, 1, 0, VerdictKind::kNegative)));
  }

  DurabilityOptions options;
  options.state_dir = state_dir;
  DurableSession session(options, kFingerprint + 1);
  EXPECT_THROW(session.resume(), IoError);
  std::filesystem::remove_all(state_dir);
}

}  // namespace
}  // namespace sscor::stream
