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
//     exactly: committed ones from the WAL, the rest recomputed.

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

TEST(Durability, SigkillAtCommitBoundaryThenResumeMatchesUninterruptedRun) {
  const auto corpus = make_corpus(777);
  constexpr std::size_t kBatch = 64;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    const std::string tag = std::to_string(shards);
    const std::string ref_dir = temp_dir("ref" + tag);
    const std::string crash_dir = temp_dir("crash" + tag);

    const auto reference =
        run_daemon(corpus, shards, kBatch, ref_dir, false, -1);
    ASSERT_GT(reference.size(), 3u) << "corpus too small to crash mid-run";
    ASSERT_NO_FATAL_FAILURE(
        crash_daemon(corpus, shards, kBatch, crash_dir, 3));

    // Resume in this process: WAL replay + snapshot restore + the rest of
    // the feed must reproduce the uninterrupted verdict stream exactly.
    const auto resumed =
        run_daemon(corpus, shards, kBatch, crash_dir, true, -1);
    EXPECT_EQ(resumed, reference) << "shards " << shards;

    std::filesystem::remove_all(ref_dir);
    std::filesystem::remove_all(crash_dir);
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
