// The `feed` workload: the live daemon as `sscor_tool watch --connect
// --state-dir` runs it.  A generator thread serves the corpus as
// `sscor-stream v1` frames over loopback TCP, open-loop at a fixed packet
// rate; the daemon loop (this thread) pulls them through
// SocketPacketSource into StreamEngine, drains verdicts at every batch
// boundary, commits each to the verdict WAL, prints it into a sink file,
// and snapshots on the default interval.
//
// Verdict latency is measured from the due time of the verdict's decisive
// packet (the flow's packets_seen-th packet, looked up in the corpus) to
// the return of its commit.  Verdicts that only surface at end of stream
// measure the stream's length, not the daemon, and are counted apart.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "sscor/stream/durability.hpp"
#include "sscor/stream/frame.hpp"
#include "sscor/stream/socket_source.hpp"
#include "sscor/util/journal.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/rng.hpp"

namespace perfbench {
namespace {

using namespace sscor;
using namespace sscor::experiment;

/// Offered load, packets per second.
constexpr double kRate = 100'000.0;
/// A pass whose generator thread woke further behind schedule than this
/// is rejected: it was starved, and the pass measures the machine.  Wake-ups
/// 10-25 ms late are routine on a shared VM; samples they touch are left
/// out through kLateSendMs instead.
constexpr double kGeneratorLateBoundMs = 50.0;
/// Verdicts whose decisive packet the generator sent later than this are
/// left out of the latency sample: the delay was the generator's.
constexpr double kLateSendMs = 1.0;
/// Fewest pre-end-of-stream verdicts a full-size run must sample.
constexpr std::size_t kMinLatencySamples = 1000;
constexpr int kSetupRepetitions = 20;
/// Corpora per untraced program run, each from its own seed derived from
/// --seed; passes cycle through them, so a run averages over inputs.  All
/// are built before the first pass, so no pass runs on a freshly churned
/// heap.
constexpr std::size_t kCorpora = 2;

/// One corpus, pre-encoded for the wire, with the index that maps a
/// (flow, packets_seen) pair back to the packet's position in the stream
/// and the digest of the in-process reference run over it.
struct FeedInput {
  std::vector<WatermarkedFlow> upstreams;
  std::string hello;
  std::string end;
  /// All packet frames back to back; frame i ends at frame_end[i].
  std::string frames;
  std::vector<std::size_t> frame_end;
  /// Stream positions of each flow's packets, in order.
  std::unordered_map<net::FiveTuple, std::vector<std::uint32_t>,
                     net::FiveTupleHash>
      positions;
  VerdictDigest reference;
};

/// Corpus `k` of the run, a pure function of (seed, k).
FeedInput make_input(const Options& options, std::size_t k, Result& result) {
  StreamCorpusConfig config;
  config.watermarked_flows = options.tiny ? 2 : 16;
  config.decoy_flows = options.tiny ? 14 : 240;
  config.packets_per_flow = options.tiny ? 500 : 1000;
  config.seed = mix_seeds(options.seed, k);
  const StreamCorpus corpus = make_stream_corpus(config);
  FeedInput input;
  input.upstreams = corpus.upstreams;
  input.hello = stream::encode_hello();
  input.end = stream::encode_end();
  input.frame_end.reserve(corpus.packets.size());
  for (std::size_t i = 0; i < corpus.packets.size(); ++i) {
    const auto& packet = corpus.packets[i];
    input.frames += stream::encode_packet_frame(packet);
    input.frame_end.push_back(input.frames.size());
    input.positions[packet.tuple].push_back(static_cast<std::uint32_t>(i));
  }
  input.reference = reference_digest(corpus.upstreams, corpus.packets);
  if (k != 0) return input;
  result.note("corpora", std::to_string(kCorpora));
  result.note("carriers", std::to_string(config.watermarked_flows));
  result.note("decoys", std::to_string(config.decoy_flows));
  result.note("packets_per_flow", std::to_string(config.packets_per_flow));
  result.note("packets", std::to_string(corpus.packets.size()));
  result.note("pairs", std::to_string(config.watermarked_flows *
                                      corpus.downstream.size()));
  result.note("reference_verdicts", std::to_string(input.reference.count()));
  result.note("offered_rate_pps", kRate);
  result.note("generator_late_bound_ms", kGeneratorLateBoundMs);
  result.note("late_send_exclusion_ms", kLateSendMs);
  result.note("engine_threads", "1");
  result.note("bench_threads", "2");
  result.note("shards", "4");
  result.note("batch", "256");
  result.note("snapshot_interval", "4096");
  return input;
}

class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

void send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("generator send: ") +
                               std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Open-loop frame generator on its own thread.  Listens on an ephemeral
/// loopback port, accepts one connection, sends the hello, starts the
/// schedule (packet i is due at t0 + i / rate) and, every time it wakes,
/// sends every frame that has come due in one write.
class Generator {
 public:
  Generator(const FeedInput& input, bool setup_only)
      : input_(input), setup_only_(setup_only),
        listener_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (listener_.get() < 0) throw std::runtime_error("generator socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listener_.get(), reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listener_.get(), 1) != 0 ||
        ::getsockname(listener_.get(), reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0) {
      throw std::runtime_error("generator bind/listen failed");
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { run(); });
  }
  ~Generator() {
    if (thread_.joinable()) thread_.join();
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  std::uint16_t port() const { return port_; }

  /// Waits for the generator to finish; rethrows its failure.
  void join() {
    thread_.join();
    if (!error_.empty()) throw std::runtime_error(error_);
  }

  Clock::time_point t0() const { return t0_; }
  double late_max_ms() const { return late_max_ns_ / 1e6; }
  /// Whether packet `index` went out in a write the generator itself
  /// started more than kLateSendMs late.
  bool sent_late(std::size_t index) const {
    const auto it = std::upper_bound(
        late_ranges_.begin(), late_ranges_.end(), index,
        [](std::size_t i, const auto& range) { return i < range.first; });
    return it != late_ranges_.begin() && index < std::prev(it)->second;
  }
  std::uint64_t packets_sent() const { return sent_; }

 private:
  void run() {
    try {
      serve();
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  void serve() {
    pollfd pfd{listener_.get(), POLLIN, 0};
    if (::poll(&pfd, 1, 30'000) != 1) {
      throw std::runtime_error("generator: no connection");
    }
    const Fd conn(::accept(listener_.get(), nullptr, nullptr));
    if (conn.get() < 0) throw std::runtime_error("generator accept failed");
    const int one = 1;
    const int sndbuf = 4 << 20;
    ::setsockopt(conn.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(conn.get(), SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    send_all(conn.get(), input_.hello.data(), input_.hello.size());
    t0_ = Clock::now();
    if (!setup_only_) {
      const std::size_t total = input_.frame_end.size();
      const double period_ns = 1e9 / kRate;
      const auto elapsed_ns = [this] {
        return static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 t0_)
                .count());
      };
      std::size_t sent = 0;
      double last_send_end_ns = 0.0;
      while (sent < total) {
        const double now_ns = elapsed_ns();
        const std::size_t due = std::min(
            total, static_cast<std::size_t>(now_ns / period_ns) + 1);
        if (due <= sent) {
          std::this_thread::sleep_until(
              t0_ + std::chrono::nanoseconds(static_cast<std::int64_t>(
                        static_cast<double>(sent) * period_ns)));
          continue;
        }
        // Scheduling lateness only: time spent blocked in send() is the
        // daemon's backpressure, which the latency metric must keep.
        const double ready_ns = std::max(
            static_cast<double>(sent) * period_ns, last_send_end_ns);
        const double late_ns = now_ns - ready_ns;
        late_max_ns_ = std::max(late_max_ns_, late_ns);
        if (late_ns > kLateSendMs * 1e6) late_ranges_.emplace_back(sent, due);
        const std::size_t from = sent == 0 ? 0 : input_.frame_end[sent - 1];
        send_all(conn.get(), input_.frames.data() + from,
                 input_.frame_end[due - 1] - from);
        sent = due;
        last_send_end_ns = elapsed_ns();
      }
      sent_ = sent;
    }
    send_all(conn.get(), input_.end.data(), input_.end.size());
  }

  const FeedInput& input_;
  bool setup_only_;
  Fd listener_;
  std::uint16_t port_ = 0;
  Clock::time_point t0_;
  double late_max_ns_ = 0.0;
  std::vector<std::pair<std::size_t, std::size_t>> late_ranges_;
  std::uint64_t sent_ = 0;
  std::string error_;
  std::thread thread_;  // last: starts after every member it uses
};

/// Per-call timings of one traced pass.
struct PassTrace {
  double source_wall_s = 0.0;
  double source_cpu_s = 0.0;
  double ingest_s = 0.0;
  std::uint64_t ingest_calls = 0;
  std::vector<double> flush_us;
  double drain_s = 0.0;
  std::uint64_t drains = 0;
  double commit_s = 0.0;
  double print_s = 0.0;
  double snapshot_s = 0.0;
  std::vector<double> snapshot_ms;
  double snapshot_bytes_max = 0.0;
  double buffered_max = 0.0;
  double live_flows_max = 0.0;
  double finish_s = 0.0;

  double flush_s() const {
    double total = 0.0;
    for (const double us : flush_us) total += us * 1e-6;
    return total;
  }
  double accounted() const {
    return source_wall_s + ingest_s + flush_s() + drain_s + commit_s +
           print_s + snapshot_s + finish_s;
  }
};

struct Pass {
  double setup_s = 0.0;
  double loop_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ingested = 0;
  std::uint64_t dropped = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t late = 0;
  std::uint64_t early_verdicts = 0;
  std::uint64_t final_verdicts = 0;
  std::vector<double> latency_ms;
  /// Verdict samples left out because the generator sent their decisive
  /// packet late.
  std::uint64_t excluded_samples = 0;
  double generator_late_ms = 0.0;
  VerdictDigest digest;
  stream::SocketSourceStats source;
  PassTrace trace;
};

void print_verdict(std::FILE* sink, const stream::StreamVerdict& verdict) {
  const CorrelationResult& r = verdict.result;
  const bool evicted = verdict.kind == stream::VerdictKind::kEvicted;
  std::fprintf(sink,
               "flow %-42s x up%-2zu : %-8s (%llu pkts, hamming %s, cost "
               "%llu%s)\n",
               verdict.tuple.to_string().c_str(), verdict.upstream,
               to_string(verdict.kind),
               static_cast<unsigned long long>(verdict.packets_seen),
               !evicted && (r.matching_complete || r.correlated)
                   ? std::to_string(r.hamming).c_str()
                   : "n/a",
               static_cast<unsigned long long>(r.cost),
               verdict.early ? ", early" : "");
}

/// One daemon incarnation against one generator connection.  With
/// `setup_only` the generator sends no packets: the pass measures set-up.
Pass run_pass(const FeedInput& input, const Options& options, bool traced,
              bool setup_only, int index) {
  namespace fs = std::filesystem;
  const stream::StreamOptions stream_options = watch_stream_options();
  const std::size_t batch = stream_options.batch_size;
  const std::string state_dir =
      (fs::path(options.work_dir) / ("feed-state-" + std::to_string(index)))
          .string();
  fs::remove_all(state_dir);
  std::FILE* sink = std::fopen(
      (fs::path(options.work_dir) / "feed-verdicts.txt").c_str(), "w");
  if (sink == nullptr) throw std::runtime_error("cannot open verdict sink");
  struct SinkCloser {
    std::FILE* f;
    ~SinkCloser() { std::fclose(f); }
  } sink_closer{sink};

  metrics::Counter& out_of_order =
      metrics::counter("stream.packets.out_of_order");
  metrics::Counter& late = metrics::counter("stream.packets.late");
  const std::uint64_t out_of_order_before = out_of_order.value();
  const std::uint64_t late_before = late.value();

  Pass pass;
  PassTrace& t = pass.trace;
  struct Sample {
    net::FiveTuple tuple;
    std::uint64_t packets_seen;
    Clock::time_point committed;
  };
  std::vector<Sample> samples;
  samples.reserve(setup_only ? 0 : 32768);

  Generator generator(input, setup_only);
  const auto setup_start = Clock::now();
  stream::StreamEngine engine(input.upstreams,
                              watch_correlator_config(), stream_options);
  stream::DurabilityOptions durability;
  durability.state_dir = state_dir;
  stream::DurableSession session(
      durability, journal::fnv1a64("perfbench feed " +
                                   std::to_string(options.seed)));
  session.begin_fresh();
  stream::SocketSourceOptions source_options;
  source_options.endpoint = "127.0.0.1:" + std::to_string(generator.port());
  source_options.backoff.initial_ms = 10;
  source_options.max_reconnects = 1;
  stream::SocketPacketSource source(source_options);

  // Traced passes time the loop in contiguous laps: every instant lands in
  // exactly one layer (the loop's own bookkeeping is charged to the call
  // that follows it), so the layers can be reconciled with the wall time.
  Clock::time_point mark;
  const auto lap = [&mark] {
    const auto now = Clock::now();
    const double s = seconds_between(mark, now);
    mark = now;
    return s;
  };
  const auto commit_all = [&](const std::vector<stream::StreamVerdict>& verdicts,
                              bool before_end) {
    for (const auto& verdict : verdicts) {
      const bool fresh = session.commit(verdict);
      Clock::time_point committed;
      if (traced) {
        t.commit_s += lap();
        committed = mark;
      } else {
        committed = Clock::now();
      }
      if (!fresh) continue;
      if (before_end) {
        samples.push_back({verdict.tuple, verdict.packets_seen, committed});
      } else {
        ++pass.final_verdicts;
      }
      print_verdict(sink, verdict);
      if (traced) t.print_s += lap();
      pass.early_verdicts += verdict.early ? 1 : 0;
      pass.digest.add(verdict);
    }
  };

  const auto loop_start = Clock::now();
  const double cpu_start = thread_cpu_seconds();
  if (!traced) {
    while (const auto packet = source.next()) {
      engine.ingest(*packet);
      if (engine.packets_ingested() % batch == 0) {
        commit_all(engine.drain_verdicts(), true);
        session.maybe_snapshot(engine);
      }
    }
    engine.finish();
    commit_all(engine.drain_verdicts(), false);
  } else {
    mark = loop_start;
    for (;;) {
      const double c0 = thread_cpu_seconds();
      const auto packet = source.next();
      t.source_cpu_s += thread_cpu_seconds() - c0;
      t.source_wall_s += lap();
      if (!packet) break;
      const bool boundary = (engine.packets_ingested() + 1) % batch == 0;
      engine.ingest(*packet);
      const double ingest_s = lap();
      if (!boundary) {
        t.ingest_s += ingest_s;
        ++t.ingest_calls;
        continue;
      }
      t.flush_us.push_back(ingest_s * 1e6);
      t.buffered_max = std::max(
          t.buffered_max, static_cast<double>(engine.buffered_packets()));
      t.live_flows_max =
          std::max(t.live_flows_max, static_cast<double>(engine.live_flows()));
      const auto drained = engine.drain_verdicts();
      t.drain_s += lap();
      ++t.drains;
      commit_all(drained, true);
      const std::uint64_t snapshots = session.snapshots_written();
      lap();
      session.maybe_snapshot(engine);
      const double snapshot_s = lap();
      t.snapshot_s += snapshot_s;
      if (session.snapshots_written() != snapshots) {
        t.snapshot_ms.push_back(snapshot_s * 1e3);
        struct stat st {};
        if (::stat(session.snapshot_path().c_str(), &st) == 0) {
          t.snapshot_bytes_max =
              std::max(t.snapshot_bytes_max, static_cast<double>(st.st_size));
        }
      }
    }
    engine.finish();
    t.finish_s = lap();
    const auto drained = engine.drain_verdicts();
    t.drain_s += lap();
    commit_all(drained, false);
  }
  pass.cpu_s = thread_cpu_seconds() - cpu_start;
  pass.loop_s = seconds_between(loop_start, Clock::now());
  std::fflush(sink);
  generator.join();

  pass.setup_s = seconds_between(setup_start, generator.t0());
  pass.generator_late_ms = generator.late_max_ms();
  pass.sent = generator.packets_sent();
  pass.ingested = engine.packets_ingested();
  pass.out_of_order = out_of_order.value() - out_of_order_before;
  pass.late = late.value() - late_before;
  pass.dropped = (pass.sent - std::min(pass.sent, pass.ingested)) +
                 pass.out_of_order;
  pass.source = source.stats();

  const double period_s = 1.0 / kRate;
  pass.latency_ms.reserve(samples.size());
  for (const Sample& sample : samples) {
    const auto& positions = input.positions.at(sample.tuple);
    const std::uint32_t decisive =
        positions.at(static_cast<std::size_t>(sample.packets_seen) - 1);
    if (generator.sent_late(decisive)) {
      ++pass.excluded_samples;
      continue;
    }
    const double due_s = static_cast<double>(decisive) * period_s;
    pass.latency_ms.push_back(
        (seconds_between(generator.t0(), sample.committed) - due_s) * 1e3);
  }
  fs::remove_all(state_dir);
  return pass;
}

/// FrameParser alone over the corpus's wire bytes, 4 KiB at a time, no
/// syscalls: the parse cost the socket source pays per frame.
double frame_parse_ns(const FeedInput& input, Result& result) {
  const std::string wire = input.hello + input.frames + input.end;
  std::vector<double> ns;
  for (int k = 0; k < 3; ++k) {
    stream::FrameParser parser;
    std::uint64_t frames = 0;
    const auto start = Clock::now();
    for (std::size_t off = 0; off < wire.size(); off += 4096) {
      parser.feed(std::string_view(wire).substr(off, 4096));
      while (parser.next()) ++frames;
    }
    ns.push_back(seconds_between(start, Clock::now()) * 1e9 /
                 static_cast<double>(frames));
    if (frames != input.frame_end.size() + 2) {
      result.fail("frame parser lost frames");
    }
  }
  return median(ns);
}

}  // namespace

Result run_feed_workload(const Options& options) {
  Result result;
  // The traced run keeps corpus 0 throughout: its first pass is the
  // untraced baseline the traced passes are compared with.
  std::vector<FeedInput> inputs;
  const std::size_t corpora = options.trace ? 1 : kCorpora;
  for (std::size_t k = 0; k < corpora; ++k) {
    inputs.push_back(make_input(options, k, result));
  }
  const auto check = [&](const Pass& pass, const FeedInput& input,
                         const std::string& label) {
    result.attempted += pass.sent;
    result.failed += pass.dropped;
    if (pass.digest.value() != input.reference.value() ||
        pass.digest.count() != input.reference.count()) {
      result.fail("feed " + label +
                  " verdict digest differs from the in-process reference");
    }
  };

  std::vector<double> setup;
  double parse_ns = 0.0;
  if (!options.trace) {
    for (int r = 0; r < kSetupRepetitions; ++r) {
      setup.push_back(run_pass(inputs[0], options, false, true, r).setup_s);
    }
  } else {
    parse_ns = frame_parse_ns(inputs[0], result);
  }
  // One full pass warms the allocator and the page cache; a daemon lives
  // in that steady state, so the pass is checked, not measured.
  check(run_pass(inputs[0], options, false, false, 0), inputs[0],
        "warm-up pass");

  std::vector<Pass> passes;
  std::size_t rejected = 0;
  double measured_s = 0.0;
  while (measured_s < options.seconds || passes.size() < 2) {
    const std::size_t k = passes.size();
    const FeedInput& input = inputs[k % inputs.size()];
    const auto start = Clock::now();
    Pass pass = run_pass(input, options, options.trace && k > 0, false,
                         static_cast<int>(k));
    measured_s += seconds_between(start, Clock::now());
    check(pass, input, "pass " + std::to_string(k));
    if (pass.generator_late_ms > kGeneratorLateBoundMs) ++rejected;
    passes.push_back(std::move(pass));
  }

  // Latency percentiles are over the samples of every kept pass, and CPU
  // cost and rate are totals over the kept passes, so a host that speeds
  // up or slows down during the run moves them in proportion to the time
  // it spent so.  The passes cycle through the corpora.
  std::vector<double> latency_ms;
  std::vector<double> p99_ms;
  std::vector<double> cpu_us;
  double loop_s = 0.0;
  double cpu_s = 0.0;
  double ingested = 0.0;
  std::uint64_t excluded = 0;
  double generator_late_max = 0.0;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    generator_late_max = std::max(generator_late_max, pass.generator_late_ms);
    setup.push_back(pass.setup_s);
    if (options.trace && p == 0) continue;
    if (pass.generator_late_ms > kGeneratorLateBoundMs) continue;
    if (!options.tiny && pass.latency_ms.size() < kMinLatencySamples) {
      result.fail("too few verdicts sampled for latency percentiles");
    }
    excluded += pass.excluded_samples;
    latency_ms.insert(latency_ms.end(), pass.latency_ms.begin(),
                      pass.latency_ms.end());
    p99_ms.push_back(percentile(pass.latency_ms, 0.99));
    cpu_us.push_back(pass.cpu_s * 1e6 / static_cast<double>(pass.ingested));
    loop_s += pass.loop_s;
    cpu_s += pass.cpu_s;
    ingested += static_cast<double>(pass.ingested);
  }
  if (cpu_us.empty()) {
    result.fail("every pass was rejected: the generator ran late");
  }
  result.note("pass_verdict_p99_ms", json_array(p99_ms));
  result.note("pass_cpu_us_per_packet", json_array(cpu_us));
  result.note("passes", std::to_string(passes.size()));
  result.note("passes_rejected_generator_late", std::to_string(rejected));
  result.note("latency_samples", std::to_string(latency_ms.size()));
  result.note("latency_samples_excluded_late_send", std::to_string(excluded));
  result.note("generator_late_ms_max", generator_late_max);

  if (!options.trace) {
    result.add("setup_s", median(setup), "s");
    result.add("latency_p50_ms", percentile(latency_ms, 0.50), "ms");
    result.add("latency_p95_ms", percentile(latency_ms, 0.95), "ms");
    result.add("cpu_us_per_packet", cpu_s * 1e6 / ingested, "us");
    result.add("packets_per_s", ingested / loop_s, "1/s");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  // Per-layer numbers: the median over traced passes of each pass's value.
  std::vector<std::vector<Metric>> per_pass;
  std::vector<double> unaccounted;
  for (std::size_t p = 1; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    const PassTrace& t = pass.trace;
    const double packets = static_cast<double>(pass.ingested);
    const double verdicts = static_cast<double>(pass.digest.count());
    unaccounted.push_back((pass.loop_s - t.accounted()) / pass.loop_s);
    per_pass.push_back({
        {"net.source_cpu_us_per_pkt", t.source_cpu_s * 1e6 / packets, "us"},
        {"net.source_wait_s", t.source_wall_s - t.source_cpu_s, "s"},
        {"stream.ingest_ns_per_pkt",
         t.ingest_s * 1e9 / static_cast<double>(t.ingest_calls), "ns"},
        {"stream.flush_s", t.flush_s(), "s"},
        {"stream.flush_us_p50", percentile(t.flush_us, 0.50), "us"},
        {"stream.flush_us_p99", percentile(t.flush_us, 0.99), "us"},
        {"stream.drain_us_per_flush",
         t.drain_s * 1e6 / static_cast<double>(t.drains), "us"},
        {"stream.wal_commit_us_per_verdict", t.commit_s * 1e6 / verdicts,
         "us"},
        {"stream.verdict_print_s", t.print_s, "s"},
        {"stream.snapshot_s", t.snapshot_s, "s"},
        {"stream.snapshots", static_cast<double>(t.snapshot_ms.size()),
         "count"},
        {"stream.snapshot_ms_p99", percentile(t.snapshot_ms, 0.99), "ms"},
        {"stream.snapshot_bytes_max", t.snapshot_bytes_max, "B"},
        {"stream.buffered_packets_max", t.buffered_max, "count"},
        {"stream.live_flows_max", t.live_flows_max, "count"},
        {"stream.early_verdict_ratio",
         static_cast<double>(pass.early_verdicts) / verdicts, "ratio"},
        {"stream.final_verdicts", static_cast<double>(pass.final_verdicts),
         "count"},
        {"stream.finish_ms", t.finish_s * 1e3, "ms"},
        {"stream.packets_out_of_order", static_cast<double>(pass.out_of_order),
         "count"},
        {"stream.packets_late", static_cast<double>(pass.late), "count"},
        {"net.resyncs", static_cast<double>(pass.source.resyncs), "count"},
        {"net.bytes_quarantined",
         static_cast<double>(pass.source.bytes_quarantined), "B"},
        {"net.disconnects", static_cast<double>(pass.source.disconnects),
         "count"},
        {"cpu_us_per_packet", pass.cpu_s * 1e6 / packets, "us"},
    });
  }
  add_pass_medians(per_pass, result);
  const double traced_cpu = result.metrics.back().value;
  result.metrics.pop_back();

  result.add("stream.frame_parse_ns_per_frame", parse_ns, "ns");

  const double untraced_cpu =
      passes.front().cpu_s * 1e6 / static_cast<double>(passes.front().ingested);
  const double unaccounted_ratio = median(unaccounted);
  constexpr double kTolerance = 0.05;
  if (unaccounted_ratio > kTolerance || unaccounted_ratio < -kTolerance) {
    result.fail("layer times do not reconcile with the daemon loop wall time");
  }
  result.note("reconcile_tolerance", kTolerance);
  result.add("failed_ratio",
             static_cast<double>(result.failed) /
                 static_cast<double>(result.attempted),
             "ratio");
  result.add("bench.gen_late_ms_max", generator_late_max, "ms");
  result.add("bench.trace_unaccounted_ratio", unaccounted_ratio, "ratio");
  result.add("bench.trace_overhead_ratio", traced_cpu / untraced_cpu - 1.0,
             "ratio");
  return result;
}

}  // namespace perfbench
