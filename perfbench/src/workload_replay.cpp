// The `replay` workload: the offline `sscor_tool watch --in capture.pcap`
// path.  Set-up writes the corpus once as a classic pcap; each pass opens
// it with CaptureReplaySource, builds a fresh StreamEngine, and replays
// every packet closed-loop, as fast as possible, draining at each batch
// boundary and after finish().  No socket, no state dir: this is the
// engine's single-threaded per-packet throughput baseline.

#include <algorithm>
#include <filesystem>
#include <unordered_map>

#include "common.hpp"
#include "sscor/net/headers.hpp"
#include "sscor/pcap/pcap_writer.hpp"
#include "sscor/util/metrics.hpp"

namespace perfbench {
namespace {

using namespace sscor;
using namespace sscor::experiment;

/// Writes the corpus stream as a raw-IP classic pcap, one record per
/// packet in stream order (what synthesize_capture produces, streamed so
/// the benchmark's own memory stays small).
void write_capture(const StreamCorpus& corpus, const std::string& path) {
  std::vector<std::uint32_t> seq(corpus.tuples.size(), 1);
  std::unordered_map<net::FiveTuple, std::size_t, net::FiveTupleHash> flow;
  for (std::size_t k = 0; k < corpus.tuples.size(); ++k) {
    flow[corpus.tuples[k]] = k;
  }
  pcap::PcapWriter writer(path, pcap::LinkType::kRawIp);
  pcap::Record record;
  for (const auto& packet : corpus.packets) {
    std::uint32_t& next_seq = seq[flow.at(packet.tuple)];
    record.timestamp = packet.packet.timestamp;
    record.data = net::encode_tcp_packet(packet.tuple, next_seq, /*ack=*/1,
                                         net::kTcpAck | net::kTcpPsh,
                                         packet.packet.size);
    record.original_length = static_cast<std::uint32_t>(record.data.size());
    next_seq += std::max<std::uint32_t>(packet.packet.size, 1);
    writer.write(record);
  }
  writer.flush();
}

/// Per-call timings of one traced pass.
struct PassTrace {
  double next_s = 0.0;
  double ingest_s = 0.0;
  std::uint64_t ingest_calls = 0;
  std::vector<double> flush_us;
  double drain_s = 0.0;
  std::uint64_t drains = 0;
  double finish_s = 0.0;
  double buffered_max = 0.0;

  double flush_s() const {
    double total = 0.0;
    for (const double us : flush_us) total += us * 1e-6;
    return total;
  }
  double accounted() const {
    return next_s + ingest_s + flush_s() + drain_s + finish_s;
  }
};

/// Stream positions of each flow's packets, in order.
using PositionIndex =
    std::unordered_map<net::FiveTuple, std::vector<std::uint32_t>,
                       net::FiveTupleHash>;

struct Pass {
  double open_s = 0.0;
  double setup_s = 0.0;
  double loop_s = 0.0;
  double cpu_s = 0.0;
  /// Untraced passes: for each verdict drained before end of stream, the
  /// time from the next() that returned its decisive packet to the return
  /// of the drain that delivered it.
  std::vector<double> latency_ms;
  std::uint64_t ingested = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t early_verdicts = 0;
  std::uint64_t final_decodes = 0;
  double final_decode_us_p99 = 0.0;
  VerdictDigest digest;
  PassTrace trace;

  double packets_per_s() const {
    return static_cast<double>(ingested) / loop_s;
  }
};

/// The part of a cumulative registry histogram recorded since `before`.
metrics::HistogramData since(const metrics::HistogramData& before,
                             const metrics::HistogramData& after) {
  metrics::HistogramData delta;
  for (std::size_t b = 0; b < delta.buckets.size(); ++b) {
    delta.buckets[b] = after.buckets[b] - before.buckets[b];
  }
  delta.count = after.count - before.count;
  delta.sum = after.sum - before.sum;
  return delta;
}

Pass run_pass(const std::vector<WatermarkedFlow>& upstreams,
              const std::string& capture, const PositionIndex& positions,
              std::size_t packets, bool traced) {
  const stream::StreamOptions options = watch_stream_options();
  const std::size_t batch = options.batch_size;
  metrics::Counter& out_of_order =
      metrics::counter("stream.packets.out_of_order");
  metrics::Histogram& decode_latency =
      metrics::histogram("correlate.latency_us");
  const std::uint64_t out_of_order_before = out_of_order.value();

  Pass pass;
  PassTrace& t = pass.trace;
  struct Sample {
    net::FiveTuple tuple;
    std::uint64_t packets_seen;
    Clock::time_point drained;
  };
  std::vector<Sample> samples;
  std::vector<Clock::time_point> read_at(traced ? 0 : packets);
  samples.reserve(traced ? 0 : 32768);

  const auto setup_start = Clock::now();
  stream::CaptureReplaySource source(capture);
  pass.open_s = seconds_between(setup_start, Clock::now());
  stream::StreamEngine engine(upstreams, watch_correlator_config(), options);
  pass.setup_s = seconds_between(setup_start, Clock::now());

  const auto drain = [&](bool before_end) {
    const auto verdicts = engine.drain_verdicts();
    const auto drained = Clock::now();
    for (const auto& verdict : verdicts) {
      pass.early_verdicts += verdict.early ? 1 : 0;
      pass.digest.add(verdict);
      if (before_end && !traced) {
        samples.push_back({verdict.tuple, verdict.packets_seen, drained});
      }
    }
  };

  const auto loop_start = Clock::now();
  const double cpu_start = thread_cpu_seconds();
  metrics::HistogramData decodes_before;
  if (!traced) {
    std::size_t read = 0;
    while (const auto packet = source.next()) {
      if (read < read_at.size()) read_at[read] = Clock::now();
      ++read;
      engine.ingest(*packet);
      if (engine.packets_ingested() % batch == 0) drain(true);
    }
    engine.finish();
    drain(false);
  } else {
    // Contiguous laps: every instant of the loop lands in exactly one layer
    // (the loop's own bookkeeping is charged to the call that follows it).
    auto mark = loop_start;
    const auto lap = [&mark] {
      const auto now = Clock::now();
      const double s = seconds_between(mark, now);
      mark = now;
      return s;
    };
    for (;;) {
      const auto packet = source.next();
      t.next_s += lap();
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
      drain(true);
      t.drain_s += lap();
      ++t.drains;
    }
    // Decodes that run inside finish() are the end-of-stream offline ones.
    decodes_before = decode_latency.snapshot();
    lap();
    engine.finish();
    t.finish_s = lap();
    drain(false);
    t.drain_s += lap();
  }
  pass.cpu_s = thread_cpu_seconds() - cpu_start;
  pass.loop_s = seconds_between(loop_start, Clock::now());
  pass.ingested = engine.packets_ingested();
  pass.latency_ms.reserve(samples.size());
  for (const Sample& sample : samples) {
    const std::uint32_t decisive = positions.at(sample.tuple).at(
        static_cast<std::size_t>(sample.packets_seen) - 1);
    pass.latency_ms.push_back(
        seconds_between(read_at.at(decisive), sample.drained) * 1e3);
  }
  pass.out_of_order = out_of_order.value() - out_of_order_before;
  if (traced) {
    const metrics::HistogramData decodes =
        since(decodes_before, decode_latency.snapshot());
    pass.final_decodes = decodes.count;
    pass.final_decode_us_p99 = static_cast<double>(decodes.percentile(0.99));
  }
  return pass;
}

}  // namespace

Result run_replay_workload(const Options& options) {
  Result result;
  StreamCorpusConfig config;
  config.watermarked_flows = options.tiny ? 2 : 32;
  config.decoy_flows = options.tiny ? 6 : 96;
  config.packets_per_flow = options.tiny ? 600 : 4000;
  config.seed = options.seed;
  const StreamCorpus corpus = make_stream_corpus(config);
  const std::string capture =
      (std::filesystem::path(options.work_dir) / "replay.pcap").string();
  write_capture(corpus, capture);
  const VerdictDigest reference =
      reference_digest(corpus.upstreams, corpus.packets);
  const std::uint64_t packets = corpus.packets.size();
  PositionIndex positions;
  for (std::size_t i = 0; i < corpus.packets.size(); ++i) {
    positions[corpus.packets[i].tuple].push_back(static_cast<std::uint32_t>(i));
  }
  result.note("carriers", std::to_string(config.watermarked_flows));
  result.note("decoys", std::to_string(config.decoy_flows));
  result.note("packets_per_flow", std::to_string(config.packets_per_flow));
  result.note("packets", std::to_string(packets));
  result.note("pairs", std::to_string(config.watermarked_flows *
                                      corpus.downstream.size()));
  result.note("capture_bytes",
              std::to_string(std::filesystem::file_size(capture)));
  result.note("reference_verdicts", std::to_string(reference.count()));
  result.note("engine_threads", "1");
  result.note("shards", "4");
  result.note("batch", "256");

  const auto check = [&](const Pass& pass, const std::string& label) {
    result.attempted += packets;
    result.failed +=
        packets - std::min(packets, pass.ingested) + pass.out_of_order;
    if (pass.digest.value() != reference.value() ||
        pass.digest.count() != reference.count()) {
      result.fail("replay " + label +
                  " verdict digest differs from the in-process reference");
    }
  };
  // One pass warms the allocator and the page cache; it is checked, not
  // measured.  The traced run then starts with one untraced pass: the
  // baseline its tracing overhead is measured against.
  check(run_pass(corpus.upstreams, capture, positions, packets, false),
        "warm-up pass");
  std::vector<Pass> passes;
  const auto start = Clock::now();
  do {
    const bool traced = options.trace && !passes.empty();
    Pass pass = run_pass(corpus.upstreams, capture, positions, packets, traced);
    check(pass, "pass " + std::to_string(passes.size()));
    passes.push_back(std::move(pass));
  } while (seconds_between(start, Clock::now()) < options.seconds ||
           passes.size() < 3);
  std::filesystem::remove(capture);
  result.note("passes", std::to_string(passes.size()));

  if (!options.trace) {
    // Latency percentiles are over the samples of every pass, and rate
    // and CPU cost are totals over the passes, so a host that speeds up or
    // slows down during the run moves them in proportion to the time it
    // spent so.
    std::vector<double> setup;
    std::vector<double> latency_ms;
    std::vector<double> rate;
    double loop_s = 0.0;
    double cpu_s = 0.0;
    double ingested = 0.0;
    for (const Pass& pass : passes) {
      setup.push_back(pass.setup_s);
      latency_ms.insert(latency_ms.end(), pass.latency_ms.begin(),
                        pass.latency_ms.end());
      rate.push_back(pass.packets_per_s());
      loop_s += pass.loop_s;
      cpu_s += pass.cpu_s;
      ingested += static_cast<double>(pass.ingested);
    }
    result.note("pass_packets_per_s", json_array(rate));
    result.note("latency_samples", std::to_string(latency_ms.size()));
    result.add("setup_s", median(setup), "s");
    result.add("latency_p50_ms", percentile(latency_ms, 0.50), "ms");
    result.add("latency_p95_ms", percentile(latency_ms, 0.95), "ms");
    result.add("cpu_us_per_packet", cpu_s * 1e6 / ingested, "us");
    result.add("packets_per_s", ingested / loop_s, "1/s");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  std::vector<std::vector<Metric>> per_pass;
  std::vector<double> unaccounted;
  for (std::size_t p = 1; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    const PassTrace& t = pass.trace;
    const double packets_in = static_cast<double>(pass.ingested);
    unaccounted.push_back((pass.loop_s - t.accounted()) / pass.loop_s);
    per_pass.push_back({
        {"pcap.open_s", pass.open_s, "s"},
        {"stream.source_next_ns_per_pkt", t.next_s * 1e9 / packets_in, "ns"},
        {"stream.ingest_ns_per_pkt",
         t.ingest_s * 1e9 / static_cast<double>(t.ingest_calls), "ns"},
        {"stream.flush_s", t.flush_s(), "s"},
        {"stream.flush_us_p99", percentile(t.flush_us, 0.99), "us"},
        {"stream.drain_us_per_flush",
         t.drain_s * 1e6 / static_cast<double>(t.drains), "us"},
        {"stream.finish_ms", t.finish_s * 1e3, "ms"},
        {"correlation.final_decodes", static_cast<double>(pass.final_decodes),
         "count"},
        {"correlation.final_decode_us_p99", pass.final_decode_us_p99, "us"},
        {"stream.early_verdict_ratio",
         static_cast<double>(pass.early_verdicts) /
             static_cast<double>(pass.digest.count()),
         "ratio"},
        {"stream.buffered_packets_max", t.buffered_max, "count"},
        {"stream.packets_out_of_order", static_cast<double>(pass.out_of_order),
         "count"},
        {"packets_per_s", pass.packets_per_s(), "1/s"},
    });
  }
  add_pass_medians(per_pass, result);
  const double traced_rate = result.metrics.back().value;
  result.metrics.pop_back();

  const double unaccounted_ratio = median(unaccounted);
  constexpr double kTolerance = 0.05;
  if (unaccounted_ratio > kTolerance || unaccounted_ratio < -kTolerance) {
    result.fail("layer times do not reconcile with the replay loop wall time");
  }
  result.note("reconcile_tolerance", kTolerance);
  result.add("failed_ratio",
             static_cast<double>(result.failed) /
                 static_cast<double>(result.attempted),
             "ratio");
  result.add("bench.trace_unaccounted_ratio", unaccounted_ratio, "ratio");
  result.add("bench.trace_overhead_ratio",
             passes.front().packets_per_s() / traced_rate - 1.0, "ratio");
  return result;
}

}  // namespace perfbench
