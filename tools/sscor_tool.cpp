// sscor_tool — command-line front end for the tracing pipeline.
//
//   sscor_tool generate --out corpus.pcap [--flows N] [--packets N]
//                       [--seed S] [--corpus interactive|tcplib]
//   sscor_tool stats    --in capture.pcap
//   sscor_tool embed    --in capture.pcap --out marked.pcap
//                       --key-out secret.key [--flow-index I] [--key 0xK]
//                       [--bits 24] [--redundancy 4] [--delay-ms 600]
//   sscor_tool perturb  --in capture.pcap --out perturbed.pcap
//                       [--max-delay-s 7] [--chaff 3.0] [--seed S]
//   sscor_tool detect   --up marked.pcap --down capture.pcap
//                       --key secret.key [--algorithm greedy+]
//                       [--max-delay-s 7] [--threshold 7] [--robust]
//                       [--deadline-ms N] [--budget N]
//   sscor_tool sweep    [--metric detection|fp|cost-corr|cost-uncorr]
//                       [--axis chaff|delay] [--flows N] [--packets N]
//                       [--fp-pairs N] [--seed S] [--threads N]
//                       [--corpus interactive|tcplib] [--out table.csv]
//                       [--journal-dir DIR [--shard I/N] [--resume]
//                        [--fsync] [--kill-after N] [--no-steal]]
//   sscor_tool merge-journals --journal-dir DIR [--out table.csv]
//                       [--expect-shards N]
//   sscor_tool watch    --up marked.pcap --key secret.key --in capture.pcap
//                       [--feed pcap|text|socket] [--speed X]
//                       [--connect HOST:PORT|unix:/path]
//                       [--reconnect-max N] [--backoff-ms N]
//                       [--backoff-max-ms N] [--backoff-seed S]
//                       [--read-timeout-ms N]
//                       [--state-dir DIR] [--resume]
//                       [--snapshot-interval N] [--fsync]
//                       [--kill-after-verdicts N]
//                       [--algorithm greedy+] [--max-delay-s 7]
//                       [--threshold 7] [--shards N] [--threads N]
//                       [--batch N] [--min-packets N] [--no-early-exit]
//                       [--max-flows N] [--max-buffered-packets N]
//                       [--ttl-s N] [--deadline-ms N] [--budget N]
//                       [--metrics-json PATH] [--metrics-interval N]
//                       [--stats-addr HOST:PORT] [--event-log PATH]
//                       [--linger-s N]
//   sscor_tool feed     --in capture.pcap [--feed pcap|text]
//                       [--heartbeat-every N] [--drop-after-frames N]
//                       [--pace-us N]
//   sscor_tool chaos-proxy --upstream HOST:PORT [--fault-rate 0.3]
//                       [--seed S] [--max-upstream-failures N]
//   sscor_tool top      --addr HOST:PORT [--interval-ms 1000]
//                       [--count N] [--no-clear] [--retries N]
//
// watch is the streaming daemon: it replays --in as a live packet stream
// (--speed 1 paces it in real time; --feed text reads the line-delimited
// sscor-stream format, "-" for stdin), tracks every flow in a sharded
// bounded-memory table, and prints a verdict per (flow, upstream) pair as
// it finalises — provably-negative pairs reject long before their flow
// ends.  --max-flows/--max-buffered-packets/--ttl-s bound the table
// (evicted flows get an EVICTED verdict); --deadline-ms/--budget run the
// final decodes on the degradation ladder as per-pair admission control;
// --metrics-json snapshots the metrics registry every --metrics-interval
// packets (and at exit).
//
// The live-feed daemon (DESIGN.md §16): --feed socket dials a
// `sscor-stream v1` framed feed with --connect (TCP "HOST:PORT" or
// "unix:/path") and survives everything a real wire does — disconnects
// reconnect under capped exponential backoff with seeded jitter
// (--backoff-ms/--backoff-max-ms/--backoff-seed, --reconnect-max attempts
// before giving up), corrupt bytes are quarantined by the frame parser,
// silent connections are bounded by --read-timeout-ms.  `sscor_tool feed`
// is the transmit side: it serves a capture as a framed feed on an
// ephemeral port; `chaos-proxy` relays a feed while injecting faults
// (corruption, stalls, splits, drops, slow-loris, disconnects) for crash
// testing.
//
// Crash durability (DESIGN.md §16): --state-dir DIR journals every
// verdict to a write-ahead log *before* printing it and snapshots the
// flow table every --snapshot-interval packets; after a crash (or kill
// -9), --resume re-emits every committed verdict byte-identically, then
// continues the stream without duplicating or losing any.  --fsync
// upgrades durability from process-death to power-loss.
// --kill-after-verdicts N SIGKILLs the daemon after N fresh commits
// (crash testing).  SIGTERM/SIGINT drain gracefully: flush + commit what
// is in flight, write a final snapshot, flush the event log and metrics
// snapshot, exit 3 (exit codes: 0 complete, 1 error, 2 usage, 3 graceful
// signal shutdown).
//
// The live ops surface (DESIGN.md §14): --stats-addr serves /metrics
// (Prometheus text format), /healthz and /statusz over HTTP while the
// stream runs (PORT 0 binds an ephemeral port, reported on stderr);
// --event-log appends the structured JSONL event log; --linger-s keeps the
// stats server up that many seconds after the stream ends so a final
// scrape can land.  All of it is observer-only: verdict output on stdout
// is byte-identical with the surface on or off.  top polls a daemon's
// /statusz once per --interval-ms and redraws a per-shard dashboard with
// scrape-to-scrape rates (--count N stops after N polls, --no-clear
// appends instead of redrawing).
//
// detect's --deadline-ms / --budget bound each pair's wall clock / each
// attempt's packet accesses; when a decode blows its budget Correlator's
// fallback ladder (BruteForce -> Greedy* -> Greedy+ -> Greedy) degrades to
// a cheaper algorithm instead of hanging (DESIGN.md §11).
//
// sweep --journal-dir DIR is crash-safe (DESIGN.md §15): each completed
// point is journaled as one checksummed JSONL line into
// DIR/shard-I-of-N.jsonl, and --resume computes only the missing points.
// Without --shard the process is shard 0 of 1.  With --shard I/N it is one
// worker of an N-process cluster: it journals its partition (point % N ==
// I), then steals points no live or dead shard has completed or claimed
// (--no-steal disables that).  Whichever worker finds the directory
// complete prints the merged table — byte-identical to a sweep without
// --journal-dir; the others print a notice and exit 0.  merge-journals
// rebuilds the table after the fact (--expect-shards asserts all N
// journals are present).  --fsync forces every record to the platter
// (survives power loss, at a hefty throughput cost); --kill-after N
// SIGKILLs the process after N records (crash testing).  A file of the
// retired --checkpoint PATH flag resumes as DIR/shard-0-of-1.jsonl.
//
// Every command refuses a flag it does not read (exit 2) and accepts
// --metrics (print the run-metrics registry to stderr on exit), --trace
// PATH (per-detect decode introspection as JSONL) and --trace-spans PATH
// (span timings as Chrome trace JSON, loadable in Perfetto /
// chrome://tracing).  Integers are decimal, or hex after 0x, with no sign,
// and must fit the setting they set.  A flag value that does not parse or
// fit is refused by flag name (exit 2).
//
// generate -> embed -> perturb -> detect exercises the full system from
// the shell; see README.md for a walkthrough.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/correlation/robust.hpp"
#include "sscor/experiment/bench_main.hpp"
#include "sscor/experiment/sweep.hpp"
#include "sscor/net/http_client.hpp"
#include "sscor/net/stats_server.hpp"
#include "sscor/stream/chaos_proxy.hpp"
#include "sscor/stream/durability.hpp"
#include "sscor/stream/packet_source.hpp"
#include "sscor/stream/socket_source.hpp"
#include "sscor/stream/stream_engine.hpp"
#include "sscor/stream/telemetry.hpp"
#include "sscor/util/event_log.hpp"
#include "sscor/util/journal.hpp"
#include "sscor/util/json_parse.hpp"
#include "sscor/util/shutdown.hpp"
#include "sscor/flow/flow_extractor.hpp"
#include "sscor/flow/pcap_synth.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/parse.hpp"
#include "sscor/util/table.hpp"
#include "sscor/util/trace.hpp"
#include "sscor/watermark/embedder.hpp"
#include "sscor/watermark/key_file.hpp"

namespace {

using namespace sscor;

/// A *-ms flag's largest value: the most milliseconds millis() converts
/// without overflow.
constexpr std::uint64_t kMaxMillis =
    std::numeric_limits<std::int64_t>::max() / kMicrosPerMilli;

/// A flag value Args cannot parse or that does not fit the setting.  Like
/// an unknown flag, it is a usage error: exit 2.
class UsageError : public InvalidArgument {
 public:
  using InvalidArgument::InvalidArgument;
};

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        throw InvalidArgument("unexpected positional argument: " + arg);
      }
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg.substr(2)] = argv[++i];
      } else {
        values_[arg.substr(2)] = "";  // boolean flag
      }
    }
  }

  std::optional<std::string> get(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  std::string require_str(const std::string& name) const {
    const auto v = get(name);
    if (!v) throw InvalidArgument("missing required flag --" + name);
    return *v;
  }

  /// The first flag given that is not in `known`, if any.
  std::optional<std::string> first_unknown(
      const std::vector<std::string_view>& known) const {
    for (const auto& [name, value] : values_) {
      if (std::find(known.begin(), known.end(), name) == known.end()) {
        return name;
      }
    }
    return std::nullopt;
  }

  /// An integer flag read into a T.  Integers follow parse_unsigned's rule
  /// (util/parse.hpp): decimal, or hex after "0x", never octal.  A value
  /// that is not a complete number ("6x", "--shards four"), carries a sign
  /// or exceeds `max`, by default the largest T, is a usage error naming
  /// the flag: never a silent fallback, wrap or narrowing.  An absent flag
  /// (or a bare `--flag` with no value) takes `fallback`.
  template <std::integral T = std::uint64_t>
  T integer(const std::string& name, std::type_identity_t<T> fallback,
            std::uint64_t max = std::numeric_limits<T>::max()) const {
    const auto v = get(name);
    if (!v || v->empty()) return fallback;
    try {
      return static_cast<T>(parse_unsigned(*v, "--" + name, max));
    } catch (const InvalidArgument& e) {
      throw UsageError(e.message());
    }
  }

  /// integer() that additionally rejects an explicit zero (for flags where
  /// 0 is meaningless, e.g. a polling interval).
  template <std::integral T = std::uint64_t>
  T positive_integer(const std::string& name,
                     std::type_identity_t<T> fallback,
                     std::uint64_t max = std::numeric_limits<T>::max()) const {
    const T value = integer<T>(name, fallback, max);
    const auto v = get(name);
    if (v && !v->empty() && value == 0) {
      throw UsageError("--" + name + " must be positive, got \"" + *v + "\"");
    }
    return value;
  }

  double number(const std::string& name, double fallback) const {
    const auto v = get(name);
    if (!v || v->empty()) return fallback;
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(v->c_str(), &end);
    if (errno != 0 || end == v->c_str() || *end != '\0') {
      throw UsageError("--" + name + " expects a number, got \"" + *v + "\"");
    }
    return parsed;
  }

  /// number that additionally rejects an explicit value <= 0.
  double number_positive(const std::string& name, double fallback) const {
    const double value = number(name, fallback);
    const auto v = get(name);
    if (v && !v->empty() && value <= 0.0) {
      throw UsageError("--" + name + " must be positive, got \"" + *v + "\"");
    }
    return value;
  }

  /// A seconds-valued flag as a duration: every such flag converts here,
  /// so NaN, infinite, negative and out-of-range values are refused by
  /// name instead of reaching an undefined conversion.
  DurationUs duration_s(const std::string& name, double fallback) const {
    try {
      return checked_seconds(number(name, fallback), "--" + name);
    } catch (const InvalidArgument& e) {
      throw UsageError(e.message());
    }
  }

  bool flag(const std::string& name) const { return get(name).has_value(); }

 private:
  std::map<std::string, std::string> values_;
};

net::FiveTuple tuple_for_index(std::size_t index) {
  return net::FiveTuple{
      net::Ipv4Address::from_octets(
          10, 0, static_cast<std::uint8_t>(index / 250),
          static_cast<std::uint8_t>(index % 250 + 2)),
      net::Ipv4Address::from_octets(10, 99, 0, 1),
      static_cast<std::uint16_t>(30000 + index), 22, net::IpProtocol::kTcp};
}

int cmd_generate(const Args& args) {
  const std::string out = args.require_str("out");
  const auto flows = args.integer("flows", 4);
  const auto packets = args.integer("packets", 1000);
  const auto seed = args.integer("seed", 1);
  const std::string corpus = args.get("corpus").value_or("interactive");

  std::unique_ptr<traffic::FlowGenerator> generator;
  if (corpus == "interactive") {
    generator = std::make_unique<traffic::InteractiveSessionModel>();
  } else if (corpus == "tcplib") {
    generator = std::make_unique<traffic::TcplibTelnetModel>();
  } else {
    throw InvalidArgument("unknown corpus: " + corpus);
  }

  std::vector<Flow> generated;
  std::vector<SynthesisInput> inputs;
  generated.reserve(flows);
  {
    const metrics::ScopedTimer timer("tool.generate");
    for (std::size_t i = 0; i < flows; ++i) {
      generated.push_back(
          generator->generate(packets, 0, mix_seeds(seed, i)));
    }
  }
  metrics::counter("tool.flows_generated").add(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    inputs.push_back(SynthesisInput{tuple_for_index(i), &generated[i]});
  }
  write_capture_file(out, inputs);
  std::printf("wrote %llu flows x %llu packets to %s\n",
              static_cast<unsigned long long>(flows),
              static_cast<unsigned long long>(packets), out.c_str());
  return 0;
}

int cmd_stats(const Args& args) {
  const auto flows = extract_flows_from_file(args.require_str("in"));
  TextTable table({"flow", "packets", "duration_s", "rate_pps",
                   "median_ipd_s"});
  for (const auto& f : flows) {
    const FlowStats stats = f.flow.stats();
    table.add_row({f.tuple.to_string(), std::to_string(stats.packets),
                   TextTable::cell(to_seconds(f.flow.duration()), 1),
                   TextTable::cell(stats.mean_rate_pps, 2),
                   TextTable::cell(stats.median_ipd_seconds, 3)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_embed(const Args& args) {
  const auto flows = extract_flows_from_file(args.require_str("in"));
  const auto index = args.integer("flow-index", 0);
  require(index < flows.size(), "flow index out of range");

  WatermarkSecret secret;
  secret.params.bits = args.integer<std::uint32_t>("bits", 24);
  secret.params.redundancy = args.integer<std::uint32_t>("redundancy", 4);
  secret.params.embedding_delay =
      millis(args.integer<std::int64_t>("delay-ms", 600, kMaxMillis));
  secret.key = args.integer("key", 0x5eedULL);

  Rng rng(mix_seeds(secret.key, 0x77));
  secret.watermark = Watermark::random(secret.params.bits, rng);

  const Embedder embedder(secret.params, secret.key);
  const WatermarkedFlow marked =
      embedder.embed(flows[index].flow, secret.watermark);

  write_capture_file(args.require_str("out"),
                     {SynthesisInput{flows[index].tuple, &marked.flow}});
  write_secret_file(args.require_str("key-out"), secret);
  std::printf("embedded %u-bit watermark %s into flow %llu (%s)\n",
              secret.params.bits, secret.watermark.to_string().c_str(),
              static_cast<unsigned long long>(index),
              flows[index].tuple.to_string().c_str());
  return 0;
}

int cmd_perturb(const Args& args) {
  const auto flows = extract_flows_from_file(args.require_str("in"));
  const auto delta = args.duration_s("max-delay-s", 7.0);
  const double chaff_rate = args.number("chaff", 3.0);
  const auto seed = args.integer("seed", 2);

  std::vector<Flow> transformed;
  std::vector<SynthesisInput> inputs;
  transformed.reserve(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const traffic::UniformPerturber perturber(delta, mix_seeds(seed, 2 * i));
    const traffic::PoissonChaffInjector chaff(chaff_rate,
                                              mix_seeds(seed, 2 * i + 1));
    transformed.push_back(chaff.apply(perturber.apply(flows[i].flow)));
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    inputs.push_back(SynthesisInput{flows[i].tuple, &transformed[i]});
  }
  write_capture_file(args.require_str("out"), inputs);
  std::printf("perturbed (<= %s) and chaffed (%.1f pkt/s) %zu flows\n",
              format_duration(delta).c_str(), chaff_rate, flows.size());
  return 0;
}

Algorithm parse_algorithm(const std::string& name) {
  if (name == "greedy") return Algorithm::kGreedy;
  if (name == "greedy+") return Algorithm::kGreedyPlus;
  if (name == "greedy*") return Algorithm::kGreedyStar;
  if (name == "brute") return Algorithm::kBruteForce;
  throw InvalidArgument("unknown algorithm: " + name);
}

int cmd_detect(const Args& args) {
  const auto upstream = extract_flows_from_file(args.require_str("up"));
  const auto downstream = extract_flows_from_file(args.require_str("down"));
  const WatermarkSecret secret = read_secret_file(args.require_str("key"));

  CorrelatorConfig config;
  config.max_delay = args.duration_s("max-delay-s", 7.0);
  config.hamming_threshold = args.integer<std::uint32_t>("threshold", 7);
  const Algorithm algorithm =
      parse_algorithm(args.get("algorithm").value_or("greedy+"));
  const bool robust = args.flag("robust");
  if (robust && algorithm != Algorithm::kGreedyPlus) {
    std::fprintf(stderr,
                 "warning: --robust uses the loss-tolerant Greedy+ variant; "
                 "--algorithm is ignored\n");
  }

  const DurationUs deadline_us =
      millis(args.integer<std::int64_t>("deadline-ms", 0, kMaxMillis));
  CorrelatorConfig budgeted = config;
  budgeted.budget.max_cost = args.integer("budget", 0);
  if (robust && (deadline_us > 0 || budgeted.budget.max_cost != 0)) {
    std::fprintf(stderr,
                 "warning: --deadline-ms/--budget apply to the ladder "
                 "algorithms, not --robust; ignored\n");
  }

  int correlated = 0;
  const metrics::ScopedTimer timer("tool.detect");
  for (const auto& up : upstream) {
    const WatermarkedFlow handle{up.flow,
                                 secret.schedule_for(up.flow.size()),
                                 secret.watermark};
    for (const auto& down : downstream) {
      const trace::DecodePairScope pair_scope(
          trace::decode_enabled()
              ? up.tuple.to_string() + "->" + down.tuple.to_string()
              : std::string());
      // With --deadline-ms/--budget unset this is one budget-free decode;
      // otherwise each pair gets the full wall clock.
      if (deadline_us > 0) {
        budgeted.budget.deadline = Deadline::after(deadline_us);
      }
      const CorrelationResult r =
          robust ? run_greedy_plus_robust(handle.schedule, handle.watermark,
                                          handle.flow, down.flow, config)
                 : Correlator(budgeted, algorithm).correlate(handle, down.flow);
      metrics::counter("tool.detections_run").add(1);
      metrics::counter("tool.packets_accessed").add(r.cost);
      const std::string annotation =
          r.degraded ? ", degraded to " + to_string(r.algorithm) : "";
      std::printf("%-42s -> %-42s : %s (hamming %s, cost %llu%s)\n",
                  up.tuple.to_string().c_str(),
                  down.tuple.to_string().c_str(),
                  r.correlated ? "CORRELATED" : "-",
                  r.matching_complete || r.correlated
                      ? std::to_string(r.hamming).c_str()
                      : "n/a",
                  static_cast<unsigned long long>(r.cost),
                  annotation.c_str());
      correlated += r.correlated;
    }
  }
  std::printf("%d correlated pair(s)\n", correlated);
  return 0;
}

experiment::Metric parse_metric(const std::string& name) {
  if (name == "detection") return experiment::Metric::kDetectionRate;
  if (name == "fp") return experiment::Metric::kFalsePositiveRate;
  if (name == "cost-corr") return experiment::Metric::kCostCorrelated;
  if (name == "cost-uncorr") return experiment::Metric::kCostUncorrelated;
  throw InvalidArgument("unknown metric: " + name);
}

/// Strictly parses "I/N" (decimal, no signs or spaces, I < N, N >= 1).
experiment::ShardSpec parse_shard(const std::string& value) {
  experiment::ShardSpec shard;
  const char* const last = value.data() + value.size();
  const auto index = std::from_chars(value.data(), last, shard.index);
  if (index.ec == std::errc() && index.ptr != last && *index.ptr == '/') {
    const auto count = std::from_chars(index.ptr + 1, last, shard.count);
    if (count.ec == std::errc() && count.ptr == last &&
        shard.index < shard.count) {
      return shard;
    }
  }
  throw InvalidArgument("--shard expects I/N with I < N, got \"" + value +
                        "\"");
}

int cmd_sweep(const Args& args) {
  experiment::ExperimentConfig config;
  // Scaled-down defaults so a shell invocation finishes in seconds; the
  // paper-sized sweep is reachable by raising --flows/--packets/--fp-pairs.
  config.flows = args.integer("flows", 8);
  config.packets_per_flow = args.integer("packets", 600);
  config.fp_pairs = args.integer("fp-pairs", 40);
  config.master_seed = args.integer("seed", config.master_seed);
  config.threads = args.integer<unsigned>("threads", 0);
  const std::string corpus = args.get("corpus").value_or("interactive");
  if (corpus == "tcplib") {
    config.corpus = experiment::Corpus::kTcplib;
  } else if (corpus != "interactive") {
    throw InvalidArgument("unknown corpus: " + corpus);
  }

  experiment::SweepSpec spec;
  spec.metric = parse_metric(args.get("metric").value_or("detection"));
  const std::string axis = args.get("axis").value_or("chaff");
  if (axis == "delay") {
    spec.axis = experiment::SweepAxis::kMaxDelay;
  } else if (axis != "chaff") {
    throw InvalidArgument("unknown axis: " + axis);
  }

  const auto progress = [](std::size_t index, std::size_t count,
                           const std::string& label) {
    std::fprintf(stderr, "[%zu/%zu] %s\n", index + 1, count, label.c_str());
  };

  const std::string journal_dir = args.get("journal-dir").value_or("");
  std::optional<TextTable> table;
  if (journal_dir.empty()) {
    for (const char* name :
         {"shard", "resume", "fsync", "kill-after", "no-steal"}) {
      if (args.flag(name)) {
        throw InvalidArgument(std::string("--") + name +
                              " requires --journal-dir DIR");
      }
    }
    table = experiment::run_sweep(config, spec, progress);
  } else {
    experiment::ShardSpec shard = args.flag("shard")
                                      ? parse_shard(args.require_str("shard"))
                                      : experiment::ShardSpec{};
    shard.journal_dir = journal_dir;
    shard.steal = !args.flag("no-steal");
    shard.resume = args.flag("resume");
    shard.fsync = args.flag("fsync");
    if (args.flag("kill-after")) {
      shard.sigkill_after_points = args.integer<std::int64_t>("kill-after", 0);
    }
    table = experiment::run_sweep_shard(config, spec, shard, progress);
    if (!table) {
      std::fprintf(stderr,
                   "shard %zu/%zu done; other shards still own outstanding "
                   "points — merge later with: sscor_tool merge-journals "
                   "--journal-dir %s\n",
                   shard.index, shard.count, journal_dir.c_str());
      return 0;
    }
  }
  std::printf("%s", table->to_string().c_str());
  if (const auto out = args.get("out"); out && !out->empty()) {
    table->write_csv(*out);
    std::fprintf(stderr, "csv written: %s\n", out->c_str());
  }
  return 0;
}

int cmd_merge_journals(const Args& args) {
  const std::string dir = args.require_str("journal-dir");
  const experiment::ClusterScan scan = experiment::scan_journal_dir(dir);
  if (args.flag("expect-shards")) {
    const std::uint64_t expected = args.positive_integer("expect-shards", 0);
    if (scan.shard_files != expected) {
      throw IoError("expected " + std::to_string(expected) +
                    " shard journals in " + dir + ", found " +
                    std::to_string(scan.shard_files));
    }
  }
  std::fprintf(stderr,
               "%zu shard journal(s) of %zu-way cluster; %zu skipped, "
               "%zu dropped line(s), %zu duplicate row(s), "
               "%zu duplicate claim(s)\n",
               scan.shard_files, scan.shard_count, scan.skipped_files,
               scan.dropped_lines, scan.duplicate_rows,
               scan.duplicate_claims);
  const TextTable table = experiment::merge_cluster(scan);
  std::printf("%s", table.to_string().c_str());
  if (const auto out = args.get("out"); out && !out->empty()) {
    table.write_csv(*out);
    std::fprintf(stderr, "csv written: %s\n", out->c_str());
  }
  return 0;
}

void print_verdict(const stream::StreamVerdict& verdict) {
  const CorrelationResult& r = verdict.result;
  std::string kind = to_string(verdict.kind);
  for (auto& c : kind) c = static_cast<char>(std::toupper(c));
  std::string annotation;
  if (verdict.early) annotation += ", early";
  if (r.degraded) annotation += ", degraded to " + to_string(r.algorithm);
  const bool evicted = verdict.kind == stream::VerdictKind::kEvicted;
  std::printf("flow %-42s x up%-2zu : %-8s (%llu pkts, hamming %s, "
              "cost %llu%s)\n",
              verdict.tuple.to_string().c_str(), verdict.upstream,
              kind.c_str(),
              static_cast<unsigned long long>(verdict.packets_seen),
              !evicted && (r.matching_complete || r.correlated)
                  ? std::to_string(r.hamming).c_str()
                  : "n/a",
              static_cast<unsigned long long>(r.cost), annotation.c_str());
}

/// Fingerprint of everything that shapes the verdict stream: resuming a
/// WAL into a differently-configured daemon would interleave two
/// incompatible verdict streams, so DurableSession refuses a mismatch.
std::uint64_t watch_fingerprint(const WatermarkSecret& secret,
                                const std::vector<WatermarkedFlow>& upstreams,
                                const CorrelatorConfig& config,
                                const stream::StreamOptions& options) {
  std::string d = "sscor-watch-fingerprint v1";
  d += "|key=" + journal::hex64(secret.key);
  d += "|wm=" + secret.watermark.to_string();
  d += "|bits=" + std::to_string(secret.params.bits);
  d += "|red=" + std::to_string(secret.params.redundancy);
  d += "|embed_delay=" + std::to_string(secret.params.embedding_delay);
  for (const auto& up : upstreams) {
    d += "|up=" + std::to_string(up.flow.size());
  }
  d += "|max_delay=" + std::to_string(config.max_delay);
  d += "|threshold=" + std::to_string(config.hamming_threshold);
  d += "|algo=" + to_string(options.algorithm);
  d += "|early=" + std::to_string(options.early_exit ? 1 : 0);
  d += "|min_packets=" + std::to_string(options.min_packets);
  d += "|batch=" + std::to_string(options.batch_size);
  d += "|shards=" + std::to_string(options.table.shards);
  d += "|max_flows=" + std::to_string(options.table.max_flows);
  d += "|max_buffered=" + std::to_string(options.table.max_buffered_packets);
  d += "|ttl=" + std::to_string(options.table.idle_ttl);
  d += "|deadline=" + std::to_string(options.admission.deadline_us);
  d += "|budget=" + std::to_string(options.admission.max_cost_per_attempt);
  return journal::fnv1a64(d);
}

int cmd_watch(const Args& args) {
  const auto upstream_flows = extract_flows_from_file(args.require_str("up"));
  const WatermarkSecret secret = read_secret_file(args.require_str("key"));
  require(!upstream_flows.empty(), "no flows in the upstream capture");
  std::vector<WatermarkedFlow> upstreams;
  upstreams.reserve(upstream_flows.size());
  for (const auto& up : upstream_flows) {
    upstreams.push_back(WatermarkedFlow{
        up.flow, secret.schedule_for(up.flow.size()), secret.watermark});
  }

  CorrelatorConfig config;
  config.max_delay = args.duration_s("max-delay-s", 7.0);
  config.hamming_threshold = args.integer<std::uint32_t>("threshold", 7);

  stream::StreamOptions options;
  options.algorithm =
      parse_algorithm(args.get("algorithm").value_or("greedy+"));
  options.early_exit = !args.flag("no-early-exit");
  options.min_packets = args.integer("min-packets", 2);
  options.batch_size = args.integer("batch", 256);
  options.threads = args.integer<unsigned>("threads", 1);
  options.table.shards = args.integer("shards", 4);
  options.table.max_flows = args.integer("max-flows", 0);
  options.table.max_buffered_packets = args.integer("max-buffered-packets", 0);
  options.table.idle_ttl = args.duration_s("ttl-s", 0.0);
  options.admission.deadline_us =
      millis(args.integer<std::int64_t>("deadline-ms", 0, kMaxMillis));
  options.admission.max_cost_per_attempt = args.integer("budget", 0);

  // The daemon drains gracefully on SIGTERM/SIGINT: loops below poll
  // shutdown::requested() at batch boundaries and unwind normally.
  shutdown::install();

  const std::string feed = args.get("feed").value_or(
      args.get("connect") ? "socket" : "pcap");
  std::string in;
  std::ifstream text_file;
  std::unique_ptr<stream::PacketSource> source;
  stream::SocketPacketSource* socket_source = nullptr;
  if (feed == "socket") {
    stream::SocketSourceOptions socket_options;
    socket_options.endpoint = args.require_str("connect");
    socket_options.backoff.initial_ms =
        args.positive_integer<std::int64_t>("backoff-ms", 100, kMaxMillis);
    socket_options.backoff.max_ms = args.positive_integer<std::int64_t>(
        "backoff-max-ms", 5000, kMaxMillis);
    socket_options.backoff_seed = args.integer("backoff-seed", 0x55c0);
    socket_options.read_timeout_ms =
        args.positive_integer<int>("read-timeout-ms", 5000);
    socket_options.max_reconnects =
        args.positive_integer<int>("reconnect-max", 8);
    socket_options.should_stop = [] { return shutdown::requested() != 0; };
    auto owned =
        std::make_unique<stream::SocketPacketSource>(socket_options);
    socket_source = owned.get();
    source = std::move(owned);
    in = socket_options.endpoint;
  } else if (feed == "text") {
    in = args.require_str("in");
    if (in == "-") {
      source = std::make_unique<stream::FlowTextStreamSource>(std::cin);
    } else {
      text_file.open(in);
      if (!text_file) throw IoError("cannot open stream feed: " + in);
      source = std::make_unique<stream::FlowTextStreamSource>(text_file);
    }
  } else if (feed == "pcap") {
    in = args.require_str("in");
    stream::ReplayOptions replay;
    replay.speed = args.number_positive("speed", 0.0);
    source = std::make_unique<stream::CaptureReplaySource>(in, replay);
  } else {
    throw InvalidArgument("unknown feed: " + feed);
  }

  const std::string state_dir = args.get("state-dir").value_or("");
  const bool resume = args.flag("resume");
  if (resume && state_dir.empty()) {
    throw InvalidArgument("--resume requires --state-dir DIR");
  }
  std::unique_ptr<stream::DurableSession> session;
  if (!state_dir.empty()) {
    stream::DurabilityOptions durability;
    durability.state_dir = state_dir;
    durability.snapshot_interval =
        args.positive_integer("snapshot-interval", 4096);
    durability.fsync = args.flag("fsync");
    if (args.flag("kill-after-verdicts")) {
      durability.sigkill_after_commits =
          args.integer<std::int64_t>("kill-after-verdicts", 0);
    }
    session = std::make_unique<stream::DurableSession>(
        durability, watch_fingerprint(secret, upstreams, config, options));
  }

  const std::string metrics_json = args.get("metrics-json").value_or("");
  const auto metrics_interval = args.positive_integer("metrics-interval", 0);
  const std::string stats_addr = args.get("stats-addr").value_or("");
  const std::string event_log_path = args.get("event-log").value_or("");
  const DurationUs linger = args.duration_s("linger-s", 0.0);

  std::printf("watching %s (%zu upstream(s), %zu shard(s), algorithm %s)\n",
              in.c_str(), upstreams.size(), options.table.shards,
              to_string(options.algorithm).c_str());

  // The ops surface announces itself on stderr only: stdout carries the
  // verdict stream and must stay byte-identical with telemetry on or off.
  if (!event_log_path.empty()) {
    eventlog::open(event_log_path);
    std::fprintf(stderr, "event log: %s\n", event_log_path.c_str());
  }

  stream::StreamEngine engine(std::move(upstreams), config, options);
  stream::StreamTelemetry telemetry(engine);
  if (socket_source) {
    telemetry.set_source_stats_provider(
        [socket_source] { return socket_source->stats(); });
  }
  if (!stats_addr.empty()) {
    const net::HostPort addr = net::parse_host_port(stats_addr);
    telemetry.start(addr.host, addr.port);
    std::fprintf(stderr, "stats server listening on http://%s:%u\n",
                 addr.host.c_str(), telemetry.port());
  }
  std::map<std::string, std::size_t> kind_counts;
  const auto drain = [&] {
    for (const auto& verdict : engine.drain_verdicts()) {
      // Commit-before-print: once a verdict is on stdout it is in the WAL,
      // so a crash can never show an uncommitted verdict.  A false return
      // is a catch-up duplicate of a verdict a previous incarnation
      // committed — it was already re-printed during WAL replay.
      if (session && !session->commit(verdict)) continue;
      print_verdict(verdict);
      ++kind_counts[to_string(verdict.kind)];
    }
  };

  // Resume: re-emit every committed verdict in its original order, then
  // restore the flow table from the snapshot (when one is usable) so the
  // stream continues exactly where it stopped.  A replayable file feed
  // starts over from packet zero, so the snapshot's packets are skipped;
  // a socket feed resumes at the feeder's cursor and skips nothing.
  std::uint64_t skip = 0;
  if (session) {
    if (resume) {
      const stream::ResumeState recovered = session->resume();
      for (const auto& verdict : recovered.committed) {
        print_verdict(verdict);
        ++kind_counts[to_string(verdict.kind)];
      }
      if (recovered.have_snapshot) {
        engine.restore(recovered.snapshot);
        if (!socket_source) skip = recovered.snapshot.next_seq;
      }
      std::fprintf(
          stderr, "resumed: %zu committed verdict(s) replayed, %llu packet(s) "
          "restored%s\n",
          recovered.committed.size(),
          static_cast<unsigned long long>(
              recovered.have_snapshot ? recovered.snapshot.next_seq : 0),
          recovered.dropped_lines != 0 ? " (corrupt WAL line(s) dropped)"
                                       : "");
    } else {
      session->begin_fresh();
    }
  }

  const metrics::ScopedTimer timer("tool.watch");
  while (shutdown::requested() == 0) {
    const auto packet = source->next();
    if (!packet) break;
    if (skip > 0) {
      --skip;
      continue;
    }
    engine.ingest(*packet);
    const std::uint64_t ingested = engine.packets_ingested();
    if (ingested % options.batch_size == 0) {
      // The engine flushed inside ingest() (absolute-sequence alignment),
      // so it is quiescent here: drain + commit, then maybe snapshot.
      drain();
      if (session) session->maybe_snapshot(engine);
    }
    if (metrics_interval != 0 && !metrics_json.empty() &&
        ingested % metrics_interval == 0) {
      experiment::write_metrics_json(metrics_json);
    }
  }

  const int signal = shutdown::requested();
  if (signal != 0) {
    // Graceful drain: finish what is queued and commit it, then leave a
    // final snapshot behind so `watch --resume` continues from here.  The
    // engine is NOT finish()ed — finalising live flows would decide pairs
    // the uninterrupted run had not decided yet.
    telemetry.set_draining(true);
    engine.flush();
    drain();
    if (session) session->final_snapshot(engine);
    std::printf("shutdown (%s): %llu packets, %zu tracked flow(s)",
                shutdown::signal_name(signal),
                static_cast<unsigned long long>(engine.packets_ingested()),
                engine.live_flows());
  } else {
    engine.finish();
    drain();
    std::printf("stream over: %llu packets, %zu tracked flow(s)",
                static_cast<unsigned long long>(engine.packets_ingested()),
                engine.live_flows());
  }
  for (const auto& [kind, count] : kind_counts) {
    std::printf(", %zu %s", count, kind.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
  if (socket_source) {
    const stream::SocketSourceStats stats = socket_source->stats();
    std::fprintf(
        stderr,
        "source: %llu connect(s), %llu reconnect attempt(s), %llu "
        "disconnect(s), %llu frame(s), %llu resync(s), %llu byte(s) "
        "quarantined%s%s%s\n",
        static_cast<unsigned long long>(stats.connects),
        static_cast<unsigned long long>(stats.reconnect_attempts),
        static_cast<unsigned long long>(stats.disconnects),
        static_cast<unsigned long long>(stats.frames),
        static_cast<unsigned long long>(stats.resyncs),
        static_cast<unsigned long long>(stats.bytes_quarantined),
        stats.ended_cleanly ? ", ended cleanly" : "",
        stats.gave_up ? ", gave up reconnecting" : "",
        stats.stopped ? ", stopped by signal" : "");
  }
  if (session) {
    std::fprintf(stderr,
                 "durable state: %llu verdict(s) committed (%llu fresh), "
                 "%llu snapshot(s) -> %s\n",
                 static_cast<unsigned long long>(session->commits()),
                 static_cast<unsigned long long>(session->fresh_commits()),
                 static_cast<unsigned long long>(session->snapshots_written()),
                 state_dir.c_str());
  }
  if (!metrics_json.empty()) {
    experiment::write_metrics_json(metrics_json);
    std::fprintf(stderr, "metrics json written: %s\n", metrics_json.c_str());
  }
  if (telemetry.running() && signal == 0 && linger > 0) {
    // The verdict stream is complete at this point; flush it so a reader
    // (or a signal that kills the lingering daemon) never loses it to
    // stdio buffering.
    std::fflush(stdout);
    std::fprintf(stderr, "stats server lingering %.1fs\n",
                 to_seconds(linger));
    std::this_thread::sleep_for(std::chrono::microseconds(linger));
  }
  if (telemetry.running()) {
    std::fprintf(stderr, "stats server served %llu request(s)\n",
                 static_cast<unsigned long long>(telemetry.requests_served()));
    telemetry.stop();
  }
  if (eventlog::enabled()) {
    std::fprintf(stderr,
                 "event log: %llu emitted, %llu suppressed\n",
                 static_cast<unsigned long long>(eventlog::emitted()),
                 static_cast<unsigned long long>(eventlog::suppressed()));
    eventlog::close();
  }
  return signal != 0 ? 3 : 0;
}

/// Serves a capture as a live `sscor-stream v1` feed on an ephemeral
/// 127.0.0.1 port — the transmit side a `watch --feed socket` daemon (or
/// a chaos proxy) dials.
int cmd_feed(const Args& args) {
  const std::string in = args.require_str("in");
  const std::string feed = args.get("feed").value_or("pcap");
  std::vector<stream::StreamPacket> packets;
  if (feed == "text") {
    std::ifstream text_file(in);
    if (!text_file) throw IoError("cannot open stream feed: " + in);
    stream::FlowTextStreamSource source(text_file);
    while (const auto packet = source.next()) packets.push_back(*packet);
  } else if (feed == "pcap") {
    stream::CaptureReplaySource source(in, stream::ReplayOptions{});
    while (const auto packet = source.next()) packets.push_back(*packet);
  } else {
    throw InvalidArgument("unknown feed: " + feed);
  }

  stream::FrameFeederOptions options;
  options.heartbeat_every = args.integer("heartbeat-every", 0);
  options.drop_after_frames = args.integer("drop-after-frames", 0);
  options.pace_us = args.integer<std::int64_t>("pace-us", 0);

  shutdown::install();
  const std::size_t total = packets.size();
  stream::FrameFeeder feeder(std::move(packets), options);
  feeder.start();
  // The port line goes to stdout (and is flushed immediately) so a script
  // can scrape it and hand the endpoint to a daemon or proxy.
  std::printf("feeding %zu packet(s) on 127.0.0.1:%u\n", total,
              feeder.port());
  std::fflush(stdout);
  while (!feeder.finished() && shutdown::requested() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const int signal = shutdown::requested();
  feeder.stop();
  std::fprintf(stderr, "feeder: %llu connection(s)%s\n",
               static_cast<unsigned long long>(feeder.connections()),
               signal != 0 ? ", interrupted" : ", stream delivered");
  return signal != 0 ? 3 : 0;
}

/// Fault-injecting relay in front of a feed (DESIGN.md §16): listens on
/// an ephemeral port, dials --upstream per client, and mangles the bytes
/// in transit.  The chaos half of the crash-robustness check.
int cmd_chaos_proxy(const Args& args) {
  stream::ChaosProxyOptions options;
  options.upstream = args.require_str("upstream");
  options.fault_rate = args.number("fault-rate", 0.3);
  options.seed = args.integer("seed", 1);
  options.max_upstream_failures =
      args.positive_integer<int>("max-upstream-failures", 3);
  require(options.fault_rate >= 0.0 && options.fault_rate <= 1.0,
          "--fault-rate must be in [0, 1]");

  shutdown::install();
  stream::ChaosProxy proxy(options);
  proxy.start();
  std::printf("chaos proxy on 127.0.0.1:%u -> %s (fault rate %.2f, seed "
              "%llu)\n",
              proxy.port(), options.upstream.c_str(), options.fault_rate,
              static_cast<unsigned long long>(options.seed));
  std::fflush(stdout);
  while (!proxy.done() && shutdown::requested() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const int signal = shutdown::requested();
  proxy.stop();
  std::fprintf(stderr,
               "chaos proxy: %llu chunk(s) relayed, %llu fault(s) injected, "
               "%llu connection(s)\n",
               static_cast<unsigned long long>(proxy.chunks_relayed()),
               static_cast<unsigned long long>(proxy.faults_injected()),
               static_cast<unsigned long long>(proxy.client_connections()));
  return signal != 0 && !proxy.done() ? 3 : 0;
}

int cmd_top(const Args& args) {
  const net::HostPort addr = net::parse_host_port(args.require_str("addr"));
  const auto interval_ms =
      args.positive_integer("interval-ms", 1000, kMaxMillis);
  const auto count = args.integer("count", 0);  // 0: until the daemon goes
  const bool clear = !args.flag("no-clear");
  // Transient scrape failures (daemon mid-restart, listen queue full) are
  // retried with a growing bounded delay; only --retries consecutive
  // failures conclude the daemon is gone.
  const auto retries = args.integer("retries", 3);

  bool have_prev = false;
  bool ever_scraped = false;
  std::uint64_t consecutive_failures = 0;
  double prev_packets = 0.0;
  double prev_verdicts = 0.0;
  std::vector<double> prev_shard_verdicts;

  std::uint64_t polls = 0;  // successful scrapes; failures don't consume
  while (count == 0 || polls < count) {
    if (polls > 0 || consecutive_failures > 0) {
      // Failed scrapes back off: interval, 2x, 3x, ... capped at 5x.
      const std::uint64_t factor =
          consecutive_failures == 0
              ? 1
              : std::min<std::uint64_t>(consecutive_failures + 1, 5);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(interval_ms * factor));
    }
    net::HttpResult response;
    bool scrape_ok = false;
    std::string scrape_error;
    try {
      response = net::http_get(addr.host, addr.port, "/statusz");
      if (response.status == 200) {
        scrape_ok = true;
      } else {
        scrape_error = "/statusz returned HTTP " +
                       std::to_string(response.status);
      }
    } catch (const std::exception& e) {
      scrape_error = e.what();
    }
    if (!scrape_ok) {
      ++consecutive_failures;
      if (consecutive_failures > retries) {
        std::fprintf(stderr, "top: %s\n", scrape_error.c_str());
        // A daemon that served at least one scrape and then exited is a
        // normal end of watch, not an error.
        return ever_scraped ? 0 : 1;
      }
      std::fprintf(stderr, "top: scrape failed (%llu/%llu): %s\n",
                   static_cast<unsigned long long>(consecutive_failures),
                   static_cast<unsigned long long>(retries),
                   scrape_error.c_str());
      continue;
    }
    const std::uint64_t missed = consecutive_failures;
    consecutive_failures = 0;
    ever_scraped = true;
    ++polls;
    // Rates span an unknown gap after a missed scrape; show "-" once.
    if (missed > 0) have_prev = false;
    const json::Value doc = json::parse(response.body);
    const double interval_s =
        static_cast<double>(interval_ms) / 1000.0;

    const double packets = doc.at("packets_ingested").as_number();
    const json::Value& verdicts = doc.at("verdicts");
    const double verdicts_total = verdicts.at("total").as_number();
    const auto& shards = doc.at("shards").as_array();

    const auto rate = [&](double cur, double prev) -> std::string {
      if (!have_prev) return "-";
      const double delta = cur >= prev ? cur - prev : cur;
      return TextTable::cell(delta / interval_s, 1) + "/s";
    };

    if (clear) std::printf("\x1b[2J\x1b[H");
    std::printf("sscor top — http://%s:%u/statusz   uptime %.1fs   %s",
                addr.host.c_str(), addr.port, doc.at("uptime_s").as_number(),
                doc.at("finished").as_bool() ? "finished" : "streaming");
    if (missed > 0) {
      std::printf("   (%llu scrape(s) missed)",
                  static_cast<unsigned long long>(missed));
    }
    std::printf("\n");
    std::printf(
        "packets %llu (%s)   flows %llu   buffered %llu   verdicts %llu "
        "(%s)\n",
        static_cast<unsigned long long>(doc.at("packets_ingested").as_uint()),
        rate(packets, prev_packets).c_str(),
        static_cast<unsigned long long>(doc.at("flows_live").as_uint()),
        static_cast<unsigned long long>(doc.at("buffered_packets").as_uint()),
        static_cast<unsigned long long>(verdicts.at("total").as_uint()),
        rate(verdicts_total, prev_verdicts).c_str());
    std::printf(
        "verdicts: %llu positive, %llu negative, %llu evicted, "
        "%llu degraded (%llu early)\n",
        static_cast<unsigned long long>(verdicts.at("positive").as_uint()),
        static_cast<unsigned long long>(verdicts.at("negative").as_uint()),
        static_cast<unsigned long long>(verdicts.at("evicted").as_uint()),
        static_cast<unsigned long long>(verdicts.at("degraded").as_uint()),
        static_cast<unsigned long long>(verdicts.at("early").as_uint()));
    const double pressure_age = doc.at("seconds_since_pressure").as_number();
    if (pressure_age >= 0.0) {
      std::printf("last pressure eviction: %.1fs ago\n", pressure_age);
    }

    TextTable shard_table(
        {"shard", "flows", "buffered", "verdicts", "verdicts/s"});
    if (prev_shard_verdicts.size() != shards.size()) {
      prev_shard_verdicts.assign(shards.size(), 0.0);
      have_prev = false;
    }
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const json::Value& shard = shards[i];
      const double shard_verdicts = shard.at("verdicts").as_number();
      shard_table.add_row(
          {std::to_string(shard.at("shard").as_uint()),
           std::to_string(shard.at("flows").as_uint()),
           std::to_string(shard.at("buffered_packets").as_uint()),
           std::to_string(shard.at("verdicts").as_uint()),
           rate(shard_verdicts, prev_shard_verdicts[i])});
      prev_shard_verdicts[i] = shard_verdicts;
    }
    std::printf("\n%s", shard_table.to_string().c_str());

    const auto& hottest = doc.at("hottest").as_array();
    if (!hottest.empty()) {
      TextTable hot_table({"hottest flow", "flow_seq", "packets", "buffered"});
      for (const json::Value& flow : hottest) {
        hot_table.add_row(
            {flow.at("tuple").as_string(),
             std::to_string(flow.at("flow_seq").as_uint()),
             std::to_string(flow.at("packets").as_uint()),
             std::to_string(flow.at("buffered").as_uint())});
      }
      std::printf("\n%s", hot_table.to_string().c_str());
    }
    std::fflush(stdout);

    prev_packets = packets;
    prev_verdicts = verdicts_total;
    have_prev = true;
  }
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: sscor_tool "
      "<generate|stats|embed|perturb|detect|sweep|merge-journals|watch|"
      "feed|chaos-proxy|top>"
      " [flags]\n"
      "       (append --metrics to print the run metrics on exit;\n"
      "        --trace PATH writes decode introspection JSONL and\n"
      "        --trace-spans PATH writes Chrome trace JSON)\n"
      "see the header of tools/sscor_tool.cpp for full flag reference\n");
  return 2;
}

/// Every command with the flags it reads.  Any other flag is a usage
/// error, so a typo or a retired flag stops the run instead of being
/// silently ignored.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};

const std::vector<Command> kCommands = {
    {"generate", cmd_generate, {"out", "flows", "packets", "seed", "corpus"}},
    {"stats", cmd_stats, {"in"}},
    {"embed", cmd_embed, {"in", "out", "key-out", "flow-index", "key", "bits",
                          "redundancy", "delay-ms"}},
    {"perturb", cmd_perturb, {"in", "out", "max-delay-s", "chaff", "seed"}},
    {"detect", cmd_detect, {"up", "down", "key", "algorithm", "max-delay-s",
                            "threshold", "robust", "deadline-ms", "budget"}},
    {"sweep", cmd_sweep, {"metric", "axis", "flows", "packets", "fp-pairs",
                          "seed", "threads", "corpus", "out", "journal-dir",
                          "shard", "resume", "fsync", "kill-after",
                          "no-steal"}},
    {"merge-journals", cmd_merge_journals,
     {"journal-dir", "out", "expect-shards"}},
    {"watch", cmd_watch, {"up", "key", "in", "feed", "speed", "connect",
                          "reconnect-max", "backoff-ms", "backoff-max-ms",
                          "backoff-seed", "read-timeout-ms", "state-dir",
                          "resume", "snapshot-interval", "fsync",
                          "kill-after-verdicts", "algorithm", "max-delay-s",
                          "threshold", "shards", "threads", "batch",
                          "min-packets", "no-early-exit", "max-flows",
                          "max-buffered-packets", "ttl-s", "deadline-ms",
                          "budget", "metrics-json", "metrics-interval",
                          "stats-addr", "event-log", "linger-s"}},
    {"feed", cmd_feed, {"in", "feed", "heartbeat-every", "drop-after-frames",
                        "pace-us"}},
    {"chaos-proxy", cmd_chaos_proxy, {"upstream", "fault-rate", "seed",
                                      "max-upstream-failures"}},
    {"top", cmd_top, {"addr", "interval-ms", "count", "no-clear", "retries"}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view name = argv[1];
  const auto command =
      std::find_if(kCommands.begin(), kCommands.end(),
                   [&](const Command& c) { return c.name == name; });
  if (command == kCommands.end()) return usage();
  try {
    const Args args(argc, argv, 2);
    std::vector<std::string_view> known = command->flags;
    known.insert(known.end(), {"metrics", "trace", "trace-spans"});
    if (const auto unknown = args.first_unknown(known)) {
      std::fprintf(stderr, "error: unknown flag --%s for %s\n",
                   unknown->c_str(), argv[1]);
      return usage();
    }
    const auto trace_path = args.get("trace");
    const auto trace_spans_path = args.get("trace-spans");
    if (trace_path) trace::set_decode_enabled(true);
    if (trace_spans_path) trace::set_spans_enabled(true);
    const int rc = command->run(args);
    if (trace_path && !trace_path->empty()) {
      trace::write_decode_jsonl(*trace_path);
      std::fprintf(stderr, "decode trace written: %s (%zu records)\n",
                   trace_path->c_str(), trace::decode_record_count());
    }
    if (trace_spans_path && !trace_spans_path->empty()) {
      trace::write_chrome_json(*trace_spans_path);
      std::fprintf(stderr, "span trace written: %s\n",
                   trace_spans_path->c_str());
    }
    if (args.flag("metrics")) {
      std::fprintf(stderr, "\nrun metrics:\n%s",
                   metrics::snapshot().to_table().to_string().c_str());
    }
    return rc;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.message());
    return usage();
  } catch (const Error& e) {
    // A failed library check names its C++ function in what(); the user
    // is shown only what went wrong.
    std::fprintf(stderr, "error: %s\n", e.message());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
