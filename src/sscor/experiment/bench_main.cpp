#include "sscor/experiment/bench_main.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string_view>

#include "sscor/util/error.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/trace.hpp"

namespace sscor::experiment {
namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--flows=N] [--packets=N] [--fp-pairs=N] [--seed=N]\n"
      "          [--corpus=interactive|tcplib] [--full] [--csv=PATH]\n"
      "          [--threads=N] [--metrics] [--metrics-json=PATH]\n"
      "          [--trace=PATH] [--trace-spans=PATH]\n"
      "          [--journal-dir=DIR] [--resume]\n"
      "  --flows        number of traces (default 91; paper: 91)\n"
      "  --packets      packets per trace (default 1000; paper: >1000)\n"
      "  --fp-pairs     sampled uncorrelated pairs per point (default 2000)\n"
      "  --full         evaluate every uncorrelated pair (n*(n-1), slow)\n"
      "  --corpus       trace generator (default interactive)\n"
      "  --threads      evaluation worker threads (default: all cores)\n"
      "  --metrics      print the run-metrics table after the sweep\n"
      "  --metrics-json write the run-metrics snapshot as JSON\n"
      "  --trace        write per-detect decode introspection as JSONL\n"
      "  --trace-spans  write span timings as Chrome trace JSON (Perfetto)\n"
      "  --journal-dir  journal completed sweep points into DIR (crash-safe)\n"
      "  --resume       keep DIR's journal, compute only missing points\n",
      argv0);
  std::exit(2);
}

bool consume(std::string_view arg, std::string_view prefix,
             std::string_view& value) {
  if (!arg.starts_with(prefix)) return false;
  value = arg.substr(prefix.size());
  return true;
}

/// A whole, non-negative decimal number that fits in `T`; anything else
/// (empty, a sign, trailing characters, overflow) is a usage error.
template <typename T>
T count_or_usage(std::string_view value, const char* argv0) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, out);
  if (error != std::errc{} || stop != end) usage(argv0);
  return out;
}

}  // namespace

BenchOptions parse_bench_options(int argc, char** argv,
                                 ExperimentConfig defaults) {
  BenchOptions options;
  options.config = defaults;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (consume(arg, "--flows=", value)) {
      options.config.flows = count_or_usage<std::size_t>(value, argv[0]);
    } else if (consume(arg, "--packets=", value)) {
      options.config.packets_per_flow =
          count_or_usage<std::size_t>(value, argv[0]);
    } else if (consume(arg, "--fp-pairs=", value)) {
      options.config.fp_pairs = count_or_usage<std::size_t>(value, argv[0]);
    } else if (consume(arg, "--seed=", value)) {
      options.config.master_seed =
          count_or_usage<std::uint64_t>(value, argv[0]);
    } else if (consume(arg, "--threads=", value)) {
      options.config.threads = count_or_usage<unsigned>(value, argv[0]);
    } else if (consume(arg, "--metrics-json=", value)) {
      options.metrics_json = std::string(value);
    } else if (consume(arg, "--trace=", value)) {
      options.trace_path = std::string(value);
    } else if (consume(arg, "--trace-spans=", value)) {
      options.trace_spans_path = std::string(value);
    } else if (consume(arg, "--csv=", value)) {
      options.csv_path = std::string(value);
    } else if (consume(arg, "--journal-dir=", value)) {
      options.journal_dir = std::string(value);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (consume(arg, "--corpus=", value)) {
      if (value == "interactive") {
        options.config.corpus = Corpus::kInteractive;
      } else if (value == "tcplib") {
        options.config.corpus = Corpus::kTcplib;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--full") {
      options.full = true;
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      usage(argv[0]);
    }
  }
  if (options.full) {
    options.config.fp_pairs =
        options.config.flows * (options.config.flows - 1);
  }
  return options;
}

void write_metrics_json(const std::string& path) {
  // Written atomically (temp file + rename) because the watch daemon
  // rewrites this file mid-run while a monitoring job may be reading it: a
  // reader must see the previous complete snapshot or the new one, never a
  // truncated JSON prefix.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw IoError("cannot open metrics JSON output: " + tmp);
    out << metrics::snapshot().to_json();
    out.flush();
    if (!out) throw IoError("failed writing metrics JSON: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("cannot rename " + tmp + " to " + path);
  }
}

int run_figure_bench(const std::string& figure_id, const std::string& title,
                     const BenchOptions& options, const SweepSpec& spec,
                     const std::string& expectation) {
  try {
    std::printf("== %s: %s ==\n", figure_id.c_str(), title.c_str());
    std::printf("metric: %s\n", to_string(spec.metric).c_str());
    std::printf("corpus: %s | flows: %zu | packets/flow: %zu"
                " | fp pairs/point: %zu | seed: %llu\n\n",
                to_string(options.config.corpus).c_str(),
                options.config.flows, options.config.packets_per_flow,
                options.config.fp_pairs,
                static_cast<unsigned long long>(options.config.master_seed));

    const auto progress = [](std::size_t index, std::size_t count,
                             const std::string& label) {
      std::fprintf(stderr, "[%zu/%zu] %s\n", index + 1, count,
                   label.c_str());
    };
    if (!options.trace_path.empty()) trace::set_decode_enabled(true);
    if (!options.trace_spans_path.empty()) trace::set_spans_enabled(true);
    if (options.resume && options.journal_dir.empty()) {
      throw InvalidArgument("--resume requires --journal-dir=DIR");
    }
    TextTable table({"-"});
    if (options.journal_dir.empty()) {
      table = run_sweep(options.config, spec, progress);
    } else {
      // Shard 0 of 1 owns every point, so it always returns the table.
      table = run_sweep_shard(options.config, spec,
                              ShardSpec{.journal_dir = options.journal_dir,
                                        .resume = options.resume},
                              progress)
                  .value();
    }
    std::printf("%s\n", table.to_string().c_str());
    if (!options.trace_path.empty()) {
      trace::write_decode_jsonl(options.trace_path);
      std::printf("decode trace written: %s (%zu records)\n",
                  options.trace_path.c_str(), trace::decode_record_count());
    }
    if (!options.trace_spans_path.empty()) {
      trace::write_chrome_json(options.trace_spans_path);
      std::printf("span trace written: %s\n",
                  options.trace_spans_path.c_str());
    }

    const std::string csv =
        options.csv_path.empty() ? figure_id + ".csv" : options.csv_path;
    table.write_csv(csv);
    std::printf("csv written: %s\n", csv.c_str());
    if (options.metrics) {
      std::printf("\nrun metrics:\n%s\n",
                  metrics::snapshot().to_table().to_string().c_str());
    }
    if (!options.metrics_json.empty()) {
      write_metrics_json(options.metrics_json);
      std::printf("metrics json written: %s\n",
                  options.metrics_json.c_str());
    }
    if (!expectation.empty()) {
      std::printf("\npaper expectation: %s\n", expectation.c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.message());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace sscor::experiment
