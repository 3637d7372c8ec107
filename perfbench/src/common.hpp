// Shared pieces of the benchmark program: options, the result record that
// becomes the final JSON line, clocks, order statistics, the verdict
// digest and the in-process reference engine used by the correctness gate.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sscor/experiment/stream_corpus.hpp"
#include "sscor/stream/stream_engine.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes instead of the benchmark's real sizes.
  bool tiny = false;
  /// Working directory for CSVs, state dirs and the replay capture.
  std::string work_dir;
  /// Directory holding the sweep's reference CSVs.
  std::string reference_dir;
  /// Source identity recorded with the result (commit or tree hash).
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: the gate, the attempted/failed counts, the
/// metrics of the requested kind, and run metadata (printed on its own
/// line before the result).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// (key, already-encoded JSON value).
  std::vector<std::pair<std::string, std::string>> meta;
  /// Why the gate failed, for stderr.
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& json_value) {
    meta.emplace_back(key, json_value);
  }
  void note(const std::string& key, double value);
  void fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time consumed by the calling thread, in seconds.
double thread_cpu_seconds();

/// CPU time consumed by every thread of this process, in seconds.
double process_cpu_seconds();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

double median(std::vector<double> values);

/// Adds, for each metric of the per-pass lists (all in the same order),
/// its median over the passes.
void add_pass_medians(const std::vector<std::vector<Metric>>& per_pass,
                      Result& result);

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples.
double percentile(std::vector<double> values, double q);

std::string json_string(const std::string& text);

/// `values` as a JSON array, each with all its digits.
std::string json_array(const std::vector<double>& values);

/// Order-sensitive FNV-1a digest of the fields that define a verdict
/// stream: flow_seq, upstream, kind, early, packets_seen, cost, hamming.
class VerdictDigest {
 public:
  void add(const sscor::stream::StreamVerdict& verdict);
  std::uint64_t value() const { return hash_; }
  std::uint64_t count() const { return count_; }

 private:
  void mix(std::uint64_t word);

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t count_ = 0;
};

/// The engine configuration `sscor_tool watch` uses by default: Greedy+,
/// early exits on, 4 shards, batch 256, one thread, no table bounds.
sscor::stream::StreamOptions watch_stream_options();
sscor::CorrelatorConfig watch_correlator_config();

/// Runs a fresh in-process StreamEngine over `packets`, draining at every
/// batch boundary and after finish() exactly as the daemon does, and
/// returns the digest of the verdict stream.
VerdictDigest reference_digest(
    const std::vector<sscor::WatermarkedFlow>& upstreams,
    const std::vector<sscor::stream::StreamPacket>& packets);

/// Adds the metadata every workload records (build, machine, seed).
void note_common_meta(const Options& options, Result& result);

Result run_sweep_workload(const Options& options);
Result run_feed_workload(const Options& options);
Result run_replay_workload(const Options& options);

}  // namespace perfbench
