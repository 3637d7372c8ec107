#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>

#include "sscor/matching/batch_kernels.hpp"

namespace perfbench {

void Result::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  meta.emplace_back(key, buf);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void add_pass_medians(const std::vector<std::vector<Metric>>& per_pass,
                      Result& result) {
  for (std::size_t m = 0; m < per_pass.front().size(); ++m) {
    std::vector<double> values;
    for (const auto& metrics : per_pass) values.push_back(metrics[m].value);
    result.add(per_pass.front()[m].name, median(values),
               per_pass.front()[m].unit);
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (const double value : values) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.17g", out.size() > 1 ? ", " : "",
                  value);
    out += buf;
  }
  return out + "]";
}

void VerdictDigest::mix(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
}

void VerdictDigest::add(const sscor::stream::StreamVerdict& verdict) {
  mix(verdict.flow_seq);
  mix(verdict.upstream);
  mix(static_cast<std::uint64_t>(verdict.kind));
  mix(verdict.early ? 1 : 0);
  mix(verdict.packets_seen);
  mix(verdict.result.cost);
  mix(verdict.result.hamming);
  ++count_;
}

sscor::stream::StreamOptions watch_stream_options() {
  sscor::stream::StreamOptions options;
  options.algorithm = sscor::Algorithm::kGreedyPlus;
  options.early_exit = true;
  options.min_packets = 2;
  options.batch_size = 256;
  options.threads = 1;
  options.table.shards = 4;
  return options;
}

sscor::CorrelatorConfig watch_correlator_config() {
  sscor::CorrelatorConfig config;
  config.max_delay = sscor::seconds(std::int64_t{7});
  config.hamming_threshold = 7;
  return config;
}

VerdictDigest reference_digest(
    const std::vector<sscor::WatermarkedFlow>& upstreams,
    const std::vector<sscor::stream::StreamPacket>& packets) {
  const sscor::stream::StreamOptions options = watch_stream_options();
  sscor::stream::StreamEngine engine(upstreams, watch_correlator_config(),
                                     options);
  VerdictDigest digest;
  for (const auto& packet : packets) {
    engine.ingest(packet);
    if (engine.packets_ingested() % options.batch_size == 0) {
      for (const auto& verdict : engine.drain_verdicts()) digest.add(verdict);
    }
  }
  engine.finish();
  for (const auto& verdict : engine.drain_verdicts()) digest.add(verdict);
  return digest;
}

void note_common_meta(const Options& options, Result& result) {
  result.note("workload", json_string(options.workload));
  result.note("trace", options.trace ? "true" : "false");
  result.note("seed", std::to_string(options.seed));
  result.note("seconds", options.seconds);
  result.note("size", json_string(options.tiny ? "tiny" : "full"));
  result.note("commit", json_string(options.commit));
  result.note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  result.note("hardware_concurrency",
              std::to_string(std::thread::hardware_concurrency()));
  result.note("build_type", json_string(PERFBENCH_BUILD_TYPE));
  result.note("kernel_mode",
              json_string(sscor::batch::kernel_mode() ==
                                  sscor::batch::KernelMode::kVectorized
                              ? "vectorized"
                              : "scalar"));
#if defined(SSCOR_SIMD) && SSCOR_SIMD
  result.note("sscor_simd", "true");
#else
  result.note("sscor_simd", "false");
#endif
#ifdef SSCOR_TRACE_DISABLED
  result.note("sscor_trace", "false");
#else
  result.note("sscor_trace", "true");
#endif
}

}  // namespace perfbench
