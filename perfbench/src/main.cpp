// sscor_perfbench: the repository benchmark program (see ../README.md).
//
//   sscor_perfbench --workload sweep|feed|replay --seed N --seconds S
//                   --trace 0|1 --work-dir DIR --reference-dir DIR
//                   [--commit ID] [--size full|tiny]
//
// Prints one metadata line ({"meta": {...}}) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1.  Exits 0 when the
// correctness gate passed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sscor_perfbench --workload sweep|feed|replay --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --reference-dir DIR "
               "[--commit ID] [--size full|tiny]\n");
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--reference-dir") {
      options.reference_dir = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") usage();
      options.tiny = value == "tiny";
    } else {
      usage();
    }
  }
  if (options.workload.empty() || options.work_dir.empty() ||
      options.reference_dir.empty() || !(options.seconds > 0.0)) {
    usage();
  }
  return options;
}

void print_result(const perfbench::Result& result) {
  std::string meta = "{\"meta\": {";
  for (std::size_t i = 0; i < result.meta.size(); ++i) {
    if (i != 0) meta += ", ";
    meta += perfbench::json_string(result.meta[i].first) + ": " +
            result.meta[i].second;
  }
  meta += "}}";
  std::printf("%s\n", meta.c_str());

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i != 0) line += ", ";
    line += perfbench::json_string(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + perfbench::json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  try {
    std::filesystem::create_directories(options.work_dir);
    perfbench::Result result;
    if (options.workload == "sweep") {
      result = perfbench::run_sweep_workload(options);
    } else if (options.workload == "feed") {
      result = perfbench::run_feed_workload(options);
    } else if (options.workload == "replay") {
      result = perfbench::run_replay_workload(options);
    } else {
      std::fprintf(stderr, "error: unknown workload %s\n",
                   options.workload.c_str());
      return 2;
    }
    perfbench::note_common_meta(options, result);
    for (const std::string& problem : result.problems) {
      std::fprintf(stderr, "correctness: %s\n", problem.c_str());
    }
    print_result(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
