// sscor_fuzz — deterministic differential fuzzing of the decode and I/O
// stacks.
//
//   sscor_fuzz --iterations 10000 --seed 1 --corpus tests/corpus
//       run every oracle round-robin; exit 0 iff no violations
//   sscor_fuzz --oracle reader_pcap --iterations 5000
//       restrict to one oracle
//   sscor_fuzz --replay artifacts/reader_pcap-seed1-iter42.replay
//       re-execute a recorded violation payload; exit 0 iff it now passes
//   sscor_fuzz --emit-corpus tests/corpus
//       write the deterministic corpus seeds and the regression replay
//       artifacts (the checked-in reproductions of historical bugs)
//   sscor_fuzz --list-oracles
//
// Every case is a pure function of (seed, iteration, oracle name): two runs
// with the same flags behave identically on any machine.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sscor/fuzz/fuzzer.hpp"
#include "sscor/fuzz/generators.hpp"
#include "sscor/fuzz/oracles.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/parse.hpp"

namespace {

constexpr int kExitClean = 0;
constexpr int kExitViolation = 1;
constexpr int kExitUsage = 2;

void print_usage(std::ostream& out) {
  out << "usage: sscor_fuzz [options]\n"
         "  --iterations <n>     fuzz iterations (default 1000)\n"
         "  --seed <n>           master seed (default 1)\n"
         "  --oracle <name>      restrict to an oracle (repeatable)\n"
         "  --corpus <dir>       corpus seeds: files named <oracle>.*\n"
         "  --artifacts <dir>    write .replay artifacts for violations\n"
         "  --no-shrink          keep failing payloads unshrunk\n"
         "  --max-failures <n>   stop after n violations (default 10)\n"
         "  --quiet              suppress progress output\n"
         "  --replay <file>      re-run one replay artifact and exit\n"
         "  --emit-corpus <dir>  write corpus seeds + regression artifacts\n"
         "  --list-oracles       print oracle names and exit\n";
}

int replay_command(const std::string& path) {
  const sscor::fuzz::OracleResult result = sscor::fuzz::replay_file(path);
  if (result.skipped) {
    std::cout << "SKIP " << path
              << " (payload outside the oracle's precondition)\n";
    return kExitClean;
  }
  if (result.ok) {
    std::cout << "PASS " << path << "\n";
    return kExitClean;
  }
  std::cout << "FAIL " << path << "\n  " << result.message << "\n";
  return kExitViolation;
}

/// Writes the deterministic corpus: one well-formed seed per reader oracle
/// (mutation bases) and the regression replay artifacts reproducing the
/// historical bugs.
int emit_corpus_command(const std::string& dir) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const auto write_bytes = [&](const std::string& name,
                               const std::vector<std::uint8_t>& bytes) {
    const fs::path path = fs::path(dir) / name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw sscor::IoError("cannot write " + path.string());
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::cout << "wrote " << path.string() << " (" << bytes.size()
              << " bytes)\n";
  };

  // Seeds: generated from pinned Rng streams so re-running --emit-corpus
  // reproduces the exact files.
  {
    sscor::Rng rng(0x5eedc0de);
    write_bytes("reader_pcap.seed1.bin",
                sscor::fuzz::synthesize_pcap_seed(rng));
    write_bytes("reader_pcapng.seed1.bin",
                sscor::fuzz::synthesize_pcapng_seed(rng));
    write_bytes("reader_flowtext.seed1.txt",
                sscor::fuzz::synthesize_flowtext_seed(rng));
  }

  for (const auto& regression : sscor::fuzz::make_regression_cases()) {
    const std::string artifact = sscor::fuzz::format_replay_artifact(
        regression.oracle, /*seed=*/0, /*iteration=*/0, regression.payload);
    write_bytes(regression.name + ".replay",
                {artifact.begin(), artifact.end()});
  }
  return kExitClean;
}

}  // namespace

int main(int argc, char** argv) {
  sscor::fuzz::FuzzOptions options;
  options.log = &std::cerr;
  std::string replay_path;
  std::string emit_dir;
  bool list_oracles = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto need_value = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::cerr << "sscor_fuzz: " << arg << " needs a value\n";
          std::exit(kExitUsage);
        }
        return argv[++i];
      };
      // Counts and seeds follow the shared integer rule (util/parse.hpp); a
      // value it refuses is a usage error naming the flag (the catch below).
      const auto need_number = [&] {
        return sscor::parse_unsigned(need_value(), arg);
      };
      if (arg == "--iterations") {
        options.iterations = need_number();
      } else if (arg == "--seed") {
        options.seed = need_number();
      } else if (arg == "--oracle") {
        options.only.emplace_back(need_value());
      } else if (arg == "--corpus") {
        options.corpus_dir = need_value();
      } else if (arg == "--artifacts") {
        options.artifact_dir = need_value();
      } else if (arg == "--no-shrink") {
        options.shrink = false;
      } else if (arg == "--max-failures") {
        options.max_failures = static_cast<std::size_t>(need_number());
      } else if (arg == "--quiet") {
        options.log = nullptr;
      } else if (arg == "--replay") {
        replay_path = need_value();
      } else if (arg == "--emit-corpus") {
        emit_dir = need_value();
      } else if (arg == "--list-oracles") {
        list_oracles = true;
      } else if (arg == "--help" || arg == "-h") {
        print_usage(std::cout);
        return kExitClean;
      } else {
        std::cerr << "sscor_fuzz: unknown option " << arg << "\n";
        print_usage(std::cerr);
        return kExitUsage;
      }
    }

    if (list_oracles) {
      for (const auto& oracle : sscor::fuzz::make_default_oracles()) {
        std::cout << oracle->name() << "\n";
      }
      return kExitClean;
    }
    if (!replay_path.empty()) return replay_command(replay_path);
    if (!emit_dir.empty()) return emit_corpus_command(emit_dir);

    const sscor::fuzz::FuzzReport report = sscor::fuzz::run_fuzz(options);
    std::cout << "sscor_fuzz: " << report.executed << " checks, "
              << report.skipped << " skipped, " << report.failures.size()
              << " violations (seed " << options.seed << ")\n";
    for (const auto& failure : report.failures) {
      std::cout << "  [" << failure.oracle << " iteration "
                << failure.iteration << "] " << failure.message << "\n";
      if (!failure.artifact_path.empty()) {
        std::cout << "    replay: sscor_fuzz --replay "
                  << failure.artifact_path << "\n";
      }
    }
    return report.ok() ? kExitClean : kExitViolation;
  } catch (const sscor::Error& e) {
    std::cerr << "sscor_fuzz: " << e.message() << "\n";
    return kExitUsage;
  }
}
