#include "sscor/fuzz/fuzzer.hpp"

#include <algorithm>
#include <charconv>
#include <exception>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "sscor/fuzz/shrinker.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/rng.hpp"

namespace sscor::fuzz {
namespace {

constexpr const char* kReplayMagic = "# sscor-fuzz-replay v1";

/// FNV-1a, the per-oracle salt of the iteration seed.  Stable across
/// platforms (unlike std::hash) so a (seed, iteration, oracle) triple means
/// the same case everywhere.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t case_seed(std::uint64_t master, std::uint64_t iteration,
                        std::string_view oracle) {
  return mix_seeds(mix_seeds(master, iteration), fnv1a(oracle));
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    throw IoError("replay payload-hex has odd length");
  }
  std::vector<std::uint8_t> bytes;
  bytes.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw IoError("replay payload-hex has a non-hex character");
    }
    bytes.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return bytes;
}

void load_corpus(const std::string& dir,
                 const std::vector<std::unique_ptr<Oracle>>& oracles,
                 std::ostream* log) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (dir.empty() || !fs::is_directory(dir, ec)) return;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // deterministic seed order
  for (const auto& path : files) {
    const std::string stem = path.filename().string();
    for (const auto& oracle : oracles) {
      const std::string prefix = std::string(oracle->name()) + ".";
      if (stem.rfind(prefix, 0) != 0) continue;
      std::ifstream in(path, std::ios::binary);
      if (!in) continue;
      std::vector<std::uint8_t> bytes(
          (std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>());
      oracle->add_seed(std::move(bytes));
      if (log != nullptr) {
        *log << "corpus: " << stem << " -> " << oracle->name() << "\n";
      }
      break;
    }
  }
}

std::uint64_t parse_u64_token(const std::string& token,
                              const char* what) {
  std::uint64_t value = 0;
  const char* const begin = token.data();
  const char* const end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    throw IoError(std::string("replay artifact has a malformed ") + what +
                  " line");
  }
  return value;
}

/// The violation message for the exception being handled, naming it.  Call
/// only from a catch handler.
std::string escaped_exception_message() {
  try {
    throw;
  } catch (const std::exception& e) {
    return std::string("check threw an exception: ") + e.what();
  } catch (...) {
    return "check threw a non-standard exception";
  }
}

/// Thrown out of the shrink predicate to stop shrinking at the first
/// candidate whose check threw; that candidate becomes the artifact.
struct ShrinkCandidateThrew {
  std::vector<std::uint8_t> payload;
  std::string message;
};

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& options) {
  return run_fuzz(options, make_default_oracles());
}

FuzzReport run_fuzz(const FuzzOptions& options,
                    std::vector<std::unique_ptr<Oracle>> oracles) {
  if (!options.only.empty()) {
    std::vector<std::unique_ptr<Oracle>> kept;
    for (auto& oracle : oracles) {
      const bool wanted =
          std::find(options.only.begin(), options.only.end(),
                    std::string(oracle->name())) != options.only.end();
      if (wanted) kept.push_back(std::move(oracle));
    }
    if (kept.empty()) {
      throw InvalidArgument("no oracle matches the requested names");
    }
    oracles = std::move(kept);
  }
  load_corpus(options.corpus_dir, oracles, options.log);

  FuzzReport report;
  for (std::uint64_t i = 0; i < options.iterations; ++i) {
    Oracle& oracle = *oracles[i % oracles.size()];
    Rng rng(case_seed(options.seed, i, oracle.name()));
    const std::vector<std::uint8_t> payload = oracle.generate(rng);
    // An exception escaping the check is a violation, not an abort.
    OracleResult result;
    bool threw = false;
    try {
      result = oracle.check(payload);
    } catch (...) {
      threw = true;
      result.ok = false;
      result.message = escaped_exception_message();
    }
    ++report.executed;
    if (result.skipped) {
      ++report.skipped;
      continue;
    }
    if (result.ok) continue;

    FuzzFailure failure;
    failure.oracle = oracle.name();
    failure.iteration = i;
    failure.message = result.message;
    failure.payload = payload;
    // A payload whose check threw is reported as it is: shrinking would
    // only run the throwing path again.
    if (options.shrink && !threw) {
      ShrinkStats stats;
      try {
        failure.payload = shrink_payload(
            failure.payload,
            [&oracle](const std::vector<std::uint8_t>& candidate) {
              try {
                const OracleResult r = oracle.check(candidate);
                return !r.skipped && !r.ok;
              } catch (...) {
                throw ShrinkCandidateThrew{candidate,
                                           escaped_exception_message()};
              }
            },
            options.max_shrink_attempts, &stats);
        // The shrunk payload's message is the one worth reporting.
        const OracleResult shrunk = oracle.check(failure.payload);
        if (!shrunk.ok && !shrunk.message.empty()) {
          failure.message = shrunk.message;
        }
        if (options.log != nullptr) {
          *options.log << "shrink: " << stats.initial_bytes << " -> "
                       << stats.final_bytes << " bytes in " << stats.attempts
                       << " attempts\n";
        }
      } catch (const ShrinkCandidateThrew& thrown) {
        failure.payload = thrown.payload;
        failure.message = thrown.message;
        if (options.log != nullptr) {
          *options.log << "shrink: stopped at a " << thrown.payload.size()
                       << "-byte candidate whose check threw\n";
        }
      }
    }
    if (!options.artifact_dir.empty()) {
      namespace fs = std::filesystem;
      std::error_code ec;
      fs::create_directories(options.artifact_dir, ec);
      const fs::path path =
          fs::path(options.artifact_dir) /
          (failure.oracle + "-seed" + std::to_string(options.seed) + "-iter" +
           std::to_string(i) + ".replay");
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (out) {
        out << format_replay_artifact(failure.oracle, options.seed, i,
                                      failure.payload);
        failure.artifact_path = path.string();
      }
    }
    if (options.log != nullptr) {
      *options.log << "VIOLATION [" << failure.oracle << " iteration " << i
                   << "] " << failure.message << "\n";
      if (!failure.artifact_path.empty()) {
        *options.log << "  replay: sscor_fuzz --replay "
                     << failure.artifact_path << "\n";
      }
    }
    report.failures.push_back(std::move(failure));
    if (options.max_failures != 0 &&
        report.failures.size() >= options.max_failures) {
      break;
    }
  }
  return report;
}

std::string format_replay_artifact(const std::string& oracle,
                                   std::uint64_t seed,
                                   std::uint64_t iteration,
                                   const std::vector<std::uint8_t>& payload) {
  std::ostringstream out;
  out << kReplayMagic << "\n"
      << "oracle " << oracle << "\n"
      << "seed " << seed << "\n"
      << "iteration " << iteration << "\n"
      << "payload-hex " << to_hex(payload) << "\n";
  return out.str();
}

ReplayCase parse_replay_artifact(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kReplayMagic) {
    throw IoError("missing sscor-fuzz-replay header");
  }
  ReplayCase replay;
  bool have_oracle = false;
  bool have_payload = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string tag, value;
    if (!(fields >> tag >> value)) {
      throw IoError("malformed replay line: " + line);
    }
    if (tag == "oracle") {
      replay.oracle = value;
      have_oracle = true;
    } else if (tag == "seed") {
      replay.seed = parse_u64_token(value, "seed");
    } else if (tag == "iteration") {
      replay.iteration = parse_u64_token(value, "iteration");
    } else if (tag == "payload-hex") {
      replay.payload = from_hex(value);
      have_payload = true;
    } else {
      throw IoError("unknown replay tag: " + tag);
    }
  }
  if (!have_oracle || !have_payload) {
    throw IoError("replay artifact is missing the oracle or payload line");
  }
  return replay;
}

OracleResult replay_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open replay artifact: " + path);
  const ReplayCase replay = parse_replay_artifact(in);
  auto oracles = make_default_oracles();
  for (const auto& oracle : oracles) {
    if (oracle->name() == replay.oracle) {
      return oracle->check(replay.payload);
    }
  }
  throw IoError("replay artifact names unknown oracle: " + replay.oracle);
}

}  // namespace sscor::fuzz
