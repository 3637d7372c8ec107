// The deterministic fuzzing driver.
//
// Drives the oracles round-robin for a fixed iteration budget.  Iteration i
// of oracle o draws every random choice from
//
//   Rng(mix_seeds(mix_seeds(master_seed, i), fnv1a(o.name)))
//
// so a (seed, iteration) pair regenerates its case bit-for-bit on any
// machine — there is no global state, no time dependence, and no ordering
// coupling between iterations.  On a violation the payload is shrunk
// (shrinker.hpp) and written as a replayable artifact:
//
//   # sscor-fuzz-replay v1
//   oracle <name>
//   seed <master seed>
//   iteration <i>
//   payload-hex <shrunk payload bytes, hex>
//
// `sscor_fuzz --replay <file>` re-executes exactly that payload against the
// named oracle; the seed/iteration lines are provenance for regenerating
// the unshrunk original.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sscor/fuzz/oracles.hpp"

namespace sscor::fuzz {

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::uint64_t iterations = 1000;
  /// Restrict to these oracle names; empty = all.
  std::vector<std::string> only;
  /// Directory of corpus seeds; files named `<oracle>.*` are offered to
  /// that oracle as mutation bases.  Empty = synthesize everything.
  std::string corpus_dir;
  /// Where violation artifacts are written; empty = don't write files.
  std::string artifact_dir;
  bool shrink = true;
  std::size_t max_shrink_attempts = 800;
  /// Stop after this many violations (0 = keep going).
  std::size_t max_failures = 10;
  /// Progress/violation log; null = silent.
  std::ostream* log = nullptr;
};

struct FuzzFailure {
  std::string oracle;
  std::uint64_t iteration = 0;
  std::string message;
  std::vector<std::uint8_t> payload;  ///< shrunk payload
  std::string artifact_path;          ///< empty when artifact_dir unset
};

struct FuzzReport {
  std::uint64_t executed = 0;  ///< checks run (violations included)
  std::uint64_t skipped = 0;   ///< checks whose precondition didn't hold
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Runs the default oracles (make_default_oracles()).  An exception that
/// escapes an oracle's check — on the generated case or on a shrink
/// candidate — is reported as a violation naming it, with the payload
/// that threw as its artifact; it never aborts the run.
FuzzReport run_fuzz(const FuzzOptions& options);

/// Same, over the given oracles.
FuzzReport run_fuzz(const FuzzOptions& options,
                    std::vector<std::unique_ptr<Oracle>> oracles);

/// Serializes one replay artifact (see format above).
std::string format_replay_artifact(const std::string& oracle,
                                   std::uint64_t seed,
                                   std::uint64_t iteration,
                                   const std::vector<std::uint8_t>& payload);

struct ReplayCase {
  std::string oracle;
  std::uint64_t seed = 0;
  std::uint64_t iteration = 0;
  std::vector<std::uint8_t> payload;
};

/// Parses a replay artifact; throws IoError on malformed input.
ReplayCase parse_replay_artifact(std::istream& in);

/// Replays an artifact file against its oracle.  Throws IoError when the
/// file is unreadable or names an unknown oracle.
OracleResult replay_file(const std::string& path);

}  // namespace sscor::fuzz
