// Tests for the differential-fuzzing subsystem: the checked-in regression
// replays, a fixed-budget fuzz smoke run, the pipeline's chaff-volume cap,
// exceptions escaping an oracle, case determinism, the allocation guard,
// and the shrinker.
//
// SSCOR_CORPUS_DIR (a compile definition) points at tests/corpus/ in the
// source tree, where `sscor_fuzz --emit-corpus` keeps the seeds and the
// regression replay artifacts.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sscor/fuzz/alloc_guard.hpp"
#include "sscor/fuzz/fuzzer.hpp"
#include "sscor/fuzz/generators.hpp"
#include "sscor/fuzz/oracles.hpp"
#include "sscor/fuzz/shrinker.hpp"
#include "sscor/util/rng.hpp"

namespace sscor::fuzz {
namespace {

namespace fs = std::filesystem;

// --------------------------------------------------------------------------
// Regression replays: every historical bug's payload must pass on the fixed
// tree.  (Against the pre-fix tree each of these fails; that direction is
// exercised manually, not from CI.)

TEST(FuzzRegressions, CheckedInReplaysPassOnFixedTree) {
  std::size_t replayed = 0;
  for (const auto& entry : fs::directory_iterator(SSCOR_CORPUS_DIR)) {
    if (entry.path().extension() != ".replay") continue;
    const OracleResult result = replay_file(entry.path().string());
    EXPECT_TRUE(result.ok) << entry.path().filename().string() << ": "
                           << result.message;
    EXPECT_FALSE(result.skipped) << entry.path().filename().string();
    ++replayed;
  }
  // One artifact per historical bug: QIM boundary, pcap giant record,
  // pcapng require()-on-bad-input, flow-text trailing token and negative
  // size.
  EXPECT_GE(replayed, 5u);
}

TEST(FuzzRegressions, InMemoryCasesMatchTheirOracles) {
  auto oracles = make_default_oracles();
  for (const auto& regression : make_regression_cases()) {
    bool found = false;
    for (const auto& oracle : oracles) {
      if (oracle->name() != regression.oracle) continue;
      found = true;
      const OracleResult result = oracle->check(regression.payload);
      EXPECT_TRUE(result.ok) << regression.name << ": " << result.message;
      EXPECT_FALSE(result.skipped) << regression.name;
    }
    EXPECT_TRUE(found) << regression.name << " names unknown oracle "
                       << regression.oracle;
  }
}

// --------------------------------------------------------------------------
// Fixed-budget smoke run: a short deterministic fuzz session over all
// oracles (with the checked-in corpus seeds) finds nothing on a correct
// tree.

TEST(FuzzSmoke, ShortRunIsClean) {
  FuzzOptions options;
  options.seed = 1;
  options.iterations = 240;  // 40 cases per oracle
  options.corpus_dir = SSCOR_CORPUS_DIR;
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.executed, 240u);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << failure.oracle << " iteration " << failure.iteration
                  << ": " << failure.message;
  }
}

// --------------------------------------------------------------------------
// A pipeline case whose flow spans about 100 years: its expected chaff
// (rate x span, about 2.5e9 packets at 0.768 pkt/s) cannot be built, so
// every oracle on the shared pipeline skips it without allocating.

std::vector<std::uint8_t> huge_span_case() {
  std::ostringstream out;
  out << "# sscor-fuzz-case v1\n"
      << "p bits 2\np redundancy 1\np embed_delay 100000\np key 5\n"
      << "p wm 1\np chaff_millipps 768\np chaff_seed 3\n"
      << "p max_delay 1000000\np threshold 1\n"
      << "flow\n# sscor-flow v1\n";
  for (int i = 0; i < 40; ++i) out << i * 2'000'000 << " 100 0\n";
  out << 3'250'000'000'000'000 << " 100 0\n";
  const std::string text = out.str();
  return {text.begin(), text.end()};
}

TEST(FuzzPipeline, HugeSpanChaffCaseIsSkippedWithoutAllocating) {
  const std::vector<std::uint8_t> payload = huge_span_case();
  std::size_t checked = 0;
  for (const auto& oracle : make_default_oracles()) {
    const std::string_view name = oracle->name();
    if (name != "differential" && name != "batch_parity" &&
        name != "resilient_parity") {
      continue;
    }
    AllocationGuard guard(std::size_t{64} << 20);
    const OracleResult result = oracle->check(payload);
    EXPECT_TRUE(result.skipped) << name << ": " << result.message;
    EXPECT_FALSE(guard.tripped()) << name;
    ++checked;
  }
  EXPECT_EQ(checked, 3u);
}

// --------------------------------------------------------------------------
// An exception escaping an oracle's check is a violation with an artifact,
// never an abort of the run.

/// Fails every payload; throws on the generated case, or (with
/// `throw_when_shrunk`) only on payloads shorter than it.
class ThrowingOracle final : public Oracle {
 public:
  explicit ThrowingOracle(bool throw_when_shrunk)
      : throw_when_shrunk_(throw_when_shrunk) {}

  std::string_view name() const override { return "throwing"; }

  std::vector<std::uint8_t> generate(Rng&) override { return case_; }

  OracleResult check(const std::vector<std::uint8_t>& payload) override {
    if (!throw_when_shrunk_) throw std::bad_alloc();
    if (payload.size() < case_.size()) {
      throw std::runtime_error("shrink candidate blew up");
    }
    OracleResult result;
    result.ok = false;
    result.message = "plain violation";
    return result;
  }

  static constexpr std::size_t kCaseBytes = 8;

 private:
  bool throw_when_shrunk_;
  std::vector<std::uint8_t> case_ =
      std::vector<std::uint8_t>(kCaseBytes, 'x');
};

FuzzReport run_throwing_oracle(bool throw_when_shrunk,
                               const std::string& artifact_dir) {
  FuzzOptions options;
  options.iterations = 1;
  options.artifact_dir = artifact_dir;
  std::vector<std::unique_ptr<Oracle>> oracles;
  oracles.push_back(std::make_unique<ThrowingOracle>(throw_when_shrunk));
  return run_fuzz(options, std::move(oracles));
}

std::vector<std::uint8_t> artifact_payload(const FuzzFailure& failure) {
  std::ifstream in(failure.artifact_path, std::ios::binary);
  EXPECT_TRUE(in) << "no artifact at " << failure.artifact_path;
  return parse_replay_artifact(in).payload;
}

TEST(FuzzExceptions, ThrowingCheckBecomesAViolationWithItsPayload) {
  const fs::path dir =
      fs::temp_directory_path() / ("sscor-fuzz-throw-" +
                                   std::to_string(::getpid()));
  const FuzzReport report = run_throwing_oracle(false, dir.string());
  ASSERT_EQ(report.failures.size(), 1u);
  const FuzzFailure& failure = report.failures[0];
  EXPECT_NE(failure.message.find("std::bad_alloc"), std::string::npos)
      << failure.message;
  EXPECT_EQ(failure.payload.size(), ThrowingOracle::kCaseBytes);
  EXPECT_EQ(artifact_payload(failure), failure.payload);
  fs::remove_all(dir);
}

TEST(FuzzExceptions, ThrowingShrinkCandidateBecomesTheArtifact) {
  const fs::path dir =
      fs::temp_directory_path() / ("sscor-fuzz-shrink-throw-" +
                                   std::to_string(::getpid()));
  const FuzzReport report = run_throwing_oracle(true, dir.string());
  ASSERT_EQ(report.failures.size(), 1u);
  const FuzzFailure& failure = report.failures[0];
  EXPECT_NE(failure.message.find("shrink candidate blew up"),
            std::string::npos)
      << failure.message;
  EXPECT_LT(failure.payload.size(), ThrowingOracle::kCaseBytes);
  EXPECT_EQ(artifact_payload(failure), failure.payload);
  fs::remove_all(dir);
}

// --------------------------------------------------------------------------
// Determinism: a case is a pure function of the Rng handed to generate().

TEST(FuzzDeterminism, SameSeedSameCase) {
  for (const auto& oracle : make_default_oracles()) {
    Rng a(0xdecaf), b(0xdecaf);
    EXPECT_EQ(oracle->generate(a), oracle->generate(b)) << oracle->name();
  }
}

TEST(FuzzDeterminism, ReplayArtifactRoundTrips) {
  const std::vector<std::uint8_t> payload = {0x00, 0x41, 0xff, 0x0a, 0x7f};
  const std::string text =
      format_replay_artifact("reader_pcap", 9, 1234, payload);
  std::istringstream in(text);
  const ReplayCase parsed = parse_replay_artifact(in);
  EXPECT_EQ(parsed.oracle, "reader_pcap");
  EXPECT_EQ(parsed.seed, 9u);
  EXPECT_EQ(parsed.iteration, 1234u);
  EXPECT_EQ(parsed.payload, payload);
}

// --------------------------------------------------------------------------
// AllocationGuard: the budget enforcement the reader oracles rely on.
// Results are captured into locals and asserted outside the guard scope —
// a failing gtest assertion allocates, which a tripped guard would turn
// into a confusing secondary bad_alloc.

TEST(AllocGuard, TripsPastBudget) {
  bool threw = false;
  bool tripped = false;
  {
    AllocationGuard guard(1024);
    try {
      std::vector<char> big(std::size_t{1} << 16);
      (void)big;
    } catch (const std::bad_alloc&) {
      threw = true;
    }
    tripped = guard.tripped();
  }
  EXPECT_TRUE(threw);
  EXPECT_TRUE(tripped);
}

TEST(AllocGuard, UnderBudgetIsInvisible) {
  std::size_t allocated = 0;
  bool tripped = true;
  {
    AllocationGuard guard(std::size_t{1} << 20);
    std::vector<char> small(1024);
    (void)small;
    allocated = guard.allocated_bytes();
    tripped = guard.tripped();
  }
  EXPECT_GE(allocated, 1024u);
  EXPECT_FALSE(tripped);
}

TEST(AllocGuard, GuardsNestIndependently) {
  bool inner_threw = false;
  bool inner_tripped = false;
  bool outer_threw = false;
  bool outer_tripped = true;
  {
    AllocationGuard outer(std::size_t{64} << 20);
    {
      AllocationGuard inner(512);
      try {
        std::vector<char> big(std::size_t{1} << 14);
        (void)big;
      } catch (const std::bad_alloc&) {
        inner_threw = true;
      }
      inner_tripped = inner.tripped();
    }
    // The inner trip must not poison the outer guard's scope.
    try {
      std::vector<char> fine(std::size_t{1} << 14);
      (void)fine;
    } catch (const std::bad_alloc&) {
      outer_threw = true;
    }
    outer_tripped = outer.tripped();
  }
  EXPECT_TRUE(inner_threw);
  EXPECT_TRUE(inner_tripped);
  EXPECT_FALSE(outer_threw);
  EXPECT_FALSE(outer_tripped);
}

// --------------------------------------------------------------------------
// Shrinker: line pass then byte pass reduces to a locally-minimal payload.

TEST(Shrinker, ReducesToTheFailingByte) {
  const std::string text = "aaaa\nbbXbb\ncccc\ndddd\n";
  std::vector<std::uint8_t> payload(text.begin(), text.end());
  const auto still_fails = [](const std::vector<std::uint8_t>& bytes) {
    for (const std::uint8_t b : bytes) {
      if (b == 'X') return true;
    }
    return false;
  };
  ShrinkStats stats;
  const std::vector<std::uint8_t> shrunk =
      shrink_payload(payload, still_fails, 500, &stats);
  ASSERT_EQ(shrunk.size(), 1u);
  EXPECT_EQ(shrunk[0], 'X');
  EXPECT_EQ(stats.initial_bytes, payload.size());
  EXPECT_EQ(stats.final_bytes, 1u);
  EXPECT_GT(stats.attempts, 0u);
}

TEST(Shrinker, KeepsPayloadWhenNothingRemovable) {
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const auto still_fails = [&](const std::vector<std::uint8_t>& bytes) {
    return bytes == payload;  // only the exact payload fails
  };
  EXPECT_EQ(shrink_payload(payload, still_fails, 200, nullptr), payload);
}

// --------------------------------------------------------------------------
// Generators: structural sanity of the adversarial-flow generator.

TEST(Generators, AdversarialFlowsAreWellFormed) {
  Rng rng(7);
  AdversarialFlowOptions options;
  options.quant_step = 50'000;
  options.min_ipd = 100'001;  // > 2*quant_step
  for (int round = 0; round < 20; ++round) {
    const Flow flow = generate_adversarial_flow(rng, options);
    ASSERT_GE(flow.size(), options.min_packets);
    ASSERT_LE(flow.size(), options.max_packets);
    for (std::size_t i = 1; i < flow.size(); ++i) {
      ASSERT_GE(flow.packet(i).timestamp - flow.packet(i - 1).timestamp,
                options.min_ipd);
    }
  }
}

}  // namespace
}  // namespace sscor::fuzz
