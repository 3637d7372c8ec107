// The per-packet path does no hidden heap work.
//
// A passing require()/check_invariant() is one compare-and-branch: the
// message is built only when the check fails.  The engine bumps its
// per-event metrics through handles bound once, never through a by-name
// registry lookup.  A MatchContext build without a size constraint copies
// no candidate list, and a warm decode allocates only its result.  These
// tests pin these properties by counting heap bytes with the fuzz
// library's AllocationGuard (the global operator new replacement linked
// into this binary), and pin that a failing check still throws the same
// exception type with the same "<function>: <what>" text.
//
// Guarded results are copied into locals and asserted after the guard
// scope closes: a gtest assertion allocates.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <new>
#include <source_location>
#include <string>
#include <utility>
#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/correlation/online.hpp"
#include "sscor/experiment/stream_corpus.hpp"
#include "sscor/flow/flow.hpp"
#include "sscor/fuzz/alloc_guard.hpp"
#include "sscor/matching/batch_kernel.hpp"
#include "sscor/matching/match_context.hpp"
#include "sscor/net/five_tuple.hpp"
#include "sscor/stream/stream_engine.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/rng.hpp"
#include "sscor/watermark/decode_plan.hpp"
#include "sscor/watermark/embedder.hpp"

namespace sscor {
namespace {

using fuzz::AllocationGuard;

/// Large enough never to trip: the tests read the byte count instead.
constexpr std::size_t kBudget = std::size_t{1} << 30;

WatermarkParams small_watermark() {
  WatermarkParams params;
  params.bits = 8;
  params.redundancy = 2;
  return params;
}

CorrelatorConfig small_config() {
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{4});
  config.hamming_threshold = 2;
  return config;
}

experiment::StreamCorpus small_corpus() {
  experiment::StreamCorpusConfig config;
  config.watermarked_flows = 2;
  config.decoy_flows = 3;
  config.packets_per_flow = 150;
  config.seed = 3;
  config.watermark = small_watermark();
  return experiment::make_stream_corpus(config);
}

TEST(HotPath, PassingChecksDoNotAllocate) {
  // Literals well past the 15-byte small-string buffer: building them as a
  // std::string before the test would allocate on every call.
  std::vector<int> values(64);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int>(i);
  }
  std::size_t allocated = 0;
  {
    const AllocationGuard guard(kBudget);
    for (int i = 0; i < 10'000; ++i) {
      const int v = values[static_cast<std::size_t>(i) % values.size()];
      require(v >= 0, "a passing precondition with a long message");
      check_invariant(v < 64, "a passing invariant with a long message");
    }
    allocated = guard.allocated_bytes();
  }
  EXPECT_EQ(allocated, 0u);
}

TEST(HotPath, NonBoundaryIngestDoesNotAllocate) {
  const experiment::StreamCorpus corpus = small_corpus();
  stream::StreamOptions options;
  options.table.shards = 1;
  options.batch_size = 128;
  stream::StreamEngine engine(corpus.upstreams, small_config(), options);
  ASSERT_GT(corpus.packets.size(), 2 * options.batch_size);

  // One warm batch sizes the shard's pending queue; the next batch's
  // packets up to (not including) the flush boundary only queue.
  std::size_t next = 0;
  while (next < options.batch_size) engine.ingest(corpus.packets[next++]);
  ASSERT_EQ(engine.packets_ingested(), options.batch_size);

  std::size_t allocated = 0;
  std::size_t ingested = 0;
  {
    const AllocationGuard guard(kBudget);
    while ((next + 1) % options.batch_size != 0) {
      engine.ingest(corpus.packets[next++]);
      ++ingested;
    }
    allocated = guard.allocated_bytes();
  }
  EXPECT_EQ(ingested, options.batch_size - 1);
  EXPECT_EQ(allocated, 0u);

  // The engine still works normally afterwards.
  while (next < corpus.packets.size()) engine.ingest(corpus.packets[next++]);
  engine.finish();
  EXPECT_EQ(engine.drain_verdicts().size(),
            corpus.tuples.size() * corpus.upstreams.size());
}

TEST(HotPath, BufferAndDecidedPairAccessorsDoNotAllocate) {
  const experiment::StreamCorpus corpus = small_corpus();
  const auto upstream =
      std::make_shared<const OnlineUpstream>(corpus.upstreams[0]);
  const auto buffer = std::make_shared<AppendOnlyFlow>();
  OnlineCorrelator pair(upstream, buffer, small_config());

  // A first packet long after every upstream window closes finalises all
  // windows empty: Greedy+ needs a complete matching, so the pair rejects
  // at once.
  const TimeUs last_up = upstream->timestamps().back();
  buffer->append(PacketRecord{last_up + seconds(std::int64_t{60}), 100});
  EXPECT_FALSE(pair.ingest_appended());
  ASSERT_TRUE(pair.decided());
  ASSERT_TRUE(pair.early_rejected());

  std::size_t allocated = 0;
  TimeUs seen = 0;
  bool undecided = false;
  {
    const AllocationGuard guard(kBudget);
    for (int i = 0; i < 10'000; ++i) {
      seen += buffer->last_timestamp();
      undecided = undecided || pair.ingest_appended();
    }
    allocated = guard.allocated_bytes();
  }
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(seen, 10'000 * (last_up + seconds(std::int64_t{60})));
  EXPECT_FALSE(undecided);
}

TEST(HotPath, UnconstrainedContextBuildAllocatesLinearly) {
  // The sweep's heaviest pairs: 7 s of perturbation and 5 pkt/s of chaff
  // make every matching window span many downstream packets.  Without a
  // size constraint the candidate sets are those windows, so the build
  // must allocate in proportion to the two flows, not to the windows'
  // total width.
  const traffic::InteractiveSessionModel model;
  const Flow up = model.generate(1000, 0, 71);
  const traffic::UniformPerturber perturber(seconds(std::int64_t{7}), 72);
  const traffic::PoissonChaffInjector chaff(5.0, 73);
  const Flow down = chaff.apply(perturber.apply(up));
  const DurationUs max_delay = seconds(std::int64_t{7});
  // Warm-up: binds the build's histogram handles.
  (void)MatchContext::build(up, down, max_delay, std::nullopt);

  std::size_t allocated = 0;
  bool pruned = false;
  {
    const AllocationGuard guard(kBudget);
    const MatchContext context =
        MatchContext::build(up, down, max_delay, std::nullopt);
    pruned = context.prune_ok();
    allocated = guard.allocated_bytes();
  }
  EXPECT_TRUE(pruned);
  const std::size_t packets = up.size() + down.size();
  EXPECT_LT(allocated, 24 * packets)
      << allocated << " bytes for " << up.size() << " + " << down.size()
      << " packets";
}

TEST(HotPath, WarmDecodeAllocatesOnlyItsResult) {
  // A sweep-shaped correlated pair: a 1000-packet flow carrying the
  // paper's 24-bit watermark, 7 s of perturbation and 3 pkt/s of chaff.
  // Once warm, the per-thread plan storage and workspace are sized, so a
  // decode allocates only its result watermark, one byte per bit.
  const WatermarkParams params;
  Rng rng(82);
  const WatermarkedFlow marked = Embedder(params, 83).embed(
      traffic::InteractiveSessionModel().generate(1000, 0, 81),
      Watermark::random(params.bits, rng));
  const Flow down = traffic::PoissonChaffInjector(3.0, 85).apply(
      traffic::UniformPerturber(seconds(std::int64_t{7}), 84)
          .apply(marked.flow));
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{7});
  const MatchContext context =
      MatchContext::build(marked.flow, down, config.max_delay, std::nullopt);
  const DecodePlan plan(marked.schedule, marked.watermark);
  // {bytes allocated, bits decoded} by a second call of `decode`.
  const auto warm = [](const auto& decode) {
    (void)decode();
    const AllocationGuard guard(kBudget);
    const std::size_t bits = decode().best_watermark.size();
    return std::pair{guard.allocated_bytes(), bits};
  };
  for (const Algorithm algorithm : {Algorithm::kGreedy,
                                    Algorithm::kGreedyPlus,
                                    Algorithm::kGreedyStar}) {
    const Correlator correlator(config, algorithm);
    batch::BatchDecoder decoder(config);
    const auto correlate = warm(
        [&] { return correlator.correlate(marked, down, &context); });
    const auto decode_one =
        warm([&] { return decoder.decode_one(algorithm, context, plan); });
    for (const auto& [bytes, bits] : {correlate, decode_one}) {
      EXPECT_EQ(bits, params.bits) << to_string(algorithm);
      EXPECT_LE(bytes, params.bits) << to_string(algorithm);
    }
  }
}

TEST(HotPath, AbortedDecodeIsTimedAndCounted) {
  // A decode that dies by exception, here its one allocation failing,
  // still records its latency sample and counts as aborted: the abort path
  // itself allocates nothing.
  const WatermarkParams params = small_watermark();
  Rng rng(86);
  const WatermarkedFlow marked = Embedder(params, 87).embed(
      traffic::InteractiveSessionModel().generate(300, 0, 88),
      Watermark::random(params.bits, rng));
  const Flow down =
      traffic::UniformPerturber(seconds(std::int64_t{4}), 89)
          .apply(marked.flow);
  const CorrelatorConfig config = small_config();
  const MatchContext context =
      MatchContext::build(marked.flow, down, config.max_delay, std::nullopt);
  const Correlator correlator(config, Algorithm::kGreedyPlus);
  (void)correlator.correlate(marked, down, &context);  // binds the handles
  const metrics::Histogram& latency =
      metrics::histogram("correlate.latency_us");
  const metrics::Counter& aborted = metrics::counter("correlate.aborted");
  const std::uint64_t samples = latency.count();
  const std::uint64_t aborts = aborted.value();
  bool threw = false;
  {
    const AllocationGuard guard(1);
    try {
      (void)correlator.correlate(marked, down, &context);
    } catch (const std::bad_alloc&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(latency.count(), samples + 1);
  EXPECT_EQ(aborted.value(), aborts + 1);
}

/// Runs `body`, which must throw exactly `E`; returns its what().
template <typename E, typename Body>
std::string thrown_text(Body body) {
  try {
    body();
  } catch (const E& e) {
    return e.what();
  } catch (...) {
    ADD_FAILURE() << "threw an exception of another type";
    return {};
  }
  ADD_FAILURE() << "did not throw";
  return {};
}

/// True when `text` is "<a signature naming `function`><message>".
bool names_then_says(const std::string& text, const std::string& function,
                     const std::string& message) {
  if (text.size() < message.size() ||
      text.compare(text.size() - message.size(), message.size(), message) !=
          0) {
    return false;
  }
  return text.substr(0, text.size() - message.size()).find(function) !=
         std::string::npos;
}

TEST(HotPath, FailingChecksKeepTheirTypeAndText) {
  // The checks report the calling function, so build the expected prefix
  // from a location captured in this same function.
  const std::string here = std::source_location::current().function_name();
  const std::string path = "/var/lib/sscor/missing.wal";

  std::string literal;
  try {
    require(false, "a failing precondition message");
  } catch (const InvalidArgument& e) {
    literal = e.what();
  }
  EXPECT_EQ(literal, here + ": a failing precondition message");

  std::string composed;
  try {
    require(path.empty(), "cannot open state file " + path);
  } catch (const InvalidArgument& e) {
    composed = e.what();
  }
  EXPECT_EQ(composed, here + ": cannot open state file " + path);

  std::string invariant;
  try {
    check_invariant(false, "a violated internal invariant");
  } catch (const InternalError& e) {
    invariant = e.what();
  }
  EXPECT_EQ(invariant, here + ": invariant violated: a violated internal "
                              "invariant");

  std::string composed_invariant;
  try {
    check_invariant(path.empty(), "state file " + path + " vanished");
  } catch (const InternalError& e) {
    composed_invariant = e.what();
  }
  EXPECT_EQ(composed_invariant,
            here + ": invariant violated: state file " + path + " vanished");

  // Library call sites: the type, the checking function's name, then the
  // message.
  const std::string empty_buffer = thrown_text<InvalidArgument>(
      [] { (void)AppendOnlyFlow().last_timestamp(); });
  EXPECT_TRUE(names_then_says(empty_buffer, "AppendOnlyFlow::last_timestamp",
                              ": last_timestamp of an empty buffer"))
      << empty_buffer;

  const std::string address = thrown_text<InvalidArgument>(
      [] { (void)net::Ipv4Address::parse("300.1.2.3"); });
  EXPECT_TRUE(names_then_says(address, "Ipv4Address::parse",
                              ": malformed IPv4 address: 300.1.2.3"))
      << address;

  const experiment::StreamCorpus corpus = small_corpus();
  stream::StreamEngine engine(corpus.upstreams, small_config());
  engine.finish();
  const std::string finished = thrown_text<InternalError>(
      [&engine] { (void)engine.snapshot(); });
  EXPECT_TRUE(names_then_says(finished, "StreamEngine::snapshot",
                              ": invariant violated: snapshot after finish()"))
      << finished;
}

}  // namespace
}  // namespace sscor
