// The incremental-vs-batch parity suite for the streaming engine.
//
// Property under test (the design invariant of src/sscor/stream/): for a
// randomized capture — watermarked flows under perturbation and chaff,
// decoys, adversarial flows from the fuzz generators, and packet loss —
// StreamEngine's verdicts equal the batch pipeline's, for any shard count
// and any thread count.  With early exits disabled every CorrelationResult
// byte matches; with them enabled the decisions still agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/experiment/stream_corpus.hpp"
#include "sscor/fuzz/generators.hpp"
#include "sscor/stream/packet_source.hpp"
#include "sscor/stream/stream_engine.hpp"
#include "sscor/util/error.hpp"

namespace sscor::stream {
namespace {

/// One randomized capture with its per-pair batch reference results.
struct ParityCase {
  std::vector<WatermarkedFlow> upstreams;
  std::vector<net::FiveTuple> tuples;
  std::vector<Flow> flows;  ///< suspicious flows, post-loss, per tuple
  std::vector<StreamPacket> packets;  ///< merged arrival stream
};

WatermarkParams parity_watermark() {
  WatermarkParams params;
  params.bits = 8;
  params.redundancy = 2;  // 32 pairs -> 64 relevant packets
  return params;
}

CorrelatorConfig parity_config() {
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{4});
  config.hamming_threshold = 2;
  return config;
}

ParityCase make_parity_case(std::uint64_t seed) {
  experiment::StreamCorpusConfig corpus_config;
  corpus_config.watermarked_flows = 2;
  corpus_config.decoy_flows = 3;
  corpus_config.packets_per_flow = 150;
  corpus_config.chaff_rate = 2.0;
  corpus_config.seed = seed;
  corpus_config.watermark = parity_watermark();
  const experiment::StreamCorpus corpus =
      experiment::make_stream_corpus(corpus_config);

  ParityCase parity;
  parity.upstreams = corpus.upstreams;
  parity.tuples = corpus.tuples;

  // Packet loss: drop a deterministic ~11% of each suspicious flow.  The
  // batch reference is computed on the SAME lossy flows, so parity is
  // unaffected — the point is that the engine sees realistic gaps.
  for (std::size_t k = 0; k < corpus.downstream.size(); ++k) {
    std::vector<PacketRecord> kept;
    const auto packets = corpus.downstream[k].packets();
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if ((i + k) % 9 != 7) kept.push_back(packets[i]);
    }
    parity.flows.emplace_back(std::move(kept), corpus.tuples[k].to_string());
  }

  // Two adversarial flows from the fuzz generators: duplicate-timestamp
  // runs and micro-bursts, the shapes most likely to disturb incremental
  // window maintenance.
  Rng rng(mix_seeds(seed, 0xadf10e5ULL));
  for (std::size_t j = 0; j < 2; ++j) {
    fuzz::AdversarialFlowOptions options;
    options.min_packets = 64;
    options.max_packets = 96;
    options.duplicate_prob = 0.15;
    options.burst_prob = 0.15;
    Flow flow = fuzz::generate_adversarial_flow(rng, options);
    const net::FiveTuple tuple = experiment::stream_corpus_tuple(30 + j);
    flow.set_id(tuple.to_string());
    parity.tuples.push_back(tuple);
    parity.flows.push_back(std::move(flow));
  }

  for (std::size_t k = 0; k < parity.flows.size(); ++k) {
    for (const PacketRecord& packet : parity.flows[k].packets()) {
      parity.packets.push_back(StreamPacket{parity.tuples[k], packet});
    }
  }
  std::stable_sort(parity.packets.begin(), parity.packets.end(),
                   [](const StreamPacket& a, const StreamPacket& b) {
                     return a.packet.timestamp < b.packet.timestamp;
                   });
  return parity;
}

/// Batch reference: results[flow][upstream].
std::vector<std::vector<CorrelationResult>> batch_results(
    const ParityCase& parity, Algorithm algorithm) {
  const Correlator correlator(parity_config(), algorithm);
  std::vector<std::vector<CorrelationResult>> results(parity.flows.size());
  for (std::size_t k = 0; k < parity.flows.size(); ++k) {
    for (const WatermarkedFlow& upstream : parity.upstreams) {
      results[k].push_back(correlator.correlate(upstream, parity.flows[k]));
    }
  }
  return results;
}

std::vector<StreamVerdict> run_engine(const ParityCase& parity,
                                      StreamOptions options) {
  StreamEngine engine(parity.upstreams, parity_config(), std::move(options));
  for (const StreamPacket& packet : parity.packets) engine.ingest(packet);
  engine.finish();
  return engine.drain_verdicts();
}

void expect_identical_result(const CorrelationResult& got,
                             const CorrelationResult& want,
                             const std::string& label) {
  EXPECT_EQ(got.algorithm, want.algorithm) << label;
  EXPECT_EQ(got.correlated, want.correlated) << label;
  EXPECT_EQ(got.hamming, want.hamming) << label;
  EXPECT_EQ(got.best_watermark, want.best_watermark) << label;
  EXPECT_EQ(got.cost, want.cost) << label;
  EXPECT_EQ(got.matching_complete, want.matching_complete) << label;
  EXPECT_EQ(got.cost_bound_hit, want.cost_bound_hit) << label;
  EXPECT_EQ(got.interrupted, want.interrupted) << label;
  EXPECT_EQ(got.stop_reason, want.stop_reason) << label;
  EXPECT_EQ(got.degraded, want.degraded) << label;
}

std::map<net::FiveTuple, std::size_t> flow_index_of(const ParityCase& parity) {
  std::map<net::FiveTuple, std::size_t> index;
  for (std::size_t k = 0; k < parity.tuples.size(); ++k) {
    index[parity.tuples[k]] = k;
  }
  return index;
}

// With early exits off, every verdict's CorrelationResult must match the
// batch pipeline byte for byte — at shard counts 1, 2, and 8.
TEST(StreamParity, ByteIdenticalToBatchAcrossShardCounts) {
  for (const std::uint64_t seed : {1u, 2u}) {
    const ParityCase parity = make_parity_case(seed);
    const auto batch = batch_results(parity, Algorithm::kGreedyPlus);
    const auto index = flow_index_of(parity);

    std::vector<StreamVerdict> reference;  // the shards=1 run
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{8}}) {
      StreamOptions options;
      options.early_exit = false;
      options.table.shards = shards;
      options.batch_size = 97;  // deliberately not a divisor of anything
      const std::vector<StreamVerdict> verdicts = run_engine(parity, options);

      ASSERT_EQ(verdicts.size(),
                parity.flows.size() * parity.upstreams.size())
          << "seed " << seed << ", shards " << shards;
      for (const StreamVerdict& v : verdicts) {
        const std::string label = "seed " + std::to_string(seed) +
                                  ", shards " + std::to_string(shards) +
                                  ", flow " + v.tuple.to_string() +
                                  ", upstream " + std::to_string(v.upstream);
        const auto it = index.find(v.tuple);
        ASSERT_NE(it, index.end()) << label;
        const CorrelationResult& want = batch[it->second][v.upstream];
        expect_identical_result(v.result, want, label);
        EXPECT_EQ(v.kind, want.correlated ? VerdictKind::kPositive
                                          : VerdictKind::kNegative)
            << label;
        EXPECT_FALSE(v.early) << label;
        EXPECT_EQ(v.packets_seen, parity.flows[it->second].size()) << label;
      }

      // Verdict order — (flow first-arrival, upstream) — is also
      // shard-count invariant.
      if (reference.empty()) {
        reference = verdicts;
      } else {
        for (std::size_t i = 0; i < verdicts.size(); ++i) {
          EXPECT_EQ(verdicts[i].tuple, reference[i].tuple);
          EXPECT_EQ(verdicts[i].flow_seq, reference[i].flow_seq);
          EXPECT_EQ(verdicts[i].upstream, reference[i].upstream);
        }
      }
    }
  }
}

// At least one corpus pair must actually correlate, or the suite proves
// parity on rejections only.
TEST(StreamParity, CorpusContainsPositives) {
  const ParityCase parity = make_parity_case(1);
  const auto batch = batch_results(parity, Algorithm::kGreedyPlus);
  std::size_t positives = 0;
  for (std::size_t k = 0; k < parity.flows.size(); ++k) {
    for (const CorrelationResult& result : batch[k]) {
      if (result.correlated) ++positives;
    }
  }
  EXPECT_GE(positives, 2u) << "watermarked carriers should decode";
}

// With early exits on (the deployment default), decisions still agree
// with batch for every pair, and early rejections freeze their cost at
// the prefix inspected.
TEST(StreamParity, EarlyExitDecisionsAgreeWithBatch) {
  for (const std::uint64_t seed : {1u, 2u}) {
    const ParityCase parity = make_parity_case(seed);
    const auto batch = batch_results(parity, Algorithm::kGreedyPlus);
    const auto index = flow_index_of(parity);

    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      StreamOptions options;
      options.early_exit = true;
      options.table.shards = shards;
      const std::vector<StreamVerdict> verdicts = run_engine(parity, options);

      ASSERT_EQ(verdicts.size(),
                parity.flows.size() * parity.upstreams.size());
      std::size_t early = 0;
      for (const StreamVerdict& v : verdicts) {
        const std::string label = "seed " + std::to_string(seed) +
                                  ", shards " + std::to_string(shards) +
                                  ", flow " + v.tuple.to_string() +
                                  ", upstream " + std::to_string(v.upstream);
        const CorrelationResult& want = batch[index.at(v.tuple)][v.upstream];
        EXPECT_EQ(v.result.correlated, want.correlated) << label;
        EXPECT_EQ(v.kind, want.correlated ? VerdictKind::kPositive
                                          : VerdictKind::kNegative)
            << label;
        if (v.early) {
          ++early;
          EXPECT_FALSE(v.result.correlated) << label;
          EXPECT_EQ(v.result.cost, v.packets_seen) << label;
        } else {
          expect_identical_result(v.result, want, label);
        }
      }
      EXPECT_GT(early, 0u)
          << "no pair rejected early; the corpus should contain some";
    }
  }
}

// Worker-thread count must never affect verdicts — byte for byte.
TEST(StreamParity, ThreadCountNeverAffectsVerdicts) {
  const ParityCase parity = make_parity_case(3);

  StreamOptions serial;
  serial.table.shards = 8;
  serial.threads = 1;
  const std::vector<StreamVerdict> golden = run_engine(parity, serial);

  StreamOptions threaded = serial;
  threaded.threads = 4;
  const std::vector<StreamVerdict> verdicts = run_engine(parity, threaded);

  ASSERT_EQ(verdicts.size(), golden.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const std::string label = "verdict " + std::to_string(i);
    EXPECT_EQ(verdicts[i].tuple, golden[i].tuple) << label;
    EXPECT_EQ(verdicts[i].flow_seq, golden[i].flow_seq) << label;
    EXPECT_EQ(verdicts[i].upstream, golden[i].upstream) << label;
    EXPECT_EQ(verdicts[i].kind, golden[i].kind) << label;
    EXPECT_EQ(verdicts[i].early, golden[i].early) << label;
    expect_identical_result(verdicts[i].result, golden[i].result, label);
  }
}

// ---------------------------------------------------------------------------
// Golden verdict records (tests/golden/stream_verdicts_small.csv).

/// The corpus seed the golden records were generated from.
constexpr std::uint64_t kGoldenCorpusSeed = 9;

/// Every verdict of the golden runs over make_stream_corpus (default
/// config, kGoldenCorpusSeed), one CSV row each, in drain order.
std::string golden_verdict_rows(std::size_t shards) {
  experiment::StreamCorpusConfig corpus_config;
  corpus_config.seed = kGoldenCorpusSeed;
  const experiment::StreamCorpus corpus =
      experiment::make_stream_corpus(corpus_config);

  struct Run {
    const char* name;
    Algorithm algorithm;
    bool early_exit;
    std::uint64_t max_cost_per_attempt;  // 0 = no admission control
  };
  // With early exits off every pair takes the end-of-stream decode; the
  // admission-controlled run degrades the pairs whose Greedy+ decode
  // exceeds the per-attempt cost cap.
  const Run runs[] = {
      {"greedy", Algorithm::kGreedy, true, 0},
      {"greedy-final", Algorithm::kGreedy, false, 0},
      {"greedy+", Algorithm::kGreedyPlus, true, 0},
      {"greedy+-final", Algorithm::kGreedyPlus, false, 0},
      {"greedy*", Algorithm::kGreedyStar, true, 0},
      {"greedy*-final", Algorithm::kGreedyStar, false, 0},
      {"greedy+-admission", Algorithm::kGreedyPlus, false, 5000},
  };

  std::ostringstream out;
  out << "run,flow_seq,upstream,kind,early,packets_seen,correlated,"
         "matching_complete,hamming,cost,best_watermark\n";
  for (const Run& run : runs) {
    StreamOptions options;
    options.algorithm = run.algorithm;
    options.early_exit = run.early_exit;
    options.table.shards = shards;
    options.admission.max_cost_per_attempt = run.max_cost_per_attempt;
    StreamEngine engine(corpus.upstreams, CorrelatorConfig{}, options);
    for (const StreamPacket& packet : corpus.packets) engine.ingest(packet);
    engine.finish();
    for (const StreamVerdict& v : engine.drain_verdicts()) {
      const CorrelationResult& r = v.result;
      out << run.name << ',' << v.flow_seq << ',' << v.upstream << ','
          << to_string(v.kind) << ',' << v.early << ',' << v.packets_seen
          << ',' << r.correlated << ',' << r.matching_complete << ','
          << r.hamming << ',' << r.cost << ',' << r.best_watermark.to_string()
          << '\n';
    }
  }
  return out.str();
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(SSCOR_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// The verdict stream of Greedy, Greedy+ and Greedy* (early exits on and
// off) and of an admission-controlled Greedy+ run, pinned byte for byte at
// shard counts 1 and 8.
TEST(GoldenVerdicts, MatchCheckedInRecordsAtShardsOneAndEight) {
  const std::string golden = read_golden("stream_verdicts_small.csv");
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    EXPECT_EQ(golden_verdict_rows(shards), golden) << "shards " << shards;
  }
}

// ---------------------------------------------------------------------------
// The text feed source.

TEST(FlowTextSource, ParsesFeedAndMapsTokensDeterministically) {
  std::istringstream in(
      "# sscor-stream v1\n"
      "\n"
      "alpha 1000 64 0\n"
      "# a comment between packets\n"
      "beta 1500 128 1\n"
      "alpha 2000 64 0\n");
  FlowTextStreamSource source(in);

  const auto p1 = source.next();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->tuple, FlowTextStreamSource::tuple_for_token("alpha"));
  EXPECT_EQ(p1->packet.timestamp, 1000);
  EXPECT_EQ(p1->packet.size, 64u);
  EXPECT_FALSE(p1->packet.is_chaff);

  const auto p2 = source.next();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->tuple, FlowTextStreamSource::tuple_for_token("beta"));
  EXPECT_NE(p2->tuple, p1->tuple);
  EXPECT_TRUE(p2->packet.is_chaff);

  const auto p3 = source.next();
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->tuple, p1->tuple) << "equal tokens must map to one tuple";
  EXPECT_FALSE(source.next().has_value());
}

TEST(FlowTextSource, RejectsBadHeaderAndMalformedLines) {
  std::istringstream bad_header("not a header\nalpha 1 64 0\n");
  EXPECT_THROW(FlowTextStreamSource{bad_header}, IoError);

  std::istringstream bad_line("# sscor-stream v1\nalpha not-a-number 64 0\n");
  FlowTextStreamSource source(bad_line);
  EXPECT_THROW(source.next(), IoError);
}

TEST(FlowTextSource, FieldsParseAsWholeTokensLikeFlowText) {
  // The feed shares read_flow_text's whole-token field parser: stream
  // extraction would wrap a negative size to 4294967293, ignore a trailing
  // token, and read the chaff flag "01" as 1.
  for (const std::string line :
       {"a 100 -3 0", "a 100 3 0 junk", "a 100 3 01"}) {
    std::istringstream in("# sscor-stream v1\n" + line + "\n");
    FlowTextStreamSource source(in);
    try {
      source.next();
      ADD_FAILURE() << "accepted '" << line << "'";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2: " + line),
                std::string::npos)
          << e.what();
    }
  }
}

// Round-trip: serialise a parity case as a text feed, stream it back in,
// and check the engine reaches the same decisions as direct ingestion
// (tuples differ — they derive from tokens — but per-flow results match).
TEST(FlowTextSource, FeedRoundTripMatchesDirectIngestion) {
  const ParityCase parity = make_parity_case(1);

  StreamOptions options;
  options.early_exit = false;
  const std::vector<StreamVerdict> direct = run_engine(parity, options);

  // Token = flow index in the parity case, so token order is tuple order.
  const auto index = flow_index_of(parity);
  std::ostringstream feed;
  feed << "# sscor-stream v1\n";
  for (const StreamPacket& packet : parity.packets) {
    feed << "f" << index.at(packet.tuple) << ' ' << packet.packet.timestamp
         << ' ' << packet.packet.size << ' ' << (packet.packet.is_chaff ? 1 : 0)
         << '\n';
  }

  std::istringstream in(feed.str());
  FlowTextStreamSource source(in);
  StreamEngine engine(parity.upstreams, parity_config(), options);
  while (const auto packet = source.next()) engine.ingest(*packet);
  engine.finish();
  const std::vector<StreamVerdict> replayed = engine.drain_verdicts();

  ASSERT_EQ(replayed.size(), direct.size());
  std::map<std::pair<std::size_t, std::size_t>, const StreamVerdict*>
      direct_by_pair;
  for (const StreamVerdict& v : direct) {
    direct_by_pair[{index.at(v.tuple), v.upstream}] = &v;
  }
  for (const StreamVerdict& v : replayed) {
    // Recover the flow index from the token-derived tuple.
    std::size_t flow = parity.tuples.size();
    for (std::size_t k = 0; k < parity.tuples.size(); ++k) {
      if (FlowTextStreamSource::tuple_for_token("f" + std::to_string(k)) ==
          v.tuple) {
        flow = k;
        break;
      }
    }
    ASSERT_LT(flow, parity.tuples.size());
    const StreamVerdict* want = direct_by_pair.at({flow, v.upstream});
    EXPECT_EQ(v.kind, want->kind);
    EXPECT_EQ(v.flow_seq, want->flow_seq);
    expect_identical_result(v.result, want->result,
                            "flow " + std::to_string(flow));
  }
}

}  // namespace
}  // namespace sscor::stream
