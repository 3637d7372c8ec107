// The fuzzing oracles: executable statements of what the decode and I/O
// stacks promise, checked against generated adversarial inputs.
//
// Each oracle owns both sides of a property:
//
//   generate(rng)  — produce one self-contained case payload (bytes).  The
//                    payload embeds everything the check needs (parameters,
//                    flow text, or raw capture bytes), so a payload replays
//                    identically with no out-of-band state.
//   check(payload) — evaluate the property.  `ok == false` is a real
//                    violation; `skipped == true` means the payload fell
//                    outside the property's precondition (unparseable or
//                    out-of-clamp — the shrinker legitimately produces
//                    such payloads and they count as passes).
//
// The twelve oracles:
//
//   qim_roundtrip    embed → decode of the QIM scheme is exact whenever all
//                    IPDs exceed 2*step (no FIFO cascade).  Catches the
//                    cell-boundary off-by-one in next_cell_centre.
//   differential     BruteForce is exact ground truth: Greedy's Hamming
//                    lower-bounds it, Greedy+/Greedy* never beat it, the
//                    matching-complete verdict agrees across matchers, and
//                    chaff+constant-delay alone can never destroy the
//                    watermark.
//   batch_parity     production decodes equal the cold scalar reference
//                    (which runs its own matching phase) for every
//                    algorithm: BatchDecoder over the pair's shared
//                    MatchContext, decoded twice through one reused
//                    workspace, and Correlator::correlate with no context.
//   resilient_parity whatever tier Correlator's degradation ladder lands
//                    on under a per-attempt cost budget equals one
//                    BatchDecoder attempt of that tier under the budget it
//                    received (none for the last tier); with no budget the
//                    ladder is the one plain decode exactly.
//   chaos_decode     deterministic fault injection (cost cap, pre-expired
//                    deadline, allocation failure) into one BatchDecoder
//                    attempt: clean error or correct result, never
//                    corruption, and bit-for-bit replayable.
//   chaos_sweep      mid-sweep abort + journal tampering on a one-shard
//                    journaled sweep: abort by exception, then resume over
//                    the (possibly tampered) journal must reproduce the
//                    uninterrupted table byte-for-byte.
//   journal_merge    differential check of the cluster journal directory:
//                    rows scattered across N tampered shard journals
//                    (duplicates, claims, torn tails, corrupt lines) must
//                    merge into the reference table byte-for-byte, or —
//                    for conflicting rows / missing points — fail with a
//                    clean IoError, deterministically on a re-scan.
//   reader_pcap      classic-pcap parsing throws IoError or succeeds —
//                    never crashes, never allocates past a fixed budget.
//   reader_pcapng    same contract for the pcapng reader.
//   reader_flowtext  grammar differential: an independent spec parser and
//                    read_flow_text must agree on accept/reject (and on the
//                    packet count when both accept).  Catches the lenient
//                    trailing-token / signed-size parsing.
//   stream_parity    the streaming engine reproduces the batch pipeline:
//                    for a merged multi-flow capture, StreamEngine verdicts
//                    with early exits off are byte-identical to
//                    Correlator::correlate at shard counts 1 and N (same
//                    order, same costs), and with early exits on the
//                    decisions still agree.
//   frame_parser     the `sscor-stream v1` frame parser never crashes on
//                    arbitrary bytes, is chunking-independent (same frames
//                    and same quarantine counters for any split of the
//                    stream across feed() calls), accounts for every byte
//                    (frames + quarantined + bounded leftover = input),
//                    and re-encoding any parsed frame reparses to itself
//                    cleanly.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sscor/util/rng.hpp"

namespace sscor::fuzz {

struct OracleResult {
  bool ok = true;
  /// Payload outside the oracle's precondition; counts as a pass.
  bool skipped = false;
  /// Human-readable violation description when !ok.
  std::string message;
};

class Oracle {
 public:
  virtual ~Oracle() = default;

  virtual std::string_view name() const = 0;

  /// Generates one case payload.  Pure function of `rng`.
  virtual std::vector<std::uint8_t> generate(Rng& rng) = 0;

  /// Evaluates the property on `payload`.  Deterministic in the payload
  /// alone; must never crash on arbitrary bytes.
  virtual OracleResult check(const std::vector<std::uint8_t>& payload) = 0;

  /// Offers a corpus seed (raw input bytes) to mutate instead of always
  /// synthesizing from scratch.  Default: ignored.
  virtual void add_seed(std::vector<std::uint8_t> seed) { (void)seed; }
};

/// All twelve oracles, in the round-robin order the fuzzer drives them.
std::vector<std::unique_ptr<Oracle>> make_default_oracles();

/// Deterministic regression payloads reproducing the historical bugs this
/// subsystem was built around (returned as (oracle name, payload) pairs).
/// Checked in under tests/corpus/ as replay artifacts; against the pre-fix
/// tree each one fails its oracle.
struct RegressionCase {
  std::string name;    ///< artifact stem, e.g. "regress-qim-boundary"
  std::string oracle;  ///< oracle the payload belongs to
  std::vector<std::uint8_t> payload;
};
std::vector<RegressionCase> make_regression_cases();

}  // namespace sscor::fuzz
