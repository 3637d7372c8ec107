// The streaming correlation engine: many concurrent flows, bounded
// memory, batch-identical verdicts.
//
// StreamEngine is the system around OnlineCorrelator that the deployment
// story needs: packets arrive one at a time from any PacketSource, flows
// are tracked in a sharded FlowTable under hard memory bounds, and every
// (suspicious flow x watermarked upstream) pair runs an incremental decode
// that can reject provably-negative pairs long before their streams end.
// Verdicts surface as they finalise:
//
//   kPositive  — the configured algorithm decoded the watermark;
//   kNegative  — decoded clean, or rejected early by a finality proof;
//   kEvicted   — a table bound cut the flow off before a decision;
//   kDegraded  — admission control demoted the final decode to a cheaper
//                tier (Correlator's degradation ladder), so the verdict is
//                best-effort.
//
// Parity with the batch pipeline is the design invariant the test suite
// pins: with the bounds disabled, the verdict (and with early exits
// disabled, every CorrelationResult byte) for each pair equals
// Correlator::correlate over the batch-extracted flow — for any shard
// count and any thread count.  The mechanics behind that:
//
//   * a flow's shard is a pure function of its five-tuple, so per-flow
//     packet order is arrival order regardless of shard count;
//   * shards share nothing; a flush processes each shard sequentially on
//     one worker (parallelism is across shards only);
//   * verdicts are buffered per shard and drained in (flow first-seen
//     sequence, upstream index) order.
//
// Memory scales with live flows, not pairs: each flow buffers its packets
// once in one AppendOnlyFlow shared by its pair decoders, and each
// upstream's decode plan is built once in one shared OnlineUpstream.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sscor/correlation/online.hpp"
#include "sscor/stream/flow_table.hpp"
#include "sscor/stream/packet_source.hpp"

namespace sscor::stream {

enum class VerdictKind {
  kPositive,
  kNegative,
  kEvicted,
  kDegraded,
};

const char* to_string(VerdictKind kind);

/// One finalised (flow, upstream) decision.
struct StreamVerdict {
  net::FiveTuple tuple;
  /// First-seen ingest sequence of the flow instance (its deterministic
  /// id; a flow split by TTL or eviction yields one verdict per instance).
  std::uint64_t flow_seq = 0;
  /// Index into upstreams().
  std::size_t upstream = 0;
  VerdictKind kind = VerdictKind::kNegative;
  /// Decided by a finality proof (no offline decode ran) — usually long
  /// before the flow's stream ended.
  bool early = false;
  /// Downstream packets the pair had processed when it decided.
  std::uint64_t packets_seen = 0;
  CorrelationResult result;
};

/// Point-in-time view of the engine for the live ops surface (/statusz,
/// `sscor_tool top`).  Published under a mutex at the engine's serial
/// points (end of flush()/finish()), so status() is safe from any thread —
/// including a stats-server thread scraping mid-ingest — and never touches
/// shard state concurrently with the workers.  Values are therefore
/// up-to-date as of the last flush, not the last packet.
struct EngineStatus {
  struct Shard {
    std::size_t flows = 0;
    std::uint64_t buffered_packets = 0;
    std::uint64_t verdicts = 0;
  };
  /// One of the heaviest live flows (ranked by buffered packets, then
  /// total packets) — the flows an operator looks at first under memory
  /// pressure.
  struct HotFlow {
    std::string tuple;
    std::uint64_t flow_seq = 0;
    std::uint64_t packets = 0;
    std::uint64_t buffered = 0;
  };

  std::uint64_t packets_ingested = 0;
  std::uint64_t flows_live = 0;
  std::uint64_t buffered_packets = 0;
  std::size_t upstreams = 0;
  bool finished = false;
  std::uint64_t verdicts_positive = 0;
  std::uint64_t verdicts_negative = 0;
  std::uint64_t verdicts_evicted = 0;
  std::uint64_t verdicts_degraded = 0;
  /// Verdicts decided by a finality proof (subset of the kinds above).
  std::uint64_t verdicts_early = 0;
  /// Seconds since a flow was last evicted under a pressure bound
  /// (flow-count or memory; idle-TTL expiry is normal churn).  Negative
  /// when no pressure eviction has ever happened.  Unlike the rest of the
  /// snapshot this is computed at status() time from a wall-clock-free
  /// monotonic stamp, so /healthz sees pressure end even if no flush runs.
  double seconds_since_pressure = -1.0;
  std::vector<Shard> shards;
  /// At most ten flows, most buffered packets first.
  std::vector<HotFlow> hottest;
};

/// Value-type image of a quiescent engine (no pending packets, verdict
/// buffers drained): everything needed to rebuild an equivalent engine in
/// a fresh process.  Pair-decoder state is deliberately NOT stored —
/// restore() re-ingests each flow's buffered packets through fresh
/// decoders, which reproduces every pair's decision state exactly because
/// decoding is a deterministic function of the buffer (verdicts generated
/// during that replay are discarded; they were already surfaced before the
/// snapshot).  That keeps the snapshot format a plain data inventory with
/// no dependence on decoder internals.
struct EngineSnapshot {
  struct Flow {
    FlowRestore entry;
    /// The flow's buffered packets, append order (empty for tombstones).
    std::vector<PacketRecord> buffered;
    /// Verdicts decided but held under the min_packets filter.
    std::vector<StreamVerdict> held;
  };
  struct Shard {
    std::uint64_t verdicts_emitted = 0;
    std::uint64_t tally_by_kind[4] = {0, 0, 0, 0};
    std::uint64_t tally_early = 0;
    /// Live flows in LRU order (front = least recently touched).
    std::vector<Flow> flows;
  };
  /// Packets ingested; the resumed feed skips this many.
  std::uint64_t next_seq = 0;
  std::vector<Shard> shards;
};

struct StreamOptions {
  Algorithm algorithm = Algorithm::kGreedyPlus;
  FlowTableConfig table;
  /// Forwarded to every pair's OnlineCorrelator.  With false, no pair
  /// decides before finish() and every result byte matches the batch
  /// pipeline; with true, provably-negative pairs reject early (verdicts
  /// still agree, but an early rejection's cost field counts the stream
  /// prefix it inspected rather than a full batch decode).
  bool early_exit = true;
  /// Flows with fewer packets yield no verdicts — mirrors the batch
  /// extractor's min_packets filter.
  std::size_t min_packets = 2;
  /// Ingested packets are queued per shard and processed every
  /// `batch_size` arrivals (and on flush()/finish()).
  std::size_t batch_size = 256;
  /// Worker threads for per-shard processing; 1 = inline, 0 = hardware
  /// concurrency.  Never affects results.
  unsigned threads = 1;
  /// Per-pair admission control for the final offline decode: when either
  /// value is set, each pair decodes under that DecodeBudget on
  /// Correlator's degradation ladder, so a pair exceeding it degrades tier
  /// by tier instead of stalling the engine (verdict kind kDegraded).
  struct Admission {
    /// Wall clock per pair, armed right before its decode; 0 = none.
    DurationUs deadline_us = 0;
    /// Packet-access cap per ladder attempt; 0 = unlimited.
    std::uint64_t max_cost_per_attempt = 0;
  } admission;
};

class StreamEngine {
 public:
  /// `upstreams` are the watermarked flows to correlate every suspicious
  /// flow against; per-upstream decode state is built once here.
  StreamEngine(std::vector<WatermarkedFlow> upstreams,
               CorrelatorConfig config, StreamOptions options = {});
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Queues one packet (timestamps per flow must be non-decreasing; an
  /// out-of-order packet is counted and dropped, never fatal).  Flushes
  /// whenever the absolute ingest sequence reaches a multiple of
  /// `batch_size` — absolute, not since-last-flush, so a restore()d
  /// engine flushes at the same packets the uninterrupted run did.
  void ingest(const StreamPacket& packet);

  /// Processes every queued packet now (parallel across shards).
  void flush();

  /// Flushes, then finalises every live flow: remaining windows close at
  /// end-of-stream and undecided pairs run their offline decode.  The
  /// engine stays usable for inspection afterwards, but not for ingest.
  void finish();

  /// All verdicts finalised since the last drain, in deterministic
  /// (flow_seq, upstream) order; clears the buffer.
  std::vector<StreamVerdict> drain_verdicts();

  /// Captures the full engine state for crash recovery.  Requires a
  /// quiescent engine: flush()ed, drain_verdicts()ed, not finished (throws
  /// InternalError otherwise).
  EngineSnapshot snapshot();

  /// Rebuilds the captured state into this engine.  Requires a fresh
  /// engine (nothing ingested) constructed with the same upstreams,
  /// config and options as the snapshotting one; after restore the engine
  /// continues exactly where the snapshot left off — same flush
  /// boundaries (they align to absolute ingest sequence), same verdicts,
  /// same tallies.
  void restore(const EngineSnapshot& snapshot);

  /// Copy of the status published at the last flush()/finish() (see
  /// EngineStatus).  Thread-safe; the one engine entry point a telemetry
  /// thread may call concurrently with ingest.
  EngineStatus status() const;

  std::uint64_t packets_ingested() const { return next_seq_; }
  std::size_t live_flows() const { return table_.flows(); }
  std::uint64_t buffered_packets() const { return table_.buffered_packets(); }
  std::size_t upstream_count() const { return upstreams_.size(); }
  const FlowTable& table() const { return table_; }
  const StreamOptions& options() const { return options_; }

 private:
  struct FlowState;
  struct ShardState;
  struct Metrics;

  FlowState* ensure_state(FlowEntry& entry);
  void process_shard(std::size_t shard);
  void finalize_shard(std::size_t shard);
  void route(std::size_t shard, std::uint64_t seq, const StreamPacket& packet);
  void emit(std::size_t shard, StreamVerdict verdict);
  void flush_held(std::size_t shard, FlowState& state);
  void handle_evictions(std::size_t shard, std::vector<EvictedFlow> evicted);
  void record_verdict_metrics(std::size_t shard, const StreamVerdict& verdict);
  void publish_status();

  /// Registry handles for every per-packet, per-verdict and per-flush
  /// metric, bound once so the hot paths never look a name up.
  const Metrics& metrics_;
  std::vector<std::shared_ptr<const OnlineUpstream>> upstreams_;
  CorrelatorConfig config_;
  StreamOptions options_;
  FlowTable table_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_total_ = 0;
  bool finished_ = false;

  mutable std::mutex status_mutex_;
  EngineStatus status_;
  /// Monotonic microsecond stamp of the last pressure eviction; -1 =
  /// never.  Written by workers (relaxed), read by status().
  std::atomic<std::int64_t> last_pressure_us_{-1};
  /// Throttle for the O(flows) hottest-flow walk (serial points only).
  std::int64_t last_topk_us_ = -1;
  std::vector<EngineStatus::HotFlow> cached_hottest_;
};

}  // namespace sscor::stream
