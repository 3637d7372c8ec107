#include "sscor/stream/stream_engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sscor/util/error.hpp"
#include "sscor/util/event_log.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/parallel.hpp"
#include "sscor/util/trace.hpp"

namespace sscor::stream {
namespace {

/// Monotonic clock in microseconds — used only for telemetry freshness
/// (pressure age, hottest-flow walk throttle), never for correlation.
std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A pressure eviction younger than this marks the onset of a new
/// overload episode (one kWarn event per episode, not per eviction).
constexpr std::int64_t kPressureEpisodeUs = 5'000'000;

/// Hottest flows reported in EngineStatus.
constexpr std::size_t kStatusTopK = 10;

metrics::Counter& eviction_counter(EvictionCause cause) {
  return metrics::counter(std::string("stream.flows.evicted.") +
                          to_string(cause));
}

metrics::Counter& verdict_counter(VerdictKind kind) {
  return metrics::counter(std::string("stream.verdicts.") + to_string(kind));
}

}  // namespace

const char* to_string(VerdictKind kind) {
  switch (kind) {
    case VerdictKind::kPositive:
      return "positive";
    case VerdictKind::kNegative:
      return "negative";
    case VerdictKind::kEvicted:
      return "evicted";
    case VerdictKind::kDegraded:
      return "degraded";
  }
  return "?";
}

/// Per-flow engine state: one shared packet buffer feeding one incremental
/// decoder per upstream, plus verdicts held back until the flow clears the
/// min_packets filter.
struct StreamEngine::FlowState : FlowUserState {
  std::shared_ptr<AppendOnlyFlow> buffer = std::make_shared<AppendOnlyFlow>();
  std::vector<OnlineCorrelator> pairs;
  std::vector<StreamVerdict> held;
};

/// Process-wide handles of the engine's metrics.  Every name is looked up
/// in the registry once, at the first engine construction; the per-event
/// paths then bump a handle, one relaxed atomic add.
struct StreamEngine::Metrics {
  metrics::Counter& packets_ingested =
      metrics::counter("stream.packets.ingested");
  metrics::Counter& packets_late = metrics::counter("stream.packets.late");
  metrics::Counter& packets_out_of_order =
      metrics::counter("stream.packets.out_of_order");
  metrics::Counter& flows_created = metrics::counter("stream.flows.created");
  metrics::Counter& flows_early_decided =
      metrics::counter("stream.flows.early_decided");
  metrics::Counter& flows_evicted = metrics::counter("stream.flows.evicted");
  /// Indexed by EvictionCause.
  metrics::Counter* flows_evicted_by_cause[3] = {
      &eviction_counter(EvictionCause::kIdle),
      &eviction_counter(EvictionCause::kFlowCount),
      &eviction_counter(EvictionCause::kMemory)};
  /// Indexed by VerdictKind.
  metrics::Counter* verdicts_by_kind[4] = {
      &verdict_counter(VerdictKind::kPositive),
      &verdict_counter(VerdictKind::kNegative),
      &verdict_counter(VerdictKind::kEvicted),
      &verdict_counter(VerdictKind::kDegraded)};
  metrics::Counter& verdicts_early = metrics::counter("stream.verdicts.early");
  metrics::Histogram& verdict_packets_seen =
      metrics::histogram("stream.verdict.packets_seen");
  metrics::Histogram& flow_packets = metrics::histogram("stream.flow.packets");
  metrics::Histogram& table_occupancy =
      metrics::histogram("stream.table.occupancy");
  metrics::Histogram& table_buffered =
      metrics::histogram("stream.table.buffered");
  metrics::Histogram& flush_us = metrics::histogram("stream.flush_us");
  metrics::Histogram& finish_us = metrics::histogram("stream.finish_us");
  metrics::Gauge& flows_live = metrics::gauge("stream.flows.live");
  metrics::Gauge& packets_buffered = metrics::gauge("stream.packets.buffered");

  static const Metrics& get() {
    static const Metrics handles;
    return handles;
  }
};

struct StreamEngine::ShardState {
  explicit ShardState(std::size_t index)
      : flows_gauge(metrics::gauge("stream.shard." + std::to_string(index) +
                                   ".flows")),
        buffered_gauge(metrics::gauge("stream.shard." +
                                      std::to_string(index) + ".buffered")) {}

  std::vector<std::pair<std::uint64_t, StreamPacket>> pending;
  std::vector<StreamVerdict> verdicts;
  /// Lifetime verdict tallies, owned by the shard like everything else
  /// here (only its worker writes them; the serial publish points read
  /// them after the parallel phase joins).
  std::uint64_t verdicts_emitted = 0;
  std::uint64_t tally_by_kind[4] = {0, 0, 0, 0};
  std::uint64_t tally_early = 0;
  /// This shard's status gauges, published at every flush.
  metrics::Gauge& flows_gauge;
  metrics::Gauge& buffered_gauge;
};

StreamEngine::StreamEngine(std::vector<WatermarkedFlow> upstreams,
                           CorrelatorConfig config, StreamOptions options)
    : metrics_(Metrics::get()),
      config_(config),
      options_(options),
      table_(options.table) {
  require(options.batch_size >= 1, "batch size must be positive");
  upstreams_.reserve(upstreams.size());
  for (auto& watermarked : upstreams) {
    upstreams_.push_back(
        std::make_shared<const OnlineUpstream>(std::move(watermarked)));
  }
  shards_.reserve(table_.shard_count());
  for (std::size_t i = 0; i < table_.shard_count(); ++i) {
    shards_.push_back(std::make_unique<ShardState>(i));
  }
  status_.upstreams = upstreams_.size();
  status_.shards.resize(table_.shard_count());
}

StreamEngine::~StreamEngine() = default;

void StreamEngine::ingest(const StreamPacket& packet) {
  require(!finished_, "ingest after finish()");
  const std::uint64_t seq = next_seq_++;
  metrics_.packets_ingested.add();
  const std::size_t shard = table_.shard_of(packet.tuple);
  shards_[shard]->pending.emplace_back(seq, packet);
  ++pending_total_;
  // Aligned to the absolute sequence (not packets-since-last-flush) so an
  // extra mid-batch flush — a snapshot point, a signal drain — never shifts
  // later flush boundaries, and a resumed run flushes exactly where the
  // uninterrupted one did.
  if (next_seq_ % options_.batch_size == 0) flush();
}

void StreamEngine::flush() {
  if (pending_total_ == 0) return;
  const metrics::ScopedTimer timer(metrics_.flush_us, "stream.flush");
  parallel_for(
      shards_.size(), [this](std::size_t shard) { process_shard(shard); },
      options_.threads);
  pending_total_ = 0;
  metrics_.table_occupancy.record(table_.flows());
  metrics_.table_buffered.record(table_.buffered_packets());
  publish_status();
}

void StreamEngine::finish() {
  if (finished_) return;
  flush();
  finished_ = true;
  const metrics::ScopedTimer timer(metrics_.finish_us, "stream.finish");
  parallel_for(
      shards_.size(), [this](std::size_t shard) { finalize_shard(shard); },
      options_.threads);
  publish_status();
}

EngineSnapshot StreamEngine::snapshot() {
  check_invariant(pending_total_ == 0,
                  "snapshot of an engine with pending packets (flush first)");
  check_invariant(!finished_, "snapshot after finish()");
  EngineSnapshot snap;
  snap.next_seq = next_seq_;
  snap.shards.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardState& shard = *shards_[i];
    check_invariant(shard.verdicts.empty(),
                    "snapshot with undrained verdicts (drain first)");
    EngineSnapshot::Shard& out = snap.shards[i];
    out.verdicts_emitted = shard.verdicts_emitted;
    std::copy(std::begin(shard.tally_by_kind), std::end(shard.tally_by_kind),
              std::begin(out.tally_by_kind));
    out.tally_early = shard.tally_early;
    table_.for_each(i, [&](FlowEntry& entry) {
      EngineSnapshot::Flow flow;
      flow.entry.tuple = entry.tuple;
      flow.entry.first_seen_seq = entry.first_seen_seq;
      flow.entry.last_seen = entry.last_seen;
      flow.entry.packets = entry.packets;
      flow.entry.tombstone = entry.tombstone;
      const auto* state = static_cast<const FlowState*>(entry.state.get());
      if (state != nullptr) {
        flow.held = state->held;
        if (!entry.tombstone) {
          flow.buffered.reserve(state->buffer->size());
          for (std::size_t j = 0; j < state->buffer->size(); ++j) {
            flow.buffered.push_back(state->buffer->packet(j));
          }
        }
      }
      out.flows.push_back(std::move(flow));
    });
  }
  return snap;
}

void StreamEngine::restore(const EngineSnapshot& snapshot) {
  check_invariant(next_seq_ == 0 && !finished_ && pending_total_ == 0,
                  "restore requires a fresh engine");
  check_invariant(snapshot.shards.size() == shards_.size(),
                  "snapshot shard count does not match the engine");
  next_seq_ = snapshot.next_seq;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const EngineSnapshot::Shard& in = snapshot.shards[i];
    ShardState& shard = *shards_[i];
    shard.verdicts_emitted = in.verdicts_emitted;
    std::copy(std::begin(in.tally_by_kind), std::end(in.tally_by_kind),
              std::begin(shard.tally_by_kind));
    shard.tally_early = in.tally_early;
    for (const EngineSnapshot::Flow& flow : in.flows) {
      FlowEntry* entry = table_.restore_entry(i, flow.entry);
      auto state = std::make_unique<FlowState>();
      if (!flow.entry.tombstone) {
        state->pairs.reserve(upstreams_.size());
        for (const auto& upstream : upstreams_) {
          state->pairs.emplace_back(upstream, state->buffer, config_,
                                    options_.algorithm,
                                    OnlineOptions{options_.early_exit});
        }
        // Replay the buffer through fresh decoders, one append at a time —
        // the exact call pattern of the original run — so every pair lands
        // in the same decided/undecided state it had at snapshot time.
        // Decisions reached during the replay are intentionally dropped:
        // their verdicts surfaced before the snapshot (emitted, or sitting
        // in the restored `held` list below).
        for (const PacketRecord& record : flow.buffered) {
          state->buffer->append(record);
          for (OnlineCorrelator& pair : state->pairs) {
            if (!pair.decided()) pair.ingest_appended();
          }
        }
      }
      state->held = flow.held;
      entry->state = std::move(state);
      if (!flow.buffered.empty()) {
        table_.restore_buffered(i, entry, flow.buffered.size());
      }
    }
  }
  metrics::counter("stream.restores").add();
  publish_status();
}

EngineStatus StreamEngine::status() const {
  EngineStatus out;
  {
    const std::lock_guard<std::mutex> lock(status_mutex_);
    out = status_;
  }
  const std::int64_t last = last_pressure_us_.load(std::memory_order_relaxed);
  out.seconds_since_pressure =
      last < 0 ? -1.0
               : static_cast<double>(steady_now_us() - last) / 1e6;
  return out;
}

void StreamEngine::publish_status() {
  EngineStatus status;
  status.packets_ingested = next_seq_;
  status.flows_live = table_.flows();
  status.buffered_packets = table_.buffered_packets();
  status.upstreams = upstreams_.size();
  status.finished = finished_;
  status.shards.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    EngineStatus::Shard& shard = status.shards[i];
    shard.flows = table_.flows(i);
    shard.buffered_packets = table_.buffered_packets(i);
    shard.verdicts = shards_[i]->verdicts_emitted;
    status.verdicts_positive +=
        shards_[i]->tally_by_kind[static_cast<int>(VerdictKind::kPositive)];
    status.verdicts_negative +=
        shards_[i]->tally_by_kind[static_cast<int>(VerdictKind::kNegative)];
    status.verdicts_evicted +=
        shards_[i]->tally_by_kind[static_cast<int>(VerdictKind::kEvicted)];
    status.verdicts_degraded +=
        shards_[i]->tally_by_kind[static_cast<int>(VerdictKind::kDegraded)];
    status.verdicts_early += shards_[i]->tally_early;
    shards_[i]->flows_gauge.set(static_cast<std::int64_t>(shard.flows));
    shards_[i]->buffered_gauge.set(
        static_cast<std::int64_t>(shard.buffered_packets));
  }
  metrics_.flows_live.set(static_cast<std::int64_t>(status.flows_live));
  metrics_.packets_buffered.set(
      static_cast<std::int64_t>(status.buffered_packets));

  // The hottest-flow ranking walks every live entry, so throttle it to the
  // telemetry timescale; flushes can be far more frequent than scrapes.
  const std::int64_t now_us = steady_now_us();
  if (finished_ || last_topk_us_ < 0 || now_us - last_topk_us_ >= 250'000) {
    last_topk_us_ = now_us;
    std::vector<EngineStatus::HotFlow> hot;
    for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
      table_.for_each(shard, [&](FlowEntry& entry) {
        EngineStatus::HotFlow flow;
        flow.tuple = entry.tuple.to_string();
        flow.flow_seq = entry.first_seen_seq;
        flow.packets = entry.packets;
        flow.buffered = entry.buffered;
        hot.push_back(std::move(flow));
      });
    }
    const std::size_t keep = std::min(kStatusTopK, hot.size());
    std::partial_sort(hot.begin(), hot.begin() + static_cast<std::ptrdiff_t>(keep),
                      hot.end(),
                      [](const EngineStatus::HotFlow& a,
                         const EngineStatus::HotFlow& b) {
                        if (a.buffered != b.buffered)
                          return a.buffered > b.buffered;
                        if (a.packets != b.packets) return a.packets > b.packets;
                        return a.flow_seq < b.flow_seq;
                      });
    hot.resize(keep);
    cached_hottest_ = std::move(hot);
  }
  status.hottest = cached_hottest_;

  const std::lock_guard<std::mutex> lock(status_mutex_);
  status_ = std::move(status);
}

std::vector<StreamVerdict> StreamEngine::drain_verdicts() {
  std::vector<StreamVerdict> out;
  for (auto& shard : shards_) {
    out.insert(out.end(), std::make_move_iterator(shard->verdicts.begin()),
               std::make_move_iterator(shard->verdicts.end()));
    shard->verdicts.clear();
  }
  // (flow_seq, upstream) is unique per verdict and independent of the
  // shard and thread counts, so the drained order is deterministic.
  std::stable_sort(out.begin(), out.end(),
                   [](const StreamVerdict& a, const StreamVerdict& b) {
                     if (a.flow_seq != b.flow_seq)
                       return a.flow_seq < b.flow_seq;
                     return a.upstream < b.upstream;
                   });
  return out;
}

StreamEngine::FlowState* StreamEngine::ensure_state(FlowEntry& entry) {
  if (entry.state == nullptr) {
    auto state = std::make_unique<FlowState>();
    state->pairs.reserve(upstreams_.size());
    for (const auto& upstream : upstreams_) {
      state->pairs.emplace_back(upstream, state->buffer, config_,
                                options_.algorithm,
                                OnlineOptions{options_.early_exit});
    }
    entry.state = std::move(state);
    metrics_.flows_created.add();
    if (eventlog::enabled()) {
      eventlog::emit(eventlog::Severity::kDebug, "flow.admitted",
                     {{"tuple", entry.tuple.to_string()},
                      {"flow_seq", entry.first_seen_seq}});
    }
  }
  return static_cast<FlowState*>(entry.state.get());
}

void StreamEngine::process_shard(std::size_t shard) {
  ShardState& state = *shards_[shard];
  for (const auto& [seq, packet] : state.pending) {
    route(shard, seq, packet);
  }
  state.pending.clear();
}

void StreamEngine::route(std::size_t shard, std::uint64_t seq,
                         const StreamPacket& packet) {
  std::vector<EvictedFlow> evicted;
  FlowEntry* entry = table_.touch(shard, packet.tuple, packet.packet, seq,
                                  evicted);
  handle_evictions(shard, std::move(evicted));
  FlowState* state = ensure_state(*entry);
  if (entry->packets >= options_.min_packets) {
    flush_held(shard, *state);
  }
  if (entry->tombstone) {
    metrics_.packets_late.add();
    return;
  }
  if (!state->buffer->empty() &&
      packet.packet.timestamp < state->buffer->last_timestamp()) {
    // A live source broke the per-flow FIFO assumption; dropping the
    // packet keeps the daemon up (sorted replay sources never hit this).
    metrics_.packets_out_of_order.add();
    return;
  }
  state->buffer->append(packet.packet);
  std::vector<EvictedFlow> over_cap;
  const bool alive = table_.add_buffered(shard, entry, 1, over_cap);
  handle_evictions(shard, std::move(over_cap));
  if (!alive) return;  // the entry itself paid for the cap

  bool all_decided = true;
  for (std::size_t i = 0; i < state->pairs.size(); ++i) {
    OnlineCorrelator& pair = state->pairs[i];
    if (!pair.decided()) {
      pair.ingest_appended();
      if (pair.decided()) {
        StreamVerdict verdict;
        verdict.tuple = entry->tuple;
        verdict.flow_seq = entry->first_seen_seq;
        verdict.upstream = i;
        verdict.kind = VerdictKind::kNegative;
        verdict.early = true;
        verdict.packets_seen = pair.packets_seen();
        verdict.result = pair.result();
        if (entry->packets >= options_.min_packets) {
          emit(shard, std::move(verdict));
        } else {
          state->held.push_back(std::move(verdict));
        }
      }
    }
    all_decided = all_decided && pair.decided();
  }
  if (all_decided && !state->pairs.empty()) {
    // Every pair rejected before the stream ended: drop the buffer, keep
    // the entry as a tombstone absorbing late packets.
    state->buffer->release();
    state->pairs.clear();
    state->pairs.shrink_to_fit();
    table_.tombstone(shard, entry);
    metrics_.flows_early_decided.add();
  }
}

void StreamEngine::emit(std::size_t shard, StreamVerdict verdict) {
  record_verdict_metrics(shard, verdict);
  shards_[shard]->verdicts.push_back(std::move(verdict));
}

void StreamEngine::flush_held(std::size_t shard, FlowState& state) {
  if (state.held.empty()) return;
  for (auto& verdict : state.held) {
    emit(shard, std::move(verdict));
  }
  state.held.clear();
}

void StreamEngine::handle_evictions(std::size_t shard,
                                    std::vector<EvictedFlow> evicted) {
  for (auto& ev : evicted) {
    metrics_.flows_evicted.add();
    metrics_.flows_evicted_by_cause[static_cast<int>(ev.cause)]->add();
    metrics_.flow_packets.record(ev.packets);
    if (ev.cause != EvictionCause::kIdle) {
      // A bound displaced live work: stamp the overload clock (read by
      // /healthz) and log the onset of a new episode.
      const std::int64_t now = steady_now_us();
      const std::int64_t prev =
          last_pressure_us_.exchange(now, std::memory_order_relaxed);
      if (eventlog::enabled() &&
          (prev < 0 || now - prev >= kPressureEpisodeUs)) {
        eventlog::emit(eventlog::Severity::kWarn, "engine.overload",
                       {{"cause", to_string(ev.cause)},
                        {"live_flows",
                         static_cast<std::uint64_t>(table_.flows(shard))}});
      }
    }
    if (eventlog::enabled()) {
      eventlog::emit(ev.cause == EvictionCause::kMemory
                         ? eventlog::Severity::kWarn
                         : eventlog::Severity::kInfo,
                     "flow.evicted",
                     {{"tuple", ev.tuple.to_string()},
                      {"flow_seq", ev.first_seen_seq},
                      {"cause", to_string(ev.cause)},
                      {"packets", ev.packets},
                      {"tombstone", ev.tombstone}});
    }
    auto* state = static_cast<FlowState*>(ev.state.get());
    if (state == nullptr) continue;
    // Mirror the batch min_packets filter: a flow this short yields no
    // verdicts at all.
    if (ev.packets < options_.min_packets) continue;
    for (auto& verdict : state->held) {
      emit(shard, std::move(verdict));
    }
    state->held.clear();
    for (std::size_t i = 0; i < state->pairs.size(); ++i) {
      OnlineCorrelator& pair = state->pairs[i];
      if (pair.decided()) continue;  // verdict already surfaced
      StreamVerdict verdict;
      verdict.tuple = ev.tuple;
      verdict.flow_seq = ev.first_seen_seq;
      verdict.upstream = i;
      verdict.kind = VerdictKind::kEvicted;
      verdict.early = false;
      verdict.packets_seen = pair.packets_seen();
      verdict.result.algorithm = options_.algorithm;
      verdict.result.correlated = false;
      verdict.result.matching_complete = false;
      verdict.result.cost = pair.packets_seen();
      emit(shard, std::move(verdict));
    }
  }
}

void StreamEngine::finalize_shard(std::size_t shard) {
  // With admission control disabled each decode is one budget-free attempt
  // of the configured algorithm.
  CorrelatorConfig config = config_;
  config.budget.max_cost = options_.admission.max_cost_per_attempt;
  table_.for_each(shard, [&](FlowEntry& entry) {
    auto* state = static_cast<FlowState*>(entry.state.get());
    if (state == nullptr) return;
    metrics_.flow_packets.record(entry.packets);
    if (entry.packets < options_.min_packets) return;  // batch drops these
    flush_held(shard, *state);
    if (entry.tombstone || state->pairs.empty()) return;

    Flow downstream;
    bool materialized = false;
    for (std::size_t i = 0; i < state->pairs.size(); ++i) {
      OnlineCorrelator& pair = state->pairs[i];
      if (pair.decided()) continue;  // emitted while streaming
      pair.finish();
      StreamVerdict verdict;
      verdict.tuple = entry.tuple;
      verdict.flow_seq = entry.first_seen_seq;
      verdict.upstream = i;
      verdict.packets_seen = pair.packets_seen();
      if (pair.early_rejected()) {
        // A finality proof completed at end-of-stream: still no offline
        // decode needed.
        verdict.kind = VerdictKind::kNegative;
        verdict.early = true;
        verdict.result = pair.result();
      } else {
        // One materialisation serves every remaining pair of the flow;
        // byte-identical to pair.result(), which would rebuild it per
        // pair.
        if (!materialized) {
          downstream = state->buffer->to_flow(entry.tuple.to_string());
          materialized = true;
        }
        const trace::DecodePairScope scope(
            entry.tuple.to_string() + "#" +
            std::to_string(entry.first_seen_seq) + " up" + std::to_string(i));
        const WatermarkedFlow& upstream = upstreams_[i]->watermarked();
        if (options_.admission.deadline_us > 0) {
          config.budget.deadline =
              Deadline::after(options_.admission.deadline_us);
        }
        verdict.result = Correlator(config, options_.algorithm)
                             .correlate(upstream, downstream);
        verdict.early = false;
        verdict.kind = verdict.result.degraded ? VerdictKind::kDegraded
                       : verdict.result.correlated ? VerdictKind::kPositive
                                                   : VerdictKind::kNegative;
      }
      emit(shard, std::move(verdict));
    }
  });
}

void StreamEngine::record_verdict_metrics(std::size_t shard,
                                          const StreamVerdict& verdict) {
  metrics_.verdicts_by_kind[static_cast<int>(verdict.kind)]->add();
  if (verdict.early) metrics_.verdicts_early.add();
  metrics_.verdict_packets_seen.record(verdict.packets_seen);
  ShardState& state = *shards_[shard];
  ++state.verdicts_emitted;
  ++state.tally_by_kind[static_cast<int>(verdict.kind)];
  if (verdict.early) ++state.tally_early;
  if (eventlog::enabled()) {
    eventlog::Severity severity = eventlog::Severity::kDebug;
    if (verdict.kind == VerdictKind::kPositive) {
      severity = eventlog::Severity::kInfo;
    } else if (verdict.kind == VerdictKind::kDegraded) {
      severity = eventlog::Severity::kWarn;
    }
    eventlog::emit(severity, "verdict",
                   {{"tuple", verdict.tuple.to_string()},
                    {"flow_seq", verdict.flow_seq},
                    {"upstream", static_cast<std::uint64_t>(verdict.upstream)},
                    {"kind", to_string(verdict.kind)},
                    {"early", verdict.early},
                    {"packets_seen", verdict.packets_seen}});
  }
}

}  // namespace sscor::stream
