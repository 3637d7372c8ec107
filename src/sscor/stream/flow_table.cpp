#include "sscor/stream/flow_table.hpp"

#include "sscor/util/error.hpp"
#include "sscor/util/event_log.hpp"

namespace sscor::stream {

const char* to_string(EvictionCause cause) {
  switch (cause) {
    case EvictionCause::kIdle:
      return "idle";
    case EvictionCause::kFlowCount:
      return "flow-count";
    case EvictionCause::kMemory:
      return "memory";
  }
  return "?";
}

FlowTable::FlowTable(FlowTableConfig config) : config_(config) {
  require(config.shards >= 1, "shard count must be positive");
  require(config.max_flows == 0 || config.max_flows >= config.shards,
          "max_flows must be >= the shard count (it is split per shard)");
  require(config.max_buffered_packets == 0 ||
              config.max_buffered_packets >= config.shards,
          "max_buffered_packets must be >= the shard count");
  // A negative TTL would split a flow at every packet.
  require(config.idle_ttl >= 0, "idle_ttl must be non-negative");
  // Floor division keeps the sum of per-shard budgets within the
  // configured totals, so the table-wide bounds hold unconditionally.
  max_flows_per_shard_ = config.max_flows / config.shards;
  max_buffered_per_shard_ = config.max_buffered_packets / config.shards;
  shards_.resize(config.shards);
}

std::size_t FlowTable::shard_of(const net::FiveTuple& tuple) const {
  return net::FiveTupleHash{}(tuple) % shards_.size();
}

FlowEntry* FlowTable::touch(std::size_t shard, const net::FiveTuple& tuple,
                            const PacketRecord& packet, std::uint64_t seq,
                            std::vector<EvictedFlow>& evicted) {
  Shard& s = shards_[shard];
  auto it = s.flows.find(tuple);
  if (it != s.flows.end() && config_.idle_ttl != 0 &&
      packet.timestamp - it->second->last_seen > config_.idle_ttl) {
    // The flow's own gap exceeded the TTL: the old instance expired during
    // the silence, independent of whether other traffic swept the shard in
    // the meantime — self-expiry is a pure function of the flow's own
    // timing, so a gap splits the flow identically for any shard count.
    if (eventlog::enabled()) {
      eventlog::emit(eventlog::Severity::kInfo, "flow.ttl_split",
                     {{"tuple", tuple.to_string()},
                      {"old_flow_seq", it->second->first_seen_seq},
                      {"new_flow_seq", seq},
                      {"gap_us", static_cast<std::int64_t>(
                                     packet.timestamp -
                                     it->second->last_seen)}});
    }
    evict(s, it->second.get(), EvictionCause::kIdle, evicted);
    it = s.flows.end();
  }
  FlowEntry* entry = nullptr;
  if (it == s.flows.end()) {
    // Expire idle flows first — they may free the slot this insert needs —
    // then displace the least recently touched until the new flow fits.
    evict_idle(s, packet.timestamp, evicted);
    if (max_flows_per_shard_ != 0) {
      while (s.flows.size() >= max_flows_per_shard_) {
        evict(s, s.lru.front(), EvictionCause::kFlowCount, evicted);
      }
    }
    auto owned = std::make_unique<FlowEntry>();
    entry = owned.get();
    entry->tuple = tuple;
    entry->first_seen_seq = seq;
    s.flows.emplace(tuple, std::move(owned));
    entry->lru_ = s.lru.insert(s.lru.end(), entry);
  } else {
    entry = it->second.get();
    s.lru.splice(s.lru.end(), s.lru, entry->lru_);
    // Refresh last_seen before the sweep so the entry in hand (now at the
    // LRU back) is out of the sweep's reach.
    entry->last_seen = packet.timestamp;
    evict_idle(s, packet.timestamp, evicted);
  }
  entry->last_seen = packet.timestamp;
  ++entry->packets;
  return entry;
}

bool FlowTable::add_buffered(std::size_t shard, FlowEntry* entry,
                             std::uint64_t n,
                             std::vector<EvictedFlow>& evicted) {
  Shard& s = shards_[shard];
  entry->buffered += n;
  s.buffered += n;
  if (max_buffered_per_shard_ == 0) return true;
  while (s.buffered > max_buffered_per_shard_) {
    // Oldest flow that actually holds buffer, sparing the one being
    // charged for as long as possible.  Tombstones hold no buffer, so
    // evicting them would not restore the cap.
    FlowEntry* victim = nullptr;
    for (FlowEntry* candidate : s.lru) {
      if (candidate != entry && candidate->buffered > 0) {
        victim = candidate;
        break;
      }
    }
    if (victim == nullptr) {
      // Only the charged entry itself can pay: the cap is unconditional.
      evict(s, entry, EvictionCause::kMemory, evicted);
      return false;
    }
    evict(s, victim, EvictionCause::kMemory, evicted);
  }
  return true;
}

FlowEntry* FlowTable::restore_entry(std::size_t shard,
                                    const FlowRestore& record) {
  Shard& s = shards_[shard];
  require(s.flows.find(record.tuple) == s.flows.end(),
          "restore of an already-live flow: " + record.tuple.to_string());
  auto owned = std::make_unique<FlowEntry>();
  FlowEntry* entry = owned.get();
  entry->tuple = record.tuple;
  entry->first_seen_seq = record.first_seen_seq;
  entry->last_seen = record.last_seen;
  entry->packets = record.packets;
  entry->tombstone = record.tombstone;
  s.flows.emplace(record.tuple, std::move(owned));
  entry->lru_ = s.lru.insert(s.lru.end(), entry);
  return entry;
}

void FlowTable::restore_buffered(std::size_t shard, FlowEntry* entry,
                                 std::uint64_t n) {
  entry->buffered += n;
  shards_[shard].buffered += n;
}

void FlowTable::tombstone(std::size_t shard, FlowEntry* entry) {
  Shard& s = shards_[shard];
  s.buffered -= entry->buffered;
  entry->buffered = 0;
  entry->tombstone = true;
}

void FlowTable::evict(Shard& shard, FlowEntry* entry, EvictionCause cause,
                      std::vector<EvictedFlow>& evicted) {
  EvictedFlow record;
  record.tuple = entry->tuple;
  record.cause = cause;
  record.first_seen_seq = entry->first_seen_seq;
  record.packets = entry->packets;
  record.tombstone = entry->tombstone;
  record.state = std::move(entry->state);
  shard.buffered -= entry->buffered;
  shard.lru.erase(entry->lru_);
  shard.flows.erase(entry->tuple);  // destroys *entry
  evicted.push_back(std::move(record));
}

void FlowTable::evict_idle(Shard& shard, TimeUs now,
                           std::vector<EvictedFlow>& evicted) {
  if (config_.idle_ttl == 0) return;
  // LRU order approximates last_seen order, so stopping at the first
  // fresh-enough entry bounds the sweep without missing steady-state
  // expiry.
  while (!shard.lru.empty()) {
    FlowEntry* oldest = shard.lru.front();
    if (now - oldest->last_seen <= config_.idle_ttl) break;
    evict(shard, oldest, EvictionCause::kIdle, evicted);
  }
}

std::size_t FlowTable::flows(std::size_t shard) const {
  return shards_[shard].flows.size();
}

std::size_t FlowTable::flows() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) total += s.flows.size();
  return total;
}

std::uint64_t FlowTable::buffered_packets(std::size_t shard) const {
  return shards_[shard].buffered;
}

std::uint64_t FlowTable::buffered_packets() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.buffered;
  return total;
}

}  // namespace sscor::stream
