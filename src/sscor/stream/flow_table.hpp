// Bounded-memory tracking of concurrent flows for the streaming engine.
//
// A long-running tracer cannot buffer an unbounded number of suspicious
// flows: an adversary (or just a busy link) can open flows faster than
// they finish.  FlowTable keys live flows by five-tuple across a fixed set
// of shards (a flow's shard is a pure function of its tuple, so the
// assignment — and therefore every per-flow computation — is identical for
// any shard count) and enforces three bounds, each surfacing evictions to
// the caller so it can report a verdict for work cut short:
//
//  * idle TTL     — a flow whose last packet is older than `idle_ttl`
//                   (event time, judged against the arriving packet's
//                   timestamp) is evicted on the next touch of its shard;
//  * flow count   — inserting beyond `max_flows` evicts the least
//                   recently touched flows first;
//  * memory cap   — the caller charges buffered packets via add_buffered();
//                   exceeding `max_buffered_packets` evicts LRU flows
//                   until the cap holds again, if necessary evicting the
//                   very flow being charged, so the bound is unconditional.
//
// Decided flows become *tombstones*: their buffer charge is returned but
// the entry remains to absorb late packets, preventing a decided flow from
// reappearing as a fresh one.  Tombstones still count against (and are
// evictable under) the flow-count bound.
//
// Per shard, every byte of state is owned by that shard and the caller
// serialises access per shard (the engine processes each shard on one
// worker at a time); cross-shard aggregates (flows(), buffered_packets())
// are for reporting between parallel phases.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sscor/flow/packet.hpp"
#include "sscor/net/five_tuple.hpp"
#include "sscor/util/time.hpp"

namespace sscor::stream {

/// Engine-owned payload attached to a flow entry (the engine derives its
/// per-flow decode state from this).  Moved out to the caller on eviction.
class FlowUserState {
 public:
  virtual ~FlowUserState() = default;
};

enum class EvictionCause {
  kIdle,       ///< idle longer than the TTL
  kFlowCount,  ///< displaced by a new flow under the flow-count bound
  kMemory,     ///< displaced under the buffered-packet bound
};

const char* to_string(EvictionCause cause);

/// One tracked flow.  Pointer-stable for the entry's lifetime (entries are
/// heap-allocated); `state` is engine-owned.
struct FlowEntry {
  net::FiveTuple tuple;
  /// Global ingest sequence number of the packet that created the entry —
  /// a deterministic flow-instance id, identical across shard counts.
  std::uint64_t first_seen_seq = 0;
  TimeUs last_seen = 0;
  /// Packets routed to this flow (including ones absorbed by a tombstone).
  std::uint64_t packets = 0;
  /// Buffered packets charged against the memory cap.
  std::uint64_t buffered = 0;
  bool tombstone = false;
  std::unique_ptr<FlowUserState> state;

 private:
  friend class FlowTable;
  std::list<FlowEntry*>::iterator lru_;
};

/// A flow removed by one of the bounds, handed back to the caller with its
/// engine state so a verdict can still be reported.
struct EvictedFlow {
  net::FiveTuple tuple;
  EvictionCause cause = EvictionCause::kIdle;
  std::uint64_t first_seen_seq = 0;
  std::uint64_t packets = 0;
  bool tombstone = false;
  std::unique_ptr<FlowUserState> state;
};

/// The table-owned fields of one flow as recorded by a snapshot — the
/// input to restore_entry().  Engine-owned state (packet buffer, pair
/// decoders, held verdicts) is the engine's side of the snapshot.
struct FlowRestore {
  net::FiveTuple tuple;
  std::uint64_t first_seen_seq = 0;
  TimeUs last_seen = 0;
  std::uint64_t packets = 0;
  bool tombstone = false;
};

struct FlowTableConfig {
  std::size_t shards = 1;
  /// Maximum tracked flows across all shards; 0 = unbounded.  Split evenly
  /// per shard, so when set it must be >= `shards`.
  std::size_t max_flows = 0;
  /// Maximum buffered packets (as charged via add_buffered()) across all
  /// shards; 0 = unbounded.  When set it must be >= `shards`.
  std::size_t max_buffered_packets = 0;
  /// Evict flows idle longer than this (event time); 0 = no TTL.  Must
  /// not be negative.
  DurationUs idle_ttl = 0;
};

class FlowTable {
 public:
  explicit FlowTable(FlowTableConfig config);

  const FlowTableConfig& config() const { return config_; }
  std::size_t shard_count() const { return shards_.size(); }
  /// The shard owning `tuple`: a pure function of the tuple.
  std::size_t shard_of(const net::FiveTuple& tuple) const;

  /// Records one packet arrival for `tuple` (creating the entry if
  /// needed), running TTL and flow-count eviction first.  Evicted flows
  /// are appended to `evicted`.  A flow whose own idle gap exceeds the TTL
  /// is split: the old instance is evicted and a fresh entry (new
  /// first_seen_seq) returned.  The returned pointer is always a live
  /// entry, valid until it is evicted or the table is destroyed.
  FlowEntry* touch(std::size_t shard, const net::FiveTuple& tuple,
                   const PacketRecord& packet, std::uint64_t seq,
                   std::vector<EvictedFlow>& evicted);

  /// Charges `n` buffered packets to `entry`, evicting LRU flows while the
  /// shard exceeds its share of the memory cap.  Returns false when the
  /// cap could only be restored by evicting `entry` itself (in which case
  /// `entry` is dangling and its eviction record is in `evicted`).
  bool add_buffered(std::size_t shard, FlowEntry* entry, std::uint64_t n,
                    std::vector<EvictedFlow>& evicted);

  /// Re-creates a snapshotted flow, appended at the most-recent end of the
  /// shard's LRU — callers restore flows in recorded LRU order, which
  /// reproduces the original list exactly.  No bound runs: a restored flow
  /// was live at snapshot time and therefore satisfied every bound then.
  /// Returns the live entry (same validity contract as touch()).
  FlowEntry* restore_entry(std::size_t shard, const FlowRestore& record);

  /// Charges restored buffered packets without the eviction sweep —
  /// restore re-admits a state that already respected the memory cap.
  void restore_buffered(std::size_t shard, FlowEntry* entry, std::uint64_t n);

  /// Marks `entry` decided: its buffer charge is returned and later
  /// packets are absorbed without decode work.  The engine releases the
  /// actual packet storage itself.
  void tombstone(std::size_t shard, FlowEntry* entry);

  /// Visits every live entry of `shard`.
  template <typename Fn>
  void for_each(std::size_t shard, Fn&& fn) {
    for (FlowEntry* entry : shards_[shard].lru) fn(*entry);
  }

  std::size_t flows(std::size_t shard) const;
  std::size_t flows() const;
  std::uint64_t buffered_packets(std::size_t shard) const;
  std::uint64_t buffered_packets() const;

 private:
  struct Shard {
    std::unordered_map<net::FiveTuple, std::unique_ptr<FlowEntry>,
                       net::FiveTupleHash>
        flows;
    /// Front = least recently touched.
    std::list<FlowEntry*> lru;
    std::uint64_t buffered = 0;
  };

  /// Removes `entry` from `shard`, appending its record to `evicted`.
  void evict(Shard& shard, FlowEntry* entry, EvictionCause cause,
             std::vector<EvictedFlow>& evicted);
  void evict_idle(Shard& shard, TimeUs now, std::vector<EvictedFlow>& evicted);

  FlowTableConfig config_;
  std::size_t max_flows_per_shard_ = 0;
  std::uint64_t max_buffered_per_shard_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace sscor::stream
