#include "sscor/stream/durability.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <charconv>
#include <csignal>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "sscor/util/error.hpp"
#include "sscor/util/json_parse.hpp"
#include "sscor/util/metrics.hpp"

namespace sscor::stream {
namespace {

constexpr int kWalVersion = 1;
constexpr int kSnapshotVersion = 1;
constexpr int kDeltaVersion = 1;

/// A snapshot point compacts — writes a new base instead of a delta — once
/// the delta log holds more than this many times the base's bytes.  At 1,
/// bases add at most as many bytes as the deltas before them, so a run
/// writes at most twice its delta bytes, and a resume folds at most about
/// one base's worth of deltas.
constexpr std::uint64_t kCompactionRatio = 1;

std::string u64(std::uint64_t v) { return std::to_string(v); }
std::string boolean(bool v) { return v ? "true" : "false"; }

template <typename Integer>
void append_number(std::string& out, Integer v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_tuple(std::string& out, const net::FiveTuple& tuple) {
  out += "{\"src_ip\":";
  append_number(out, tuple.src_ip.value);
  out += ",\"dst_ip\":";
  append_number(out, tuple.dst_ip.value);
  out += ",\"src_port\":";
  append_number(out, tuple.src_port);
  out += ",\"dst_port\":";
  append_number(out, tuple.dst_port);
  out += ",\"proto\":";
  append_number(out, static_cast<std::uint64_t>(tuple.protocol));
  out += '}';
}

net::FiveTuple decode_tuple(const json::Value& v) {
  net::FiveTuple tuple;
  tuple.src_ip.value = static_cast<std::uint32_t>(v.at("src_ip").as_uint());
  tuple.dst_ip.value = static_cast<std::uint32_t>(v.at("dst_ip").as_uint());
  tuple.src_port = static_cast<std::uint16_t>(v.at("src_port").as_uint());
  tuple.dst_port = static_cast<std::uint16_t>(v.at("dst_port").as_uint());
  tuple.protocol =
      static_cast<net::IpProtocol>(v.at("proto").as_uint());
  return tuple;
}

StreamVerdict decode_verdict_value(const json::Value& v) {
  StreamVerdict verdict;
  verdict.tuple = decode_tuple(v.at("tuple"));
  verdict.flow_seq = v.at("flow_seq").as_uint();
  verdict.upstream = static_cast<std::size_t>(v.at("upstream").as_uint());
  const auto kind = v.at("kind").as_uint();
  require(kind <= 3, "verdict kind out of range");
  verdict.kind = static_cast<VerdictKind>(kind);
  verdict.early = v.at("early").as_bool();
  verdict.packets_seen = v.at("packets_seen").as_uint();
  const json::Value& r = v.at("result");
  const auto algorithm = r.at("algorithm").as_uint();
  require(algorithm <= 3, "verdict algorithm out of range");
  verdict.result.algorithm = static_cast<Algorithm>(algorithm);
  verdict.result.correlated = r.at("correlated").as_bool();
  verdict.result.hamming =
      static_cast<std::uint32_t>(r.at("hamming").as_uint());
  verdict.result.best_watermark = Watermark::parse(r.at("wm").as_string());
  verdict.result.cost = r.at("cost").as_uint();
  verdict.result.matching_complete = r.at("matching_complete").as_bool();
  verdict.result.cost_bound_hit = r.at("cost_bound_hit").as_bool();
  verdict.result.interrupted = r.at("interrupted").as_bool();
  const auto stop = r.at("stop_reason").as_uint();
  require(stop <= 2, "verdict stop_reason out of range");
  verdict.result.stop_reason = static_cast<StopReason>(stop);
  verdict.result.degraded = r.at("degraded").as_bool();
  return verdict;
}

void append_packet(std::string& out, const PacketRecord& packet) {
  out += '[';
  append_number(out, packet.timestamp);
  out += ',';
  append_number(out, packet.size);
  out += packet.is_chaff ? ",1]" : ",0]";
}

/// Appends one flow record: its table fields, its buffered packets from
/// index `from` on, and its held verdicts.  A base record holds every
/// packet and no offset; a delta record (`delta`) names the offset at
/// which its packets continue the flow's buffer.
void append_flow(std::string& out, const EngineSnapshot::Flow& flow,
                 std::size_t from, bool delta) {
  out += "{\"tuple\":";
  append_tuple(out, flow.entry.tuple);
  out += ",\"first_seen_seq\":";
  append_number(out, flow.entry.first_seen_seq);
  out += ",\"last_seen\":";
  append_number(out, flow.entry.last_seen);
  out += ",\"packets\":";
  append_number(out, flow.entry.packets);
  out += ",\"tombstone\":";
  out += boolean(flow.entry.tombstone);
  if (delta) {
    out += ",\"offset\":";
    append_number(out, from);
  }
  out += ",\"buffered\":[";
  for (std::size_t i = from; i < flow.buffered.size(); ++i) {
    if (i != from) out += ',';
    append_packet(out, flow.buffered[i]);
  }
  out += "],\"held\":[";
  for (std::size_t i = 0; i < flow.held.size(); ++i) {
    if (i != 0) out += ',';
    out += encode_verdict(flow.held[i]);
  }
  out += "]}";
}

void append_tallies(std::string& out, const EngineSnapshot::Shard& shard) {
  out += "\"verdicts_emitted\":";
  append_number(out, shard.verdicts_emitted);
  out += ",\"tally\":[";
  for (std::size_t k = 0; k < 4; ++k) {
    if (k != 0) out += ',';
    append_number(out, shard.tally_by_kind[k]);
  }
  out += "],\"tally_early\":";
  append_number(out, shard.tally_early);
}

void decode_tallies(const json::Value& v, EngineSnapshot::Shard& shard) {
  shard.verdicts_emitted = v.at("verdicts_emitted").as_uint();
  const auto& tally = v.at("tally").as_array();
  require(tally.size() == 4, "snapshot tally must have 4 kinds");
  for (std::size_t k = 0; k < 4; ++k) {
    shard.tally_by_kind[k] = tally[k].as_uint();
  }
  shard.tally_early = v.at("tally_early").as_uint();
}

EngineSnapshot::Flow decode_flow(const json::Value& v) {
  // Keys are read by name, so older version-1 snapshots still restore: the
  // extra per-flow keys they carry (first_seen, ring_pushed, ring) are
  // ignored.
  EngineSnapshot::Flow flow;
  flow.entry.tuple = decode_tuple(v.at("tuple"));
  flow.entry.first_seen_seq = v.at("first_seen_seq").as_uint();
  flow.entry.last_seen = v.at("last_seen").as_int();
  flow.entry.packets = v.at("packets").as_uint();
  flow.entry.tombstone = v.at("tombstone").as_bool();
  for (const json::Value& p : v.at("buffered").as_array()) {
    const auto& fields = p.as_array();
    require(fields.size() == 3, "snapshot packet must have 3 fields");
    PacketRecord record;
    record.timestamp = fields[0].as_int();
    record.size = static_cast<std::uint32_t>(fields[1].as_uint());
    record.is_chaff = fields[2].as_uint() == 1;
    flow.buffered.push_back(record);
  }
  for (const json::Value& h : v.at("held").as_array()) {
    flow.held.push_back(decode_verdict_value(h));
  }
  return flow;
}

/// Creates `dir` (one level) when missing; throws IoError when it cannot
/// exist afterwards.
void ensure_dir(const std::string& dir) {
  struct stat st{};
  if (::stat(dir.c_str(), &st) == 0) {
    if (!S_ISDIR(st.st_mode)) {
      throw IoError("state dir exists but is not a directory: " + dir);
    }
    return;
  }
  if (::mkdir(dir.c_str(), 0755) != 0) {
    throw IoError("cannot create state dir: " + dir);
  }
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::uint64_t dedup_key(const StreamVerdict& verdict) {
  require(verdict.upstream < (1u << 16),
          "durability supports at most 65535 upstreams");
  return (verdict.flow_seq << 16) | static_cast<std::uint64_t>(verdict.upstream);
}

/// A base's identity, by which the delta log's header names the base it
/// extends: a hash over the CRC-32s of the base's header and records, in
/// file order.  The writer collects the CRCs its appends return; resume
/// recomputes them from the loaded records.
class BaseId {
 public:
  void add(std::uint32_t crc) {
    for (int shift = 0; shift < 32; shift += 8) {
      crcs_ += static_cast<char>((crc >> shift) & 0xFFu);
    }
  }
  std::string hex() const { return journal::hex64(journal::fnv1a64(crcs_)); }

 private:
  std::string crcs_;
};

/// Decodes a base whose header was already checked.  Throws on any
/// structural damage.
EngineSnapshot decode_base(const json::Value& header,
                           const journal::LoadedJournal& base) {
  EngineSnapshot snapshot;
  snapshot.next_seq = header.at("next_seq").as_uint();
  const auto shard_count =
      static_cast<std::size_t>(header.at("shards").as_uint());
  snapshot.shards.resize(shard_count);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < shard_count; ++i) {
    require(cursor < base.records.size(), "snapshot truncated");
    const json::Value sh = json::parse(base.records[cursor++]);
    EngineSnapshot::Shard& shard = snapshot.shards[i];
    require(sh.at("shard").as_uint() == i, "snapshot shard order");
    decode_tallies(sh, shard);
    const auto flows = static_cast<std::size_t>(sh.at("flows").as_uint());
    shard.flows.reserve(flows);
    for (std::size_t f = 0; f < flows; ++f) {
      require(cursor < base.records.size(), "snapshot truncated");
      shard.flows.push_back(decode_flow(json::parse(base.records[cursor++])));
    }
  }
  require(cursor == base.records.size() && base.dropped_lines == 0,
          "snapshot has unexpected trailing or corrupt records");
  return snapshot;
}

/// One decoded delta record: the state at one snapshot point, relative to
/// the point before it.
struct Delta {
  struct Shard {
    /// Tallies only, no flows: those are `order` and `flows`.
    EngineSnapshot::Shard tallies;
    /// first_seen_seq of every live flow, LRU order.
    std::vector<std::uint64_t> order;
    /// Changed flows, each with the buffer offset its packets continue at.
    std::vector<std::pair<std::size_t, EngineSnapshot::Flow>> flows;
  };
  /// Index of the record in its log.
  std::uint64_t point = 0;
  std::uint64_t next_seq = 0;
  std::vector<Shard> shards;
};

Delta decode_delta(const std::string& text) {
  const json::Value v = json::parse(text);
  Delta delta;
  delta.point = v.at("point").as_uint();
  delta.next_seq = v.at("next_seq").as_uint();
  for (const json::Value& sh : v.at("shards").as_array()) {
    Delta::Shard& shard = delta.shards.emplace_back();
    decode_tallies(sh, shard.tallies);
    for (const json::Value& seq : sh.at("order").as_array()) {
      shard.order.push_back(seq.as_uint());
    }
    for (const json::Value& flow : sh.at("flows").as_array()) {
      shard.flows.emplace_back(
          static_cast<std::size_t>(flow.at("offset").as_uint()),
          decode_flow(flow));
    }
  }
  return delta;
}

/// One shard of the fold's working state: live flows by first_seen_seq,
/// and their LRU order.
struct FoldShard {
  std::unordered_map<std::uint64_t, EngineSnapshot::Flow> flows;
  std::vector<std::uint64_t> order;
};

/// Throws unless `delta` applies to the folded state: the same shards, no
/// step back in sequence, and every flow it names either live already or
/// carried in the record, with an offset inside its buffer.
void check_extends(const Delta& delta, const EngineSnapshot& state,
                   const std::vector<FoldShard>& shards) {
  require(delta.shards.size() == shards.size(), "delta shard count");
  require(delta.next_seq >= state.next_seq, "delta steps back in sequence");
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Delta::Shard& in = delta.shards[i];
    const FoldShard& have = shards[i];
    const std::unordered_set<std::uint64_t> live(in.order.begin(),
                                                 in.order.end());
    require(live.size() == in.order.size(), "delta orders a flow twice");
    std::unordered_set<std::uint64_t> carried;
    for (const auto& [offset, flow] : in.flows) {
      const std::uint64_t seq = flow.entry.first_seen_seq;
      require(carried.insert(seq).second, "delta carries a flow twice");
      require(live.count(seq) == 1, "delta carries a flow it does not order");
      const auto it = have.flows.find(seq);
      const std::size_t buffered =
          it == have.flows.end() ? 0 : it->second.buffered.size();
      require(offset <= buffered, "delta offset past the flow's buffer");
    }
    for (const std::uint64_t seq : in.order) {
      require(carried.count(seq) == 1 || have.flows.count(seq) == 1,
              "delta orders an unknown flow");
    }
  }
}

/// Applies a delta that check_extends() accepted.
void apply_delta(Delta delta, EngineSnapshot& state,
                 std::vector<FoldShard>& shards) {
  state.next_seq = delta.next_seq;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    Delta::Shard& in = delta.shards[i];
    FoldShard& have = shards[i];
    // Both hold no flows while folding: the flows live in `shards`.
    state.shards[i] = std::move(in.tallies);
    for (auto& [offset, flow] : in.flows) {
      const auto it = have.flows.find(flow.entry.first_seen_seq);
      if (it == have.flows.end()) {
        have.flows.emplace(flow.entry.first_seen_seq, std::move(flow));
        continue;
      }
      EngineSnapshot::Flow& kept = it->second;
      kept.entry = flow.entry;
      kept.buffered.resize(offset);
      kept.buffered.insert(kept.buffered.end(), flow.buffered.begin(),
                           flow.buffered.end());
      kept.held = std::move(flow.held);
    }
    // A flow missing from the order left the table: it was evicted.
    std::unordered_map<std::uint64_t, EngineSnapshot::Flow> live;
    live.reserve(in.order.size());
    for (const std::uint64_t seq : in.order) {
      live.insert(have.flows.extract(seq));
    }
    have.flows = std::move(live);
    have.order = std::move(in.order);
  }
}

/// Folds the delta log at `path` into `snapshot`, the base it extends.
/// Records apply in order up to the first torn, corrupt or inapplicable
/// one; the points from there on are lost and counted.  A log that is
/// missing, headerless or names another base is ignored.
void fold_delta_log(const std::string& path, std::uint64_t fingerprint,
                    const std::string& base_id, EngineSnapshot& snapshot) {
  static metrics::Counter& ignored =
      metrics::counter("durability.snapshot.delta_log_ignored");
  static metrics::Counter& lost =
      metrics::counter("durability.snapshot.deltas_lost");
  if (!file_exists(path)) return;
  journal::LoadedJournal log;
  try {
    log = journal::load_journal(path);
    const json::Value header = json::parse(log.header);
    std::uint64_t recorded = 0;
    if (header.at("kind").as_string() != "sscor-snapshot-delta" ||
        header.at("version").as_int() != kDeltaVersion ||
        !journal::parse_hex(header.at("fingerprint").as_string(),
                            recorded) ||
        recorded != fingerprint ||
        header.at("base").as_string() != base_id) {
      // Left behind by a crash between a base's rename and the log's
      // reset, or by a binary that wrote the base alone.
      ignored.add();
      return;
    }
  } catch (const Error&) {
    // Cut before its header was complete: there is nothing to fold.
    ignored.add();
    return;
  }

  std::vector<FoldShard> shards(snapshot.shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    for (EngineSnapshot::Flow& flow : snapshot.shards[i].flows) {
      const std::uint64_t seq = flow.entry.first_seen_seq;
      require(shards[i].flows.emplace(seq, std::move(flow)).second,
              "snapshot holds a flow twice");
      shards[i].order.push_back(seq);
    }
    snapshot.shards[i].flows.clear();
  }
  std::size_t folded = 0;
  for (; folded < log.records.size(); ++folded) {
    try {
      Delta delta = decode_delta(log.records[folded]);
      require(delta.point == folded, "delta record out of sequence");
      check_extends(delta, snapshot, shards);
      apply_delta(std::move(delta), snapshot, shards);
    } catch (const Error&) {
      break;  // the state stays at the last good point
    }
  }
  const std::size_t missing =
      log.dropped_lines + (log.records.size() - folded);
  if (missing > 0) lost.add(missing);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    std::vector<EngineSnapshot::Flow>& flows = snapshot.shards[i].flows;
    flows.reserve(shards[i].order.size());
    for (const std::uint64_t seq : shards[i].order) {
      flows.push_back(std::move(shards[i].flows.at(seq)));
    }
  }
}

}  // namespace

std::string encode_verdict(const StreamVerdict& verdict) {
  std::string out = "{\"tuple\":";
  append_tuple(out, verdict.tuple);
  out += ",\"flow_seq\":" + u64(verdict.flow_seq);
  out += ",\"upstream\":" + u64(verdict.upstream);
  out += ",\"kind\":" + u64(static_cast<std::uint64_t>(verdict.kind));
  out += ",\"early\":" + boolean(verdict.early);
  out += ",\"packets_seen\":" + u64(verdict.packets_seen);
  const CorrelationResult& r = verdict.result;
  out += ",\"result\":{\"algorithm\":" +
         u64(static_cast<std::uint64_t>(r.algorithm));
  out += ",\"correlated\":" + boolean(r.correlated);
  out += ",\"hamming\":" + u64(r.hamming);
  out += ",\"wm\":\"" + r.best_watermark.to_string() + "\"";
  out += ",\"cost\":" + u64(r.cost);
  out += ",\"matching_complete\":" + boolean(r.matching_complete);
  out += ",\"cost_bound_hit\":" + boolean(r.cost_bound_hit);
  out += ",\"interrupted\":" + boolean(r.interrupted);
  out += ",\"stop_reason\":" + u64(static_cast<std::uint64_t>(r.stop_reason));
  out += ",\"degraded\":" + boolean(r.degraded);
  out += "}}";
  return out;
}

StreamVerdict decode_verdict(const std::string& text) {
  return decode_verdict_value(json::parse(text));
}

DurableSession::DurableSession(DurabilityOptions options,
                               std::uint64_t fingerprint)
    : options_(std::move(options)), fingerprint_(fingerprint) {
  require(!options_.state_dir.empty(), "state_dir must be set");
  require(options_.snapshot_interval >= 1,
          "snapshot_interval must be >= 1");
  ensure_dir(options_.state_dir);
  wal_path_ = options_.state_dir + "/verdicts.wal";
  snapshot_path_ = options_.state_dir + "/snapshot.journal";
  delta_path_ = options_.state_dir + "/snapshot.delta";
}

void DurableSession::begin_fresh() {
  std::remove(wal_path_.c_str());
  std::remove(snapshot_path_.c_str());
  std::remove((snapshot_path_ + ".tmp").c_str());
  std::remove(delta_path_.c_str());
  const std::string header = "{\"kind\":\"sscor-wal\",\"version\":" +
                             std::to_string(kWalVersion) +
                             ",\"fingerprint\":\"" +
                             journal::hex64(fingerprint_) + "\"}";
  wal_.emplace(journal::Journal::create(wal_path_, header, options_.fsync));
  seen_.clear();
  delta_.reset();
  marks_.clear();
  last_snapshot_seq_ = 0;
}

ResumeState DurableSession::resume() {
  if (!file_exists(wal_path_)) {
    // Nothing to recover: --resume on a first run degrades to a fresh
    // start instead of failing, so a supervisor can always pass it.
    begin_fresh();
    return {};
  }
  ResumeState state;
  const journal::LoadedJournal wal = journal::load_journal(wal_path_);
  {
    const json::Value header = json::parse(wal.header);
    if (header.at("kind").as_string() != "sscor-wal" ||
        header.at("version").as_int() != kWalVersion) {
      throw IoError("not a sscor verdict WAL: " + wal_path_);
    }
    std::uint64_t recorded = 0;
    if (!journal::parse_hex(header.at("fingerprint").as_string(), recorded) ||
        recorded != fingerprint_) {
      throw IoError(
          "WAL fingerprint mismatch: the state dir belongs to a run with "
          "different upstreams/config; use a fresh --state-dir");
    }
  }
  state.dropped_lines = wal.dropped_lines;
  state.committed.reserve(wal.records.size());
  for (const std::string& record : wal.records) {
    try {
      StreamVerdict verdict = decode_verdict(record);
      seen_.insert(dedup_key(verdict));
      state.committed.push_back(std::move(verdict));
    } catch (const Error&) {
      // CRC-clean but undecodable: count it with the corrupt lines — the
      // verdict will be regenerated by catch-up.
      ++state.dropped_lines;
    }
  }

  if (file_exists(snapshot_path_)) {
    try {
      const journal::LoadedJournal snap = journal::load_journal(snapshot_path_);
      const json::Value header = json::parse(snap.header);
      if (header.at("kind").as_string() != "sscor-snapshot" ||
          header.at("version").as_int() != kSnapshotVersion) {
        throw IoError("not a sscor snapshot: " + snapshot_path_);
      }
      std::uint64_t recorded = 0;
      if (!journal::parse_hex(header.at("fingerprint").as_string(),
                              recorded) ||
          recorded != fingerprint_) {
        throw IoError(
            "snapshot fingerprint mismatch: the state dir belongs to a run "
            "with different upstreams/config; use a fresh --state-dir");
      }
      EngineSnapshot snapshot = decode_base(header, snap);
      BaseId base_id;
      base_id.add(journal::crc32(snap.header));
      for (const std::string& record : snap.records) {
        base_id.add(journal::crc32(record));
      }
      fold_delta_log(delta_path_, fingerprint_, base_id.hex(), snapshot);
      state.snapshot = std::move(snapshot);
      state.have_snapshot = true;
      last_snapshot_seq_ = state.snapshot.next_seq;
    } catch (const IoError&) {
      throw;  // fingerprint / wrong-kind errors are configuration bugs
    } catch (const Error&) {
      // Structurally corrupt snapshot: fall back to full feed replay —
      // the WAL still guarantees the output contract.
      metrics::counter("durability.snapshot.discarded").add();
      state.have_snapshot = false;
      state.snapshot = {};
      last_snapshot_seq_ = 0;
    }
  }

  wal_.emplace(journal::Journal::append_to(wal_path_, options_.fsync));
  return state;
}

bool DurableSession::commit(const StreamVerdict& verdict) {
  check_invariant(wal_.has_value(),
                  "commit before begin_fresh()/resume()");
  static metrics::Counter& duplicates =
      metrics::counter("durability.commits.duplicate");
  static metrics::Counter& fresh = metrics::counter("durability.commits.fresh");
  ++commits_;
  if (!seen_.insert(dedup_key(verdict)).second) {
    // Already committed by a previous incarnation: catch-up regenerated
    // it; the caller must not emit it again.
    duplicates.add();
    return false;
  }
  wal_->append(encode_verdict(verdict));
  ++fresh_commits_;
  fresh.add();
  if (options_.sigkill_after_commits >= 0 &&
      fresh_commits_ >=
          static_cast<std::uint64_t>(options_.sigkill_after_commits)) {
    // Crash exactly at a commit boundary — the hardest point for the
    // exactly-once contract (the verdict is durable but unprinted).
    ::kill(::getpid(), SIGKILL);
  }
  return true;
}

void DurableSession::maybe_snapshot(StreamEngine& engine) {
  if (engine.packets_ingested() - last_snapshot_seq_ <
      options_.snapshot_interval) {
    return;
  }
  write_snapshot(engine);
}

void DurableSession::final_snapshot(StreamEngine& engine) {
  write_snapshot(engine);
}

void DurableSession::write_snapshot(StreamEngine& engine) {
  const metrics::ScopedTimer timer("durability.snapshot.write");
  const EngineSnapshot snapshot = engine.snapshot();
  if (!delta_ || delta_->bytes() > kCompactionRatio * base_bytes_) {
    write_base(snapshot);
  } else {
    append_delta(snapshot);
  }
  marks_.clear();
  for (const EngineSnapshot::Shard& shard : snapshot.shards) {
    for (const EngineSnapshot::Flow& flow : shard.flows) {
      marks_[flow.entry.first_seen_seq] =
          FlowMark{flow.entry.last_seen, flow.entry.packets,
                   flow.buffered.size(), flow.held.size(),
                   flow.entry.tombstone};
    }
  }
  last_snapshot_seq_ = snapshot.next_seq;
  ++snapshots_written_;
  metrics::counter("durability.snapshots").add();
}

void DurableSession::write_base(const EngineSnapshot& snapshot) {
  static metrics::Counter& bases = metrics::counter("durability.snapshot.bases");
  const std::string tmp = snapshot_path_ + ".tmp";
  const std::string header =
      "{\"kind\":\"sscor-snapshot\",\"version\":" +
      std::to_string(kSnapshotVersion) + ",\"fingerprint\":\"" +
      journal::hex64(fingerprint_) + "\",\"next_seq\":" +
      u64(snapshot.next_seq) + ",\"shards\":" + u64(snapshot.shards.size()) +
      "}";
  BaseId base_id;
  base_id.add(journal::crc32(header));
  {
    journal::Journal out = journal::Journal::create(tmp, header);
    std::string record;
    for (std::size_t i = 0; i < snapshot.shards.size(); ++i) {
      const EngineSnapshot::Shard& shard = snapshot.shards[i];
      record = "{\"shard\":" + u64(i) + ",";
      append_tallies(record, shard);
      record += ",\"flows\":" + u64(shard.flows.size()) + "}";
      base_id.add(out.append(record));
      for (const EngineSnapshot::Flow& flow : shard.flows) {
        record.clear();
        append_flow(record, flow, 0, false);
        base_id.add(out.append(record));
      }
    }
    // One sync for the whole base, before the rename publishes it.
    if (options_.fsync) out.sync();
    base_bytes_ = out.bytes();
  }
  if (std::rename(tmp.c_str(), snapshot_path_.c_str()) != 0) {
    throw IoError("cannot publish snapshot: rename to " + snapshot_path_ +
                  " failed");
  }
  // Restart the log on the new base.  A crash before this line leaves the
  // old log, which names the previous base, so resume ignores it.
  delta_.reset();
  delta_.emplace(journal::Journal::create(
      delta_path_,
      "{\"kind\":\"sscor-snapshot-delta\",\"version\":" +
          std::to_string(kDeltaVersion) + ",\"fingerprint\":\"" +
          journal::hex64(fingerprint_) + "\",\"base\":\"" + base_id.hex() +
          "\"}",
      options_.fsync));
  bases.add();
}

void DurableSession::append_delta(const EngineSnapshot& snapshot) {
  static metrics::Counter& deltas =
      metrics::counter("durability.snapshot.deltas");
  std::string record = "{\"point\":";
  append_number(record, delta_->appended());
  record += ",\"next_seq\":";
  append_number(record, snapshot.next_seq);
  record += ",\"shards\":[";
  for (std::size_t i = 0; i < snapshot.shards.size(); ++i) {
    const EngineSnapshot::Shard& shard = snapshot.shards[i];
    record += i == 0 ? "{" : ",{";
    append_tallies(record, shard);
    record += ",\"order\":[";
    for (std::size_t f = 0; f < shard.flows.size(); ++f) {
      if (f != 0) record += ',';
      append_number(record, shard.flows[f].entry.first_seen_seq);
    }
    record += "],\"flows\":[";
    bool first = true;
    for (const EngineSnapshot::Flow& flow : shard.flows) {
      std::size_t from = 0;
      const auto it = marks_.find(flow.entry.first_seen_seq);
      if (it != marks_.end()) {
        const FlowMark& mark = it->second;
        if (mark.last_seen == flow.entry.last_seen &&
            mark.packets == flow.entry.packets &&
            mark.buffered == flow.buffered.size() &&
            mark.held == flow.held.size() &&
            mark.tombstone == flow.entry.tombstone) {
          continue;  // unchanged since the last point
        }
        // A buffer only grows, until a tombstone empties it.
        if (mark.buffered <= flow.buffered.size()) from = mark.buffered;
      }
      if (!first) record += ',';
      first = false;
      append_flow(record, flow, from, true);
    }
    record += "]}";
  }
  record += "]}";
  delta_->append(record);
  deltas.add();
}

}  // namespace sscor::stream
