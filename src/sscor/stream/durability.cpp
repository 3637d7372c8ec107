#include "sscor/stream/durability.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>

#include "sscor/util/error.hpp"
#include "sscor/util/json_parse.hpp"
#include "sscor/util/metrics.hpp"

namespace sscor::stream {
namespace {

constexpr int kWalVersion = 1;
constexpr int kSnapshotVersion = 1;

std::string u64(std::uint64_t v) { return std::to_string(v); }
std::string i64(std::int64_t v) { return std::to_string(v); }
std::string boolean(bool v) { return v ? "true" : "false"; }

void append_tuple(std::string& out, const net::FiveTuple& tuple) {
  out += "{\"src_ip\":" + u64(tuple.src_ip.value);
  out += ",\"dst_ip\":" + u64(tuple.dst_ip.value);
  out += ",\"src_port\":" + u64(tuple.src_port);
  out += ",\"dst_port\":" + u64(tuple.dst_port);
  out += ",\"proto\":" + u64(static_cast<std::uint64_t>(tuple.protocol));
  out += "}";
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
  out += "[";
  out += i64(packet.timestamp);
  out += ",";
  out += u64(packet.size);
  out += packet.is_chaff ? ",1]" : ",0]";
}

std::string encode_flow(const EngineSnapshot::Flow& flow) {
  std::string out = "{\"tuple\":";
  append_tuple(out, flow.entry.tuple);
  out += ",\"first_seen_seq\":" + u64(flow.entry.first_seen_seq);
  out += ",\"last_seen\":" + i64(flow.entry.last_seen);
  out += ",\"packets\":" + u64(flow.entry.packets);
  out += ",\"tombstone\":" + boolean(flow.entry.tombstone);
  out += ",\"buffered\":[";
  for (std::size_t i = 0; i < flow.buffered.size(); ++i) {
    if (i != 0) out += ",";
    append_packet(out, flow.buffered[i]);
  }
  out += "],\"held\":[";
  for (std::size_t i = 0; i < flow.held.size(); ++i) {
    if (i != 0) out += ",";
    out += encode_verdict(flow.held[i]);
  }
  out += "]}";
  return out;
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
}

void DurableSession::begin_fresh() {
  std::remove(wal_path_.c_str());
  std::remove(snapshot_path_.c_str());
  std::remove((snapshot_path_ + ".tmp").c_str());
  const std::string header = "{\"kind\":\"sscor-wal\",\"version\":" +
                             std::to_string(kWalVersion) +
                             ",\"fingerprint\":\"" +
                             journal::hex64(fingerprint_) + "\"}";
  wal_.emplace(journal::Journal::create(wal_path_, header, options_.fsync));
  seen_.clear();
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
      EngineSnapshot snapshot;
      snapshot.next_seq = header.at("next_seq").as_uint();
      const auto shard_count =
          static_cast<std::size_t>(header.at("shards").as_uint());
      snapshot.shards.resize(shard_count);
      std::size_t cursor = 0;
      for (std::size_t i = 0; i < shard_count; ++i) {
        require(cursor < snap.records.size(), "snapshot truncated");
        const json::Value sh = json::parse(snap.records[cursor++]);
        EngineSnapshot::Shard& shard = snapshot.shards[i];
        require(sh.at("shard").as_uint() == i, "snapshot shard order");
        shard.verdicts_emitted = sh.at("verdicts_emitted").as_uint();
        const auto& tally = sh.at("tally").as_array();
        require(tally.size() == 4, "snapshot tally must have 4 kinds");
        for (std::size_t k = 0; k < 4; ++k) {
          shard.tally_by_kind[k] = tally[k].as_uint();
        }
        shard.tally_early = sh.at("tally_early").as_uint();
        const auto flows =
            static_cast<std::size_t>(sh.at("flows").as_uint());
        shard.flows.reserve(flows);
        for (std::size_t f = 0; f < flows; ++f) {
          require(cursor < snap.records.size(), "snapshot truncated");
          shard.flows.push_back(
              decode_flow(json::parse(snap.records[cursor++])));
        }
      }
      require(cursor == snap.records.size() && snap.dropped_lines == 0,
              "snapshot has unexpected trailing or corrupt records");
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
  const std::string tmp = snapshot_path_ + ".tmp";
  {
    std::string header = "{\"kind\":\"sscor-snapshot\",\"version\":" +
                         std::to_string(kSnapshotVersion) +
                         ",\"fingerprint\":\"" + journal::hex64(fingerprint_) +
                         "\",\"next_seq\":" + u64(snapshot.next_seq) +
                         ",\"shards\":" + u64(snapshot.shards.size()) + "}";
    journal::Journal out =
        journal::Journal::create(tmp, header, options_.fsync);
    for (std::size_t i = 0; i < snapshot.shards.size(); ++i) {
      const EngineSnapshot::Shard& shard = snapshot.shards[i];
      std::string record = "{\"shard\":" + u64(i);
      record += ",\"verdicts_emitted\":" + u64(shard.verdicts_emitted);
      record += ",\"tally\":[" + u64(shard.tally_by_kind[0]) + "," +
                u64(shard.tally_by_kind[1]) + "," +
                u64(shard.tally_by_kind[2]) + "," +
                u64(shard.tally_by_kind[3]) + "]";
      record += ",\"tally_early\":" + u64(shard.tally_early);
      record += ",\"flows\":" + u64(shard.flows.size());
      record += "}";
      out.append(record);
      for (const EngineSnapshot::Flow& flow : shard.flows) {
        out.append(encode_flow(flow));
      }
    }
  }  // closes (and with fsync, syncs) the journal before the rename
  if (std::rename(tmp.c_str(), snapshot_path_.c_str()) != 0) {
    throw IoError("cannot publish snapshot: rename to " + snapshot_path_ +
                  " failed");
  }
  last_snapshot_seq_ = snapshot.next_seq;
  ++snapshots_written_;
  metrics::counter("durability.snapshots").add();
}

}  // namespace sscor::stream
