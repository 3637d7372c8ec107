#include "sscor/experiment/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <utility>

#include "sscor/util/error.hpp"
#include "sscor/util/json.hpp"
#include "sscor/util/json_parse.hpp"

namespace sscor::experiment {
namespace {

using journal::hex64;
using journal::parse_hex;

/// Reads a record through json::parse and accepts it only when `encode`
/// reproduces `data` byte for byte.  The encoders emit one canonical
/// spelling per record, so reordered keys, extra members, whitespace,
/// trailing garbage and an overflowing size (as_uint refuses it) all
/// reject instead of decoding to a guess.
template <typename Read, typename Encode>
bool decode_canonical(const std::string& data, const Read& read,
                      const Encode& encode) {
  try {
    if (!read(json::parse(data))) return false;
  } catch (const InvalidArgument&) {
    return false;  // not JSON, a missing member, or a mistyped value
  }
  return encode() == data;
}

std::vector<std::string> string_array(const json::Value& value) {
  std::vector<std::string> out;
  for (const json::Value& item : value.as_array()) {
    out.push_back(item.as_string());
  }
  return out;
}

}  // namespace

std::string encode_checkpoint_header(std::uint64_t fingerprint,
                                     std::size_t points, std::size_t columns,
                                     const std::vector<std::string>& names) {
  std::string out = "{\"fingerprint\":\"" + hex64(fingerprint) +
                    "\",\"points\":" + std::to_string(points) +
                    ",\"columns\":" + std::to_string(columns);
  if (!names.empty()) {
    out += ",\"names\":[";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) out += ',';
      json::append_escaped(out, names[i]);
    }
    out += ']';
  }
  out += '}';
  return out;
}

bool decode_checkpoint_header(const std::string& data,
                              std::uint64_t& fingerprint, std::size_t& points,
                              std::size_t& columns,
                              std::vector<std::string>& names) {
  return decode_canonical(
      data,
      [&](const json::Value& record) {
        points = record.at("points").as_uint();
        columns = record.at("columns").as_uint();
        const json::Value* listed = record.find("names");
        names = listed != nullptr ? string_array(*listed)
                                  : std::vector<std::string>{};
        return parse_hex(record.at("fingerprint").as_string(), fingerprint);
      },
      [&] {
        return encode_checkpoint_header(fingerprint, points, columns, names);
      });
}

bool decode_checkpoint_header(const std::string& data,
                              std::uint64_t& fingerprint, std::size_t& points,
                              std::size_t& columns) {
  std::vector<std::string> names;
  return decode_checkpoint_header(data, fingerprint, points, columns, names);
}

std::string encode_checkpoint_row(std::size_t point,
                                  const std::vector<std::string>& row) {
  std::string out = "{\"point\":" + std::to_string(point) + ",\"row\":[";
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ',';
    json::append_escaped(out, row[i]);
  }
  out += "]}";
  return out;
}

bool decode_checkpoint_row(const std::string& data, std::size_t& point,
                           std::vector<std::string>& row) {
  return decode_canonical(
      data,
      [&](const json::Value& record) {
        point = record.at("point").as_uint();
        row = string_array(record.at("row"));
        return true;
      },
      [&] { return encode_checkpoint_row(point, row); });
}

std::string encode_checkpoint_claim(std::size_t point, std::size_t shard) {
  return "{\"claim\":" + std::to_string(point) +
         ",\"shard\":" + std::to_string(shard) + "}";
}

bool decode_checkpoint_claim(const std::string& data, std::size_t& point,
                             std::size_t& shard) {
  return decode_canonical(
      data,
      [&](const json::Value& record) {
        point = record.at("claim").as_uint();
        shard = record.at("shard").as_uint();
        return true;
      },
      [&] { return encode_checkpoint_claim(point, shard); });
}

std::string shard_journal_name(std::size_t index, std::size_t count) {
  return "shard-" + std::to_string(index) + "-of-" + std::to_string(count) +
         ".jsonl";
}

bool parse_shard_journal_name(std::string_view name, std::size_t& index,
                              std::size_t& count) {
  // Reads both numbers, then demands the canonical spelling back: a sign,
  // a leading zero or any other suffix fails the round trip.
  constexpr std::string_view kPrefix = "shard-";
  constexpr std::string_view kOf = "-of-";
  if (!name.starts_with(kPrefix)) return false;
  const char* const last = name.data() + name.size();
  const auto [index_end, index_error] =
      std::from_chars(name.data() + kPrefix.size(), last, index);
  if (index_error != std::errc() ||
      !std::string_view(index_end, last - index_end).starts_with(kOf) ||
      std::from_chars(index_end + kOf.size(), last, count).ec !=
          std::errc()) {
    return false;
  }
  return count > 0 && index < count &&
         shard_journal_name(index, count) == name;
}

ClusterScan scan_journal_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  ClusterScan scan;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return scan;  // nothing journaled yet

  // Collect (index, path) for every well-formed shard filename, then sort
  // by index: directory iteration order is unspecified, and the fold must
  // be deterministic for the merge to be.
  std::vector<std::pair<std::size_t, fs::path>> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::size_t index = 0, count = 0;
    const std::string name = entry.path().filename().string();
    if (!parse_shard_journal_name(name, index, count)) continue;
    if (scan.shard_count == 0) {
      scan.shard_count = count;
    } else if (scan.shard_count != count) {
      throw IoError("journal directory mixes shard counts (" +
                    std::to_string(scan.shard_count) + " and " +
                    std::to_string(count) + "): " + dir);
    }
    files.emplace_back(index, entry.path());
  }
  std::sort(files.begin(), files.end());

  bool saw_header = false;
  for (const auto& [shard, path] : files) {
    LoadedCheckpoint loaded;
    try {
      loaded = load_checkpoint(path.string());
    } catch (const IoError&) {
      // A worker that died before its header line hit the disk leaves an
      // empty or torn-header journal; its points simply recompute.
      ++scan.skipped_files;
      continue;
    }
    std::uint64_t fingerprint = 0;
    std::size_t points = 0, columns = 0;
    std::vector<std::string> names;
    if (!decode_checkpoint_header(loaded.header, fingerprint, points, columns,
                                  names)) {
      ++scan.skipped_files;
      continue;
    }
    if (!saw_header) {
      scan.fingerprint = fingerprint;
      scan.points = points;
      scan.columns = columns;
      scan.names = std::move(names);
      scan.rows.assign(points, {});
      scan.have.assign(points, 0);
      scan.row_shard.assign(points, 0);
      saw_header = true;
    } else if (fingerprint != scan.fingerprint || points != scan.points ||
               columns != scan.columns || names != scan.names) {
      throw IoError("shard journal written by a different sweep: " +
                    path.string());
    }
    scan.dropped_lines += loaded.dropped_lines;
    for (const std::string& record : loaded.records) {
      std::size_t p = 0;
      std::vector<std::string> row;
      std::size_t claim_shard = 0;
      if (decode_checkpoint_row(record, p, row)) {
        if (p >= scan.points || row.size() != scan.columns) {
          ++scan.dropped_lines;
          continue;
        }
        if (scan.have[p] != 0) {
          if (scan.rows[p] != row) {
            throw IoError("conflicting rows for point " + std::to_string(p) +
                          " (shards " + std::to_string(scan.row_shard[p]) +
                          " and " + std::to_string(shard) + "): " + dir);
          }
          ++scan.duplicate_rows;
          continue;
        }
        scan.rows[p] = std::move(row);
        scan.have[p] = 1;
        scan.row_shard[p] = shard;
      } else if (decode_checkpoint_claim(record, p, claim_shard)) {
        if (p >= scan.points) {
          ++scan.dropped_lines;
          continue;
        }
        const auto entry = std::make_pair(claim_shard, p);
        if (std::find(scan.claims.begin(), scan.claims.end(), entry) !=
            scan.claims.end()) {
          ++scan.duplicate_claims;
          continue;
        }
        scan.claims.push_back(entry);
      } else {
        ++scan.dropped_lines;
      }
    }
    ++scan.shard_files;
  }
  return scan;
}

TextTable merge_cluster(const ClusterScan& scan) {
  if (scan.shard_files == 0) {
    throw IoError("no readable shard journals to merge");
  }
  if (scan.names.empty()) {
    throw IoError(
        "shard journal headers carry no column names (pre-cluster format); "
        "re-run the sweep to merge");
  }
  if (scan.names.size() != scan.columns) {
    throw IoError("shard journal header is inconsistent: " +
                  std::to_string(scan.names.size()) + " names for " +
                  std::to_string(scan.columns) + " columns");
  }
  if (!scan.complete()) {
    std::string missing;
    for (const std::size_t p : scan.missing_points()) {
      if (!missing.empty()) missing += ',';
      missing += std::to_string(p);
    }
    throw IoError("cluster journal is incomplete; missing point(s) " +
                  missing + " — resume the owning/claiming worker(s) first");
  }
  TextTable table(scan.names);
  for (std::size_t p = 0; p < scan.points; ++p) {
    table.add_row(scan.rows[p]);
  }
  return table;
}

}  // namespace sscor::experiment
