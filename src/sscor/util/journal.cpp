#include "sscor/util/journal.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <utility>

#include "sscor/util/error.hpp"
#include "sscor/util/metrics.hpp"

namespace sscor::journal {
namespace {

/// Slice-by-8 tables: kCrcTables[0] is the classic byte-at-a-time table,
/// and kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so
/// eight table lookups advance the CRC over eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][n] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      const std::uint32_t prev = tables[k - 1][n];
      tables[k][n] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian load assembled from bytes, so the CRC is the same on any
/// host byte order (compilers fold it into one load on little-endian).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

constexpr std::string_view kCrcPrefix = "{\"crc32\":\"";
constexpr std::string_view kDataPrefix = "\",\"data\":";

std::string hex32(std::uint32_t value) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08" PRIx32, value);
  return buf;
}

/// Splits one journal line into its verified data payload.  Returns false
/// on any structural or checksum failure.
bool parse_line(std::string_view line, std::string& data) {
  if (line.size() < kCrcPrefix.size() + 8 + kDataPrefix.size() + 1) {
    return false;
  }
  if (line.substr(0, kCrcPrefix.size()) != kCrcPrefix) return false;
  const std::string_view crc_hex = line.substr(kCrcPrefix.size(), 8);
  if (line.substr(kCrcPrefix.size() + 8, kDataPrefix.size()) != kDataPrefix) {
    return false;
  }
  if (line.back() != '}') return false;
  const std::string_view payload = line.substr(
      kCrcPrefix.size() + 8 + kDataPrefix.size(),
      line.size() - (kCrcPrefix.size() + 8 + kDataPrefix.size()) - 1);
  std::uint64_t expected = 0;
  if (!parse_hex(crc_hex, expected)) return false;
  if (crc32(payload) != static_cast<std::uint32_t>(expected)) return false;
  data.assign(payload);
  return true;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char ch : data) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

bool parse_hex(std::string_view s, std::uint64_t& out) {
  out = 0;
  if (s.empty() || s.size() > 16) return false;
  for (const char ch : s) {
    out <<= 4;
    if (ch >= '0' && ch <= '9') {
      out |= static_cast<std::uint64_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      out |= static_cast<std::uint64_t>(ch - 'a' + 10);
    } else {
      return false;
    }
  }
  return true;
}

std::size_t repair_torn_tail(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb+");
  if (file == nullptr) return 0;  // nothing to repair
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    throw IoError("cannot seek journal file: " + path);
  }
  const long size = std::ftell(file);
  if (size <= 0) {
    std::fclose(file);
    return 0;
  }
  // Walk backwards in chunks until the last '\n'; a journal's tail is
  // normally the final record, so the first chunk almost always suffices.
  long keep = 0;  // bytes up to and including the last newline
  char buffer[4096];
  long end = size;
  while (end > 0 && keep == 0) {
    const long begin = std::max(0L, end - static_cast<long>(sizeof buffer));
    const auto span = static_cast<std::size_t>(end - begin);
    if (std::fseek(file, begin, SEEK_SET) != 0 ||
        std::fread(buffer, 1, span, file) != span) {
      std::fclose(file);
      throw IoError("cannot read journal tail: " + path);
    }
    for (std::size_t i = span; i-- > 0;) {
      if (buffer[i] == '\n') {
        keep = begin + static_cast<long>(i) + 1;
        break;
      }
    }
    end = begin;
  }
  if (keep == size) {
    std::fclose(file);
    return 0;  // clean tail: the file ends in '\n'
  }
  const int fd = ::fileno(file);
  if (fd < 0 || ::ftruncate(fd, keep) != 0) {
    std::fclose(file);
    throw IoError("cannot truncate torn journal tail: " + path);
  }
  std::fclose(file);
  const auto removed = static_cast<std::size_t>(size - keep);
  metrics::counter("checkpoint.torn_tail_bytes").add(removed);
  return removed;
}

Journal Journal::create(const std::string& path,
                        const std::string& header_data, bool fsync) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw IoError("cannot create journal file: " + path);
  }
  Journal journal(file, fsync);
  journal.append(header_data);
  journal.appended_ = 0;  // the header is not a body record
  return journal;
}

Journal Journal::append_to(const std::string& path, bool fsync) {
  // A SIGKILL mid-write leaves a torn final line; appending blindly would
  // glue the next record onto the fragment, producing one CRC-corrupt
  // line that loses both records on the next load.  Truncate the
  // fragment first so every append starts on a fresh line.
  repair_torn_tail(path);
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    throw IoError("cannot open journal file for append: " + path);
  }
  return Journal(file, fsync);
}

Journal::Journal(Journal&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      fsync_(other.fsync_),
      appended_(other.appended_),
      bytes_(other.bytes_) {}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = std::exchange(other.file_, nullptr);
    fsync_ = other.fsync_;
    appended_ = other.appended_;
    bytes_ = other.bytes_;
  }
  return *this;
}

Journal::~Journal() {
  if (file_ != nullptr) std::fclose(file_);
}

std::uint32_t Journal::append(const std::string& data) {
  check_invariant(file_ != nullptr, "append on a moved-from journal");
  static metrics::Histogram& append_us =
      metrics::histogram("journal.append_us");
  static metrics::Counter& records = metrics::counter("journal.records");
  const metrics::ScopedTimer timer(append_us, "journal.append");
  const std::uint32_t crc = crc32(data);
  std::string line;
  line.reserve(data.size() + 32);
  line.append(kCrcPrefix);
  line.append(hex32(crc));
  line.append(kDataPrefix);
  line.append(data);
  line.append("}\n");
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    throw IoError("journal append failed (disk full?)");
  }
  if (fsync_) sync();
  ++appended_;
  bytes_ += line.size();
  records.add();
  return crc;
}

void Journal::sync() {
  check_invariant(file_ != nullptr, "sync on a moved-from journal");
  static metrics::Counter& fsyncs = metrics::counter("journal.fsyncs");
  const int fd = ::fileno(file_);
  if (std::fflush(file_) != 0 || fd < 0 || ::fsync(fd) != 0) {
    throw IoError("journal fsync failed");
  }
  fsyncs.add();
}

LoadedJournal load_journal(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    throw IoError("cannot read journal file: " + path);
  }
  std::string contents;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    contents.append(buffer, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) throw IoError("error reading journal file: " + path);

  LoadedJournal loaded;
  bool saw_header = false;
  std::size_t pos = 0;
  while (pos < contents.size()) {
    auto newline = contents.find('\n', pos);
    const bool torn_tail = newline == std::string::npos;
    if (torn_tail) newline = contents.size();
    const std::string_view line(contents.data() + pos, newline - pos);
    pos = newline + 1;
    if (line.empty()) continue;
    std::string data;
    if (!parse_line(line, data)) {
      if (!saw_header) {
        // A journal whose very first line is unreadable is not this run's
        // journal (or lost its header to corruption): refuse to resume.
        throw IoError("journal header corrupt in " + path);
      }
      // A torn final line is the expected SIGKILL signature; a corrupt
      // middle line just costs that record.
      ++loaded.dropped_lines;
      continue;
    }
    if (!saw_header) {
      loaded.header = std::move(data);
      saw_header = true;
    } else {
      loaded.records.push_back(std::move(data));
    }
  }
  if (!saw_header) {
    throw IoError("journal file has no header record: " + path);
  }
  return loaded;
}

}  // namespace sscor::journal
