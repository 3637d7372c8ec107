#include "sscor/watermark/key_file.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <string_view>

#include "sscor/util/error.hpp"
#include "sscor/util/parse.hpp"

namespace sscor {
namespace {

constexpr const char* kMagic = "# sscor-key v1";

/// The fields write_secret_text writes; read_secret_text accepts no other.
constexpr std::string_view kFields[] = {
    "bits", "redundancy", "pair_offset", "embedding_delay_us", "key",
    "watermark"};

}  // namespace

void write_secret_text(std::ostream& out, const WatermarkSecret& secret) {
  secret.params.validate();
  require(secret.watermark.size() == secret.params.bits,
          "watermark length does not match the parameters");
  out << kMagic << '\n';
  out << "bits " << secret.params.bits << '\n';
  out << "redundancy " << secret.params.redundancy << '\n';
  out << "pair_offset " << secret.params.pair_offset << '\n';
  out << "embedding_delay_us " << secret.params.embedding_delay << '\n';
  out << "key 0x" << std::hex << secret.key << std::dec << '\n';
  out << "watermark " << secret.watermark.to_string() << '\n';
  if (!out) throw IoError("secret write failed");
}

void write_secret_file(const std::string& path,
                       const WatermarkSecret& secret) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw IoError("cannot open key file for writing: " + path);
  write_secret_text(out, secret);
}

WatermarkSecret read_secret_text(std::istream& in) {
  std::string header;
  if (!std::getline(in, header) || header != kMagic) {
    throw IoError("missing sscor-key header");
  }
  // Every line is exactly "name value", and names each known field once.
  std::map<std::string, std::string, std::less<>> fields;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == 0 || space == std::string::npos ||
        space + 1 == line.size() ||
        line.find(' ', space + 1) != std::string::npos) {
      throw IoError("malformed key-file line: " + line);
    }
    std::string name = line.substr(0, space);
    if (std::find(std::begin(kFields), std::end(kFields), name) ==
        std::end(kFields)) {
      throw IoError("unknown key-file field: " + name);
    }
    if (!fields.emplace(name, line.substr(space + 1)).second) {
      throw IoError("repeated key-file field: " + name);
    }
  }
  auto get = [&](std::string_view name) -> const std::string& {
    const auto it = fields.find(name);
    if (it == fields.end()) {
      throw IoError("key file missing field: " + std::string(name));
    }
    return it->second;
  };
  // Numbers follow parse_unsigned's rule and must fit their field.  The
  // four parameters must also be at least `min` = 1, the bounds
  // WatermarkParams::validate() checks, so a bad file fails here, by name.
  auto number = [&](std::string_view name, std::uint64_t min,
                    std::uint64_t max) {
    const std::string what = "key-file field " + std::string(name);
    const std::string& text = get(name);
    std::uint64_t value = 0;
    try {
      value = parse_unsigned(text, what, max);
    } catch (const InvalidArgument& e) {
      throw IoError(e.what());
    }
    if (value < min) {
      throw IoError(what + " must be at least " + std::to_string(min) +
                    ", got \"" + text + "\"");
    }
    return value;
  };

  constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  WatermarkSecret secret;
  secret.params.bits = static_cast<std::uint32_t>(number("bits", 1, kMaxU32));
  secret.params.redundancy =
      static_cast<std::uint32_t>(number("redundancy", 1, kMaxU32));
  secret.params.pair_offset =
      static_cast<std::uint32_t>(number("pair_offset", 1, kMaxU32));
  secret.params.embedding_delay = static_cast<DurationUs>(number(
      "embedding_delay_us", 1, std::numeric_limits<DurationUs>::max()));
  secret.key = number("key", 0, std::numeric_limits<std::uint64_t>::max());
  const std::string& bits = get("watermark");
  if (bits.find_first_not_of("01") != std::string::npos) {
    throw IoError("key-file field watermark must be binary, got \"" + bits +
                  "\"");
  }
  if (bits.size() != secret.params.bits) {
    throw IoError("key-file field watermark has " +
                  std::to_string(bits.size()) + " bits, but field bits is " +
                  std::to_string(secret.params.bits));
  }
  secret.watermark = Watermark::parse(bits);
  return secret;
}

WatermarkSecret read_secret_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open key file: " + path);
  return read_secret_text(in);
}

}  // namespace sscor
