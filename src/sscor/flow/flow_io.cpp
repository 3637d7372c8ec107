#include "sscor/flow/flow_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

#include "sscor/util/error.hpp"

namespace sscor {
namespace {

constexpr const char* kMagic = "# sscor-flow v1";

/// Parses the whole token as a number of type T.  Unlike istream extraction
/// this rejects trailing junk inside the token and — for unsigned T — an
/// explicit sign, which istream used to wrap modulo 2^n without failing.
template <typename T>
bool parse_number(const std::string& token, T& out) {
  const char* const begin = token.data();
  const char* const end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void write_flow_text(std::ostream& out, const Flow& flow) {
  out << kMagic;
  if (!flow.id().empty()) out << ' ' << flow.id();
  out << '\n';
  for (const auto& p : flow.packets()) {
    out << p.timestamp << ' ' << p.size << ' ' << (p.is_chaff ? 1 : 0)
        << '\n';
  }
  if (!out) throw IoError("flow text write failed");
}

void write_flow_file(const std::string& path, const Flow& flow) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw IoError("cannot open flow file for writing: " + path);
  write_flow_text(out, flow);
}

Flow read_flow_text(std::istream& in) {
  std::string header;
  if (!std::getline(in, header) ||
      header.compare(0, std::string(kMagic).size(), kMagic) != 0) {
    throw IoError("missing sscor-flow header");
  }
  std::string id;
  if (header.size() > std::string(kMagic).size() + 1) {
    id = header.substr(std::string(kMagic).size() + 1);
  }

  std::vector<PacketRecord> packets;
  std::string line;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    const std::optional<PacketRecord> p = read_packet_fields(fields);
    if (!p) {
      throw IoError("malformed flow line " + std::to_string(line_number) +
                    ": " + line);
    }
    if (!packets.empty() && p->timestamp < packets.back().timestamp) {
      throw IoError("timestamps must be non-decreasing at line " +
                    std::to_string(line_number));
    }
    packets.push_back(*p);
  }
  return Flow(std::move(packets), std::move(id));
}

std::optional<PacketRecord> read_packet_fields(std::istream& fields) {
  PacketRecord p;
  std::string ts_token, size_token, chaff_token, extra;
  if (!(fields >> ts_token >> size_token >> chaff_token) ||
      fields >> extra ||  // trailing tokens are malformed, not ignorable
      !parse_number(ts_token, p.timestamp) ||
      !parse_number(size_token, p.size) ||
      (chaff_token != "0" && chaff_token != "1")) {
    return std::nullopt;
  }
  p.is_chaff = chaff_token == "1";
  return p;
}

Flow read_flow_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open flow file: " + path);
  return read_flow_text(in);
}

}  // namespace sscor
