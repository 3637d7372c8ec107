// Plain-text flow serialization.
//
// A simple line-oriented format for exchanging flows with external tools
// (plotting scripts, other correlators) without pcap overhead:
//
//   # sscor-flow v1 <id>
//   <timestamp_us> <size_bytes> <chaff_flag>
//   ...
//
// Timestamps must be non-decreasing; the chaff flag (0/1) carries the
// synthetic ground-truth annotation and is ignored by all algorithms.

#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "sscor/flow/flow.hpp"

namespace sscor {

/// Writes `flow` in the text format; throws IoError on stream failure.
void write_flow_text(std::ostream& out, const Flow& flow);
void write_flow_file(const std::string& path, const Flow& flow);

/// Parses a flow from the text format; throws IoError on malformed input
/// (bad header, unparsable line, decreasing timestamps).
Flow read_flow_text(std::istream& in);
Flow read_flow_file(const std::string& path);

/// Reads the rest of one text line as the three packet fields
/// `<timestamp_us> <size_bytes> <chaff_flag>`: each a whole token (no
/// sign on the size, a chaff flag of exactly 0 or 1), with nothing after
/// them.  Returns nullopt when the fields are malformed.  Shared by the
/// flow text format and the `sscor-stream v1` text feed.
std::optional<PacketRecord> read_packet_fields(std::istream& fields);

}  // namespace sscor
