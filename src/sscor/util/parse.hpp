// Unsigned integers read from text: the one rule the command-line tools
// and the key file share.
//
// A number is decimal, or hexadecimal after "0x" or "0X".  It has no sign
// and no surrounding space, and a leading zero is not octal ("030" is
// thirty).  It must fit the field it is read into: each caller passes the
// largest value its destination holds.

#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace sscor {

/// Parses `text` under the rule above.  Throws InvalidArgument naming
/// `what` (a flag or a field) when `text` is not such a number, carries a
/// sign, or exceeds `max`.
std::uint64_t parse_unsigned(
    std::string_view text, std::string_view what,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace sscor
