#include "sscor/util/parse.hpp"

#include <charconv>
#include <string>

#include "sscor/util/error.hpp"

namespace sscor {

std::uint64_t parse_unsigned(std::string_view text, std::string_view what,
                             std::uint64_t max) {
  const auto refuse = [&](const std::string& problem) {
    throw InvalidArgument(std::string(what) + " " + problem + ", got \"" +
                          std::string(text) + "\"");
  };
  if (text.starts_with('-')) refuse("must be non-negative");
  const bool hex = text.starts_with("0x") || text.starts_with("0X");
  const char* const first = text.data() + (hex ? 2 : 0);
  const char* const last = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [end, error] = std::from_chars(first, last, value, hex ? 16 : 10);
  if (end != last || (error != std::errc() &&
                      error != std::errc::result_out_of_range)) {
    refuse("expects an integer");
  }
  if (error == std::errc::result_out_of_range || value > max) {
    refuse("must be at most " + std::to_string(max));
  }
  return value;
}

}  // namespace sscor
