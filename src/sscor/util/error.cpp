#include "sscor/util/error.hpp"

namespace sscor {

Error::Error(std::string_view function, std::string_view message)
    : std::runtime_error(
          std::string(function).append(": ").append(message)),
      message_offset_(function.size() + 2) {}

namespace detail {

void throw_invalid_argument(std::string_view what, std::source_location loc) {
  throw InvalidArgument(loc.function_name(), what);
}

void throw_internal_error(std::string_view what, std::source_location loc) {
  throw InternalError(loc.function_name(),
                      std::string("invariant violated: ").append(what));
}

}  // namespace detail
}  // namespace sscor
