#include "sscor/util/error.hpp"

namespace sscor::detail {

void throw_invalid_argument(std::string_view what, std::source_location loc) {
  std::string message(loc.function_name());
  message += ": ";
  message += what;
  throw InvalidArgument(message);
}

void throw_internal_error(std::string_view what, std::source_location loc) {
  std::string message(loc.function_name());
  message += ": invariant violated: ";
  message += what;
  throw InternalError(message);
}

}  // namespace sscor::detail
