// Error handling for sscor.
//
// The library throws exceptions for contract violations and unrecoverable
// I/O errors (Core Guidelines E.2/E.14): all exception types derive from
// sscor::Error so callers can catch the library's failures in one place.
// Recoverable "not found"/"does not correlate" outcomes are ordinary return
// values, never exceptions.

#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace sscor {

/// Base class of every exception thrown by sscor.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
  /// A failed check raised in `function`: what() reads
  /// "<function>: <message>".
  Error(std::string_view function, std::string_view message);

  /// what() without the raising function's name, which only a failed
  /// check carries: the text a user is shown.
  const char* message() const noexcept { return what() + message_offset_; }

 private:
  std::size_t message_offset_ = 0;
};

/// A caller violated a documented precondition.
class InvalidArgument : public Error {
 public:
  using Error::Error;
};

/// A file could not be read/written or has a malformed format.
class IoError : public Error {
 public:
  using Error::Error;
};

/// An internal invariant failed; indicates a bug in sscor itself.
class InternalError : public Error {
 public:
  using Error::Error;
};

namespace detail {

/// Cold halves of require()/check_invariant(): build the message and throw.
/// Kept out of line so a passing check inlines to one compare-and-branch
/// and never touches the heap.  The location goes by value (it is one
/// pointer) so the caller need not spill it to the stack before the branch.
[[noreturn, gnu::cold]] void throw_invalid_argument(
    std::string_view what, std::source_location loc);
[[noreturn, gnu::cold]] void throw_internal_error(std::string_view what,
                                                  std::source_location loc);

}  // namespace detail

/// Throws InvalidArgument("<function>: <what>") unless `condition` holds.
inline void require(bool condition, std::string_view what,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::throw_invalid_argument(what, loc);
  }
}

/// Throws InternalError("<function>: invariant violated: <what>") unless
/// `condition` holds.
inline void check_invariant(
    bool condition, std::string_view what,
    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::throw_internal_error(what, loc);
  }
}

}  // namespace sscor
