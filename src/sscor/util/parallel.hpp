// Minimal data-parallel helper for the experiment harness.
//
// Work items are independent (one correlation per item) and write to
// disjoint output slots, so a shared cursor over the index range is all the
// coordination needed.  Determinism is preserved: the set of items and each
// item's computation are independent of the schedule.
//
// Loops run on the process-wide persistent ThreadPool (thread_pool.hpp)
// instead of spawning fresh threads per call; a loop issued from inside a
// pool worker runs inline, so nesting is safe.

#pragma once

#include <cstddef>
#include <functional>

namespace sscor {

/// Runs `fn(i)` for every i in [0, count).  `threads` = 0 picks the
/// hardware concurrency; 1 runs inline (no thread pool involvement, useful
/// under sanitizers and in tests of the callers).  Exceptions thrown by
/// `fn` propagate to the caller: the first one captured wins, sibling
/// workers stop claiming work promptly, and items that were never claimed
/// are never run.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn,
                  unsigned threads = 0);

}  // namespace sscor
