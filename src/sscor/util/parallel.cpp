#include "sscor/util/parallel.hpp"

#include "sscor/util/thread_pool.hpp"

namespace sscor {

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn,
                  unsigned threads) {
  if (count == 0) return;
  if (threads == 1) {
    // Guaranteed inline: no pool is touched, no thread is spawned.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool::shared().for_each(count, fn, threads);
}

}  // namespace sscor
