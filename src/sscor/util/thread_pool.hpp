// Persistent worker pool behind parallel_for.
//
// The experiment harness issues thousands of small data-parallel loops (one
// per detector per sweep point); spawning and joining fresh std::threads for
// each loop dominated their runtime.  The pool keeps a fixed worker set
// alive for the process lifetime and hands out *chunks* of the index range
// through one atomic cursor, so the per-item cost is a plain loop iteration
// and the per-chunk cost is one relaxed fetch_add — the std::function
// indirection and the cursor traffic are amortised over the chunk.
//
// Scheduling guarantees (see DESIGN.md §8 "Parallelism & determinism"):
//   * every index in [0, count) runs exactly once, on some participant;
//   * the set of items and each item's computation are independent of the
//     schedule, so callers that reduce sequentially stay deterministic;
//   * the first exception wins, siblings stop claiming work promptly, and
//     items never claimed are never run;
//   * a for_each issued from inside a worker runs inline on that worker
//     (no deadlock, no unbounded thread growth).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sscor {

class ThreadPool {
 public:
  /// Creates a pool with `workers` persistent worker threads (0 picks the
  /// hardware concurrency, minimum 1).  The submitting thread always
  /// participates in loops too, so a pool of W workers runs loops on up to
  /// W + 1 threads.
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of persistent worker threads (constant for the pool lifetime).
  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  /// Runs `fn(i)` for every i in [0, count) on at most `max_threads`
  /// participants (0 = caller plus every worker; 1 = inline serial loop).
  /// The caller participates and blocks until every claimed item finished.
  /// Concurrent top-level submissions are serialised; nested calls from a
  /// worker run inline.  The first exception thrown by an item propagates.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn,
                unsigned max_threads = 0);

  /// The process-wide pool used by parallel_for; created lazily on first
  /// use with the default worker count.
  static ThreadPool& shared();

  /// True when the calling thread is executing a pool item (used to divert
  /// nested parallel loops inline).
  static bool in_worker();

 private:
  void worker_loop();
  /// Claims and runs chunks until the cursor passes `count_`; records the
  /// first exception and pushes the cursor past the end so siblings stop.
  void run_chunks();

  std::vector<std::thread> threads_;

  std::mutex mutex_;                // guards the job fields below
  std::condition_variable wake_;    // workers: new job or shutdown
  std::condition_variable done_;    // submitter: all participants left
  std::uint64_t generation_ = 0;    // bumped once per submitted job
  bool shutdown_ = false;

  // Current job (valid while running_ > 0 or cursor_ < count_).
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::size_t chunk_ = 1;
  unsigned slots_ = 0;    // worker participation slots left for this job
  unsigned running_ = 0;  // workers currently inside run_chunks
  std::atomic<std::size_t> cursor_{0};

  std::mutex error_mutex_;
  std::exception_ptr error_;

  std::mutex submit_mutex_;  // one top-level job at a time
};

}  // namespace sscor
