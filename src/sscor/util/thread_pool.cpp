#include "sscor/util/thread_pool.hpp"

#include <algorithm>

namespace sscor {
namespace {

// Set while a thread is running pool items (workers for their lifetime
// inside a job, the submitting thread while it participates), so nested
// parallel loops detect the situation and run inline.
thread_local bool t_in_pool_item = false;

}  // namespace

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
  }
  if (workers == 0) workers = 1;
  threads_.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (auto& thread : threads_) {
    thread.join();
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::in_worker() { return t_in_pool_item; }

void ThreadPool::run_chunks() {
  while (true) {
    const std::size_t begin =
        cursor_.fetch_add(chunk_, std::memory_order_relaxed);
    if (begin >= count_) return;
    const std::size_t end = std::min(begin + chunk_, count_);
    for (std::size_t i = begin; i < end; ++i) {
      try {
        (*fn_)(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex_);
          if (!error_) error_ = std::current_exception();
        }
        // Push the cursor past the end so sibling participants stop
        // claiming chunks; items never claimed are never run.
        cursor_.store(count_, std::memory_order_relaxed);
        return;
      }
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    if (slots_ == 0) continue;  // job already has enough participants
    --slots_;
    ++running_;
    lock.unlock();
    t_in_pool_item = true;
    run_chunks();
    t_in_pool_item = false;
    lock.lock();
    --running_;
    if (running_ == 0) done_.notify_all();
  }
}

void ThreadPool::for_each(std::size_t count,
                          const std::function<void(std::size_t)>& fn,
                          unsigned max_threads) {
  if (count == 0) return;
  const unsigned pool_workers = workers();
  // Participants = this thread + up to (max_threads - 1) workers.
  unsigned participants =
      max_threads == 0 ? pool_workers + 1 : max_threads;
  participants = static_cast<unsigned>(std::min<std::size_t>(
      {participants, static_cast<std::size_t>(pool_workers) + 1, count}));

  if (participants <= 1 || t_in_pool_item) {
    // Serial fast path; also the nested case — a loop issued from inside a
    // worker runs inline so the pool can never deadlock on itself.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // One top-level job at a time; concurrent submitters queue here.
  const std::lock_guard<std::mutex> submit(submit_mutex_);
  {
    // Clear the error slot before the job becomes visible, so a worker
    // that wakes early can never have its exception wiped.
    const std::lock_guard<std::mutex> lock(error_mutex_);
    error_ = nullptr;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    count_ = count;
    // ~8 chunks per participant amortises the cursor and the std::function
    // call while keeping first-error abort and load balance responsive.
    chunk_ = std::max<std::size_t>(
        1, count / (static_cast<std::size_t>(participants) * 8));
    cursor_.store(0, std::memory_order_relaxed);
    slots_ = participants - 1;
    ++generation_;
  }
  wake_.notify_all();

  t_in_pool_item = true;
  run_chunks();
  t_in_pool_item = false;

  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Workers that never woke in time are harmless: once the cursor passed
    // count_ they claim nothing and leave immediately.
    done_.wait(lock, [&] { return running_ == 0; });
    slots_ = 0;
  }
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace sscor
