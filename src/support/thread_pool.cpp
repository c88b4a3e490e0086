#include "support/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "support/trace.hpp"

namespace ppnpart::support {

namespace {
// The pool (if any) whose worker_loop is running on this thread.
thread_local const ThreadPool* g_current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return g_current_pool == this; }

void ThreadPool::worker_loop() {
  g_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  // Leaked on purpose — see the header: joining workers from a static
  // destructor races against other statics that may still submit work.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t max_chunks = pool.size() * 4;
  const std::size_t chunk =
      std::max(grain, (n + max_chunks - 1) / std::max<std::size_t>(max_chunks, 1));
  // Serial fallback: tiny ranges, degenerate pools, and — crucially — calls
  // made from inside one of this pool's own workers (nested fan-out), where
  // blocking on queued chunks can deadlock the pool.
  if (n <= chunk || pool.size() == 1 || pool.on_worker_thread()) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve((n + chunk - 1) / chunk);
  for (std::size_t lo = begin; lo < end; lo += chunk) {
    const std::size_t hi = std::min(end, lo + chunk);
    futures.push_back(pool.submit([lo, hi, &fn] {
      // One span per chunk task (one relaxed load when tracing is off), so
      // a trace shows how long each chunk ran and on which worker.
      ScopedSpan span("pool", "chunk", lo);
      span.arg("indices", static_cast<std::int64_t>(hi - lo));
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  // Drain every chunk before rethrowing so no task is left running with a
  // dangling reference to `fn`; the first failure wins, as in serial code.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  parallel_for(ThreadPool::global(), begin, end, fn, grain);
}

}  // namespace ppnpart::support
