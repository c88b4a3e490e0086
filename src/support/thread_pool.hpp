#pragma once
// Fixed-size thread pool with a blocking task queue, plus a chunked
// parallel_for helper.
//
// The partitioner's parallelism is coarse-grained: a GP run fans out a
// handful of chunk tasks per kernel call (contraction rows, the matching
// race, MoveContext arming, FM seeding, the LP scan, greedy-growth
// restarts), each tens of microseconds or more, and the engine fans out
// portfolio members. A simple mutex-protected queue is more than adequate.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ppnpart::support {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// True when the calling thread is one of this pool's workers. Nested
  /// fan-out helpers (parallel_for) use this to degrade to serial execution
  /// instead of deadlocking: a worker that blocks on futures for chunks
  /// sitting behind it in its own queue can wait forever once every worker
  /// does the same.
  bool on_worker_thread() const;

  /// Enqueues a task; returns a future for its completion/result. If the
  /// pool is already shutting down the task runs inline on the calling
  /// thread (so futures obtained during shutdown never deadlock) — the
  /// future is still valid and carries the result or exception.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    bool run_inline = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) {
        run_inline = true;
      } else {
        queue_.emplace([task] { (*task)(); });
      }
    }
    if (run_inline) {
      (*task)();
    } else {
      cv_.notify_one();
    }
    return fut;
  }

  /// The process-wide pool, sized to the hardware. Intentionally never
  /// destroyed: static-destruction order is unknowable, and destructors of
  /// other statics may still submit work during shutdown. Worker threads
  /// are reclaimed by process exit.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs fn(i) for i in [begin, end) across the pool in contiguous chunks and
/// waits for completion. fn must be safe to invoke concurrently for distinct
/// indices. Falls back to a serial loop for tiny ranges and when called from
/// one of the pool's own workers (nested parallelism). If any invocation
/// throws, every chunk still runs to completion (or its own first throw) and
/// the first exception is rethrown to the caller. Each task submitted to the
/// pool records one trace span ("pool", "chunk").
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1);

/// parallel_for on the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1);

}  // namespace ppnpart::support
