#pragma once
// Test helper shared by engine_test and timing_gates_test.

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace ppnpart {

/// Parks every global-pool worker on a spin flag so queued engine work
/// cannot drain: admission depth then depends only on the submission order,
/// making the degradation ladder exactly predictable, and any work a test
/// still sees finish must have run on the submitting thread.
class PoolBlocker {
 public:
  PoolBlocker() {
    auto& pool = support::ThreadPool::global();
    for (unsigned i = 0; i < pool.size(); ++i) {
      futures_.push_back(pool.submit([this] {
        started_.fetch_add(1, std::memory_order_relaxed);
        while (!release_.load(std::memory_order_relaxed))
          std::this_thread::yield();
      }));
    }
    while (started_.load(std::memory_order_relaxed) < pool.size())
      std::this_thread::yield();
  }

  void release() {
    if (release_.exchange(true)) return;
    for (std::future<void>& f : futures_) f.get();
  }

  ~PoolBlocker() { release(); }

 private:
  std::atomic<bool> release_{false};
  std::atomic<unsigned> started_{0};
  std::vector<std::future<void>> futures_;
};

}  // namespace ppnpart
