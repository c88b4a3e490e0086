#pragma once
// Cooperative cancellation with an optional wall-clock deadline
// (header-only).
//
// A StopToken is shared between a controller (the portfolio engine, a
// driver with a time budget) and one or more workers (partitioner run
// loops). Workers poll `stop_requested()` at natural checkpoints — once per
// GP V-cycle, once per tabu iteration, every 4096 exact search states — and
// return their best-so-far solution when it fires. Cancellation is
// therefore always graceful: a stopped partitioner still yields a complete,
// valid partition.
//
// All configuration (deadline, parent link) is stored atomically, so
// arming a token that is already visible to workers cannot race their
// `stop_requested()` polls — a controller may re-arm late without tearing.
// The one remaining precondition is lifetime: a linked parent must outlive
// this token.

#include <atomic>
#include <chrono>
#include <limits>

#include "support/contracts.hpp"

namespace ppnpart::support {

class StopToken {
 public:
  using Clock = std::chrono::steady_clock;

  StopToken() = default;
  StopToken(const StopToken&) = delete;
  StopToken& operator=(const StopToken&) = delete;

  /// Asks workers to stop at their next checkpoint.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Arms a deadline `seconds` from now; `stop_requested()` returns true
  /// once it passes. Safe to call while workers are polling: the tick count
  /// is published before the armed flag, so a reader either sees no
  /// deadline or a fully written one — never a torn value.
  void set_deadline_after(double seconds) {
    // Arming contract: a deadline is a wall-clock budget. Negative or NaN
    // budgets are caller bugs (an already-expired deadline is request_stop).
    PPN_ASSERT(seconds >= 0);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    deadline_ticks_.store(deadline.time_since_epoch().count(),
                          std::memory_order_relaxed);
    has_deadline_.store(true, std::memory_order_release);
  }

  /// Links a parent token (non-owning; must outlive this token): a stop
  /// requested on the parent stops this token too. Lets a controller (the
  /// engine) layer its per-job budget on top of a caller's own cancel
  /// signal. Atomic like the deadline, so linking late cannot race polls.
  void set_parent(const StopToken* parent) {
    // A self-parent would make stop_requested() recurse forever.
    PPN_ASSERT(parent != this);
    parent_.store(parent, std::memory_order_release);
  }

  bool has_deadline() const {
    return has_deadline_.load(std::memory_order_acquire);
  }

  /// True once the armed deadline has passed (independent of
  /// `request_stop()`, which may fire for other reasons).
  bool deadline_expired() const {
    if (!has_deadline_.load(std::memory_order_acquire)) return false;
    return Clock::now() >= deadline();
  }

  /// Seconds until the armed deadline (negative once it passed); +infinity
  /// when none is armed. Deadline-aware admission uses this to shed jobs
  /// whose budget cannot survive the queue wait ahead of them.
  double seconds_until_deadline() const {
    if (!has_deadline_.load(std::memory_order_acquire))
      return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(deadline() - Clock::now()).count();
  }

  /// True once `request_stop()` was called (here or on a linked parent) or
  /// the deadline passed. Deadline and parent checks latch into the flag so
  /// later calls skip them.
  bool stop_requested() const {
    if (stop_.load(std::memory_order_relaxed)) return true;
    const StopToken* parent = parent_.load(std::memory_order_acquire);
    if (deadline_expired() || (parent != nullptr && parent->stop_requested())) {
      stop_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  Clock::time_point deadline() const {
    return Clock::time_point(
        Clock::duration(deadline_ticks_.load(std::memory_order_relaxed)));
  }

  mutable std::atomic<bool> stop_{false};
  std::atomic<bool> has_deadline_{false};
  std::atomic<Clock::rep> deadline_ticks_{0};
  std::atomic<const StopToken*> parent_{nullptr};
};

}  // namespace ppnpart::support
