#pragma once
// Counting-allocator hook for workspace-owned scratch buffers.
//
// The multilevel hot path (contraction, FM passes, MoveContext resets) is
// meant to be allocation-free in steady state: every scratch buffer lives in
// a part::Workspace and is only ever *grown*, never freed, between runs.
// AllocStats counts exactly those growth events, so benches can assert the
// "near-zero allocations per level once warm" property instead of guessing
// at allocator traffic.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppnpart::support {

/// The counters are atomic because one run's concurrent chunk tasks (the
/// matching race) grow buffers of the same workspace at once; they only
/// count, so relaxed increments suffice.
struct AllocStats {
  /// Number of capacity growths (each one is at least one real allocation).
  std::atomic<std::uint64_t> growths{0};
  /// Total bytes requested by those growths.
  std::atomic<std::uint64_t> grown_bytes{0};

  void note(std::size_t bytes) {
    growths.fetch_add(1, std::memory_order_relaxed);
    grown_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  void reset() {
    growths.store(0, std::memory_order_relaxed);
    grown_bytes.store(0, std::memory_order_relaxed);
  }
};

/// reserve() that records a growth event when (and only when) the vector
/// actually has to reallocate. `stats` may be null. Growth is geometric
/// (at least 1.5x the old capacity): demand that creeps up by a few
/// elements per run — e.g. a slowly growing boundary across incremental
/// repartitions — costs O(log n) growth events total instead of ratcheting
/// one reallocation per call, while the overshoot stays at most 50% of the
/// high-water mark. Capacity never affects results.
template <typename T>
inline void reserve_tracked(std::vector<T>& v, std::size_t n,
                            AllocStats* stats) {
  if (n > v.capacity()) {
    if (stats != nullptr) stats->note(n * sizeof(T));
    v.reserve(std::max(n, v.capacity() + v.capacity() / 2));
  }
}

/// assign() through a tracked reserve: capacity is reused across calls, so
/// a warm buffer costs a fill and no allocation.
template <typename T, typename U>
inline void assign_tracked(std::vector<T>& v, std::size_t n, const U& value,
                           AllocStats* stats) {
  reserve_tracked(v, n, stats);
  v.assign(n, static_cast<T>(value));
}

}  // namespace ppnpart::support
