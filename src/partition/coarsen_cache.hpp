#pragma once
// Cross-run coarsening reuse (the coarsening hierarchy is the reusable,
// dominant-cost artifact of multilevel partitioning).
//
// A CoarseningCache memoizes the expensive coarsening phase keyed by
// (graph identity, coarsening options): multilevel partitioners on the
// same graph — different k, seeds and algorithms — re-run only initial
// partitioning + refinement. The stored artifact is the multi-matching
// Hierarchy built by coarsen() (GP's fresh V-cycles, MetisLike's heavy-edge
// descent).
//
// Entries are built from a *canonical*, seed-independent random stream
// (see canonical_coarsen_seed), so a cached hierarchy is a pure function
// of (graph, options): results are bit-identical whether a run hits or
// misses, and identical across processes. Builds are single-flight —
// concurrent requests for the same key coalesce onto one build instead of
// racing N copies.
//
// Thread-safe; LRU-bounded. Handed to partitioners through
// PartitionRequest::coarsen_cache (optional — standalone use without a
// cache is unchanged).

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "partition/coarsen.hpp"
#include "support/lru_cache.hpp"

namespace ppnpart::part {

/// Digest of the CSR arrays and both weight vectors. Two graphs with equal
/// digests produce identical partitioner behaviour (same node ids, same
/// adjacency order). This is the engine's graph fingerprint, owned here so
/// the partition layer can key coarsening without depending on the engine.
std::uint64_t graph_digest(const Graph& g);

/// Order-sensitive digest of every CoarsenOptions field that changes the
/// hierarchy.
std::uint64_t coarsen_options_digest(const CoarsenOptions& options);

/// The seed-independent stream cached coarsenings are built from. Pure in
/// the options digest (deliberately not in the graph), so any cache —
/// including a fresh one — reproduces the identical hierarchy for a given
/// (graph, options) pair.
std::uint64_t canonical_coarsen_seed(std::uint64_t options_digest);

class CoarseningCache {
 public:
  using HierarchyPtr = std::shared_ptr<const Hierarchy>;

  /// `capacity` bounds the number of cached hierarchies. 0 disables storage
  /// but keeps single-flight coalescing of concurrent identical builds.
  ///
  /// Memory note: a hierarchy holds its coarse levels only, never the
  /// input, so an entry costs roughly one input graph's worth and holds it
  /// until eviction or clear(). Size the capacity for the number of
  /// distinct (graph, options) keys actually in rotation.
  explicit CoarseningCache(std::size_t capacity = 32);

  /// Returns the cached hierarchy for (graph_key, options), building it at
  /// most once on a miss. Concurrent callers with the same key wait for
  /// the one in-flight build (counted as hits). This overload owns the
  /// cache's load-bearing invariant so callers can't drift: the build runs
  /// coarsen() from the canonical seed-independent stream, and the entry is
  /// what it returns.
  HierarchyPtr hierarchy(std::uint64_t graph_key, const CoarsenOptions& options,
                         const Graph& finest);

  /// Advanced: caller-supplied builder. The invariant above becomes the
  /// caller's responsibility — a seed-dependent entry poisons the key for
  /// every other consumer.
  HierarchyPtr hierarchy(std::uint64_t graph_key, const CoarsenOptions& options,
                         const std::function<Hierarchy()>& build);

  support::CacheStats stats() const;
  std::size_t size() const;
  void clear();

 private:
  struct Inflight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    HierarchyPtr value;
    std::exception_ptr error;
  };

  mutable std::mutex mutex_;  // guards inflight_ and orders store_ access
  /// The list/evict/accounting machinery is the shared support::LruCache.
  /// hits/misses are tracked here instead of by the store, because a
  /// coalesced wait on an in-flight build counts as a hit without ever
  /// touching the store.
  support::LruCache<HierarchyPtr> store_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Inflight>> inflight_;
  support::CacheStats stats_;  // hits/misses only; see stats()
};

}  // namespace ppnpart::part
