#include "partition/coarsen_cache.hpp"

#include "support/fault_injection.hpp"
#include "support/hash.hpp"

namespace ppnpart::part {

namespace {

using support::hash_combine;
using support::hash_span;

constexpr std::uint64_t kHierarchySalt = 0x686965725f6b6579ull;  // "hier_key"

std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

std::uint64_t graph_digest(const Graph& g) {
  std::uint64_t h = 0x67726170685f6670ull;  // "graph_fp"
  h = hash_span(h, g.xadj());
  h = hash_span(h, g.adj());
  h = hash_span(h, g.raw_edge_weights());
  h = hash_span(h, g.node_weights());
  return h;
}

std::uint64_t coarsen_options_digest(const CoarsenOptions& options) {
  std::uint64_t h = 0x636f6172736e5f76ull;  // "coarsn_v"
  h = hash_combine(h, static_cast<std::uint64_t>(options.coarsen_to));
  h = hash_combine(h, options.strategies.size());
  for (MatchingKind kind : options.strategies)
    h = hash_combine(h, static_cast<std::uint64_t>(kind));
  h = hash_combine(h, double_bits(options.min_shrink_factor));
  h = hash_combine(h, options.max_levels);
  return h;
}

std::uint64_t canonical_coarsen_seed(std::uint64_t options_digest) {
  return hash_combine(0xc0a25e5eedull, options_digest);
}

CoarseningCache::CoarseningCache(std::size_t capacity) : store_(capacity) {}

CoarseningCache::HierarchyPtr CoarseningCache::hierarchy(
    std::uint64_t graph_key, const CoarsenOptions& options,
    const Graph& finest) {
  return hierarchy(graph_key, options, [&]() -> Hierarchy {
    support::Rng canonical(
        canonical_coarsen_seed(coarsen_options_digest(options)));
    return coarsen(finest, options, canonical);
  });
}

CoarseningCache::HierarchyPtr CoarseningCache::hierarchy(
    std::uint64_t graph_key, const CoarsenOptions& options,
    const std::function<Hierarchy()>& build) {
  const std::uint64_t key = hash_combine(
      hash_combine(kHierarchySalt, graph_key), coarsen_options_digest(options));
  std::shared_ptr<Inflight> flight;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto hit = store_.lookup(key)) {
      ++stats_.hits;
      return *hit;
    }
    auto in = inflight_.find(key);
    if (in != inflight_.end()) {
      // Coalesce onto the in-flight build: this caller waits instead of
      // racing a duplicate coarsening. Counted as a hit — no build ran.
      flight = in->second;
      ++stats_.hits;
    } else {
      flight = std::make_shared<Inflight>();
      inflight_.emplace(key, flight);
      builder = true;
      ++stats_.misses;
    }
  }

  if (!builder) {
    std::unique_lock<std::mutex> lock(flight->m);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->value;
  }

  HierarchyPtr value;
  std::exception_ptr error;
  try {
    // Chaos seam: a leader whose build blows up must propagate the error to
    // every coalesced follower and leave the cache clean for a retry — the
    // single-flight failure path below is exactly what the injected throw
    // exercises.
    if (support::fault_fire(support::FaultSite::kCoarsenLeader))
      throw support::FaultInjected("injected: coarsening-cache leader build");
    value = std::make_shared<const Hierarchy>(build());
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
    if (!error) store_.insert(key, value);
  }
  {
    std::lock_guard<std::mutex> lock(flight->m);
    flight->value = value;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return value;
}

support::CacheStats CoarseningCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // insertions/evictions come from the store; hits/misses are ours (the
  // store's own lookup counters don't see coalesced in-flight waits).
  support::CacheStats s = store_.stats();
  s.hits = stats_.hits;
  s.misses = stats_.misses;
  return s;
}

std::size_t CoarseningCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_.size();
}

void CoarseningCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  store_.clear();
}

}  // namespace ppnpart::part
