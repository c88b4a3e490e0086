#pragma once
// Content fingerprints for the engine's result cache.
//
// A cache key must identify everything that determines a partitioning
// answer: the graph (structure and both weight vectors), the request (k,
// constraints, seed) and the portfolio that answers it. Fingerprints are
// 64-bit SplitMix64-mixed digests — not cryptographic, but with a 4096-entry
// cache the collision probability is ~2^-40, far below the noise floor of a
// heuristic partitioner serving approximate answers.

#include <cstdint>
#include <string>

#include "graph/graph.hpp"
#include "partition/partitioner.hpp"

namespace ppnpart::engine {

/// Order-sensitive 64-bit combine (SplitMix64 finalizer).
std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v);

std::uint64_t hash_string(std::uint64_t h, const std::string& s);

/// Digest of the CSR arrays and both weight vectors. Two graphs with equal
/// fingerprints produce identical partitioner behaviour (same node ids, same
/// adjacency order).
std::uint64_t graph_fingerprint(const graph::Graph& g);

/// Digest of the request fields that determine the answer: k, seed, rmax,
/// bmax and any per-part budgets. The stop token is transient state and is
/// deliberately excluded, as is `threads`: answers do not depend on it.
std::uint64_t request_fingerprint(const part::PartitionRequest& r);

/// Digest of the request fields a warm start must AGREE on — k and the
/// constraint set. The seed is deliberately excluded: a previous answer for
/// the same shape of question remains a valid warm start for a different
/// seed, and a service's near-identical arrivals routinely vary it. Used to
/// key SimilarityIndex compatibility, never the exact result cache.
std::uint64_t request_compat_fingerprint(const part::PartitionRequest& r);

}  // namespace ppnpart::engine
