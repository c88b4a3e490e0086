#pragma once
// Direct CSR contraction (METIS-style), the allocation-free replacement for
// the GraphBuilder round-trip in multilevel coarsening.
//
// Given a fine graph and a surjective fine-to-coarse node map, contract_csr
// walks the fine CSR once per coarse row, dedups parallel coarse edges with
// one position array over the coarse nodes (no hashing, no sort over the
// whole edge list), sorts each short coarse row in place, and emits the
// coarse CSR directly.
// The result is bit-identical to building the same contraction through
// GraphBuilder — same sorted adjacency, same merged weights — so graph
// digests and CoarseningCache keys are unaffected by which path produced a
// level. All scratch lives in a caller-owned ContractScratch whose buffers
// are reused across levels and runs; only the returned Graph's own arrays
// are freshly allocated (they are the product and must outlive the call).
//
// Rows can be built in chunks of coarse-row ranges on the thread pool: each
// chunk writes its own region of the scratch with its own position array,
// and a prefix sum over the chunk lengths places each chunk in the product.
// Every row is built by the same code at any chunk count, so the result
// does not depend on it.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/alloc_stats.hpp"

namespace ppnpart::graph {

/// Reusable scratch for contract_csr. Default-constructed buffers grow to
/// the first call's sizes and are then reused; `stats` (optional) counts the
/// growths so benches can verify steady-state allocation-freedom.
struct ContractScratch {
  support::AllocStats* stats = nullptr;

  /// Per chunk, per coarse node: offset inside the row that chunk is
  /// building, -1 when absent. Each finished row resets its own entries, so
  /// every array is all -1 between calls and is never refilled.
  std::vector<std::vector<std::int32_t>> pos;

  /// Coarse CSR under construction (copies go into the Graph). Rows are
  /// built and sorted in place, each chunk in its own region of adj/ewgt,
  /// and xadj[c + 1] is the end of row c there; adj/ewgt only grow. With
  /// one chunk, the first xadj[num_coarse] entries are the product.
  std::vector<std::uint64_t> xadj;
  std::vector<NodeId> adj;
  std::vector<Weight> ewgt;
  std::vector<Weight> node_w;

  /// Coarse -> fine member lists (counting-sorted CSR).
  std::vector<std::uint64_t> member_off;
  std::vector<NodeId> members;

  /// Per chunk: first coarse row (plus an end sentinel), region start in
  /// adj/ewgt, and the end of its rows there.
  std::vector<NodeId> chunk_row;
  std::vector<std::uint64_t> chunk_region;
  std::vector<std::uint64_t> chunk_end;
};

/// Contracts `fine` along `fine_to_coarse` (values in [0, num_coarse); every
/// coarse id must be hit at least once). Coarse node weights are the sums of
/// their members' weights; parallel coarse edges merge by weight sum; edges
/// internal to a coarse node disappear. O(V + E) per call plus one sort per
/// coarse row. `chunks` (clamped to [1, num_coarse]) splits the row
/// building, which is all of the work but the O(V) member lists, into that
/// many coarse-row ranges with even fine-degree sums, run as tasks on the
/// global thread pool (inline on a pool worker). The product is the same at
/// every chunk count.
Graph contract_csr(const Graph& fine, std::span<const NodeId> fine_to_coarse,
                   NodeId num_coarse, ContractScratch& scratch,
                   std::uint32_t chunks = 1);

}  // namespace ppnpart::graph
