#pragma once
// Shared-memory parallel multilevel kernels (ROADMAP open item 1).
//
// Everything above this layer parallelizes *across* runs (portfolio members,
// engine jobs); these kernels parallelize *inside* one run so a single large
// polyhedral process network can use the machine. Three pieces, in the
// Mt-KaHyPar mold adapted to this repo's CSR graphs and workspace rules:
//
//  * parallel coarsening — heavy-edge matching chunked across
//    support::ThreadPool as synchronous mutual-proposal rounds, then a
//    parallel prefix-sum pass that reproduces the serial coarse-id
//    assignment bit-exactly and feeds graph::contract_csr;
//  * parallel refinement — size-constrained label propagation over the
//    boundary set: a read-only parallel scan proposes moves against the
//    round-start MoveContext state into per-thread buffers, then a serial
//    commit re-validates each candidate against the exact lexicographic
//    goodness (so LP is goodness-monotone and never worsens a projection);
//  * a fixed reduction order — per-chunk results merged in chunk-index
//    order, synchronous LP rounds, ties broken by node id — making
//    fixed-seed results a pure function of (graph, options), bit-identical
//    at ANY thread count.
//
// Threading rules: chunks are contiguous node ranges, one ThreadArena per
// chunk task, carved from the single leased Workspace (the one-lease-per-run
// invariant holds; arenas are interior and disjoint). Scan phases only read
// shared state; mutation happens in serial phases between them, so the
// kernels are data-race-free by construction. All fan-out goes through
// support::ThreadPool and degrades to inline execution on a pool worker
// (nested parallelism) — results are unaffected because they do not depend
// on the executing thread count.

#include <cstdint>

#include "partition/coarsen.hpp"
#include "partition/partition.hpp"
#include "partition/workspace.hpp"
#include "support/thread_pool.hpp"

namespace ppnpart::part {

/// Resolved intra-run parallelism knobs, derived from
/// PartitionRequest::threads by resolve_parallel().
struct ParallelOptions {
  /// Worker chunks per phase (>= 1). 1 still runs the parallel kernels —
  /// inline, single-chunk — which is how the p=1 leg of the determinism
  /// golden exercises the same code path.
  std::uint32_t threads = 1;
  /// Levels smaller than this use the serial kernels (task overhead and
  /// quality both favour serial on small graphs).
  NodeId min_parallel_nodes = 2048;
};

/// Maps PartitionRequest::threads (0 = auto = pool size, 1 = serial path,
/// n = n chunks) onto the pool. Values above the pool size are kept: chunk
/// count is a partitioning choice, not a thread count, and results do not
/// depend on it.
ParallelOptions resolve_parallel(std::uint32_t requested,
                                 support::ThreadPool& pool);
/// Three-argument form for callers that pass a `deterministic` flag
/// (perfbench/src/probes.cpp). Every parallel run is deterministic, so the
/// flag is ignored.
inline ParallelOptions resolve_parallel(std::uint32_t requested,
                                        bool /*deterministic*/,
                                        support::ThreadPool& pool) {
  return resolve_parallel(requested, pool);
}

/// Parallel heavy-edge matching into `match` (resized to g.num_nodes()):
/// synchronous mutual-proposal rounds (each free node proposes its heaviest
/// free neighbour, ties to the smaller id; mutual proposals pair up) — a
/// pure function of the graph. Returns the total matched edge weight.
Weight parallel_heavy_edge_matching(const Graph& g,
                                    const ParallelOptions& options,
                                    Matching& match, Workspace& ws,
                                    support::ThreadPool& pool);

/// Chunked prefix-sum coarse-id assignment: bit-identical to the serial
/// ascending scan (ids ascend by the pair's smaller endpoint) at any chunk
/// count. Returns the coarse node count.
NodeId parallel_fine_to_coarse(const Graph& fine, const Matching& matching,
                               const ParallelOptions& options,
                               std::vector<NodeId>& fine_to_coarse,
                               Workspace& ws, support::ThreadPool& pool);

/// Multilevel coarsening through the parallel matching + prefix-sum map +
/// graph::contract_csr. Winners are always kHeavyEdge (the parallel path
/// does not run the serial matching competition). Yields one hierarchy per
/// (graph, options) regardless of thread count.
Hierarchy parallel_coarsen(const Graph& g, const CoarsenOptions& options,
                           const ParallelOptions& popts, Workspace& ws,
                           support::ThreadPool& pool);

struct LpRefineOptions {
  /// Synchronous scan/commit rounds; a round that commits nothing stops.
  std::uint32_t max_rounds = 12;
};

/// Size-constrained parallel label propagation under the lexicographic
/// goodness. Scan: boundary nodes (against the round-start state) propose
/// their best-connected target part into per-chunk buffers. Commit (serial,
/// node-id order): re-validate each candidate with
/// MoveContext::goodness_after and apply strictly-improving moves only —
/// per-block weight budgets are enforced exactly because overload is the
/// leading goodness component. Returns true iff any move was committed.
bool parallel_lp_refine(const Graph& g, Partition& p, const Constraints& c,
                        const LpRefineOptions& options,
                        const ParallelOptions& popts, Workspace& ws,
                        support::ThreadPool& pool);

}  // namespace ppnpart::part
