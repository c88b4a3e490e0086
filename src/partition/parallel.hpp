#pragma once
// Shared-memory parallel kernels of the multilevel refiner (ROADMAP item 1).
//
// There is one multilevel pipeline, and its answer never depends on the
// thread count. GP refines every level with at least
// ParallelOptions::min_parallel_nodes nodes with parallel_lp_refine plus one
// bounded FM pass, at every `threads` value; coarsening is always the serial
// matching competition. `threads` only sets how many chunks the LP scan is
// cut into, so it changes speed, never the partition.
//
//  * parallel_lp_refine — size-constrained label propagation over the
//    boundary set: a read-only scan proposes moves against the round-start
//    MoveContext state into per-chunk buffers, then a serial commit
//    re-validates each candidate against the exact lexicographic goodness
//    (so LP is goodness-monotone and never worsens a projection);
//  * parallel_heavy_edge_matching — synchronous mutual-proposal rounds; a
//    kernel on its own, no partitioner coarsens with it.
//
// Both merge per-chunk results in chunk-index order (== node-id order) and
// break ties by node id, so each is a pure function of its input at ANY
// chunk count. Chunks are contiguous node ranges, one ThreadArena per chunk
// task, carved from the single leased Workspace (the one-lease-per-run
// invariant holds; arenas are interior and disjoint). Scan phases only read
// shared state; mutation happens in serial phases between them, so the
// kernels are data-race-free by construction. All fan-out goes through
// support::ThreadPool and runs inline on a pool worker (an engine member),
// which cannot change a result either.

#include <cstdint>

#include "partition/partition.hpp"
#include "partition/workspace.hpp"
#include "support/thread_pool.hpp"

namespace ppnpart::part {

/// Resolved intra-run parallelism knobs, derived from
/// PartitionRequest::threads by resolve_parallel().
struct ParallelOptions {
  /// Chunks per scan phase (>= 1). 1 runs the same kernels inline as a
  /// single chunk; every value yields the same answer.
  std::uint32_t threads = 1;
  /// Levels with at least this many nodes are refined by LP + bounded FM;
  /// smaller levels by full FM + swap rounds. Chosen by level size alone.
  NodeId min_parallel_nodes = 2048;
};

/// Maps PartitionRequest::threads (0 = auto = pool size, n = n chunks) onto
/// the pool. Values above the pool size are kept: chunk count is a
/// partitioning choice, not a thread count, and results do not depend on it.
ParallelOptions resolve_parallel(std::uint32_t requested,
                                 support::ThreadPool& pool);
/// Three-argument form for callers that pass a `deterministic` flag
/// (perfbench/src/probes.cpp). Every run is deterministic, so the flag is
/// ignored.
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
/// Armed form: runs on the partition `mc` is armed on, without a reset
/// (the overload above is reset(g, p, c) on ws.move_ctx plus this call).
bool parallel_lp_refine(MoveContext& mc, const LpRefineOptions& options,
                        const ParallelOptions& popts, ParallelScratch& ps,
                        support::ThreadPool& pool);

}  // namespace ppnpart::part
