#pragma once
// Shared-memory parallelism of the multilevel pipeline (ROADMAP item 3).
//
// There is one multilevel pipeline, and its answer never depends on the
// thread count. PartitionRequest::threads, resolved by resolve_parallel(),
// only caps how many chunks GP cuts its chunked kernels into:
//  * graph::contract_csr, by coarse-row range (inside coarsen());
//  * the matching race, one task per strategy (coarsen() and
//    coarsen_restricted());
//  * MoveContext::reset, by node range;
//  * FM seed evaluation, by seed range (constrained_fm_refine);
//  * the LP scan below, by node range;
//  * greedy-growth restarts, one task per restart (threads > 1 only).
// Each kernel takes an explicit chunk count that defaults to one, and one
// chunk is the serial case of the same code. GP picks, per level,
// chunks_for(threads, work, grain) with the grains below. Chunks write
// disjoint outputs, and partial results merge in chunk-index order, so each
// kernel is a pure function of its input at any chunk count. All fan-out
// goes through support::parallel_for, which runs inline on a pool worker
// (an engine member), so chunking there adds no parallelism and changes no
// result. What stays serial: FM's move loop, LP's commit, swap rounds and
// contraction's O(n) member lists.
//
// The two kernels of this file:
//  * parallel_lp_refine — size-constrained label propagation over the
//    boundary set: a read-only scan proposes moves against the round-start
//    MoveContext state into per-chunk buffers, then a serial commit
//    re-validates each candidate against the exact lexicographic goodness
//    (so LP is goodness-monotone and never worsens a projection);
//  * parallel_heavy_edge_matching — synchronous mutual-proposal rounds; a
//    kernel on its own, no partitioner coarsens with it.
// Both use contiguous node ranges, one ThreadArena per LP chunk task carved
// from the single leased Workspace (the one-lease-per-run invariant holds;
// arenas are interior and disjoint). Scan phases only read shared state;
// mutation happens in serial phases between them, so the kernels are
// data-race-free by construction.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "partition/partition.hpp"
#include "partition/workspace.hpp"
#include "support/thread_pool.hpp"

namespace ppnpart::part {

/// Scheduling grains of GP's chunked kernels. Answers never depend on the
/// chunk count, so these are scheduling constants, not options.
/// Fine adjacency entries per contraction chunk.
inline constexpr std::size_t kContractGrain = 16384;
/// Levels with at least this many nodes race their matchings concurrently.
inline constexpr NodeId kRaceMinNodes = 2048;
/// Nodes per MoveContext::reset chunk.
inline constexpr std::size_t kResetGrain = 8192;
/// Nodes per FM seeding chunk (a level's node count bounds its seeds).
inline constexpr std::size_t kSeedGrain = 4096;

/// min(threads, work / grain), at least 1: the chunk count of one kernel
/// call on `work` units.
inline std::uint32_t chunks_for(std::uint32_t threads, std::size_t work,
                                std::size_t grain) {
  return static_cast<std::uint32_t>(
      std::max<std::size_t>(1, std::min<std::size_t>(threads, work / grain)));
}

/// Resolved intra-run parallelism knobs, derived from
/// PartitionRequest::threads by resolve_parallel().
struct ParallelOptions {
  /// Most chunks per kernel call (>= 1). 1 runs every kernel inline as a
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
