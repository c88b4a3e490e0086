#pragma once
// Reusable scratch memory for the multilevel hot path.
//
// Every multilevel partitioner run (GP, MetisLike, NLevel, KL) spends its
// budget in the same inner loop — match, contract, refine, project — and
// used to pay for fresh allocations at every level and pass: a new n x k
// connectivity matrix per refinement call, a heap-allocated row buffer per
// coarse node, per-pass heap/stamp/locked/seed vectors. A Workspace owns all
// of that scratch once per run; buffers grow to the finest level's sizes and
// are then reused by every coarser level, every pass and every V-cycle, so
// the steady-state inner loop performs no allocator traffic at all.
// `stats()` exposes the counting-allocator hook: it increments only when a
// workspace buffer actually has to grow, which benches use to certify the
// O(1)-amortized-allocations-per-level property.
//
// Ownership rules: ONE Workspace per partitioner run, created by (or handed
// to) the run and threaded down by reference. NEVER share a Workspace
// across threads — it is deliberately unsynchronized scratch; parallel
// sections (e.g. greedy-grow restarts) must not touch it. Reuse across
// sequential runs is encouraged (PartitionRequest::workspace) and is where
// the steady-state zero-allocation behaviour comes from.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/contract.hpp"
#include "partition/matching.hpp"
#include "partition/move_context.hpp"
#include "partition/partition.hpp"
#include "support/alloc_stats.hpp"
#include "support/contracts.hpp"

namespace ppnpart::part {

struct PhaseProfile;

/// Heap entry of the constrained FM pass: the move's gain delta
/// (goodness-after minus goodness-now, lexicographic), its node/target and
/// the lazy-revalidation stamp.
struct FmHeapEntry {
  Weight d_resource, d_bandwidth, d_cut;
  NodeId node;
  PartId target;
  /// Stamps/versions are compared for equality only and only within one
  /// pass (the heap never survives a pass), so 32 bits cannot collide: a
  /// pass performs far fewer than 2^32 stamp bumps or moves.
  std::uint32_t stamp;
  std::uint32_t version;
};

struct FmMoveRecord {
  NodeId node;
  PartId from;
};

/// Per-pass scratch of constrained_fm_pass, hoisted out of the pass. The
/// heap sifts 4-byte pool indices instead of 40-byte entries (identical pop
/// order: the comparator sees the same values); popped entries stay in the
/// pool until the pass ends.
struct FmScratch {
  support::AllocStats* stats = nullptr;
  std::vector<FmHeapEntry> pool;        // entries, append-only per pass
  std::vector<std::uint32_t> heap;      // std::push_heap/pop_heap over pool indices
  std::vector<std::uint32_t> stamp;     // per-node revalidation stamps
  std::vector<std::uint8_t> locked;
  std::vector<NodeId> seeds;
  std::vector<std::uint8_t> seeded;
  std::vector<FmMoveRecord> log;
};

/// Scratch of bisection_fm_refine (2-way FM with side caps).
struct BisectionScratch {
  support::AllocStats* stats = nullptr;
  std::vector<Weight> internal;  // conn to own side
  std::vector<Weight> external;  // conn to other side
  std::vector<std::uint8_t> locked;
  std::vector<NodeId> log;
};

struct KlStep {
  NodeId a, b;
  Weight gain;
};

/// Scratch of kl_bisection_refine.
struct KlScratch {
  support::AllocStats* stats = nullptr;
  std::vector<Weight> d;  // KL D-values
  std::vector<std::uint8_t> locked;
  std::vector<NodeId> side0, side1;
  std::vector<KlStep> steps;
};

/// Scratch of IncrementalPartitioner (projection + greedy seeding of new
/// nodes). The refinement itself runs through move_ctx/fm like every other
/// FM consumer.
struct IncrementalScratch {
  support::AllocStats* stats = nullptr;
  std::vector<Weight> loads;      // per-part load during greedy seeding
  std::vector<Weight> part_conn;  // per-part connectivity of the probed node
};

/// One LP move proposal from a parallel scan chunk (parallel.hpp): move
/// `node` to part `to`. Validated against the exact goodness at commit time.
struct LpCandidate {
  NodeId node;
  PartId to;
};

/// Per-chunk scratch of the parallel kernels. A chunk task owns exactly one
/// arena for the duration of a phase; arenas are interior to the single
/// leased Workspace and pairwise disjoint, so the one-lease-per-run
/// ownership rule holds unchanged — the lease covers the run, the arenas
/// partition the scratch among that run's worker chunks.
struct ThreadArena {
  support::AllocStats* stats = nullptr;
  /// LP candidate buffer; merged across arenas once per round.
  std::vector<LpCandidate> moves;
};

/// Shared buffers of the parallel multilevel kernels (parallel.hpp). The
/// proposal/weight arrays back the mutual-proposal matching (phase-separated
/// plain access: every slot has exactly one writer per phase).
struct ParallelScratch {
  support::AllocStats* stats = nullptr;
  /// Per-node proposed partner (mutual-proposal rounds).
  std::vector<NodeId> proposal;
  /// Weight of the proposed edge, consumed when a proposal pairs up.
  std::vector<Weight> proposal_weight;
  /// Chunk-merged LP candidates (chunk-index order == node order).
  std::vector<LpCandidate> merged;

  /// The i-th chunk arena, created on first use (a growth event) and reused
  /// by every later phase, level and run.
  ThreadArena& arena(std::size_t i) {
    while (arenas_.size() <= i) {
      if (stats != nullptr) stats->note(sizeof(ThreadArena));
      arenas_.push_back(std::make_unique<ThreadArena>());
      arenas_.back()->stats = stats;
    }
    return *arenas_[i];
  }

 private:
  std::vector<std::unique_ptr<ThreadArena>> arenas_;
};

class Workspace {
 public:
  Workspace() {
    contract.stats = &stats_;
    matching.stats = &stats_;
    fm.stats = &stats_;
    bisect.stats = &stats_;
    kl.stats = &stats_;
    incremental.stats = &stats_;
    parallel.stats = &stats_;
    move_ctx.set_alloc_stats(&stats_);
  }
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Growth counter over every workspace-owned buffer. Warm steady state
  /// (same graph family, same k) must not advance it.
  const support::AllocStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  graph::ContractScratch contract;
  MatchingScratch matching;
  FmScratch fm;
  BisectionScratch bisect;
  KlScratch kl;
  IncrementalScratch incremental;
  ParallelScratch parallel;

  /// Reusable incremental mover (reset() per level/pass).
  MoveContext move_ctx;

  /// Boundary/visit-order buffer for the greedy refiners.
  std::vector<NodeId> boundary;

  /// Matching competition buffers (coarsen(): candidate vs best-so-far).
  Matching match_candidate;
  Matching match_best;

  /// Reusable Partition for per-level refine-project loops.
  Partition level_partition;

  /// Transient per-run profiling context, installed from
  /// PartitionRequest::phases via PhaseContextScope so shared helpers
  /// (coarsen(), per-level refine loops) can charge their phase without
  /// signature churn. Non-owning; null = no profiling. Not scratch: never
  /// grows, never counted by stats().
  PhaseProfile* phases = nullptr;
  /// Trace category for spans emitted through this workspace — the running
  /// algorithm's registry name (static string); null = "multilevel".
  const char* phase_cat = nullptr;

 private:
  support::AllocStats stats_;
#if PPN_CONTRACTS_ENABLED
  friend class WorkspaceLease;
  /// Debug-only exclusivity flag; see WorkspaceLease.
  std::atomic<bool> in_use_{false};
#endif
};

/// RAII enforcement of the ownership rule above: ONE run per Workspace at a
/// time. Every partitioner entry point takes a lease on the workspace it
/// resolved (caller-supplied or local) for the duration of the run; taking
/// a second lease — two threads sharing one workspace, or a re-entrant run
/// handed its caller's scratch — aborts in Debug builds with the usual
/// contract diagnostics. The flag is atomic so a cross-thread violation is
/// reported deterministically instead of being itself a data race; Release
/// builds compile the guard away entirely.
class WorkspaceLease {
 public:
  explicit WorkspaceLease(Workspace& ws)
#if PPN_CONTRACTS_ENABLED
      : ws_(&ws) {
    PPN_CHECK_MSG(!ws_->in_use_.exchange(true, std::memory_order_acq_rel),
                  "Workspace already in use: two partitioner runs share one "
                  "workspace (concurrently or re-entrantly)");
  }
  ~WorkspaceLease() { ws_->in_use_.store(false, std::memory_order_release); }
#else
  {
    (void)ws;
  }
#endif
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

#if PPN_CONTRACTS_ENABLED
 private:
  Workspace* ws_;
#endif
};

}  // namespace ppnpart::part
