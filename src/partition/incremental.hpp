#pragma once
// Incremental repartitioning — warm-started refinement for evolving
// process networks.
//
// The paper's multilevel flow answers a static instance from scratch. When
// a network evolves by small edits (channels reweighted as traffic shifts,
// processes added or retired), a full V-cycle re-derives what the previous
// solution already knows. Following the evolutionary/streaming
// repartitioning literature (Moreira, Popp & Schulz; warm-started
// refinement in modern multilevel frameworks), IncrementalPartitioner
// seeds from the previous Partition instead:
//
//   1. project   — surviving nodes keep their previous part, routed through
//                  the old->new node map a GraphDelta::apply produced;
//   2. seed      — new nodes are assigned greedily by connectivity to the
//                  already-assigned parts (capacity-respecting first, then
//                  load, then lowest part id — deterministic);
//   3. refine    — boundary-driven constrained FM from the reusable
//                  Workspace (seeded from the part boundary, which the
//                  edit sites sit on or near); the warm steady state
//                  allocates nothing. Callers inject the Workspace via
//                  request.workspace — the engine always passes one leased
//                  from its WorkspacePool so concurrent warm-start tasks
//                  never share scratch; standalone callers that pass none
//                  get a local one.
//
// When the edit is too large for local repair to be trustworthy — too many
// touched nodes, a changed k, or a projected load imbalance past the
// threshold — try_repartition declines (returns nullopt) and the caller
// answers from scratch: the engine routes declines to its full portfolio.
//
// Determinism: projection and greedy seeding are id-ordered with fixed tie
// breaks, refinement draws from an Rng derived from request.seed — a fixed
// (prev, delta, request) reproduces bit-identical partitions.

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "graph/delta.hpp"
#include "partition/partitioner.hpp"

namespace ppnpart::part {

struct IncrementalOptions {
  /// Decline when the delta touched more than this fraction of the new
  /// graph's nodes — past it, boundary repair stops beating a V-cycle.
  double max_touched_fraction = 0.25;
  /// Diff-driven warm starts only (try_repartition_diffed): decline when the
  /// reconstructed edit script carries more than this fraction * |arriving|
  /// ops — a cheap pre-gate that skips the apply/verify work on arrivals
  /// that merely share a sketch, before max_touched_fraction gets its say.
  double max_diff_ops_fraction = 0.25;
  /// Decline when the projected partition's max load exceeds this multiple
  /// of the average part load: the previous solution is too skewed to be a
  /// useful warm start. Only applies under resource budgets (rmax or
  /// per-part budgets set) — without them imbalance is not part of the
  /// objective, and the paper's unconstrained baselines legitimately
  /// produce skewed low-cut partitions.
  double max_projected_imbalance = 2.5;
  /// FM pass budget of the boundary-driven refinement.
  std::uint32_t refine_passes = 8;
};

/// Per-call accounting; `projected_goodness` is the warm start's quality
/// before refinement (refinement never returns anything worse — the
/// property suite pins this).
struct IncrementalStats {
  bool fell_back = false;
  std::string fallback_reason;  // empty when the incremental path ran
  NodeId projected = 0;         // nodes that kept their previous part
  NodeId fresh = 0;             // new nodes assigned greedily
  Goodness projected_goodness;  // valid when !fell_back
  /// try_repartition_diffed only: size of the reconstructed edit script.
  std::size_t diff_ops = 0;
};

class IncrementalPartitioner {
 public:
  explicit IncrementalPartitioner(IncrementalOptions options = {});

  std::string name() const { return "Incremental"; }
  const IncrementalOptions& options() const { return options_; }

  /// The incremental path alone. `prev` is the (complete) partition of the
  /// pre-delta graph; `node_map` maps its ids (and any extended ids beyond
  /// them) into `g`; `touched` lists the new-graph nodes the delta changed
  /// (both exactly as GraphDelta::apply reports). Returns nullopt — with
  /// `stats->fallback_reason` set — when the delta exceeds the thresholds;
  /// never runs the fallback algorithm itself. Honours
  /// request.workspace/seed; request.k must equal prev.k() for the
  /// incremental path to apply.
  std::optional<PartitionResult> try_repartition(
      const Graph& g, const Partition& prev,
      std::span<const graph::NodeId> node_map,
      std::span<const graph::NodeId> touched,
      const PartitionRequest& request, IncrementalStats* stats = nullptr);

  /// Convenience: unpacks a GraphDelta::Applied.
  std::optional<PartitionResult> try_repartition(
      const graph::GraphDelta::Applied& applied, const Partition& prev,
      const PartitionRequest& request, IncrementalStats* stats = nullptr);

  /// Warm start from a near-identical BASE graph when the caller supplied
  /// no delta at all — the similarity-admission path. Reconstructs
  /// base -> arriving as an edit script via graph::diff, pre-gates on its
  /// size (max_diff_ops_fraction), replays it to recover the node map and
  /// touched set, and — the zero-invalid-reuse rail — verifies the replayed
  /// graph is BIT-IDENTICAL to `arriving` (exact CSR array comparison, no
  /// hashing) before running the normal warm-started path on `arriving`.
  /// `prev` is the (complete) partition previously answered for `base`.
  /// Returns nullopt with `stats->fallback_reason` set when any gate fires;
  /// a returned result is always a valid partition OF `arriving`.
  std::optional<PartitionResult> try_repartition_diffed(
      const Graph& base, const Graph& arriving, const Partition& prev,
      const PartitionRequest& request, IncrementalStats* stats = nullptr);

 private:
  IncrementalOptions options_;
};

}  // namespace ppnpart::part
