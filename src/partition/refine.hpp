#pragma once
// Refinement algorithms (paper Sections IV-B / IV-C).
//
//  * constrained_fm_refine — the paper's "FM-based algorithm": a
//    Fiduccia–Mattheyses pass generalised to k parts whose gain is the
//    lexicographic goodness (resource excess, bandwidth excess, cut). Each
//    pass moves every node at most once, accepts temporarily-worsening moves
//    and commits the best prefix (classic FM hill-climbing), so it can
//    escape local minima while repairing constraint violations. A pass also
//    ends once fm_stall_moves(n) applied moves have gone by without a new
//    best (the early stop of KaHyPar's FM, as a count scaled to the size n
//    of the graph the pass refines).
//  * greedy_cut_refine — METIS-style k-way boundary refinement: positive
//    cut-gain moves only, subject to a hard balance cap. Used by the
//    MetisLike baseline, which models METIS's behavioural contract.
//  * bisection_fm_refine — 2-way FM with per-side weight caps, used inside
//    the MetisLike recursive-bisection initial partitioning.

#include <algorithm>
#include <cstdint>

#include "partition/move_context.hpp"
#include "partition/partition.hpp"
#include "partition/workspace.hpp"
#include "support/prng.hpp"

namespace ppnpart::part {

/// The stall limit's cap: graphs of 1,400 nodes or more use it. A pass that
/// stops paying is ended and its moves after the best prefix are rolled
/// back as before, so a pass still never makes goodness worse. Without the
/// rule, 97% of the moves applied on the tracked 100k-node PN were rolled
/// back. Why 350: it keeps the tracked 10k and 20k cuts and gives 90,027 at
/// 100k (90,058 without the rule); 100 and 50 lose cut at 100k (91,333 and
/// 93,216); 1000 keeps the cut but saves ~20% less time.
constexpr std::uint64_t kFmStallMoves = 350;

/// A constrained FM pass on an n-node graph ends once this many applied moves
/// have gone by without a new best goodness. A flat 350 never ends a pass on a
/// graph of at most 350 nodes, so on GP's small levels passes ran to
/// exhaustion: over the 16 1k- and 4k-node service-class gate instances FM
/// rolled back 98% of the moves it applied. Under the flat rule, the longest
/// run of applied moves before a new best on a level below 2,048 nodes of the
/// tracked 100k PN was 90, at a 677-node level (this limit: 169). Over the
/// service classes (Bmax as given, unlimited, or binding at f = 1.0 to 0.4),
/// 120 more service instances, the 300-node class and the tracked 10k PN it was
/// 124, at a 1,315-node level (this limit: 328); the closest to its limit was
/// 51 moves, on 243- and 98-node levels of the binding class (this limit: 64).
/// Rejected: a flat 64 below 2,048 nodes (100k cut 90,027 -> 90,272), a flat 32
/// there (100k 92,950; 300-node class 12,434 -> 12,440), a floor of 16
/// (300-node class 12,440; service classes 39,622 -> 39,724), and n/8 with a
/// floor of 96 (keeps every answer, but leaves 6 moves of margin at that
/// 677-node level). Graphs of at most 64 nodes, the paper's instances among
/// them, run as before.
constexpr std::uint64_t fm_stall_moves(NodeId n) {
  return std::clamp<std::uint64_t>(n / 4, 64, kFmStallMoves);
}

struct FmOptions {
  std::uint32_t max_passes = 8;
  /// Per-pass move budget; 0 means every node may move once.
  std::uint64_t move_limit = 0;
};

/// Refines `p` in place toward lower goodness under `c`. Returns true iff
/// the goodness strictly improved. The Workspace overload is the
/// allocation-free hot path (scratch reused across calls); the plain
/// overload spins up a private workspace — results are identical.
bool constrained_fm_refine(const Graph& g, Partition& p, const Constraints& c,
                           const FmOptions& options, support::Rng& rng,
                           Workspace& ws);
/// Armed form: refines the partition `ctx` is armed on, without a reset.
/// The Workspace overload is reset(g, p, c) on ws.move_ctx plus this call;
/// GP arms once per level and runs LP, FM and swap rounds on that arm.
/// Each pass evaluates its seeds' best moves in `seed_chunks` (clamped to
/// [1, seeds]) tasks on the global thread pool before its serial move
/// loop; the result is the same at every count.
bool constrained_fm_refine(MoveContext& ctx, const FmOptions& options,
                           support::Rng& rng, FmScratch& fs,
                           std::uint32_t seed_chunks = 1);
bool constrained_fm_refine(const Graph& g, Partition& p, const Constraints& c,
                           const FmOptions& options, support::Rng& rng);

/// Cut-only greedy boundary refinement with hard max-load cap, for up to 8
/// passes. Moves are applied immediately when they strictly reduce the cut
/// (or keep it equal while improving the load spread) and respect the cap.
/// Returns true iff the cut improved.
bool greedy_cut_refine(const Graph& g, Partition& p, Weight max_load,
                       support::Rng& rng, Workspace& ws);

/// 2-way FM with independent side caps (cap0 for part 0, cap1 for part 1).
/// Minimizes (total overweight, cut) lexicographically. Returns true iff
/// improved.
bool bisection_fm_refine(const Graph& g, Partition& p, Weight cap0,
                         Weight cap1, std::uint32_t max_passes,
                         Workspace& ws);

struct SwapRefineOptions {
  std::uint32_t max_passes = 4;
  /// Skip graphs larger than this (the pair scan is quadratic; it is meant
  /// for coarsest-level graphs and small instances).
  NodeId max_nodes = 200;
};

/// Steepest-descent over the pairwise *swap* neighbourhood under the
/// goodness objective. When Rmax is tight every part is full, so any single
/// FM move transits a deep resource violation — swaps sidestep that by
/// exchanging near-equal weights, which is exactly the move the paper's
/// tight Experiment 3 needs. Returns true iff goodness improved. Each step
/// takes the first best cross-part pair, u ascending then v ascending, by
/// the closed-form, side-effect free MoveContext::goodness_after_swap:
/// O(log degree) while the bandwidth bound has slack for both endpoints,
/// O(log degree + k) otherwise. `rng` is unused (the scan is deterministic).
///
/// Bounded search: with gain_x(q) = conn(x, q) - conn(x, part(x)), a swap
/// of u in part a with v in part b ends at cut - gain_u(b) - gain_v(a) +
/// 2 w(u,v). So while the best swap found so far (the incumbent) is
/// feasible, the pair can only beat it if gain_u(b) + gain_v(a) exceeds
/// cut - incumbent cut. Each step first takes, in O(n k), every part's
/// largest gain_v(a) toward every other part; it then drops, for each u,
/// the parts b whose best v cannot pay, and each remaining pair whose own
/// gain sum cannot, before evaluating it. An infeasible incumbent prunes
/// nothing. The pairs that remain are evaluated in the same order under
/// the same strict comparison, so the answer is the exhaustive scan's.
/// Under a feasible FM-refined start a step costs O(n k + n^2) cheap
/// reads and a handful of evaluations instead of ~n^2 / 2 evaluations.
bool swap_refine(const Graph& g, Partition& p, const Constraints& c,
                 const SwapRefineOptions& options, support::Rng& rng,
                 Workspace& ws);
/// Armed form (see constrained_fm_refine): the bound's scratch is `ss`, and
/// its goodness_after_swap calls are added to `evaluations`.
bool swap_refine(MoveContext& ctx, const SwapRefineOptions& options,
                 SwapScratch& ss, std::uint64_t& evaluations);

}  // namespace ppnpart::part
