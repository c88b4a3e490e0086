#include "partition/tabu.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "partition/initial.hpp"
#include "partition/move_context.hpp"
#include "support/timer.hpp"

namespace ppnpart::part {

namespace {

constexpr std::uint32_t kStallLimit = 512;
constexpr std::size_t kCandidateSample = 64;

}  // namespace

bool tabu_refine(const Graph& g, Partition& p, const Constraints& c,
                 const TabuOptions& options, support::Rng& rng,
                 const support::StopToken* stop) {
  const NodeId n = g.num_nodes();
  const PartId k = p.k();
  if (n < 2 || k < 2) return false;

  MoveContext ctx(g, p, c);
  const Goodness initial = ctx.goodness();
  Goodness best = initial;
  std::vector<PartId> best_assign(p.assignments());

  const std::uint32_t tenure =
      std::max<std::uint32_t>(2, n / 10 + static_cast<std::uint32_t>(k));
  // tabu_until[u]: first iteration at which u may move again.
  std::vector<std::uint64_t> tabu_until(n, 0);

  const std::uint64_t max_iters =
      static_cast<std::uint64_t>(options.iterations_per_node) * n;
  std::uint32_t stall = 0;
  std::vector<NodeId> pool;

  for (std::uint64_t iter = 0; iter < max_iters; ++iter) {
    if (stop != nullptr && stop->stop_requested()) break;
    // Candidate pool: the current boundary (interior nodes cannot change
    // the cut, and load-only moves are reachable once the boundary shifts).
    ctx.boundary_nodes(pool);
    if (ctx.goodness().resource_excess > 0) {
      // Over-capacity parts may need interior evictions too.
      const Constraints& cc = ctx.constraints();
      for (NodeId u = 0; u < n; ++u) {
        const PartId pu = ctx.part_of(u);
        if (!ctx.is_boundary(u) && ctx.load(pu) > cc.rmax_of(pu))
          pool.push_back(u);
      }
    }
    if (pool.empty()) break;
    if (pool.size() > kCandidateSample) {
      // Partial Fisher-Yates: a random prefix of size kCandidateSample.
      for (std::size_t i = 0; i < kCandidateSample; ++i) {
        const std::size_t j = i + rng.uniform_index(pool.size() - i);
        std::swap(pool[i], pool[j]);
      }
      pool.resize(kCandidateSample);
    }

    // Best admissible move: non-tabu, or tabu-but-aspirated (beats the
    // incumbent). Unlike FM there is no lock and no rollback: the chosen
    // move is applied unconditionally, worsening or not.
    NodeId pick = graph::kInvalidNode;
    PartId pick_target = kUnassigned;
    Goodness pick_after;
    for (NodeId u : pool) {
      auto cand = ctx.best_move(u);
      if (!cand) continue;
      const bool is_tabu = tabu_until[u] > iter;
      if (is_tabu && !(cand->after < best)) continue;  // aspiration gate
      if (pick == graph::kInvalidNode || cand->after < pick_after) {
        pick = u;
        pick_target = cand->target;
        pick_after = cand->after;
      }
    }
    if (pick == graph::kInvalidNode) break;  // everything tabu, no aspirant

    ctx.apply(pick, pick_target);
    tabu_until[pick] = iter + 1 + tenure;

    if (ctx.goodness() < best) {
      best = ctx.goodness();
      best_assign = ctx.partition().assignments();
      stall = 0;
    } else if (++stall >= kStallLimit) {
      break;
    }
  }

  // Leave the partition at the best state visited, not the final walk state.
  for (NodeId u = 0; u < n; ++u) {
    if (ctx.part_of(u) != best_assign[u]) ctx.apply(u, best_assign[u]);
  }
  return best < initial;
}

TabuPartitioner::TabuPartitioner(TabuOptions options) : options_(options) {}

PartitionResult TabuPartitioner::run(const Graph& g,
                                     const PartitionRequest& request) {
  if (request.k <= 0) throw std::invalid_argument("Tabu: k must be positive");
  support::Timer timer;
  PartitionResult result;
  result.algorithm = name();

  GreedyGrowOptions grow;
  grow.restarts = 4;
  support::SeedStream seeds(request.seed);
  support::Rng grow_rng = seeds.rng_for(0);
  result.partition =
      greedy_grow_initial(g, request.k, request.constraints, grow, grow_rng);
  support::Rng walk_rng = seeds.rng_for(1);
  tabu_refine(g, result.partition, request.constraints, options_, walk_rng,
              request.stop);

  result.finalize(g, request.constraints);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace ppnpart::part
