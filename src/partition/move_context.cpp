#include "partition/move_context.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "support/thread_pool.hpp"

namespace ppnpart::part {

namespace {
inline Weight over(Weight value, Weight cap) { return excess_over(value, cap); }
}  // namespace

void MoveContext::reset(const Graph& g, Partition& p, const Constraints& c,
                        std::uint32_t chunks) {
  if (p.size() != g.num_nodes())
    throw std::invalid_argument("MoveContext: size mismatch");
  if (!p.complete())
    throw std::invalid_argument("MoveContext: incomplete partition");
  graph_ = &g;
  partition_ = &p;
  constraints_ = c;
  k_ = p.k();
  cut_ = 0;
  resource_excess_ = 0;
  bandwidth_excess_ = 0;
  pair_ub_ = 0;
  apply_count_ = 0;
  ++reset_count_;

  const NodeId n = g.num_nodes();
  const std::size_t k = static_cast<std::size_t>(k_);
  // Every entry of these is written by the chunk that owns its node, so
  // they are only resized here, never refilled.
  support::reserve_tracked(conn_, static_cast<std::size_t>(n) * k,
                           alloc_stats_);
  conn_.resize(static_cast<std::size_t>(n) * k);
  support::reserve_tracked(incident_, n, alloc_stats_);
  incident_.resize(n);
  support::reserve_tracked(in_boundary_list_, n, alloc_stats_);
  in_boundary_list_.resize(n);

  // Chunk i fills the conn rows, incident weights and boundary flags of
  // nodes [n*i/chunks, n*(i+1)/chunks) and adds their loads, counts, cut
  // and pairwise cut into its own partial sums (k loads, k counts, the cut,
  // then a k x k matrix with each cut edge on one side).
  const std::size_t nchunks =
      std::clamp<std::size_t>(chunks, 1, std::max<std::size_t>(n, 1));
  const std::size_t stride = 2 * k + 1 + k * k;
  support::assign_tracked(partial_, nchunks * stride, 0, alloc_stats_);
  const auto fill = [&](std::size_t chunk) {
    Weight* const loads = partial_.data() + chunk * stride;
    Weight* const counts = loads + k;
    Weight& cut = counts[k];
    Weight* const pairwise = counts + k + 1;
    const std::size_t lo = n * chunk / nchunks;
    const std::size_t hi = n * (chunk + 1) / nchunks;
    std::fill(conn_.data() + lo * k, conn_.data() + hi * k, Weight{0});
    for (NodeId u = static_cast<NodeId>(lo); u < hi; ++u) {
      const std::size_t pu = static_cast<std::size_t>(p[u]);
      loads[pu] += g.node_weight(u);
      ++counts[pu];
      Weight* const row = conn_.data() + static_cast<std::size_t>(u) * k;
      Weight incident = 0;
      auto nbrs = g.neighbors(u);
      auto wgts = g.edge_weights(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const NodeId v = nbrs[i];
        const std::size_t pv = static_cast<std::size_t>(p[v]);
        row[pv] += wgts[i];
        incident += wgts[i];
        if (u < v && pu != pv) {
          cut += wgts[i];
          pairwise[pu * k + pv] += wgts[i];
        }
      }
      incident_[u] = incident;
      in_boundary_list_[u] = row[pu] < incident ? 1 : 0;
    }
  };
  support::parallel_for(0, nchunks, fill);

  // Reduce the partial sums in chunk order.
  support::assign_tracked(loads_, k, 0, alloc_stats_);
  support::assign_tracked(counts_, k, 0, alloc_stats_);
  pairwise_.reset(k_);
  for (std::size_t chunk = 0; chunk < nchunks; ++chunk) {
    const Weight* const part = partial_.data() + chunk * stride;
    for (std::size_t r = 0; r < k; ++r) {
      loads_[r] += part[r];
      counts_[r] += static_cast<std::uint32_t>(part[k + r]);
    }
    cut_ += part[2 * k];
    const Weight* const pairwise = part + 2 * k + 1;
    for (std::size_t a = 0; a < k; ++a)
      for (std::size_t b = 0; b < k; ++b)
        if (pairwise[a * k + b] != 0)
          pairwise_.add(static_cast<PartId>(a), static_cast<PartId>(b),
                        pairwise[a * k + b]);
  }
  for (PartId r = 0; r < k_; ++r) {
    resource_excess_ +=
        over(loads_[static_cast<std::size_t>(r)], constraints_.rmax_of(r));
  }
  for (PartId a = 0; a < k_; ++a) {
    for (PartId b = a + 1; b < k_; ++b) {
      bandwidth_excess_ += over(pairwise_.at(a, b), constraints_.bmax);
      pair_ub_ = std::max(pair_ub_, pairwise_.at(a, b));
    }
  }

  // The incremental boundary set starts as exactly the boundary, ascending.
  support::reserve_tracked(boundary_list_, n, alloc_stats_);
  boundary_list_.clear();
  for (NodeId u = 0; u < n; ++u)
    if (in_boundary_list_[u]) boundary_list_.push_back(u);
}

Goodness MoveContext::goodness_after(NodeId u, PartId q) const {
  const PartId p = part_of(u);
  if (p == q) return goodness();
  const Weight w = graph_->node_weight(u);
  const Weight cup = conn(u, p);
  const Weight cuq = conn(u, q);

  Weight res = resource_excess_;
  res -= over(load(p), constraints_.rmax_of(p));
  res += over(load(p) - w, constraints_.rmax_of(p));
  res -= over(load(q), constraints_.rmax_of(q));
  res += over(load(q) + w, constraints_.rmax_of(q));

  Weight bw = bandwidth_excess_;
  if (!bandwidth_inert(incident_[u])) {
    const Weight pq_old = pairwise_.at(p, q);
    const Weight pq_new = pq_old + cup - cuq;
    bw += over(pq_new, constraints_.bmax) - over(pq_old, constraints_.bmax);
    for (PartId r = 0; r < k_; ++r) {
      if (r == p || r == q) continue;
      const Weight cur = conn(u, r);
      if (cur == 0) continue;
      const Weight pr_old = pairwise_.at(p, r);
      const Weight qr_old = pairwise_.at(q, r);
      bw += over(pr_old - cur, constraints_.bmax) -
            over(pr_old, constraints_.bmax);
      bw += over(qr_old + cur, constraints_.bmax) -
            over(qr_old, constraints_.bmax);
    }
  }

  return Goodness{res, bw, cut_ + cup - cuq};
}

Goodness MoveContext::goodness_after_swap(NodeId u, NodeId v) const {
  const PartId pu = part_of(u);
  const PartId pv = part_of(v);
  if (pu == pv) return goodness();
  const Weight shift = graph_->node_weight(u) - graph_->node_weight(v);
  const Weight ru = constraints_.rmax_of(pu);
  const Weight rv = constraints_.rmax_of(pv);
  const Weight res = resource_excess_ - over(load(pu), ru) -
                     over(load(pv), rv) + over(load(pu) - shift, ru) +
                     over(load(pv) + shift, rv);
  // Change of the (pu, pv) pairwise cut, and so of the total cut: the u-v
  // edge stays cut, but conn(u, pv) and conn(v, pu) both count it, hence
  // the 2 * w(u,v) term.
  const Weight d_uv = conn(u, pu) - conn(u, pv) + conn(v, pv) - conn(v, pu) +
                      2 * graph_->edge_weight_between(u, v);
  Weight bw = bandwidth_excess_;
  if (!bandwidth_inert(incident_[u] + incident_[v])) {
    // Every other part r trades edges between the pairs (pu, r) and
    // (pv, r): the first changes by conn(v, r) - conn(u, r), the second by
    // the opposite.
    const Weight bmax = constraints_.bmax;
    const Weight* row_u = pairwise_.row(pu);
    const Weight* row_v = pairwise_.row(pv);
    bw += over(row_u[pv] + d_uv, bmax) - over(row_u[pv], bmax);
    for (PartId r = 0; r < k_; ++r) {
      const Weight d = conn(v, r) - conn(u, r);
      if (d == 0 || r == pu || r == pv) continue;
      bw += over(row_u[r] + d, bmax) - over(row_u[r], bmax) +
            over(row_v[r] - d, bmax) - over(row_v[r], bmax);
    }
  }
  return Goodness{res, bw, cut_ + d_uv};
}

void MoveContext::apply(NodeId u, PartId q) {
  const PartId p = part_of(u);
  if (p == q) return;
  const Weight w = graph_->node_weight(u);
  const std::size_t conn_base = static_cast<std::size_t>(u) * k_;
  const Weight cup = conn_[conn_base + static_cast<std::size_t>(p)];
  const Weight cuq = conn_[conn_base + static_cast<std::size_t>(q)];
  const Weight bmax = constraints_.bmax;

  // Pairwise cuts and bandwidth excess (uses conn before neighbour updates).
  auto update_pair = [&](PartId a, PartId b, Weight delta) {
    if (delta == 0) return;
    const Weight old = pairwise_.at(a, b);
    pairwise_.add(a, b, delta);
    bandwidth_excess_ += over(old + delta, bmax) - over(old, bmax);
    pair_ub_ = std::max(pair_ub_, old + delta);
  };
  update_pair(p, q, cup - cuq);
  for (PartId r = 0; r < k_; ++r) {
    if (r == p || r == q) continue;
    const Weight cur = conn_[conn_base + static_cast<std::size_t>(r)];
    if (cur == 0) continue;
    update_pair(p, r, -cur);
    update_pair(q, r, cur);
  }
  cut_ += cup - cuq;

  // Loads and resource excess.
  resource_excess_ -= over(load(p), constraints_.rmax_of(p));
  resource_excess_ -= over(load(q), constraints_.rmax_of(q));
  loads_[static_cast<std::size_t>(p)] -= w;
  loads_[static_cast<std::size_t>(q)] += w;
  resource_excess_ += over(load(p), constraints_.rmax_of(p));
  resource_excess_ += over(load(q), constraints_.rmax_of(q));
  --counts_[static_cast<std::size_t>(p)];
  ++counts_[static_cast<std::size_t>(q)];

  // Neighbour connectivity.
  auto nbrs = graph_->neighbors(u);
  auto wgts = graph_->edge_weights(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const std::size_t base = static_cast<std::size_t>(nbrs[i]) * k_;
    conn_[base + static_cast<std::size_t>(p)] -= wgts[i];
    conn_[base + static_cast<std::size_t>(q)] += wgts[i];
  }

  partition_->set(u, q);
  ++apply_count_;

  // Boundary maintenance: only u and its neighbours can have changed
  // status. Nodes that *left* the boundary are dropped lazily at
  // enumeration time.
  mark_boundary(u);
  for (NodeId v : nbrs) mark_boundary(v);
}

void MoveContext::boundary_nodes(std::vector<NodeId>& out) const {
  const NodeId n = graph_->num_nodes();
  // When the lazy list covers a large fraction of the graph, a full O(n)
  // rescan (is_boundary is O(1)) beats compacting + sorting it; both paths
  // produce the identical ascending enumeration.
  if (boundary_list_.size() * 4 >= n) {
    boundary_list_.clear();
    for (NodeId u = 0; u < n; ++u) {
      const bool b = is_boundary(u);
      in_boundary_list_[u] = b ? 1 : 0;
      if (b) boundary_list_.push_back(u);
    }
  } else {
    // Compact stale entries (nodes that have become internal), then sort so
    // enumeration is ascending by id — identical to a full 0..n scan.
    std::size_t w = 0;
    for (std::size_t i = 0; i < boundary_list_.size(); ++i) {
      const NodeId u = boundary_list_[i];
      if (is_boundary(u)) {
        boundary_list_[w++] = u;
      } else {
        in_boundary_list_[u] = 0;
      }
    }
    boundary_list_.resize(w);
    std::sort(boundary_list_.begin(), boundary_list_.end());
  }
  support::reserve_tracked(out, boundary_list_.size(), alloc_stats_);
  out.assign(boundary_list_.begin(), boundary_list_.end());
}

std::optional<MoveContext::Candidate> MoveContext::best_move(
    NodeId u, bool allow_emptying) const {
  const PartId p = part_of(u);
  if (!allow_emptying && part_size(p) <= 1) return std::nullopt;

  // Specialized all-targets scan: algebraically identical to calling
  // goodness_after(u, q) for every q (same int64 terms, summed in a
  // different order), but the source-part terms are hoisted out of the
  // target loop and the bandwidth inner loop only visits parts u actually
  // connects to. This is the hottest function of every FM pass.
  const Weight w = graph_->node_weight(u);
  const std::size_t conn_base = static_cast<std::size_t>(u) * k_;
  const Weight cup = conn_[conn_base + static_cast<std::size_t>(p)];
  const Weight bmax = constraints_.bmax;
  const Weight res_base = resource_excess_ -
                          over(load(p), constraints_.rmax_of(p)) +
                          over(load(p) - w, constraints_.rmax_of(p));

  const bool bw_limited = !bandwidth_inert(incident_[u]);
  const bool het = constraints_.heterogeneous();
  const Weight uniform_rmax = constraints_.rmax;
  const Weight* conn_row = conn_.data() + conn_base;
  const Weight* pair_row_p = pairwise_.row(p);
  // Parts (other than p) that u has edges into, ascending; and the
  // source-side bandwidth delta summed over all of them. The list lives on
  // this call's stack (on the heap past kStackParts parts), so concurrent
  // calls on one context share no scratch.
  constexpr PartId kStackParts = 64;
  PartId stack_parts[kStackParts];
  std::unique_ptr<PartId[]> heap_parts;
  PartId* nz_parts = stack_parts;
  std::size_t nz = 0;
  Weight sp_sum = 0;
  if (bw_limited) {
    if (k_ > kStackParts) {
      heap_parts = std::make_unique<PartId[]>(static_cast<std::size_t>(k_));
      nz_parts = heap_parts.get();
    }
    for (PartId r = 0; r < k_; ++r) {
      if (r == p) continue;
      const Weight cur = conn_row[r];
      if (cur == 0) continue;
      nz_parts[nz++] = r;
      const Weight pr_old = pair_row_p[r];
      sp_sum += over(pr_old - cur, bmax) - over(pr_old, bmax);
    }
  }

  PartId best_q = kUnassigned;
  Weight best_res = 0, best_bw = 0, best_cut = 0;
  for (PartId q = 0; q < k_; ++q) {
    if (q == p) continue;
    const Weight cuq = conn_row[q];
    const Weight rq =
        het ? constraints_.rmax_per_part[static_cast<std::size_t>(q)]
            : uniform_rmax;

    const Weight res =
        res_base - over(load(q), rq) + over(load(q) + w, rq);

    Weight bw = bandwidth_excess_;
    if (bw_limited) {
      const Weight pq_old = pair_row_p[q];
      bw += over(pq_old + cup - cuq, bmax) - over(pq_old, bmax);
      // Source-side sum minus its r == q term (goodness_after skips it).
      bw += sp_sum;
      if (cuq != 0) {
        bw -= over(pq_old - cuq, bmax) - over(pq_old, bmax);
      }
      const Weight* pair_row_q = pairwise_.row(q);
      for (std::size_t i = 0; i < nz; ++i) {
        const PartId r = nz_parts[i];
        if (r == q) continue;
        const Weight cur = conn_row[r];
        const Weight qr_old = pair_row_q[r];
        bw += over(qr_old + cur, bmax) - over(qr_old, bmax);
      }
    }

    const Weight cut_after = cut_ + cup - cuq;
    // Lexicographic strict-less against the incumbent (first best wins
    // ties, like the goodness_after-based loop did).
    if (best_q == kUnassigned || res < best_res ||
        (res == best_res &&
         (bw < best_bw || (bw == best_bw && cut_after < best_cut)))) {
      best_q = q;
      best_res = res;
      best_bw = bw;
      best_cut = cut_after;
    }
  }
  if (best_q == kUnassigned) return std::nullopt;
  return Candidate{best_q, Goodness{best_res, best_bw, best_cut}};
}

}  // namespace ppnpart::part
