#include "graph/contract.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/contracts.hpp"
#include "support/thread_pool.hpp"

namespace ppnpart::graph {

Graph contract_csr(const Graph& fine, std::span<const NodeId> fine_to_coarse,
                   NodeId num_coarse, ContractScratch& scratch,
                   std::uint32_t chunks) {
  const NodeId n = fine.num_nodes();
  if (fine_to_coarse.size() != n)
    throw std::invalid_argument("contract_csr: map size mismatch");

  support::AllocStats* stats = scratch.stats;

  // --- Coarse node weights + member lists (counting sort by coarse id). ---
  support::assign_tracked(scratch.node_w, num_coarse, Weight{0}, stats);
  support::assign_tracked(scratch.member_off,
                          static_cast<std::size_t>(num_coarse) + 1, 0, stats);
  for (NodeId u = 0; u < n; ++u) {
    const NodeId c = fine_to_coarse[u];
    if (c >= num_coarse)
      throw std::invalid_argument("contract_csr: coarse id out of range");
    scratch.node_w[c] += fine.node_weight(u);
    ++scratch.member_off[c];
  }
  // Prefix sums make member_off[c] the end of c's members; filling them in
  // backwards, in descending node order, turns it into their start.
  for (NodeId c = 0; c < num_coarse; ++c)
    scratch.member_off[c + 1] += scratch.member_off[c];
  support::reserve_tracked(scratch.members, n, stats);
  scratch.members.resize(n);  // every slot overwritten below
  for (NodeId u = n; u-- > 0;)
    scratch.members[--scratch.member_off[fine_to_coarse[u]]] = u;

  // --- Chunks: chunk i builds coarse rows [row[i], row[i + 1]) into the
  // region of adj/ewgt starting at region[i], the fine degree sum of the
  // members of every earlier row. A coarse row is never longer than its
  // members' fine rows, so no region overruns the next one and all of them
  // fit in fine.adj().size() entries. Boundaries split that degree sum
  // evenly. One chunk is row range [0, num_coarse) at region 0.
  const std::size_t cap = fine.adj().size();
  const std::size_t nchunks = std::clamp<std::size_t>(
      chunks, 1, std::max<std::size_t>(num_coarse, 1));
  support::reserve_tracked(scratch.chunk_row, nchunks + 1, stats);
  support::reserve_tracked(scratch.chunk_region, nchunks + 1, stats);
  scratch.chunk_row.assign(nchunks + 1, num_coarse);
  scratch.chunk_region.assign(nchunks + 1, cap);
  scratch.chunk_row[0] = 0;
  scratch.chunk_region[0] = 0;
  if (nchunks > 1) {
    std::uint64_t acc = 0;
    std::size_t next = 1;
    for (NodeId c = 0; c < num_coarse && next < nchunks; ++c) {
      if (acc * nchunks >= cap * next) {
        scratch.chunk_row[next] = c;
        scratch.chunk_region[next++] = acc;
      }
      for (std::uint64_t i = scratch.member_off[c];
           i < scratch.member_off[c + 1]; ++i)
        acc += fine.degree(scratch.members[i]);
    }
  }

  // --- Row positions: pos[i][cv] is cv's offset in the row chunk i is
  // building, -1 when absent. Every entry is -1 between rows and calls.
  if (scratch.pos.size() < nchunks) {
    if (stats != nullptr)
      stats->note((nchunks - scratch.pos.size()) * sizeof(scratch.pos[0]));
    scratch.pos.resize(nchunks);
  }
  for (std::size_t i = 0; i < nchunks; ++i) {
    std::vector<std::int32_t>& pos = scratch.pos[i];
    support::reserve_tracked(pos, num_coarse, stats);
    pos.resize(std::max<std::size_t>(pos.size(), num_coarse), -1);
  }

  // --- One pass per chunk: gather, dedup and sort each row in place. ---
  support::reserve_tracked(scratch.xadj,
                           static_cast<std::size_t>(num_coarse) + 1, stats);
  scratch.xadj.resize(static_cast<std::size_t>(num_coarse) + 1);
  scratch.xadj[0] = 0;  // remaining slots overwritten below
  // The buffers only ever grow; rows are written through raw pointers
  // behind each chunk's `end` cursor.
  support::reserve_tracked(scratch.adj, cap, stats);
  support::reserve_tracked(scratch.ewgt, cap, stats);
  scratch.adj.resize(std::max(scratch.adj.size(), cap));
  scratch.ewgt.resize(std::max(scratch.ewgt.size(), cap));
  NodeId* const adj = scratch.adj.data();
  Weight* const ewgt = scratch.ewgt.data();
  support::reserve_tracked(scratch.chunk_end, nchunks, stats);
  scratch.chunk_end.resize(nchunks);

  const auto build_rows = [&](std::size_t chunk) {
    std::int32_t* const pos = scratch.pos[chunk].data();
    std::size_t end = scratch.chunk_region[chunk];
    for (NodeId c = scratch.chunk_row[chunk]; c < scratch.chunk_row[chunk + 1];
         ++c) {
      // Calls add(cv, w) for every fine edge of c's members that leaves c;
      // edges that became internal drop.
      const auto for_each_edge = [&](auto&& add) {
        for (std::uint64_t i = scratch.member_off[c];
             i < scratch.member_off[c + 1]; ++i) {
          const NodeId u = scratch.members[i];
          auto nbrs = fine.neighbors(u);
          auto wgts = fine.edge_weights(u);
          for (std::size_t j = 0; j < nbrs.size(); ++j) {
            const NodeId cv = fine_to_coarse[nbrs[j]];
            if (cv != c) add(cv, wgts[j]);
          }
        }
      };
      const std::size_t row_start = end;
      for_each_edge([&](NodeId cv, Weight w) {
        if (pos[cv] >= 0) {
          ewgt[row_start + static_cast<std::size_t>(pos[cv])] += w;
        } else {
          pos[cv] = static_cast<std::int32_t>(end - row_start);
          adj[end] = cv;
          ewgt[end++] = w;
        }
      });
      // Neighbour ids are unique after the merge, so any comparison sort
      // yields the identical id-ordered row GraphBuilder produces. Coarse
      // rows are short (average degree), where insertion sort beats the
      // introsort call overhead.
      NodeId* row = adj + row_start;
      Weight* row_w = ewgt + row_start;
      const std::size_t row_len = end - row_start;
      if (row_len <= 24) {
        for (std::size_t i = 1; i < row_len; ++i) {
          const NodeId key = row[i];
          const Weight key_w = row_w[i];
          std::size_t j = i;
          for (; j > 0 && key < row[j - 1]; --j) {
            row[j] = row[j - 1];
            row_w[j] = row_w[j - 1];
          }
          row[j] = key;
          row_w[j] = key_w;
        }
      } else {
        // Sort the ids alone, then add the weights up again in sorted order.
        std::sort(row, row + row_len);
        for (std::size_t i = 0; i < row_len; ++i) {
          pos[row[i]] = static_cast<std::int32_t>(i);
          row_w[i] = 0;
        }
        for_each_edge([&](NodeId cv, Weight w) { row_w[pos[cv]] += w; });
      }
      for (std::size_t i = 0; i < row_len; ++i) pos[row[i]] = -1;
#if PPN_CONTRACTS_ENABLED
      // Produced-row audit: each coarse row must be strictly sorted and free
      // of self loops, or downstream binary searches (edge_weight_between)
      // silently misread the coarse graph.
      for (std::size_t i = 0; i < row_len; ++i) {
        PPN_DCHECK(row[i] != c);
        PPN_DCHECK(i == 0 || row[i - 1] < row[i]);
      }
#endif
      scratch.xadj[c + 1] = end;
    }
    scratch.chunk_end[chunk] = end;
  };
  support::parallel_for(0, nchunks, build_rows);

  // The Graph owns its arrays (it outlives the scratch), so the final copies
  // are the one unavoidable allocation per level: the product itself. One
  // chunk's rows are already contiguous from 0.
  const std::size_t end = scratch.chunk_end[0];
  if (nchunks == 1) {
    return Graph(
        std::vector<std::uint64_t>(scratch.xadj.begin(), scratch.xadj.end()),
        std::vector<NodeId>(adj, adj + end),
        std::vector<Weight>(ewgt, ewgt + end),
        std::vector<Weight>(scratch.node_w.begin(), scratch.node_w.end()));
  }
  // Several chunks: a prefix sum over their output lengths places each one
  // in the product, and each chunk copies (and re-bases) its own part.
  std::size_t total = 0;
  for (std::size_t i = 0; i < nchunks; ++i)
    total += scratch.chunk_end[i] - scratch.chunk_region[i];
  std::vector<std::uint64_t> out_xadj(static_cast<std::size_t>(num_coarse) + 1);
  std::vector<NodeId> out_adj(total);
  std::vector<Weight> out_ewgt(total);
  support::parallel_for(0, nchunks, [&](std::size_t chunk) {
    std::uint64_t off = 0;
    for (std::size_t i = 0; i < chunk; ++i)
      off += scratch.chunk_end[i] - scratch.chunk_region[i];
    const std::uint64_t region = scratch.chunk_region[chunk];
    for (NodeId c = scratch.chunk_row[chunk]; c < scratch.chunk_row[chunk + 1];
         ++c)
      out_xadj[c + 1] = scratch.xadj[c + 1] - region + off;
    std::copy(adj + region, adj + scratch.chunk_end[chunk],
              out_adj.begin() + static_cast<std::ptrdiff_t>(off));
    std::copy(ewgt + region, ewgt + scratch.chunk_end[chunk],
              out_ewgt.begin() + static_cast<std::ptrdiff_t>(off));
  });
  return Graph(
      std::move(out_xadj), std::move(out_adj), std::move(out_ewgt),
      std::vector<Weight>(scratch.node_w.begin(), scratch.node_w.end()));
}

}  // namespace ppnpart::graph
