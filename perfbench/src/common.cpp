#include "common.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

namespace part = ppnpart::part;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(v[lo]) || std::isinf(v[hi])) return frac > 0 ? v[hi] : v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  // JSON has no inf/nan; a metric that produced one is a benchmark bug, so
  // make it visible as an absurd value rather than emitting invalid JSON.
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           json_escape(metrics[i].unit) + "\"}";
  }
  out += "}}";
  return out;
}

// ------------------------------------------------------------ spans

std::int64_t SpanRecorder::record(std::string name, Clock::time_point start,
                                  Clock::time_point end, std::int64_t parent,
                                  std::int64_t request, std::string args) {
  if (!enabled_) return kNone;
  spans_.push_back(
      {std::move(name), start, end, parent, request, std::move(args)});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::int64_t SpanRecorder::open(std::string name, std::int64_t parent,
                                std::int64_t request) {
  if (!enabled_) return kNone;
  const Clock::time_point now = Clock::now();
  return record(std::move(name), now, now, parent, request);
}

void SpanRecorder::close(std::int64_t index, std::string args,
                         Clock::time_point end) {
  if (index == kNone) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = end;
  s.args = std::move(args);
}

std::vector<double> SpanRecorder::self_seconds(const std::string& name) const {
  // Children of each span, as [start, end] intervals.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent != kNone)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    Clock::time_point cursor = s.start;
    for (const auto& [a, b] : kids) {
      const Clock::time_point lo = std::max(a, cursor);
      const Clock::time_point hi = std::min(b, s.end);
      if (hi > lo) {
        covered += seconds_between(lo, hi);
        cursor = hi;
      }
    }
    out.push_back(std::max(0.0, seconds_between(s.start, s.end) - covered));
  }
  return out;
}

double SpanRecorder::total_self_seconds(const std::string& name) const {
  double sum = 0;
  for (double x : self_seconds(name)) sum += x;
  return sum;
}

bool SpanRecorder::write_chrome(const std::string& path,
                                const std::string& metadata_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    // Spans of one request share a track, so a request reads as one row.
    const std::int64_t tid = s.request == kNone ? 0 : s.request + 1;
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << json_escape(s.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
        << ", \"ts\": " << json_number(ts) << ", \"dur\": " << json_number(dur)
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request;
    if (!s.args.empty()) out << ", " << s.args;
    out << "}}";
  }
  out << "\n], \"metadata\": " << metadata_json << "}\n";
  return static_cast<bool>(out);
}

// ------------------------------------------------------- answer checks

AnswerCheck check_answer(const Graph& g, const part::PartitionRequest& request,
                         const part::PartitionResult& r) {
  AnswerCheck out;
  const std::vector<part::PartId>& assign = r.partition.assignments();
  const part::PartId k = request.k;
  if (assign.size() != g.num_nodes()) {
    out.reason = "partition size differs from the graph";
    return out;
  }
  if (r.partition.k() != k) {
    out.reason = "partition has the wrong number of parts";
    return out;
  }
  const auto kk = static_cast<std::size_t>(k);
  std::vector<Weight> loads(kk, 0);
  std::vector<Weight> pair(kk * kk, 0);
  Weight cut = 0;
  const auto& xadj = g.xadj();
  const auto& adj = g.adj();
  const auto& ew = g.raw_edge_weights();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const part::PartId pu = assign[u];
    if (pu < 0 || pu >= k) {
      out.reason = "partition is incomplete";
      return out;
    }
    loads[static_cast<std::size_t>(pu)] += g.node_weight(u);
    for (std::uint64_t e = xadj[u]; e < xadj[u + 1]; ++e) {
      const NodeId v = adj[e];
      if (v <= u) continue;
      const part::PartId pv = assign[v];
      if (pv == pu || pv < 0 || pv >= k) continue;
      cut += ew[e];
      const auto a = static_cast<std::size_t>(std::min(pu, pv));
      const auto b = static_cast<std::size_t>(std::max(pu, pv));
      pair[a * kk + b] += ew[e];
    }
  }
  const Weight max_load = *std::max_element(loads.begin(), loads.end());
  const Weight max_pair = *std::max_element(pair.begin(), pair.end());
  bool feasible = true;
  for (part::PartId p = 0; p < k; ++p)
    if (loads[static_cast<std::size_t>(p)] > request.constraints.rmax_of(p))
      feasible = false;
  if (max_pair > request.constraints.bmax) feasible = false;

  out.total_cut = cut;
  out.feasible = feasible;
  if (r.metrics.total_cut != cut) {
    out.reason = "claimed total_cut differs from the recomputed cut";
  } else if (r.metrics.max_load != max_load) {
    out.reason = "claimed max_load differs from the recomputed load";
  } else if (r.metrics.max_pairwise_cut != max_pair) {
    out.reason = "claimed max_pairwise_cut differs from the recomputation";
  } else if (r.feasible != feasible) {
    out.reason = "claimed feasibility differs from the constraints";
  } else {
    out.valid = true;
  }
  return out;
}

// ------------------------------------------------------------- inputs

Graph tracked_pn_graph(NodeId nodes) {
  ppnpart::graph::ProcessNetworkParams params;
  params.num_nodes = nodes;
  params.layers = std::max<std::uint32_t>(8, nodes / 64);
  ppnpart::support::Rng rng(123 + nodes);
  return ppnpart::graph::random_process_network(params, rng);
}

part::PartitionRequest tracked_pn_request(const Graph& g) {
  part::PartitionRequest request;
  request.k = 8;
  request.seed = 99;
  request.constraints.rmax =
      static_cast<Weight>(1.15 * static_cast<double>(g.total_node_weight()) / 8);
  request.constraints.bmax = static_cast<Weight>(
      1.3 * static_cast<double>(g.total_edge_weight()) / 28.0 / 2.0);
  return request;
}

Instance family_instance(NodeId nodes, part::PartId k, std::uint64_t seed,
                         double slack) {
  ppnpart::graph::ProcessNetworkParams params;
  params.num_nodes = nodes;
  params.layers = std::max<std::uint32_t>(4, nodes / 16);
  ppnpart::support::Rng rng(seed);
  Instance inst;
  inst.graph = ppnpart::graph::random_process_network(params, rng);
  inst.request.k = k;
  inst.request.seed = seed * 7 + 1;
  const auto total_w = static_cast<double>(inst.graph.total_node_weight());
  const auto total_e = static_cast<double>(inst.graph.total_edge_weight());
  const double pairs = k * (k - 1) / 2.0;
  inst.request.constraints.rmax = std::max<Weight>(
      static_cast<Weight>(slack * total_w / k), inst.graph.max_node_weight());
  inst.request.constraints.bmax =
      std::max<Weight>(1, static_cast<Weight>(slack * total_e / pairs / 2.0));
  return inst;
}

Graph near_identical_arrival(const Graph& g, double divergence,
                             ppnpart::support::Rng& rng) {
  ppnpart::graph::GraphDelta delta(g);
  const NodeId n = g.num_nodes();
  if (n < 2) return g;
  const auto ops = static_cast<std::size_t>(
      std::max(1.0, divergence * static_cast<double>(n)));
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t roll = rng.uniform_index(100);
    const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
    if (roll < 60 && g.degree(u) != 0) {  // reweight one of u's channels
      const NodeId v = g.neighbors(u)[rng.uniform_index(g.degree(u))];
      delta.set_edge_weight(u, v, 1 + static_cast<Weight>(rng.uniform_index(12)));
      continue;
    }
    const NodeId v = static_cast<NodeId>(rng.uniform_index(n));  // add one
    if (u != v)
      delta.add_edge(u, v, 1 + static_cast<Weight>(rng.uniform_index(6)));
  }
  return delta.apply(g).graph;
}

}  // namespace perfbench
