#pragma once
// Common partitioner interface used by the benchmark harness, the portfolio
// engine and examples.
//
// Every algorithm in the library (GP, MetisLike, Tabu, Exact, Random)
// answers the same request so the paper's comparison tables — and the
// engine's concurrent portfolios — can iterate over a heterogeneous set of
// partitioners. `make_partitioner` is the central registry mapping stable
// lowercase names to instances.

#include <memory>
#include <string>
#include <vector>

#include "partition/partition.hpp"
#include "support/stop_token.hpp"

namespace ppnpart::part {

class CoarseningCache;
class Workspace;
struct PhaseProfile;

struct PartitionRequest {
  PartId k = 2;
  /// GP honours these; cut-only baselines (MetisLike, Random) ignore them,
  /// exactly like METIS in the paper's experiments.
  Constraints constraints;
  std::uint64_t seed = 1;
  /// Intra-run parallelism: the most chunks GP cuts each of its chunked
  /// kernels into (contraction, matching race, MoveContext arming, FM
  /// seeding, LP scan, greedy-growth restarts; parallel.hpp); 0 = auto
  /// (thread-pool size), 1 = never touch the pool. It changes speed only:
  /// GP answers are bit-identical at every value, and MetisLike ignores it.
  /// Like `workspace`, it is excluded from request fingerprints.
  std::uint32_t threads = 1;

  /// Optional cooperative-stop signal (non-owning; may be null). Iterative
  /// partitioners poll it at checkpoint granularity — GP's V-cycle, tabu
  /// iteration, every 4096 exact search states — and return their
  /// best-so-far solution when it fires, so a stopped run still yields a
  /// complete partition. Leave null for fully deterministic, budget-free
  /// runs.
  const support::StopToken* stop = nullptr;

  /// Optional cross-run coarsening cache (non-owning; may be null). When
  /// set, the multilevel partitioners (GP, MetisLike) build their
  /// coarsening from a canonical seed-independent stream and share the
  /// artifact through the cache, so requests on the same graph — different
  /// k, seeds and algorithms — re-run only initial partitioning and
  /// refinement. Results stay deterministic (hit and miss produce the same
  /// answer) but differ from the cache-less path, which folds the request
  /// seed into coarsening randomness. Transient like `stop`: excluded from
  /// request fingerprints.
  CoarseningCache* coarsen_cache = nullptr;

  /// Caller-supplied identity of the graph for coarsen_cache keying (e.g.
  /// the engine's memoized fingerprint); 0 = derive via graph_digest().
  /// Must change whenever the graph does — a stale key serves the wrong
  /// hierarchy.
  std::uint64_t graph_key = 0;

  /// Optional reusable scratch workspace (non-owning; may be null). When
  /// set, the multilevel partitioners thread it through their inner loop —
  /// contraction, matching, refinement — instead of creating a private one,
  /// so repeated sequential runs reach steady-state zero allocation.
  /// Ownership rules (see workspace.hpp): one workspace per run at a time,
  /// NEVER shared across threads. Transient like `stop`: excluded from
  /// request fingerprints and without effect on results.
  Workspace* workspace = nullptr;

  /// Optional per-phase profiling sink (non-owning; may be null). When set,
  /// the multilevel partitioners charge coarsen / initial / refine wall
  /// clock (and hierarchy depth) into it, accumulating across V-cycles and
  /// sequential runs. One profile per run at a time, NEVER shared across
  /// threads (plain counters, like `workspace`). Transient like `stop`:
  /// excluded from request fingerprints and without effect on results.
  PhaseProfile* phases = nullptr;

  /// True when the request carries a fired stop signal.
  bool stop_requested() const { return stop != nullptr && stop->stop_requested(); }
};

struct PartitionResult {
  Partition partition;
  PartitionMetrics metrics;
  Violation violation;
  bool feasible = false;
  double seconds = 0;
  std::string algorithm;

  /// Fills metrics/violation/feasible from the partition.
  void finalize(const Graph& g, const Constraints& c);
};

/// The lexicographic goodness of a finalized result — the single comparison
/// every consumer (engine, CLI, benches) ranks results by.
Goodness goodness_of(const PartitionResult& r);

class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual std::string name() const = 0;
  virtual PartitionResult run(const Graph& g,
                              const PartitionRequest& request) = 0;
};

/// Uniformly random balanced assignment; the control baseline.
class RandomPartitioner : public Partitioner {
 public:
  std::string name() const override { return "Random"; }
  PartitionResult run(const Graph& g, const PartitionRequest& request) override;
};

/// Registry names accepted by `make_partitioner`, in presentation order.
std::vector<std::string> partitioner_names();

/// Instantiates an algorithm (with default options) by registry name:
/// gp | metislike | tabu | exact | random. Returns nullptr for unknown
/// names.
std::unique_ptr<Partitioner> make_partitioner(const std::string& name);

}  // namespace ppnpart::part
