#pragma once
// Portfolio specification: which algorithms race on each job.
//
// Modern partitioning frameworks get quality and robustness from running a
// *portfolio* of configurations rather than a single pass — different
// heuristics win on different instances, and the engine simply keeps the
// best answer. A Portfolio is an ordered list of registry names (see
// part::make_partitioner); order matters twice: member i draws seed stream i
// of the job's SeedStream, and ties in goodness break toward the lower
// index, which keeps the engine's answer deterministic no matter which
// member finishes first.

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.hpp"

namespace ppnpart::engine {

struct Portfolio {
  std::vector<std::string> members;

  /// The default racing set: the paper's constraint-aware GP, MetisLike
  /// (the paper's METIS stand-in, a cut-only baseline that often wins
  /// unconstrained requests outright) and tabu search, without which one
  /// request of the 12-node exact family gets no feasible answer
  /// (QualityGate.GpExactGapOn12NodeFamily).
  static Portfolio defaults();

  /// Parses a comma-separated spec ("gp,metislike,tabu"); "default" (or
  /// empty) yields defaults(). Every name must exist in the registry.
  static support::Result<Portfolio> parse(const std::string& spec);

  bool empty() const { return members.empty(); }
  std::size_t size() const { return members.size(); }

  /// Order-sensitive identity digest, mixed into cache keys so answers from
  /// different portfolios never alias.
  std::uint64_t fingerprint() const;

  std::string to_string() const;
};

}  // namespace ppnpart::engine
