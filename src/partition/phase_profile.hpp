#pragma once
// Per-phase wall-clock accounting for the multilevel inner loop.
//
// A PhaseProfile splits a partitioner run into the paper's three phases —
// coarsen, initial partitioning, refine — and accumulates microseconds and
// call counts per phase. It is threaded through PartitionRequest::phases
// (transient, excluded from fingerprints, like `workspace`) and copied into
// Workspace::phases for the run so shared helpers (coarsen(), the per-level
// refine loops) can charge their level without signature churn.
//
// PhaseScope is the one hook call sites use: it charges the enclosing
// profile AND emits a trace span (cat = algorithm name, name = phase,
// args = level/nodes) in a single RAII object. With no profile attached and
// tracing disabled it costs one relaxed atomic load and two null checks.
//
// Accounting rule: phases are charged at ONE layer only — per level inside
// coarsen()/the refine loops, once per run around initial partitioning —
// so entries never double-count nested work. Trace spans may nest freely.
//
// Threading: a PhaseProfile belongs to one run at a time, like Workspace —
// plain counters, deliberately unsynchronized. Concurrent portfolio members
// must use separate profiles (or none); the engine relies on spans/metrics
// instead.

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "support/trace.hpp"

namespace ppnpart::part {

struct PhaseProfile {
  enum Phase : std::uint8_t { kCoarsen = 0, kInitial = 1, kRefine = 2 };
  static constexpr std::size_t kNumPhases = 3;

  struct Entry {
    std::uint64_t time_us = 0;
    std::uint64_t calls = 0;
  };

  Entry entries[kNumPhases];

  static const char* phase_name(Phase p) {
    switch (p) {
      case kCoarsen: return "coarsen";
      case kInitial: return "initial";
      case kRefine: return "refine";
    }
    return "?";
  }

  void add(Phase p, std::uint64_t us) {
    entries[p].time_us += us;
    ++entries[p].calls;
  }

  std::uint64_t total_us() const {
    std::uint64_t total = 0;
    for (const Entry& e : entries) total += e.time_us;
    return total;
  }
  /// This phase's fraction of the accounted time (0 when nothing charged).
  double share(Phase p) const {
    const std::uint64_t total = total_us();
    return total == 0 ? 0.0
                      : static_cast<double>(entries[p].time_us) /
                            static_cast<double>(total);
  }
};

/// RAII phase hook: charges `profile` (when non-null) for the scope's wall
/// clock and emits a trace span cat/phase-name with level/nodes args (when
/// tracing is enabled). `level`/`nodes` < 0 = unknown, omitted.
class PhaseScope {
 public:
  PhaseScope(PhaseProfile* profile, PhaseProfile::Phase phase, const char* cat,
             std::int64_t level = -1, std::int64_t nodes = -1)
      : profile_(profile),
        phase_(phase),
        span_(cat != nullptr ? cat : "multilevel",
              PhaseProfile::phase_name(phase)) {
    if (level >= 0) span_.arg("level", level);
    if (nodes >= 0) span_.arg("nodes", nodes);
    if (profile_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseScope() {
    if (profile_ == nullptr) return;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    profile_->add(phase_, static_cast<std::uint64_t>(us));
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Extra span arg (e.g. contraction counts known mid-scope).
  void arg(const char* key, std::int64_t value) { span_.arg(key, value); }

 private:
  PhaseProfile* profile_;
  PhaseProfile::Phase phase_;
  support::ScopedSpan span_;
  std::chrono::steady_clock::time_point start_{};
};

/// Installs a request's phase context into a workspace for one run and
/// restores the previous context on exit (workspaces outlive runs).
/// Templated only to avoid a workspace.hpp include cycle.
template <typename WorkspaceT>
class PhaseContextScope {
 public:
  PhaseContextScope(WorkspaceT& ws, PhaseProfile* phases, const char* cat)
      : ws_(ws), prev_phases_(ws.phases), prev_cat_(ws.phase_cat) {
    ws_.phases = phases;
    ws_.phase_cat = cat;
  }
  ~PhaseContextScope() {
    ws_.phases = prev_phases_;
    ws_.phase_cat = prev_cat_;
  }
  PhaseContextScope(const PhaseContextScope&) = delete;
  PhaseContextScope& operator=(const PhaseContextScope&) = delete;

 private:
  WorkspaceT& ws_;
  PhaseProfile* prev_phases_;
  const char* prev_cat_;
};

}  // namespace ppnpart::part
