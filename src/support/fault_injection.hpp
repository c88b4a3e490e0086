#pragma once
// Deterministic fault injection for chaos testing.
//
// A seeded FaultInjector decides, at named sites threaded through the
// engine's failure-prone seams, whether to simulate a fault (a throw, a
// dropped cache write, a declined verification). The decision sequence per
// site is a pure function of (seed, site, per-site draw index), so a fixed
// seed replays the same fault schedule run after run — the chaos test
// (tests/chaos_test.cpp) replays schedules and asserts the architecture
// invariants hold: no hangs, no torn stats, every decline falls to the
// untouched full path, every job completes or returns a typed error.
//
// Cost discipline mirrors the tracer (support/trace.hpp): when disarmed
// (the default), every fault_fire() check is one relaxed atomic load, so
// the sites stay in every build.
//
// Arm/disarm are meant for test setup: arm BEFORE submitting work and
// disarm after draining it. Arming while workers are mid-flight is safe
// (all state is atomic; nothing tears) but the replayed schedule is only
// deterministic when the per-site check order is.

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "support/status.hpp"

namespace ppnpart::support {

/// The named failure seams. Site names (to_string / spec parsing) are
/// stable CLI/API surface: "cache.insert", "coarsen.leader", "member.run",
/// "pool.task", "sim.verify".
enum class FaultSite : std::uint8_t {
  kCacheInsert = 0,   // engine result-cache insert in Engine::complete
  kCoarsenLeader,     // coarsening-cache single-flight leader build
  kMemberRun,         // portfolio member execution
  kPoolTask,          // thread-pool task submission
  kSimilarityVerify,  // similarity-admission diff verification
  kCount,
};

inline constexpr std::size_t kNumFaultSites =
    static_cast<std::size_t>(FaultSite::kCount);

const char* to_string(FaultSite site);

/// The exception injected at throwing sites. Derives std::runtime_error so
/// every existing catch path (member isolation, submit-tail accounting,
/// single-flight error propagation) handles it like a real dependency
/// failure — which is the point.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& what)
      : std::runtime_error(what) {}
};

/// A fault schedule: which sites may fire, how often, under which seed.
struct FaultPlan {
  std::uint64_t seed = 1;
  /// Per-check fire probability in [0, 1]; >= 1 fires every check.
  double rate = 0.1;
  /// Bit i arms FaultSite(i); default = every site.
  std::uint32_t site_mask = (1u << kNumFaultSites) - 1;
};

/// Parses a `--faults` spec: "off" (disarm) or comma-separated key=value
/// pairs with keys `seed` (u64), `rate` (double), `sites` (site names
/// joined by '+', e.g. "member.run+pool.task"; "all" = every site).
/// Example: "seed=42,rate=0.25,sites=member.run+cache.insert".
/// Malformed specs return kInvalidArgument.
Result<FaultPlan> parse_fault_plan(const std::string& spec);

class FaultInjector {
 public:
  struct SiteCounts {
    std::uint64_t checks = 0;  // fault_fire() reached the site while armed
    std::uint64_t fired = 0;   // ... and the schedule said "fail"
  };

  /// Process-wide injector, shared by every engine/cache in the process
  /// (like Tracer::global() — fault sites are compiled against one
  /// instance so checks stay one relaxed load).
  static FaultInjector& global();

  void arm(const FaultPlan& plan);
  void disarm() { armed_.store(false, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Deterministic draw for one site check; only called while armed.
  bool should_fire(FaultSite site);

  std::array<SiteCounts, kNumFaultSites> counts() const;
  void reset_counts();

 private:
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> seed_{0};
  /// Fire iff draw < threshold; ~0 = always (rate >= 1).
  std::atomic<std::uint64_t> threshold_{0};
  std::atomic<std::uint32_t> mask_{0};
  struct PerSite {
    std::atomic<std::uint64_t> draws{0};
    std::atomic<std::uint64_t> checks{0};
    std::atomic<std::uint64_t> fired{0};
  };
  std::array<PerSite, kNumFaultSites> sites_;
};

/// The one hot-path check every named site performs. Disarmed cost: one
/// relaxed atomic load.
inline bool fault_fire(FaultSite site) {
  FaultInjector& injector = FaultInjector::global();
  if (!injector.armed()) return false;
  return injector.should_fire(site);
}

}  // namespace ppnpart::support
