#pragma once
// Portfolio partitioning engine — the library's concurrent service core.
//
// The paper's multi-level flow answers one request with one algorithm. This
// subsystem turns that into a multi-tenant service: batches of
// (graph, request) jobs race a configurable portfolio of partitioners
// across the global thread pool, with
//
//   * per-job wall-clock budgets (StopToken deadlines; members return their
//     best-so-far when the budget fires, so an answer always exists),
//   * cooperative cancellation once a member's result is feasible and beats
//     a quality threshold (remaining members are stopped / skipped),
//   * deterministic per-member seed streams (SeedStream of the request
//     seed), so a fixed seed reproduces bit-identical results regardless of
//     scheduling — provided no budget/cancel threshold is set, since those
//     trade determinism for latency by construction,
//   * an in-memory LRU result cache keyed by graph fingerprint + request
//     hash + portfolio identity, so repeated queries (the heavy-traffic
//     scenario) are served in O(1) without touching the pool,
//   * shared graphs: a Job holds a shared_ptr<const Graph>, so a batch of N
//     jobs over one network holds ONE graph (not N copies), its fingerprint
//     is computed once and memoized, and a CoarseningCache shares the
//     multilevel coarsening across members and jobs on the same graph —
//     different k/seeds/algorithms re-run only initial partitioning and
//     refinement,
//   * single-flight keys: concurrent jobs with an identical cache key
//     coalesce onto one in-flight computation and share its outcome
//     (marked `coalesced`), instead of racing duplicate portfolios. Jobs
//     carrying a caller stop token never coalesce — their cancellation
//     semantics stay their own,
//   * incremental repartitioning: repartition(job, delta, prev) applies a
//     GraphDelta to an answered network and refines the previous solution
//     around the edit sites from a reusable workspace instead of paying a
//     full portfolio run — falling back to one (and to the caches) when
//     the delta is too large. The edited graph gets its own content
//     fingerprint, so every cache rekeys instead of serving stale entries,
//   * similarity-aware admission (opt-in, EngineOptions::similarity): plain
//     CSR arrivals that are near-identical to a recently served graph are
//     detected by sketch (support::GraphSketch -> SimilarityIndex), diffed
//     into a GraphDelta (graph::diff) and answered by the same warm-started
//     refinement — no caller-supplied delta required.
//
// Every entry point — run_one (synchronous), run_batch (fan out a vector of
// jobs and wait), the streaming submit/poll/wait trio, and repartition —
// goes through ONE admission pipeline (admit()):
//
//   stage 1  exact fingerprint hit      -> serve the cached result
//   stage 2  warm start                 -> caller-supplied delta
//            (repartition) or a sketch near-hit (similarity admission,
//            re-verified by bit-identical diff reconstruction) seeds
//            IncrementalPartitioner from the matched graph's partition.
//            For similarity the submitter only pays the sketch probe: the
//            diff -> verify -> refine verdict runs as a WARM-START TASK on
//            the thread pool, with scratch leased from an engine-owned
//            WorkspacePool. Concurrent near-twins of an unanswered graph
//            coalesce batch-aware: the first routes full as the cohort's
//            leader, the rest park and warm-start from its indexed answer
//   stage 3  full portfolio             -> single-flight member fan-out,
//            the answer enters the result cache and the similarity index
//
// Admission correctness rails: a warm-started answer is computed ON the
// arriving graph (always a valid partition of it), is NEVER written to the
// exact result cache (it depends on the matched previous answer; the cache
// key does not), and an estimated-too-far or diff-too-large arrival falls
// through to the untouched full path. One pipeline, one cache, one stats
// block; all entry points are safe to call from multiple client threads.
//
// Every job, whichever stage answered it (or refused it), finishes in ONE
// completion path (Engine::complete): stamp the outcome, publish eligible
// answers to the cache and the similarity index, settle the ledger in one
// transaction, resume parked near-twins, pump the queue, and only then
// publish `done` — followers of a single-flight leader finish through the
// same code with the leader's answer.
//
// Winner selection is deterministic: members are compared by (goodness,
// member index), never by completion order.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/cache.hpp"
#include "engine/portfolio.hpp"
#include "engine/similarity.hpp"
#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "partition/coarsen_cache.hpp"
#include "partition/incremental.hpp"
#include "partition/partitioner.hpp"
#include "partition/workspace_pool.hpp"
#include "support/metrics.hpp"
#include "support/status.hpp"

namespace ppnpart::engine {

/// What bounded admission does when the pending queue is full (see
/// EngineOptions::queue_capacity). Shed jobs complete immediately with a
/// typed error on PortfolioOutcome::status — submit() itself never blocks.
enum class ShedPolicy : std::uint8_t {
  /// Refuse the arriving job (kResourceExhausted); queued work is safe.
  kRejectNew,
  /// Admit the arriving job and shed the OLDEST still-queued job instead
  /// (kResourceExhausted): freshest work wins, e.g. when newer requests
  /// supersede older ones.
  kDropOldest,
  /// Like kRejectNew, but additionally refuses any job whose caller
  /// StopToken deadline will expire before the queue ahead of it can drain
  /// (kDeadlineExceeded, estimated from the engine's recent job latency) —
  /// no cycles are spent computing answers nobody is still waiting for.
  kDeadlineAware,
};

/// Stable lowercase label ("reject_new", "drop_oldest", "deadline_aware").
const char* to_string(ShedPolicy policy);
/// Parses a shed-policy name (the CLI's --shed values); kInvalidArgument on
/// anything else.
support::Result<ShedPolicy> parse_shed_policy(const std::string& name);

/// Members cheap enough for the degradation ladder's reduced rungs: the
/// single-pass heuristics plus GP (nlevel/annealing/tabu/genetic/exact are
/// the expensive tail — on the tracked workload NLevel alone costs ~30x GP).
bool is_cheap_member(const std::string& name);

struct EngineOptions {
  Portfolio portfolio = Portfolio::defaults();

  /// Per-job wall-clock budget in milliseconds; 0 = unlimited. The budget
  /// is cooperative: member 0 of a job always runs (partitioners produce a
  /// complete partition even when stopped at their first checkpoint), so a
  /// blown budget degrades quality, never availability. Checkpoint polls
  /// exist in the iterative members (gp, annealing, genetic, tabu) and in
  /// exact's branch-and-bound; the single-pass heuristics (metislike,
  /// nlevel, kl, spectral, random) run to completion — they are the fast,
  /// bounded members, so the overshoot is one direct pass at worst.
  double time_budget_ms = 0;

  /// Early-exit quality gate: once some member's result is feasible with
  /// total cut <= cancel_cut_threshold, the job's remaining members are
  /// stopped (running ones at their next checkpoint, unstarted ones are
  /// skipped). Negative disables the gate.
  part::Weight cancel_cut_threshold = -1;

  /// Shorthand gate: any feasible member result cancels the rest. Useful
  /// when the caller wants *a* feasible mapping as fast as possible.
  bool cancel_on_feasible = false;

  /// Result-cache capacity in jobs; 0 disables caching.
  std::size_t cache_capacity = 4096;

  /// Coarsening-cache capacity in hierarchies; 0 disables coarsening reuse
  /// (members then coarsen per run, with the request seed folded into the
  /// coarsening randomness, exactly like standalone partitioner use).
  std::size_t coarsen_cache_capacity = 32;

  /// Thresholds of the incremental repartitioning path (see
  /// part::IncrementalOptions); past them Engine::repartition falls back to
  /// a FULL PORTFOLIO run — `incremental.fallback_algorithm` is therefore
  /// ignored here (it only applies to standalone IncrementalPartitioner
  /// use): the portfolio is the engine's stronger, cacheable fallback.
  /// `incremental.max_diff_ops_fraction` also gates the similarity path's
  /// reconstructed diffs.
  part::IncrementalOptions incremental;

  /// Similarity-aware admission (stage 2 for plain CSR arrivals). Off by
  /// default — see SimilarityOptions for the knobs and the trade-offs.
  SimilarityOptions similarity;

  /// Size of the engine-owned workspace pool that warm starts lease scratch
  /// from (similarity warm-start tasks and repartition calls). Each
  /// workspace grows to the working graph size and is then reused; more
  /// workspaces let more warm starts refine concurrently, fewer cap the
  /// scratch memory. At least one is always built.
  std::size_t warm_workspaces = 2;

  /// Overload protection: bounds the number of stage-3 (full-portfolio)
  /// jobs admitted but not yet fanned out. 0 (default) disables protection
  /// entirely — every job fans out immediately, exactly the pre-overload
  /// behaviour. With a capacity set, submit() NEVER blocks and never queues
  /// unboundedly: a full queue sheds per `shed_policy`, and rising depth
  /// walks the degradation ladder (see AdmissionDecision::DegradeRung)
  /// before any shedding happens. The capacity is enforced against the
  /// depth snapshot each admission observes; concurrent admits can
  /// transiently overshoot by the number of in-flight submit() calls.
  std::size_t queue_capacity = 0;

  /// What to do with the overflow once the queue is full.
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;

  /// How many stage-3 jobs may be fanned out onto the pool concurrently
  /// while overload protection is on (ignored when queue_capacity == 0).
  /// 0 = auto: pool size / portfolio size, at least 1 — member tasks about
  /// fill the pool. Finished jobs pump the queue, so held-back jobs start
  /// the moment capacity frees.
  std::size_t max_running_jobs = 0;

  /// Graceful degradation ladder (only meaningful with queue_capacity > 0):
  /// instead of failing under load, admission deterministically steps down
  ///   full portfolio -> cheap-members-only -> GP-only -> projected answer
  /// by observed queue depth (quarter/half of capacity) and caller budget
  /// (an expired StopToken deadline gets the projected rung: a coarse
  /// answer now beats a full answer after the caller stopped waiting).
  /// The rung is a pure function of (depth snapshot, budget state), so a
  /// fixed submission order replays the same ladder. Degraded answers are
  /// NEVER written to the result cache or the similarity index — the rung
  /// depends on transient load, the cache key does not.
  bool degrade_under_load = true;

  /// Metrics sink (non-owning; must outlive the engine). Null = the
  /// process-wide support::MetricsRegistry::global(). The engine records
  /// admission-path counters, job latency histograms and per-member
  /// run/win/loss/time series under the "engine." prefix; tests hand in a
  /// private registry to assert exact values in isolation.
  support::MetricsRegistry* metrics = nullptr;
};

/// Per-member accounting of one job.
struct MemberOutcome {
  std::string algorithm;
  part::Goodness goodness;
  double seconds = 0;
  bool ran = false;     // false = skipped by cancellation before starting
  bool failed = false;  // threw (e.g. Exact on an oversized graph)
  bool won = false;     // this member's result was selected as the answer
  std::string error;
};

/// Structured admission decision record: which pipeline stage answered a
/// job and why. Returned on the outcome and emitted as a trace instant, so
/// "why did this job take the path it took" is answerable offline — the
/// provenance signal the adaptive-portfolio roadmap item learns from.
struct AdmissionDecision {
  enum class Path : std::uint8_t {
    kExactHit,       // stage 1: result-cache fingerprint hit
    kWarmStart,      // stage 2: caller-supplied delta warm start
    kSimilarity,     // stage 2: sketch near-hit, diffed and warm-started
    kFullPortfolio,  // stage 3: member fan-out
    kShed,           // bounded admission refused/evicted the job (typed
                     // error on PortfolioOutcome::status, no answer)
  };
  /// The degradation ladder's rung for a stage-3 job (see
  /// EngineOptions::degrade_under_load). Anything below kFull marks a
  /// degraded answer: valid and complete, computed with reduced effort.
  enum class DegradeRung : std::uint8_t {
    kFull = 0,       // the whole portfolio raced
    kCheapMembers,   // only the portfolio's cheap members ran
    kGpOnly,         // a single cheap member ran
    kProjected,      // coarsen + initial partition + project, no refinement
  };
  Path path = Path::kFullPortfolio;
  DegradeRung rung = DegradeRung::kFull;
  /// The similarity index was consulted for this job.
  bool sim_probed = false;
  /// The similarity verdict (diff -> verify -> refine) ran as a warm-start
  /// task on the pool instead of on the submitting thread — set both for
  /// sketch matches handed straight to a task and for parked near-twin
  /// followers resumed by their leader.
  bool warm_deferred = false;
  /// This job led a near-twin cohort: it arrived before any twin was
  /// answered, registered as the pending leader and routed full-portfolio;
  /// its answer seeded the parked followers' warm starts.
  bool warm_leader = false;
  /// Why a consulted warm start fell through to the full path ("no sketch
  /// match", "diff too large", ...). Empty when it did not.
  std::string decline_reason;
};

/// Stable lowercase label of an admission path ("exact-hit", "warm-start",
/// "similarity", "full-portfolio", "shed").
const char* to_string(AdmissionDecision::Path path);
/// Stable lowercase label of a degradation rung ("full", "cheap-members",
/// "gp-only", "projected").
const char* to_string(AdmissionDecision::DegradeRung rung);

/// The engine's answer for one job.
struct PortfolioOutcome {
  /// Why there is no answer, when there is none: shed jobs carry
  /// kResourceExhausted (queue full) or kDeadlineExceeded (deadline-aware
  /// admission), and a job whose every member failed (or whose projected
  /// answer could not be built) carries kInternal.
  /// ok() whenever `winner` is non-empty — check this FIRST; `best` is
  /// meaningless on error.
  support::Status status;
  part::PartitionResult best;  // the winning member's full result
  std::string winner;          // registry name of the winning member
  bool from_cache = false;
  bool coalesced = false;       // served by an identical in-flight job
  /// Served by similarity admission: a sketch near-hit was diffed and
  /// warm-started (winner == "similarity"). Mutually exclusive with
  /// from_cache; the answer was computed fresh on THIS job's graph.
  bool similarity = false;
  bool budget_expired = false;  // the job's deadline fired
  double seconds = 0;           // engine-observed job latency
  std::uint64_t key = 0;        // cache key (diagnostics)
  /// How admission routed this job (decline provenance included).
  AdmissionDecision decision;
  std::vector<MemberOutcome> members;
};

/// Engine::repartition's answer: the portfolio-style outcome plus the
/// edited graph, the node map and the touched set the caller needs to keep
/// evolving the network (chain the next delta against `graph`, hand
/// `outcome.best` back as `prev`).
struct RepartitionOutcome {
  PortfolioOutcome outcome;
  std::shared_ptr<const graph::Graph> graph;  // the post-delta graph
  std::vector<graph::NodeId> node_map;  // extended old id -> new id
  std::vector<graph::NodeId> touched;   // delta-touched new-graph ids
  bool incremental = false;  // true = the warm-started path answered
  std::string fallback_reason;  // why the full portfolio (or cache) answered
};

// A caller-armed request.stop is honoured: the per-job token links it as a
// parent, so firing it cancels the job exactly like the quality gate does
// (running members stop at their next checkpoint; an answer still exists
// once any member completes).
struct EngineStats {
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_coalesced = 0;  // duplicates served by single-flight
  /// Bounded-admission accounting (queue_capacity > 0). Every submitted
  /// stage-3 job ends in exactly one of completed / rejected / shed:
  /// `rejected` = refused at admission (queue full under reject_new /
  /// deadline_aware, or an unmeetable deadline); `shed` = admitted, queued,
  /// then evicted by drop_oldest before running, or coalesced onto a job
  /// that was refused or shed. Both complete immediately with a typed error
  /// outcome. `degraded` counts jobs ADMITTED below the
  /// full rung (decision-time count; a degraded job later evicted by
  /// drop_oldest still counted here).
  std::uint64_t jobs_rejected = 0;
  std::uint64_t jobs_shed = 0;
  std::uint64_t jobs_degraded = 0;
  std::uint64_t members_run = 0;
  std::uint64_t members_skipped = 0;
  std::uint64_t members_failed = 0;
  std::uint64_t repartitions_incremental = 0;  // warm-started answers
  std::uint64_t repartitions_fallback = 0;     // declined -> full portfolio
  std::uint64_t repartition_cache_hits = 0;    // post-edit twin in the cache
  /// Buffer growths across the engine-owned warm-start workspace pool
  /// (summed at each lease release); a warm steady state (stable network
  /// size) stops advancing it.
  std::uint64_t repartition_ws_growths = 0;
  /// Full graph_fingerprint computations; shared graphs are memoized, so a
  /// batch of N jobs over one shared graph computes exactly one. (Distinct
  /// client threads racing the very first submit of the same graph may
  /// each compute once — the memo coalesces every later call, not the
  /// initial race.)
  std::uint64_t graph_fingerprints_computed = 0;
  /// The deadline-aware policy's drain-time estimate: an EWMA of FULL-rung
  /// completion latencies. 0 until the first full-path completion seeds it
  /// (degraded/projected completions never feed it — they finish fast by
  /// design and would bias the estimate low). Diagnostics: this is the
  /// per-job seconds the admission gate multiplies by queue depth.
  double avg_job_seconds = 0;
  CacheStats cache;
  CacheStats coarsening;  // CoarseningCache traffic (hits = reused builds)
  /// Similarity-admission traffic: probes (admissions that consulted the
  /// index), near_hits (warm starts served), declines (probes routed to the
  /// full path), deferred/parked (async-stage traffic), plus the index's
  /// insert/evict counters. Updated under the engine mutex — exact even
  /// under concurrent submit. A probe and its verdict are bumped as one
  /// transaction AT RESOLUTION TIME (on the warm-start task's pool thread
  /// when deferred), so `probes == near_hits + declines` holds in EVERY
  /// snapshot — never a torn mid-probe view, even while verdicts are in
  /// flight on the pool.
  SimilarityStats similarity;
  /// Snapshot of the engine's metrics registry ("engine." counters, job
  /// latency histograms, per-member win/loss/time series). Note: a shared
  /// (global) registry snapshots everything recorded into it, including
  /// other engines'.
  support::MetricsSnapshot metrics;
};

/// One unit of work for the batch/streaming entry points. The graph is held
/// by shared_ptr so a same-graph batch shares one copy; the by-value
/// constructor wraps for callers that still hand graphs in directly.
struct Job {
  std::shared_ptr<const graph::Graph> graph;
  part::PartitionRequest request;

  Job() = default;
  Job(std::shared_ptr<const graph::Graph> g, part::PartitionRequest r)
      : graph(std::move(g)), request(std::move(r)) {}
  /// Convenience: moves/copies the graph into shared ownership.
  Job(graph::Graph g, part::PartitionRequest r)
      : graph(std::make_shared<graph::Graph>(std::move(g))),
        request(std::move(r)) {}
};

class Engine {
 public:
  using JobId = std::uint64_t;

  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineOptions& options() const { return options_; }

  /// Synchronous single-job entry point. A cache hit returns without
  /// copying the graph or touching the pool. The const& overload aliases
  /// the caller's graph for the duration of the call (no copy; run_one
  /// blocks until the job finishes, so the reference stays valid); the
  /// shared_ptr overload additionally memoizes the graph's fingerprint
  /// across calls that share the pointer.
  PortfolioOutcome run_one(const graph::Graph& g,
                           const part::PartitionRequest& request);
  PortfolioOutcome run_one(std::shared_ptr<const graph::Graph> g,
                           const part::PartitionRequest& request);
  // (The const& overload fingerprints per call — only truly shared
  // pointers are safe to memoize by address.)

  /// Fans every job's every member onto the thread pool at once and waits;
  /// results are returned in job order. Throughput scales with cores
  /// because members of *different* jobs overlap, not just members of one.
  /// Jobs hold their graphs by shared_ptr, so copying the vector in is cheap
  /// (pass an rvalue to hand it over outright).
  std::vector<PortfolioOutcome> run_batch(std::vector<Job> jobs);

  /// Streaming: enqueue a job and return immediately. With overload
  /// protection on (EngineOptions::queue_capacity > 0) this NEVER blocks on
  /// a full queue: a refused job still gets a valid JobId whose outcome is
  /// already complete, with an empty `winner` and a typed
  /// PortfolioOutcome::status (kResourceExhausted / kDeadlineExceeded) —
  /// poll/wait on it return immediately, exactly like any finished job.
  /// Rejection is reported through the outcome rather than here so every
  /// caller, streaming or batch, sees one uniform completion protocol.
  JobId submit(Job job);

  /// Non-blocking: the outcome if the job finished, nullopt otherwise.
  /// A shed/rejected job counts as finished the moment submit() returns
  /// (its typed-error outcome is immediately available). A returned outcome
  /// releases the job's bookkeeping; a second poll of the same id reports
  /// an error (std::invalid_argument).
  std::optional<PortfolioOutcome> poll(JobId id);

  /// Blocks until the job finishes, then behaves like a successful poll.
  /// Never blocks on a shed/rejected job — those are born finished; check
  /// outcome.status to distinguish an answer from a typed refusal.
  PortfolioOutcome wait(JobId id);

  /// Incremental repartitioning of an evolving network. Applies `delta` to
  /// job.graph (the PRE-edit graph; immutable, never mutated), projects
  /// `prev` (the partition answered for that graph) through the old->new
  /// node map, and refines it with boundary-seeded FM from the engine-owned
  /// reusable workspace. When the delta exceeds the EngineOptions::incremental
  /// thresholds, the full portfolio runs on the edited graph instead
  /// (`incremental == false`, `fallback_reason` says why).
  ///
  /// Cache discipline — the edited graph is a NEW immutable object with its
  /// own content fingerprint, so every digest-keyed cache rekeys
  /// automatically and pre-edit entries can never be served for the
  /// post-edit graph. A cached FULL answer for exactly the edited graph is
  /// served (it is a pure function of graph+request). Incremental answers
  /// are deliberately NOT inserted into the result cache: they depend on
  /// `prev`, and the cache key does not — caching them would hand
  /// prev-dependent answers to future full-effort twins. Fallback runs
  /// flow through the normal job path and are cached as usual.
  ///
  /// Safe to call from multiple client threads; each incremental refinement
  /// leases its own workspace from the engine-owned pool (concurrent calls
  /// only wait when every pooled workspace is busy). Budget exemption: the
  /// incremental
  /// path is short and bounded (projection + seeding + a fixed FM pass
  /// budget) and deliberately does not poll request.stop mid-refinement; a
  /// caller stop token governs the fallback portfolio run exactly as in
  /// run_one.
  RepartitionOutcome repartition(const Job& job, const graph::GraphDelta& delta,
                                 const part::PartitionResult& prev);

  EngineStats stats() const;

  /// Clears the result cache, the coarsening cache and the similarity
  /// index.
  void clear_cache();

 private:
  struct JobState;

  /// What the ledger counts (see tally()). The first three are the
  /// completion buckets: every submitted job ends in exactly one of them.
  enum class Tally : std::uint8_t {
    kCompleted,  // answered, or typed kInternal when no answer was produced
    kRejected,   // refused at admission (queue full, unmeetable deadline)
    kShed,       // evicted from the queue, or coalesced onto a refused job
    kExactHit, kWarmStart, kSimNearHit, kFullPortfolio,  // answering path
    kSimDecline, kSimDeferred, kSimParked,
    kCoalesced,
    kDegradeCheap, kDegradeGp, kDegradeProjected,
    kMemberRun, kMemberSkipped, kMemberFailed,
    kRepartitionIncremental, kRepartitionFallback, kRepartitionCacheHit,
  };

  /// A caller-supplied warm start (repartition): the previous partition of
  /// the pre-edit graph plus the node map / touched set its delta produced,
  /// and where the warm start's accounting goes (non-null). Spans alias
  /// caller storage; valid only for the duration of admit().
  struct WarmStartSeed {
    const part::Partition* prev = nullptr;
    std::span<const graph::NodeId> node_map;
    std::span<const graph::NodeId> touched;
    part::IncrementalStats* stats = nullptr;
  };

  std::uint64_t job_key(std::uint64_t graph_fp,
                        const part::PartitionRequest& request) const;
  /// Memoized graph_fingerprint: one computation per live shared graph.
  /// Only owning pointers may pass through here — the weak_ptr validity
  /// probe assumes the pointee lives exactly as long as the control block.
  std::uint64_t shared_graph_fingerprint(
      const std::shared_ptr<const graph::Graph>& g);

  /// The one front door (see the file comment's pipeline). `owns_graph` is
  /// false only for run_one's aliasing const& overload, whose graph must
  /// never outlive the call — it may PROBE the similarity index but is
  /// never inserted into it (and never leads a near-twin cohort).
  /// `caller_warm`, when set, takes stage 2 (the similarity probe is
  /// skipped; the caller's delta is the better signal).
  ///
  /// Stage 1 and the caller-delta warm start answer inline on the admitting
  /// thread (a cache hit is O(1); repartition is a synchronous API). A
  /// SIMILARITY admission costs the submitter only the sketch probe: the
  /// diff -> verify -> refine verdict runs as a warm-start task on the
  /// thread pool (spawn_warm_task / run_warm_task), so submit() returns in
  /// bounded time with the warm start still in flight.
  JobId admit(Job job, std::uint64_t graph_fp, bool owns_graph,
              const WarmStartSeed* caller_warm = nullptr);
  /// Stage-2 helpers: run the engine-owned warm start machinery.
  std::optional<part::PartitionResult> run_warm_start(
      const std::shared_ptr<JobState>& state, const WarmStartSeed& seed);
  bool admit_similarity(const std::shared_ptr<JobState>& state);
  /// Hands the deferred similarity verdict to the pool (falls through to
  /// the full path when the task cannot be submitted). The probe is counted
  /// when the verdict lands, never here.
  void spawn_warm_task(const std::shared_ptr<JobState>& state,
                       SimilarityIndex::Match match);
  /// The warm-start task body: lease a pooled workspace, diff -> verify ->
  /// refine, then either serve the similarity answer or decline to the
  /// full path. Runs on a pool worker (or inline as spawn's fallback).
  void run_warm_task(const std::shared_ptr<JobState>& state,
                     SimilarityIndex::Match match);
  /// One-transaction probe accounting for a declined verdict (see
  /// EngineStats::similarity); the caller routes the job afterwards.
  void count_probe_declined(const std::shared_ptr<JobState>& state,
                            const std::string& reason);
  /// Resumes a parked near-twin follower after its leader resolved:
  /// re-probes the index (the leader's answer is there on success) and
  /// warm-starts from it, or declines to the full path.
  void resume_follower(const std::shared_ptr<JobState>& state);
  /// If `state` leads a near-twin cohort, unregisters it and hands every
  /// parked follower its own resumption task. complete() calls it on every
  /// completion, after indexing and before the `done` flip — a stranded
  /// follower would hang its waiter forever.
  void resolve_sim_pending(const std::shared_ptr<JobState>& state);
  /// Stage 3: single-flight registration and portfolio member fan-out.
  void launch_full(const std::shared_ptr<JobState>& state);
  /// Bounded-admission gate (queue_capacity > 0): picks the degradation
  /// rung from the depth snapshot + caller budget, then either marks the
  /// state runnable (true), queues it, or sheds it / a queued victim per
  /// the policy. False = the caller must NOT fan out; the state's outcome
  /// is (or will be) published by the gate machinery.
  bool admission_gate(const std::shared_ptr<JobState>& state);
  /// Member indices the given rung races (kFull -> all; reduced rungs pick
  /// from the cheap set). Never empty.
  std::vector<std::size_t> members_for_rung(
      AdmissionDecision::DegradeRung rung) const;
  /// The actual pool fan-out of launch_full, factored out so complete() can
  /// start held-back jobs from the queue later.
  void fan_out(const std::shared_ptr<JobState>& state);
  /// The ladder's last rung: coarsen (via the coarsening cache when on) +
  /// greedy-grow on the coarsest level + project to the finest — a valid,
  /// feasible-balance-effort answer at a fraction of one member's cost.
  /// Never cached or indexed.
  void serve_projected(const std::shared_ptr<JobState>& state);

  std::shared_ptr<JobState> find_job(JobId id);
  PortfolioOutcome take_outcome(const std::shared_ptr<JobState>& state);
  void run_member(const std::shared_ptr<JobState>& state, std::size_t index);
  /// Builds a fan-out's outcome from its member results (the winner, or a
  /// typed kInternal when every member failed) and completes the job.
  void collect_members(const std::shared_ptr<JobState>& state);
  /// The one completion path. Stamps the outcome, publishes an eligible
  /// answer to the result cache and the similarity index, settles the
  /// ledger (`bucket` is kCompleted, kRejected or kShed) in one mutex_
  /// transaction, resolves pending near-twins, pumps the queue, then flips
  /// `done` and completes the single-flight followers the same way.
  void complete(const std::shared_ptr<JobState>& state,
                PortfolioOutcome outcome, Tally bucket);
  /// The one ledger: an EngineStats counter and its registry mirror move
  /// together here and nowhere else. Caller holds mutex_.
  void tally(Tally what);
  /// tally() as its own mutex_ transaction.
  void count(Tally what);

  bool similarity_enabled() const {
    return options_.similarity.enabled && options_.similarity.capacity > 0;
  }

  EngineOptions options_;
  LruCache<PortfolioOutcome> cache_;
  part::CoarseningCache coarsen_cache_;
  part::IncrementalPartitioner incremental_;
  SimilarityIndex sim_index_;

  /// Resolved metrics sink (options_.metrics or the global registry) and
  /// handles cached at construction: hot-path updates are plain relaxed
  /// atomics, no name lookups. Pointers are registry-stable for its
  /// lifetime.
  support::MetricsRegistry& metrics_;
  struct PathMetrics {
    support::Counter* jobs = nullptr;        // engine.jobs
    support::Counter* exact_hits = nullptr;  // engine.admit.exact_hit
    support::Counter* warm_starts = nullptr;
    support::Counter* sim_served = nullptr;
    support::Counter* sim_declined = nullptr;
    support::Counter* sim_deferred = nullptr;  // engine.admit.sim_deferred
    support::Counter* sim_parked = nullptr;    // engine.admit.sim_parked
    support::Counter* full_runs = nullptr;
    support::Counter* rejected = nullptr;   // engine.admit.rejected
    support::Counter* shed = nullptr;       // engine.admit.shed
    support::Counter* degrade_cheap = nullptr;  // engine.degrade.cheap_members
    support::Counter* degrade_gp = nullptr;     // engine.degrade.gp_only
    support::Counter* degrade_projected = nullptr;  // engine.degrade.projected
    support::Histogram* job_us = nullptr;   // engine.job.time_us
    support::Histogram* warm_us = nullptr;  // engine.warm.time_us
  };
  PathMetrics path_metrics_;
  /// Per portfolio member, by index. `span_name` is the member's interned
  /// registry name, usable as a trace event name.
  struct MemberMetrics {
    const char* span_name = nullptr;
    support::Counter* runs = nullptr;      // engine.member.<name>.runs
    support::Counter* wins = nullptr;      // selected as the job's answer
    support::Counter* losses = nullptr;    // ran, completed, not selected
    support::Counter* failures = nullptr;  // threw
    support::Histogram* time_us = nullptr;
  };
  std::vector<MemberMetrics> member_metrics_;

  /// Reusable scratch of every warm start (similarity warm-start tasks and
  /// repartition calls): a small pool of workspaces handed out as exclusive
  /// leases, so concurrent warm starts neither share scratch nor serialize
  /// on one mutex. Engine code never constructs an ad-hoc Workspace — the
  /// `workspace-pool-lease` lint rule enforces it.
  part::WorkspacePool warm_pool_;

  mutable std::mutex mutex_;  // guards jobs_, inflight_, next_id_, stats_
  std::uint64_t next_id_ = 1;
  std::unordered_map<JobId, std::shared_ptr<JobState>> jobs_;
  /// Single-flight registry: cache key -> the JobState computing it.
  std::unordered_map<std::uint64_t, std::shared_ptr<JobState>> inflight_;
  EngineStats stats_;
  /// Bounded admission (all under mutex_): stage-3 jobs admitted but
  /// awaiting a running slot, the count of jobs currently fanned out, the
  /// resolved concurrent-job cap, and an EWMA of recent job latency (the
  /// deadline-aware policy's drain-time estimate).
  std::deque<std::shared_ptr<JobState>> queue_;
  std::size_t running_full_ = 0;
  std::size_t max_running_resolved_ = 0;
  double avg_job_seconds_ = 0;

  std::atomic<std::uint64_t> fp_computed_{0};
  mutable std::mutex fp_mutex_;  // guards fp_memo_
  struct FpEntry {
    std::weak_ptr<const graph::Graph> graph;  // validity probe (expiry =
                                              // the pointer may be reused)
    std::uint64_t fp = 0;
  };
  std::unordered_map<const graph::Graph*, FpEntry> fp_memo_;
};

}  // namespace ppnpart::engine
