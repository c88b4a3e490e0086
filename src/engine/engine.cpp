#include "engine/engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <stdexcept>

#include "engine/fingerprint.hpp"
#include "partition/coarsen.hpp"
#include "partition/gp.hpp"
#include "partition/initial.hpp"
#include "support/contracts.hpp"
#include "support/fault_injection.hpp"
#include "support/prng.hpp"
#include "support/stop_token.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace ppnpart::engine {

using part::goodness_of;
using Path = AdmissionDecision::Path;
using Rung = AdmissionDecision::DegradeRung;

const char* to_string(AdmissionDecision::Path path) {
  switch (path) {
    case AdmissionDecision::Path::kExactHit: return "exact-hit";
    case AdmissionDecision::Path::kWarmStart: return "warm-start";
    case AdmissionDecision::Path::kSimilarity: return "similarity";
    case AdmissionDecision::Path::kFullPortfolio: return "full-portfolio";
    case AdmissionDecision::Path::kShed: return "shed";
  }
  return "?";
}

const char* to_string(AdmissionDecision::DegradeRung rung) {
  switch (rung) {
    case AdmissionDecision::DegradeRung::kFull: return "full";
    case AdmissionDecision::DegradeRung::kCheapMembers: return "cheap-members";
    case AdmissionDecision::DegradeRung::kGpOnly: return "gp-only";
    case AdmissionDecision::DegradeRung::kProjected: return "projected";
  }
  return "?";
}

const char* to_string(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kRejectNew: return "reject_new";
    case ShedPolicy::kDropOldest: return "drop_oldest";
    case ShedPolicy::kDeadlineAware: return "deadline_aware";
  }
  return "?";
}

support::Result<ShedPolicy> parse_shed_policy(const std::string& name) {
  if (name == "reject_new") return ShedPolicy::kRejectNew;
  if (name == "drop_oldest") return ShedPolicy::kDropOldest;
  if (name == "deadline_aware") return ShedPolicy::kDeadlineAware;
  return support::Result<ShedPolicy>::error(
      support::StatusCode::kInvalidArgument,
      "unknown shed policy '" + name +
          "' (expected reject_new | drop_oldest | deadline_aware)");
}

bool is_cheap_member(const std::string& name) {
  return name == "gp" || name == "metislike" || name == "random";
}

namespace {

constexpr const char* kTraceCat = "engine";

/// Workspaces in the warm-start pool. Each grows to the working graph size
/// and is then reused; two let two warm starts refine at once while capping
/// the scratch memory.
constexpr std::size_t kWarmWorkspaces = 2;

/// The admission decision record on the job's trace track: an instant event
/// carrying the path (and decline reason, when a probe fell through).
void trace_decision(std::uint64_t job_id, const AdmissionDecision& d) {
  if (!support::Tracer::global().enabled()) return;
  std::string detail = to_string(d.path);
  if (d.rung != AdmissionDecision::DegradeRung::kFull) {
    detail += "; rung: ";
    detail += to_string(d.rung);
  }
  if (!d.decline_reason.empty()) {
    detail += "; declined: ";
    detail += d.decline_reason;
  }
  support::trace_instant(kTraceCat, "admission", job_id,
                         {{"sim_probed", d.sim_probed ? 1 : 0}}, detail);
}

/// A one-member answer (warm start, similarity, projected): `winner` names
/// both the answer and its single, winning member row.
PortfolioOutcome single_answer(part::PartitionResult result,
                               const char* winner) {
  PortfolioOutcome out;
  MemberOutcome mo;
  mo.algorithm = winner;
  mo.ran = true;
  mo.won = true;
  mo.goodness = goodness_of(result);
  mo.seconds = result.seconds;
  out.members.push_back(std::move(mo));
  out.best = std::move(result);
  out.winner = winner;
  return out;
}

/// An answerless outcome carrying a typed error.
PortfolioOutcome error_outcome(support::Status status) {
  PortfolioOutcome out;
  out.status = std::move(status);
  return out;
}

/// Writes the ledger's counts into its own metrics view as counters, so the
/// two can never disagree. Members listed twice share one set of names.
void publish_counters(EngineStats& s) {
  std::map<std::string, std::uint64_t> counters = {
      {"engine.jobs", s.jobs_completed},
      {"engine.admit.exact_hit", s.exact_hits},
      {"engine.admit.warm_start", s.repartitions_incremental},
      {"engine.admit.similarity", s.similarity.near_hits},
      {"engine.admit.sim_decline", s.similarity.declines},
      {"engine.admit.sim_deferred", s.similarity.deferred},
      {"engine.admit.sim_parked", s.similarity.parked},
      {"engine.admit.full_portfolio", s.full_portfolio},
      {"engine.admit.rejected", s.jobs_rejected},
      {"engine.admit.shed", s.jobs_shed},
      {"engine.degrade.cheap_members", s.degraded_cheap_members},
      {"engine.degrade.gp_only", s.degraded_gp_only},
      {"engine.degrade.projected", s.degraded_projected},
  };
  for (const MemberStats& row : s.members) {
    const std::string prefix = "engine.member." + row.name + ".";
    counters[prefix + "runs"] += row.runs;
    counters[prefix + "wins"] += row.wins;
    counters[prefix + "losses"] += row.losses;
    counters[prefix + "failures"] += row.failures;
  }
  // The registry's snapshot carries no counters, and the map iterates in
  // name order, so the view comes out name-sorted.
  for (auto& [name, value] : counters)
    s.metrics.counters.push_back({name, value});
}

}  // namespace

/// All mutable state of one in-flight job. Tasks hold it by shared_ptr so a
/// client collecting the outcome early never races task teardown.
struct Engine::JobState {
  Job job;
  JobId id = 0;
  std::uint64_t key = 0;
  std::uint64_t graph_fp = 0;
  /// False only for run_one's aliasing const& overload: the graph must not
  /// outlive the call, so it never enters the similarity index (and never
  /// leads a near-twin cohort — its answer could not be indexed, so parked
  /// followers would wait behind nothing).
  bool owns_graph = true;
  /// Computed lazily: at the similarity probe, or in complete() for index
  /// insertion. Single-owner at every point in time — the admitting thread
  /// writes it, then hands the state to exactly one continuation
  /// (warm-start task, follower resumption, or member fan-out/complete),
  /// each ordered by a pool submit or a registry mutex.
  std::optional<support::GraphSketch> sketch;
  /// request_compat_fingerprint of this job, cached at the similarity probe
  /// (the pending-leader registry is keyed by it).
  std::uint64_t compat_fp = 0;
  /// This job registered as a near-twin cohort leader in the similarity
  /// index's pending registry; complete() resolves it (see
  /// resolve_sim_pending). Written in admit(), cleared on completion —
  /// ordered by the same handoffs as `sketch`.
  bool sim_pending_leader = false;
  /// Built up during admit() and, for deferred similarity verdicts, by the
  /// warm-start task (the state's single owner at that point); stamped onto
  /// the outcome when the job completes.
  AdmissionDecision decision;
  support::StopToken token;
  support::Timer timer;

  std::mutex m;
  std::condition_variable cv;
  /// Member results of this job's own fan-out; empty for every job answered
  /// any other way (inline stages, projected rung, coalesced, shed).
  std::vector<MemberOutcome> members;
  bool have_best = false;
  std::size_t best_index = 0;
  part::Goodness best_goodness;
  part::PartitionResult best;
  std::size_t remaining = 0;
  bool done = false;
  bool collected = false;  // outcome moved out by a wait()/poll() winner
  /// Bounded-admission bookkeeping. `holds_slot` (guarded by the engine
  /// mutex_): this job occupies one of the max_running_jobs slots, released
  /// in complete(). `queued_start`: the queue pump started this job, so its
  /// fan-out must use the pool even from a worker thread — the waiter is an
  /// external client, nothing on this thread blocks on it.
  bool holds_slot = false;
  bool queued_start = false;
  PortfolioOutcome outcome;
  /// Identical-key jobs coalesced onto this one (single-flight); completed
  /// with a copy of this job's outcome by complete(). Guarded by `m`,
  /// drained atomically with the `done` flip so no follower is stranded.
  std::vector<std::shared_ptr<JobState>> followers;
};

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      coarsen_cache_(options_.coarsen_cache_capacity),
      incremental_(options_.incremental),
      sim_index_(options_.similarity.enabled ? options_.similarity.capacity
                                             : 0),
      metrics_(options_.metrics != nullptr
                   ? *options_.metrics
                   : support::MetricsRegistry::global()),
      job_us_(metrics_.histogram("engine.job.time_us")),
      warm_us_(metrics_.histogram("engine.warm.time_us")),
      warm_pool_(kWarmWorkspaces) {
  if (options_.portfolio.empty())
    throw std::invalid_argument("Engine: portfolio has no members");
  for (const std::string& name : options_.portfolio.members) {
    if (part::make_partitioner(name) == nullptr)
      throw std::invalid_argument("Engine: unknown portfolio member '" + name +
                                  "'");
  }

  member_metrics_.reserve(options_.portfolio.size());
  for (const std::string& name : options_.portfolio.members) {
    member_metrics_.push_back(
        {support::intern_name(name),
         &metrics_.histogram("engine.member." + name + ".time_us")});
    stats_.members.push_back({name});
  }

  if (options_.queue_capacity > 0) {
    // Auto cap: enough concurrent jobs that their member tasks about fill
    // the pool; a portfolio larger than the pool still runs one at a time.
    max_running_resolved_ =
        options_.max_running_jobs != 0
            ? options_.max_running_jobs
            : std::max<std::size_t>(1, support::ThreadPool::global().size() /
                                           options_.portfolio.size());
  }
}

Engine::~Engine() {
  // Outstanding member tasks capture `this`; drain them before dying.
  std::vector<std::shared_ptr<JobState>> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending.reserve(jobs_.size());
    for (auto& [id, state] : jobs_) pending.push_back(state);
  }
  for (auto& state : pending) {
    std::unique_lock<std::mutex> lock(state->m);
    state->cv.wait(lock, [&] { return state->done; });
  }
}

std::uint64_t Engine::job_key(std::uint64_t graph_fp,
                              const part::PartitionRequest& request) const {
  return hash_combine(hash_combine(graph_fp, request_fingerprint(request)),
                      options_.portfolio.fingerprint());
}

std::uint64_t Engine::shared_graph_fingerprint(
    const std::shared_ptr<const graph::Graph>& g) {
  {
    std::lock_guard<std::mutex> lock(fp_mutex_);
    auto it = fp_memo_.find(g.get());
    if (it != fp_memo_.end()) {
      // The weak_ptr doubles as a validity probe: if the original owner
      // died, this address may belong to a different graph by now.
      if (auto live = it->second.graph.lock(); live.get() == g.get())
        return it->second.fp;
      fp_memo_.erase(it);
    }
  }
  const std::uint64_t fp = graph_fingerprint(*g);
  std::lock_guard<std::mutex> lock(fp_mutex_);
  fp_computed_.fetch_add(1, std::memory_order_relaxed);
  if (fp_memo_.size() > 512) {
    for (auto it = fp_memo_.begin(); it != fp_memo_.end();) {
      it = it->second.graph.expired() ? fp_memo_.erase(it) : std::next(it);
    }
  }
  fp_memo_[g.get()] = FpEntry{g, fp};
  return fp;
}

PortfolioOutcome Engine::run_one(const graph::Graph& g,
                                 const part::PartitionRequest& request) {
  // Alias the caller's graph instead of copying it: run_one blocks until
  // the job finishes, so the reference outlives every member task. Aliased
  // graphs must NOT enter the fingerprint memo: a worker's closure can
  // keep the no-op-deleter control block alive briefly after run_one
  // returns, so the weak_ptr probe could validate a dead graph's entry for
  // a new graph at the reused address. Compute the fingerprint directly.
  // For the same lifetime reason admit() gets owns_graph == false: the
  // similarity index must never retain this pointer.
  fp_computed_.fetch_add(1, std::memory_order_relaxed);
  const std::shared_ptr<const graph::Graph> alias(&g,
                                                  [](const graph::Graph*) {});
  return wait(
      admit(Job{alias, request}, graph_fingerprint(g), /*owns_graph=*/false));
}

PortfolioOutcome Engine::run_one(std::shared_ptr<const graph::Graph> g,
                                 const part::PartitionRequest& request) {
  if (g == nullptr)
    throw std::invalid_argument("Engine: run_one with null graph");
  const std::uint64_t graph_fp = shared_graph_fingerprint(g);
  return wait(admit(Job{std::move(g), request}, graph_fp, /*owns_graph=*/true));
}

std::vector<PortfolioOutcome> Engine::run_batch(std::vector<Job> jobs) {
  // Enqueue everything first so members of different jobs overlap on the
  // pool, then collect in job order.
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  for (Job& job : jobs) ids.push_back(submit(std::move(job)));
  std::vector<PortfolioOutcome> out;
  out.reserve(ids.size());
  for (JobId id : ids) out.push_back(wait(id));
  return out;
}

Engine::JobId Engine::submit(Job job) {
  if (job.graph == nullptr)
    throw std::invalid_argument("Engine: job has no graph");
  const std::uint64_t graph_fp = shared_graph_fingerprint(job.graph);
  return admit(std::move(job), graph_fp, /*owns_graph=*/true);
}

Engine::JobId Engine::admit(Job job, std::uint64_t graph_fp, bool owns_graph,
                            const WarmStartSeed* caller_warm) {
  auto state = std::make_shared<JobState>();
  state->job = std::move(job);
  state->graph_fp = graph_fp;
  state->key = job_key(graph_fp, state->job.request);
  state->owns_graph = owns_graph;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    state->id = next_id_++;
    jobs_[state->id] = state;
  }

  // One async span per job, opened on the admitting thread and closed
  // wherever the job completes (an inline answer here, or a pool worker
  // finishing its fan-out) — async events pair by (cat, name, id) across
  // threads.
  support::trace_async_begin(
      kTraceCat, "job", state->id,
      {{"nodes", static_cast<std::int64_t>(state->job.graph->num_nodes())},
       {"edges", static_cast<std::int64_t>(state->job.graph->num_edges())},
       {"k", static_cast<std::int64_t>(state->job.request.k)},
       {"seed", static_cast<std::int64_t>(state->job.request.seed)}});

  // Stages 1-2 run inline on the admitting thread; an exception must not
  // leave a never-done state behind for ~Engine to wait on forever.
  try {
    // ---- Stage 1: exact fingerprint hit — a finished twin exists. --------
    // A repeated query costs a hash, a lookup and the job bookkeeping —
    // never a pool round-trip.
    if (auto cached = cache_.lookup(state->key)) {
      state->decision.path = Path::kExactHit;
      complete(state, *std::move(cached), &EngineStats::jobs_completed);
      return state->id;
    }

    // ---- Stage 2: warm start. --------------------------------------------
    // A caller-supplied delta (repartition) is the stronger signal and owns
    // the stage; plain arrivals probe the similarity index instead. Either
    // way a successful warm start is computed fresh ON this job's graph and
    // is never written to the exact result cache — it depends on the
    // previous answer it was seeded from, and the cache key does not.
    if (caller_warm != nullptr) {
      if (auto warm = run_warm_start(state, *caller_warm)) {
        state->decision.path = Path::kWarmStart;
        complete(state, single_answer(*std::move(warm), "incremental"),
                 &EngineStats::jobs_completed);
        return state->id;
      }
      // Declined: fall through to the portfolio, but keep the reason on
      // the record — "why didn't my delta warm-start" is the first
      // question a trace answers.
      state->decision.decline_reason = caller_warm->stats->fallback_reason;
    } else if (similarity_enabled() && admit_similarity(state)) {
      return state->id;
    }
  } catch (...) {
    // A registered cohort leader must not leave parked followers stranded
    // behind a job that never ran.
    resolve_sim_pending(state);
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.erase(state->id);
    throw;
  }

  // ---- Stage 3: the full portfolio. --------------------------------------
  launch_full(state);
  return state->id;
}

std::optional<part::PartitionResult> Engine::run_warm_start(
    const std::shared_ptr<JobState>& state, const WarmStartSeed& seed) {
  if (!seed.prev->complete()) {
    // An untrustworthy warm start declines like every other one (oversized
    // delta, k change): the portfolio answers instead of the service loop
    // throwing.
    seed.stats->fell_back = true;
    seed.stats->fallback_reason = "previous partition incomplete";
    return std::nullopt;
  }
  // Exclusive scratch from the engine-owned pool: concurrent repartition
  // calls each lease their own workspace instead of serializing on one.
  part::WorkspacePool::Lease lease = warm_pool_.acquire();
  part::PartitionRequest req = state->job.request;
  req.workspace = lease.get();
  return incremental_.try_repartition(*state->job.graph, *seed.prev,
                                      seed.node_map, seed.touched, req,
                                      seed.stats);
}

bool Engine::admit_similarity(const std::shared_ptr<JobState>& state) {
  support::ScopedSpan span(kTraceCat, "sim-probe", state->id);
  state->decision.sim_probed = true;
  state->sketch = support::sketch_of(*state->job.graph);
  state->compat_fp = request_compat_fingerprint(state->job.request);

  // One atomic probe of the index AND the pending-leader registry: a near
  // twin either warm-starts from an indexed entry, parks behind the leader
  // already computing that entry's answer, or becomes the cohort leader
  // itself. This is ALL the submitter pays for a similarity admission — the
  // diff -> verify -> refine verdict runs off-thread.
  SimilarityIndex::ProbeResult probe = sim_index_.probe_or_park(
      *state->sketch, state->compat_fp,
      options_.similarity.min_sketch_similarity, state->id,
      /*may_lead=*/state->owns_graph, state);
  switch (probe.role) {
    case SimilarityIndex::ProbeRole::kMatch:
      span.arg("match_sim_pct",
               static_cast<std::int64_t>(probe.match->similarity * 100));
      spawn_warm_task(state, *std::move(probe.match));
      return true;
    case SimilarityIndex::ProbeRole::kParked:
      // The leader's full-path answer will land in the index; this job's
      // warm start resumes from it (resolve_sim_pending -> resume_follower)
      // instead of racing a duplicate portfolio. The probe's verdict is
      // still open — it is counted when the warm start resolves.
      state->decision.warm_deferred = true;
      span.detail("parked behind pending leader");
      bump(stats_.similarity.parked);
      return true;
    case SimilarityIndex::ProbeRole::kLeader:
      // First of a cohort nothing was answered for yet: route full, and let
      // complete() resume whoever parks behind us.
      state->sim_pending_leader = true;
      state->decision.warm_leader = true;
      span.detail("pending leader");
      [[fallthrough]];
    case SimilarityIndex::ProbeRole::kMiss:
      count_probe_declined(state, "no sketch match");
      return false;
  }
  return false;
}

void Engine::spawn_warm_task(const std::shared_ptr<JobState>& state,
                             SimilarityIndex::Match match) {
  state->decision.warm_deferred = true;
  bump(stats_.similarity.deferred);
  try {
    support::ThreadPool::global().submit(
        [this, state, match = std::move(match)]() mutable {
          run_warm_task(state, std::move(match));
        });
  } catch (...) {
    // A failed task submission must not strand the job (the match was
    // consumed by the dead closure): decline to the untouched full path.
    count_probe_declined(state, "warm task submission failed");
    launch_full(state);
  }
}

void Engine::run_warm_task(const std::shared_ptr<JobState>& state,
                           SimilarityIndex::Match match) {
  support::ScopedSpan span(kTraceCat, "sim-warm", state->id);
  support::Timer timer;
  std::optional<part::PartitionResult> warm;
  part::IncrementalStats istats;
  try {
    // Exclusive scratch from the engine-owned pool: concurrent warm-start
    // tasks each lease their own workspace (never shared — the
    // WorkspaceLease guard inside try_repartition still enforces the
    // one-run-per-workspace rule).
    part::WorkspacePool::Lease lease = warm_pool_.acquire();
    part::PartitionRequest req = state->job.request;
    req.workspace = lease.get();
    // The match is a hint; try_repartition_diffed re-derives the exact edit
    // script and verifies its replay is bit-identical to the arriving graph
    // before anything is reused. Declines (diff too large, k change,
    // projected imbalance, reconstruction mismatch) fall through to the
    // full path.
    warm = incremental_.try_repartition_diffed(*match.entry.graph,
                                               *state->job.graph,
                                               match.entry.partition, req,
                                               &istats);
  } catch (const std::exception& e) {
    // The warm start is an optimization; its failure routes to the full
    // path rather than unwinding a pool worker with the job stranded.
    warm.reset();
    istats.fallback_reason = std::string("warm start threw: ") + e.what();
  } catch (...) {
    warm.reset();
    istats.fallback_reason = "warm start threw";
  }
  // Chaos seam: a verification failure must route the job to the untouched
  // full path — the unverified warm start is never served.
  if (warm.has_value() &&
      support::fault_fire(support::FaultSite::kSimilarityVerify)) {
    warm.reset();
    istats.fallback_reason = "injected: similarity verify";
  }
  warm_us_.observe(timer.seconds() * 1e6);
  if (!warm.has_value()) {
    count_probe_declined(state, istats.fallback_reason.empty()
                                    ? "warm start declined"
                                    : istats.fallback_reason);
    // On this worker thread launch_full degrades to a serial member loop —
    // still off the submitter, exactly the inline-admission discipline.
    launch_full(state);
    return;
  }
  // The probe and its near-hit verdict are counted together in complete()'s
  // ledger transaction — even though the verdict lands on a pool thread, a
  // concurrent stats() reader always sees probes == near_hits + declines.
  state->decision.path = Path::kSimilarity;
  complete(state, single_answer(*std::move(warm), "similarity"),
           &EngineStats::jobs_completed);
}

void Engine::count_probe_declined(const std::shared_ptr<JobState>& state,
                                  const std::string& reason) {
  state->decision.decline_reason = reason;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.similarity.probes;  // the probe and its verdict: one transaction
  ++stats_.similarity.declines;
}

void Engine::resume_follower(const std::shared_ptr<JobState>& state) {
  // Parked until the leader resolved. Re-probe the index: on leader success
  // its fresh entry is there (complete() indexes BEFORE it resolves the
  // cohort); a miss means the leader failed, degraded or was shed, and this
  // follower falls to the full path.
  std::optional<SimilarityIndex::Match> match;
  if (similarity_enabled())
    match = sim_index_.best_match(*state->sketch, state->compat_fp,
                                  options_.similarity.min_sketch_similarity);
  if (match.has_value()) {
    run_warm_task(state, *std::move(match));
    return;
  }
  count_probe_declined(state, "pending leader produced no warm seed");
  launch_full(state);
}

void Engine::resolve_sim_pending(const std::shared_ptr<JobState>& state) {
  if (!state->sim_pending_leader) return;
  state->sim_pending_leader = false;
  std::vector<std::shared_ptr<void>> parked =
      sim_index_.resolve_pending(state->compat_fp, state->id);
  for (std::shared_ptr<void>& handle : parked) {
    auto follower = std::static_pointer_cast<JobState>(std::move(handle));
    // Each follower resumes as its own pool task, so the leader's
    // completion path never pays N-1 warm starts serially. The `this`
    // capture is safe: the follower sits un-done in jobs_, and ~Engine
    // drains every such job before the engine dies.
    try {
      support::ThreadPool::global().submit(
          [this, follower] { resume_follower(follower); });
    } catch (...) {
      resume_follower(follower);  // degraded: resolve inline, never strand
    }
  }
}

void Engine::launch_full(const std::shared_ptr<JobState>& state) {
  auto& pool = support::ThreadPool::global();

  // Stage 3 is the decision (coalescing below shares the leader's WORK, but
  // this job still routed full-portfolio): record it before fan-out.
  state->decision.path = Path::kFullPortfolio;

  // Single-flight: a running twin of this job exists — attach to it and
  // share its outcome instead of racing a duplicate portfolio. Jobs
  // carrying a caller stop token keep their own cancellation semantics and
  // never coalesce, in either role. Calls from inside the pool never
  // coalesce either: a follower blocks in wait() until the leader's member
  // tasks run, and a blocked worker could be the very thread those tasks
  // need — the same saturation deadlock the serial-degrade below avoids.
  if (state->job.request.stop == nullptr && !pool.on_worker_thread()) {
    while (true) {
      std::shared_ptr<JobState> leader;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = inflight_.try_emplace(state->key, state);
        if (!inserted) leader = it->second;
      }
      if (leader == nullptr) break;  // we own the key: run the members below
      {
        std::lock_guard<std::mutex> lock(leader->m);
        if (!leader->done) {
          leader->followers.push_back(state);
          trace_decision(state->id, state->decision);
          bump(stats_.jobs_coalesced);
          return;
        }
      }
      // The leader finished between the registry lookup and locking it (it
      // has already left inflight_): retry — either we take the key or a
      // newer leader appears.
    }
  }

  // Bounded admission: the gate picks the degradation rung and either lets
  // the job run now, parks it for a free running slot, or sheds it (or a
  // queued victim). Single-flight attach stays ABOVE the gate on purpose —
  // coalescing consumes no capacity. Inline (pool-worker) admissions are
  // exempt: they degrade to serial below and hold no pool slot, and parking
  // one would block a worker the running jobs may need.
  if (options_.queue_capacity > 0 && !pool.on_worker_thread() &&
      !admission_gate(state))
    return;  // queued (complete() fans out later) or refused (done already)

  trace_decision(state->id, state->decision);
  fan_out(state);
}

bool Engine::admission_gate(const std::shared_ptr<JobState>& state) {
  const std::size_t cap = options_.queue_capacity;
  std::shared_ptr<JobState> victim;
  support::Status refusal;
  bool queued = false;
  bool run_now = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t depth = queue_.size();
    const support::StopToken* stop = state->job.request.stop;
    // The ladder is a pure function of (depth snapshot, caller budget): a
    // fixed submission order replays the same rungs.
    Rung rung = Rung::kFull;
    if (options_.degrade_under_load) {
      if (stop != nullptr && stop->seconds_until_deadline() <= 0) {
        // The caller's budget is already gone: the cheapest valid answer
        // NOW beats a queued full answer the caller stopped waiting for.
        rung = Rung::kProjected;
      } else if (2 * depth >= cap) {
        rung = Rung::kGpOnly;
      } else if (4 * depth >= cap) {
        rung = Rung::kCheapMembers;
      }
    }
    state->decision.rung = rung;

    if (rung == Rung::kProjected) {
      // Projected answers are served inline by the admitting thread: no
      // pool slot, no queue entry — they cannot pile up behind the queue.
      run_now = true;
    } else if (running_full_ < max_running_resolved_) {
      ++running_full_;
      state->holds_slot = true;
      run_now = true;
    } else if (options_.shed_policy == ShedPolicy::kDeadlineAware &&
               stop != nullptr &&
               (stop->seconds_until_deadline() <= 0 ||
                (stats_.avg_job_seconds > 0 &&
                 stop->seconds_until_deadline() <=
                     static_cast<double>(depth + 1) *
                         stats_.avg_job_seconds))) {
      // The deadline cannot survive the drain of the queue ahead (estimated
      // from recent job latency): refuse now instead of computing an answer
      // nobody is still waiting for. An already-expired deadline needs no
      // estimate at all — before the EWMA's first full-path completion seeds
      // it, avg_job_seconds is 0 and the drain test alone would wave a
      // whole cold-start burst of unmeetable deadlines into the queue.
      // Live deadlines stay admitted until the predictor has real data:
      // refusing them on a guess would shed meetable work.
      refusal = support::Status::error(
          support::StatusCode::kDeadlineExceeded,
          "engine: deadline expires before " + std::to_string(depth + 1) +
              " queued job(s) can drain");
    } else if (depth < cap) {
      queue_.push_back(state);
      queued = true;
    } else if (options_.shed_policy == ShedPolicy::kDropOldest) {
      victim = queue_.front();
      queue_.pop_front();
      queue_.push_back(state);
      queued = true;
    } else {
      refusal = support::Status::error(
          support::StatusCode::kResourceExhausted,
          "engine: admission queue full (" + std::to_string(cap) +
              " pending)");
    }

    if ((run_now || queued) && rung != Rung::kFull) {
      ++(rung == Rung::kCheapMembers ? stats_.degraded_cheap_members
         : rung == Rung::kGpOnly     ? stats_.degraded_gp_only
                                     : stats_.degraded_projected);
    }
  }

  if (victim != nullptr) {
    complete(victim,
             error_outcome(support::Status::error(
                 support::StatusCode::kResourceExhausted,
                 "engine: shed by drop_oldest")),
             &EngineStats::jobs_shed);
  }
  if (!refusal.is_ok()) {
    complete(state, error_outcome(std::move(refusal)),
             &EngineStats::jobs_rejected);
    return false;
  }
  if (queued) {
    trace_decision(state->id, state->decision);
    return false;
  }
  return run_now;
}

std::vector<std::size_t> Engine::members_for_rung(Rung rung) const {
  const std::vector<std::string>& members = options_.portfolio.members;
  std::vector<std::size_t> out;
  if (rung == Rung::kCheapMembers) {
    for (std::size_t i = 0; i < members.size(); ++i)
      if (is_cheap_member(members[i])) out.push_back(i);
    // A portfolio of only expensive members still answers: member 0 runs.
    if (out.empty()) out.push_back(0);
    return out;
  }
  if (rung == Rung::kGpOnly) {
    for (std::size_t i = 0; i < members.size(); ++i)
      if (members[i] == "gp") return {i};
    for (std::size_t i = 0; i < members.size(); ++i)
      if (is_cheap_member(members[i])) return {i};
    return {0};
  }
  // kFull (and kProjected, which never reaches the member loop).
  out.resize(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) out[i] = i;
  return out;
}

void Engine::fan_out(const std::shared_ptr<JobState>& state) {
  auto& pool = support::ThreadPool::global();
  if (state->decision.rung == Rung::kProjected) {
    serve_projected(state);
    return;
  }

  const std::size_t n = options_.portfolio.size();
  const std::vector<std::size_t> selected =
      members_for_rung(state->decision.rung);
  {
    std::lock_guard<std::mutex> lock(state->m);
    state->members.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      state->members[i].algorithm = options_.portfolio.members[i];
    // Members outside the rung stay ran == false — the same "skipped" shape
    // cancellation produces, so every consumer already handles it.
    state->remaining = selected.size();
  }
  if (options_.time_budget_ms > 0)
    state->token.set_deadline_after(options_.time_budget_ms / 1e3);
  // A caller-armed request.stop keeps working inside the engine: the job
  // token observes it as a parent, and run_member hands members the job
  // token (which covers budget and caller cancel at once).
  if (state->job.request.stop != nullptr)
    state->token.set_parent(state->job.request.stop);

  if (pool.on_worker_thread() && !state->queued_start) {
    // Called from inside the pool (e.g. a client task): fanning out and
    // blocking would deadlock a saturated pool, so degrade to serial.
    // (Pump-started jobs fan onto the pool even from a worker: their waiter
    // is an external client thread, nothing on this thread blocks on them.)
    for (std::size_t i : selected) run_member(state, i);
  } else {
    for (std::size_t si = 0; si < selected.size(); ++si) {
      // Futures are intentionally dropped: completion is tracked by
      // `remaining`, and packaged_task keeps the shared state alive.
      try {
        // Chaos seam: an injected submit failure exercises the same
        // unsubmitted-tail accounting a real allocation failure would.
        if (support::fault_fire(support::FaultSite::kPoolTask))
          throw support::FaultInjected("injected: pool task submit");
        const std::size_t i = selected[si];
        pool.submit([this, state, i] { run_member(state, i); });
      } catch (...) {
        // A failed submit (e.g. allocation) must not unwind out of here:
        // already-queued members keep running — and run_one's const&
        // overload aliases the caller's graph, which only stays valid
        // while the caller blocks in wait(). Account the unsubmitted tail
        // as failed so `remaining` reaches zero and waiters never hang.
        bool finished = false;
        {
          std::lock_guard<std::mutex> lock(state->m);
          for (std::size_t sj = si; sj < selected.size(); ++sj) {
            state->members[selected[sj]].failed = true;
            state->members[selected[sj]].error =
                "engine: task submission failed";
          }
          state->remaining -= selected.size() - si;
          finished = state->remaining == 0;
        }
        if (finished) collect_members(state);
        break;
      }
    }
  }
}

void Engine::serve_projected(const std::shared_ptr<JobState>& state) {
  support::ScopedSpan span(kTraceCat, "projected", state->id);
  const graph::Graph& g = *state->job.graph;
  const part::PartitionRequest& req = state->job.request;
  support::Timer timer;
  part::PartitionResult result;
  try {
    part::CoarsenOptions copts;
    copts.strategies = part::GpOptions{}.matchings;
    std::shared_ptr<const part::Hierarchy> h;
    if (options_.coarsen_cache_capacity > 0) {
      // Reuse (or build) the canonical hierarchy GP shares (same options
      // key) — under overload it is usually already hot.
      h = coarsen_cache_.hierarchy(state->graph_fp, copts, g);
    } else {
      support::Rng coarsen_rng(hash_combine(req.seed, 0x70726f6aull));
      h = std::make_shared<const part::Hierarchy>(
          part::coarsen(g, copts, coarsen_rng));
    }
    const graph::Graph& coarsest = h->coarsest(g);
    part::GreedyGrowOptions gopts;
    gopts.parallel = false;  // the saturated pool is the reason we're here
    support::Rng grow_rng(hash_combine(req.seed, 0x70726f6a32ull));
    part::Partition coarse = part::greedy_grow_initial(
        coarsest, req.k, req.constraints, gopts, grow_rng);
    const std::vector<part::PartId> assign =
        h->project_to_level(coarse.assignments(), 0);
    result.partition = part::Partition(g.num_nodes(), req.k);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
      result.partition.set(u, assign[u]);
    result.finalize(g, req.constraints);
    result.algorithm = "projected";
    result.seconds = timer.seconds();
  } catch (...) {
    // Ends like a fan-out whose every member failed: a typed kInternal
    // outcome on the job's own path and rung, counted as completed.
    complete(state,
             error_outcome(support::Status::error(
                 support::StatusCode::kInternal,
                 "engine: projected answer failed")),
             &EngineStats::jobs_completed);
    return;
  }
  span.arg("cut", static_cast<std::int64_t>(result.metrics.total_cut));

  // A projected answer is a valid, complete partition but is NEVER cached
  // or similarity-indexed: the rung depends on transient load, the cache
  // key does not (complete() publishes full-rung answers only).
  complete(state, single_answer(std::move(result), "projected"),
           &EngineStats::jobs_completed);
}

void Engine::run_member(const std::shared_ptr<JobState>& state,
                        std::size_t index) {
  // Skip members that lost the race: the budget or a caller stop fired and
  // a best answer already exists. (With no answer yet, everyone still runs
  // — each returns its first-checkpoint solution quickly.)
  bool skip = false;
  {
    std::lock_guard<std::mutex> lock(state->m);
    skip = state->token.stop_requested() && state->have_best;
  }

  MemberOutcome mo;
  part::PartitionResult result;
  bool have_result = false;
  if (!skip) {
    const MemberMetrics& mm = member_metrics_[index];
    support::Timer member_timer;
    {
      // One span per member run, on the worker's own track, tied to the
      // job's async span by id; it carries the member's derived seed going
      // in and its outcome (cut, feasibility) coming out.
      support::ScopedSpan span(kTraceCat, mm.span_name, state->id);
      try {
        // Chaos seam: an injected member failure takes the same catch path
        // a real partitioner exception does — accounted, never fatal.
        if (support::fault_fire(support::FaultSite::kMemberRun))
          throw support::FaultInjected("injected: member run (" +
                                       options_.portfolio.members[index] +
                                       ")");
        auto algo = part::make_partitioner(options_.portfolio.members[index]);
        part::PartitionRequest req = state->job.request;
        // A caller-supplied workspace or phase profile is single-run state
        // ("NEVER share across threads"); members run concurrently, so each
        // must fall back to its own locals instead of aliasing them.
        req.workspace = nullptr;
        req.phases = nullptr;
        // Stream `index` of the job seed: independent across members, stable
        // across scheduling orders.
        req.seed =
            support::SeedStream(state->job.request.seed).seed_for(index);
        req.stop = &state->token;
        span.arg("seed", static_cast<std::int64_t>(req.seed));
        // Coarsening reuse: hand every member the engine's cache plus the
        // job's memoized graph identity, so the multilevel members share one
        // canonical hierarchy per (graph, options) across jobs and members.
        if (options_.coarsen_cache_capacity > 0) {
          req.coarsen_cache = &coarsen_cache_;
          req.graph_key = state->graph_fp;
        }
        result = algo->run(*state->job.graph, req);
        have_result = true;
        mo.ran = true;
        mo.goodness = goodness_of(result);
        span.arg("cut", static_cast<std::int64_t>(result.metrics.total_cut));
        span.arg("feasible", result.feasible ? 1 : 0);
      } catch (const std::exception& e) {
        mo.ran = true;
        mo.failed = true;
        mo.error = e.what();
        span.arg("failed", 1);
        span.detail(mo.error);
      } catch (...) {
        // Never let an escaped exception leak into a dropped future: the
        // `remaining` countdown below must always happen or wait() hangs.
        mo.ran = true;
        mo.failed = true;
        mo.error = "unknown exception";
        span.arg("failed", 1);
      }
    }
    mo.seconds = member_timer.seconds();
  }

  bool finished = false;
  {
    std::lock_guard<std::mutex> lock(state->m);
    mo.algorithm = state->members[index].algorithm;
    state->members[index] = mo;
    if (have_result) {
      const part::Goodness good = goodness_of(result);
      // Deterministic winner: (goodness, member index), never finish order.
      if (!state->have_best || good < state->best_goodness ||
          (good == state->best_goodness && index < state->best_index)) {
        state->have_best = true;
        state->best_index = index;
        state->best_goodness = good;
        state->best = std::move(result);
      }
    }
    finished = --state->remaining == 0;
  }
  if (finished) collect_members(state);
}

void Engine::collect_members(const std::shared_ptr<JobState>& state) {
  // `remaining` hit zero, so no member task writes this state anymore.
  PortfolioOutcome out;
  {
    std::lock_guard<std::mutex> lock(state->m);
    if (state->have_best) {
      state->members[state->best_index].won = true;
      out.best = std::move(state->best);
      out.winner = state->members[state->best_index].algorithm;
    } else {
      // No member produced a result (every selected one failed or could not
      // be submitted): a typed error, not a silently empty partition.
      out.status =
          support::Status::error(support::StatusCode::kInternal,
                                 "engine: every portfolio member failed");
    }
    out.members = state->members;
  }
  if (!out.winner.empty())
    support::trace_instant(kTraceCat, "winner", state->id, {}, out.winner);
  complete(state, std::move(out), &EngineStats::jobs_completed);
}

void Engine::complete(const std::shared_ptr<JobState>& state,
                      PortfolioOutcome outcome,
                      std::uint64_t EngineStats::*bucket) {
  // ORDER MATTERS: every touch of engine members (cache_, sim_index_,
  // mutex_ and what it guards, the pool) happens BEFORE `done` is published
  // — the moment a waiter observes done it may collect the outcome and
  // destroy the Engine, leaving this thread with only the JobState
  // shared_ptr to stand on.

  // 1. Stamp the job's own key, latency and admission record. A refused or
  // shed job (or a follower of one) reports path kShed; the from_cache and
  // similarity flags restate the path.
  outcome.key = state->key;
  outcome.seconds = state->timer.seconds();
  outcome.decision = state->decision;
  const bool completed = bucket == &EngineStats::jobs_completed;
  if (!completed) outcome.decision.path = Path::kShed;
  const Path path = outcome.decision.path;
  outcome.from_cache = path == Path::kExactHit;
  outcome.similarity = path == Path::kSimilarity;
  // Full-path jobs traced their decision when they were routed (fan-out,
  // queue or coalesce); every other path traces it here.
  if (path != Path::kFullPortfolio) trace_decision(state->id, outcome.decision);
  support::trace_async_end(kTraceCat, "job", state->id, {},
                           !outcome.status.is_ok() ? outcome.status.to_string()
                           : outcome.coalesced     ? "coalesced"
                                                   : to_string(path));

  // 2. Publish a fresh, full-effort answer to future arrivals. Replays
  // (exact hits, coalesced copies) and degraded rungs are never published:
  // the rung depends on transient load, the cache key does not. Warm starts
  // feed the similarity index but never the exact result cache — they
  // depend on the answer they were seeded from, which the key does not
  // capture. A full run cut short by a fired *caller* stop token was
  // truncated for that caller only (the key excludes the token), so it is
  // not published either. Budgets are deliberately not part of the key: an
  // answer computed under any budget is a valid reply to the request. The
  // kCacheInsert chaos seam models a dropped insert (cache unavailable):
  // future twins recompute, nothing torn, nothing stale.
  const support::StopToken* stop = state->job.request.stop;
  const bool publish =
      !outcome.winner.empty() && !outcome.coalesced &&
      path != Path::kExactHit && outcome.decision.rung == Rung::kFull &&
      (path != Path::kFullPortfolio ||
       ((stop == nullptr || !stop->stop_requested()) &&
        !support::fault_fire(support::FaultSite::kCacheInsert)));
  if (publish) {
    // Cache hygiene contract: only complete partitions of the right shape
    // may be replayed — a torn entry would poison every exact hit and warm
    // start derived from it.
    PPN_DCHECK(outcome.best.partition.size() == state->job.graph->num_nodes());
    PPN_DCHECK(outcome.best.partition.complete());
    if (path == Path::kFullPortfolio) cache_.insert(state->key, outcome);
    // The index replays this partition as a warm-start seed onto graphs
    // that diff cleanly against ours. Aliased (run_one const&) graphs never
    // enter it: they do not outlive the call.
    if (similarity_enabled() && state->owns_graph) {
      if (!state->sketch.has_value())
        state->sketch = support::sketch_of(*state->job.graph);
      sim_index_.insert({*state->sketch, state->job.graph, state->graph_fp,
                         request_compat_fingerprint(state->job.request),
                         outcome.best.partition});
    }
  }

  // 3. One ledger transaction: the bucket, the answering path and this
  // job's member rows, with the latency histograms that sample them, so a
  // stats() snapshot never sees a count without its observation. Release
  // the job's running slot, feed the drain predictor, leave the
  // single-flight registry (a racing twin then takes the key, or attaches
  // before `done` and is drained below), and claim free slots for queued
  // jobs.
  const bool fanned_out = !state->members.empty();
  std::vector<std::shared_ptr<JobState>> start;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++(stats_.*bucket);
    if (completed) job_us_.observe(outcome.seconds * 1e6);
    switch (state->decision.path) {
      case Path::kExactHit: ++stats_.exact_hits; break;
      case Path::kWarmStart: ++stats_.repartitions_incremental; break;
      case Path::kSimilarity:  // the probe and its near-hit verdict
        ++stats_.similarity.probes;
        ++stats_.similarity.near_hits;
        break;
      case Path::kFullPortfolio: ++stats_.full_portfolio; break;
      case Path::kShed: break;
    }
    // Only this job's own fan-out has member rows to settle: a replayed
    // outcome (exact hit, coalesced copy) carries rows of an earlier run.
    if (fanned_out) {
      for (std::size_t i = 0; i < outcome.members.size(); ++i) {
        const MemberOutcome& mo = outcome.members[i];
        MemberStats& row = stats_.members[i];
        if (mo.ran) {
          ++row.runs;
          member_metrics_[i].time_us->observe(mo.seconds * 1e6);
        }
        ++(mo.failed ? row.failures
           : !mo.ran ? row.skipped
           : mo.won  ? row.wins
                     : row.losses);
      }
    }
    if (state->holds_slot) --running_full_;
    // Only full-rung fan-outs feed the deadline-aware drain estimate:
    // degraded rungs finish fast by design, and letting them in would bias
    // it low — exactly when overload makes it matter most.
    if (fanned_out && outcome.decision.rung == Rung::kFull) {
      double& avg = stats_.avg_job_seconds;
      avg = avg == 0 ? outcome.seconds : 0.8 * avg + 0.2 * outcome.seconds;
    }
    auto it = inflight_.find(state->key);
    if (it != inflight_.end() && it->second == state) inflight_.erase(it);
    while (!queue_.empty() && running_full_ < max_running_resolved_) {
      start.push_back(std::move(queue_.front()));
      queue_.pop_front();
      ++running_full_;
      start.back()->holds_slot = true;
      start.back()->queued_start = true;
    }
  }

  // 4. Resume near-twins parked behind this job — strictly after the index
  // insert above, so their re-probe finds the fresh entry; on every other
  // outcome they re-probe, miss and fall to the full path, and nobody stays
  // parked. Then pump the queue: fan out the jobs given the freed slots
  // (outside mutex_ — fan_out takes state->m and pool locks that must not
  // nest under it).
  resolve_sim_pending(state);
  for (const std::shared_ptr<JobState>& s : start) fan_out(s);

  // 5. Publish `done`, draining the followers atomically with the flip: a
  // follower attaches only while !done, so none is stranded after the swap.
  std::vector<std::shared_ptr<JobState>> followers;
  PortfolioOutcome shared;
  {
    std::lock_guard<std::mutex> lock(state->m);
    followers.swap(state->followers);
    if (!followers.empty()) shared = outcome;
    state->outcome = std::move(outcome);
    state->done = true;
  }
  state->cv.notify_all();
  // Followers share this job's answer (or its typed error) through the same
  // path. The engine stays pinned meanwhile: each follower sits in jobs_
  // with done == false until its own flip, and ~Engine waits for it. A
  // follower was admitted (it attached), so a refused leader sheds it.
  shared.coalesced = true;
  for (const std::shared_ptr<JobState>& f : followers)
    complete(f, shared,
             bucket == &EngineStats::jobs_rejected ? &EngineStats::jobs_shed
                                                   : bucket);
}

std::uint64_t EngineStats::members_run() const {
  std::uint64_t n = 0;
  for (const MemberStats& m : members) n += m.wins + m.losses;
  return n;
}

std::uint64_t EngineStats::members_skipped() const {
  std::uint64_t n = 0;
  for (const MemberStats& m : members) n += m.skipped;
  return n;
}

std::uint64_t EngineStats::members_failed() const {
  std::uint64_t n = 0;
  for (const MemberStats& m : members) n += m.failures;
  return n;
}

void Engine::bump(std::uint64_t& field) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++field;
}

RepartitionOutcome Engine::repartition(const Job& job,
                                       const graph::GraphDelta& delta,
                                       const part::PartitionResult& prev) {
  if (job.graph == nullptr)
    throw std::invalid_argument("Engine: repartition with null graph");
  if (prev.partition.size() != job.graph->num_nodes())
    throw std::invalid_argument(
        "Engine: previous partition does not match the job graph");
  support::Timer timer;

  graph::GraphDelta::Applied applied = delta.apply(*job.graph);
  RepartitionOutcome out;
  out.graph = std::make_shared<const graph::Graph>(std::move(applied.graph));
  out.node_map = std::move(applied.node_map);
  out.touched = std::move(applied.touched);

  // Rekey, don't invalidate: the edited graph is a new immutable object
  // with its own content fingerprint, so the result and coarsening caches
  // see a distinct key — pre-edit entries stay valid for the pre-edit graph
  // and can never be served for the post-edit one. From here the job flows
  // through the same admission pipeline as every other entry point, with
  // the caller's delta seeding stage 2:
  //   stage 1 — a finished FULL answer for exactly the edited graph +
  //             request is a strictly better reply than re-refining, serve
  //             it; stage 2 — warm-started refinement (NOT cached: the
  //             answer depends on `prev`, the cache key does not); stage 3
  //             — the delta was too large or the warm start too skewed, the
  //             portfolio answers and IS cached for future twins.
  const std::uint64_t graph_fp = shared_graph_fingerprint(out.graph);
  part::IncrementalStats istats;
  const WarmStartSeed seed{&prev.partition, out.node_map, out.touched,
                           &istats};
  out.outcome = wait(
      admit(Job{out.graph, job.request}, graph_fp, /*owns_graph=*/true, &seed));
  out.outcome.seconds = timer.seconds();

  switch (out.outcome.decision.path) {
    case Path::kExactHit:
      out.fallback_reason = "result-cache hit for the edited graph";
      bump(stats_.repartition_cache_hits);
      break;
    case Path::kWarmStart:
      out.incremental = true;  // counted in complete(), like every path
      break;
    default:
      out.fallback_reason = istats.fallback_reason;
      bump(stats_.repartitions_fallback);
      break;
  }
  return out;
}

std::shared_ptr<Engine::JobState> Engine::find_job(JobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::invalid_argument("Engine: unknown or already-collected job id");
  return it->second;
}

PortfolioOutcome Engine::take_outcome(
    const std::shared_ptr<JobState>& state) {
  PortfolioOutcome out;
  {
    std::lock_guard<std::mutex> lock(state->m);
    // Two clients racing wait()/poll() on the same id can both pass
    // find_job before either erases it; only the first may move the
    // outcome out — the loser gets the documented error, not a silently
    // empty result.
    if (state->collected)
      throw std::invalid_argument(
          "Engine: unknown or already-collected job id");
    state->collected = true;
    out = std::move(state->outcome);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  jobs_.erase(state->id);
  return out;
}

std::optional<PortfolioOutcome> Engine::poll(JobId id) {
  auto state = find_job(id);
  {
    std::lock_guard<std::mutex> lock(state->m);
    if (!state->done) return std::nullopt;
  }
  return take_outcome(state);
}

PortfolioOutcome Engine::wait(JobId id) {
  auto state = find_job(id);
  {
    std::unique_lock<std::mutex> lock(state->m);
    state->cv.wait(lock, [&] { return state->done; });
  }
  return take_outcome(state);
}

EngineStats Engine::stats() const {
  EngineStats s;
  {
    // The histograms are read under the lock that complete() observes them
    // under, so their counts match the ledger rows copied with them.
    std::lock_guard<std::mutex> lock(mutex_);
    s = stats_;
    s.metrics = metrics_.snapshot();
  }
  s.cache = cache_.stats();
  s.coarsening = coarsen_cache_.stats();
  // One lock acquisition for the pair, so evictions can never exceed
  // insertions within a snapshot.
  const SimilarityIndex::Counters sim = sim_index_.counters();
  s.similarity.insertions = sim.insertions;
  s.similarity.evictions = sim.evictions;
  s.graph_fingerprints_computed =
      fp_computed_.load(std::memory_order_relaxed);
  // Per-slot growth counters snapshotted at lease release — a leased
  // workspace's live counter is never read here (it belongs to its holder).
  s.repartition_ws_growths = warm_pool_.total_growths();
  publish_counters(s);
  return s;
}

void Engine::clear_cache() {
  cache_.clear();
  coarsen_cache_.clear();
  sim_index_.clear();
}

}  // namespace ppnpart::engine
