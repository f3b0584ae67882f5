#pragma once
// Unified execution facade over the two engines (paper §4.1.2 / §4.2.3).
//
// The paper's central claim is that ONE scheduling policy object drives both
// a real-thread XiTAO-style runtime and a deterministic discrete-event
// simulator. This header makes that claim the public API: every driver
// (bench, example, test) builds an engine through
//
//     auto exec = das::make_executor(Backend::kSim, topo, Policy::kDamC,
//                                    registry, config);
//     RunResult r = exec->run(dag);
//
// and can switch engines by flipping the Backend value — typically from a
// `--backend=sim|rt` command-line flag (util/cli.hpp). The facade is a job
// SERVICE: `submit(dag)` / `wait(job)` / `drain()` execute a stream of
// independent DAGs concurrently on one worker pool and one learned PTT, and
// open_session() carves that service into TENANTS — each with an admission
// budget, an overload policy and a deficit-round-robin fair-share weight
// (exec/session.hpp documents the model). `run()` is the submit+wait sugar
// shown above and stays single-tenant. ExecutorConfig holds the options
// shared by both engines (seed, scenario, policy tunables, PTT ratio, stats
// phases) plus per-backend sub-structs and the ServiceConfig; build one
// field-by-field or through ExecutorConfig::builder(). run() returns a
// structured RunResult (makespan, throughput, per-rank stats snapshot)
// instead of a bare double.
//
// Engine state persists across run() calls exactly like the underlying
// engines: the PTT keeps learning, stats accumulate, and the clock
// (virtual time for the DES, wall seconds since construction for the
// real-thread runtime) advances monotonically — now() exposes it
// engine-agnostically so drivers can open/close interference windows at
// application-level boundaries on either backend (paper Fig. 9).

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dag.hpp"
#include "core/policy.hpp"
#include "core/ptt.hpp"
#include "core/task_type.hpp"
#include "exec/session.hpp"
#include "platform/speed_model.hpp"
#include "platform/topology.hpp"
#include "scenario/scenario.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"
#include "trace/stats.hpp"
#include "trace/timeline.hpp"
#include "util/cli.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace das {

enum class Backend : std::uint8_t {
  kSim = 0,  ///< deterministic discrete-event engine (src/sim)
  kRt,       ///< real-thread work-stealing runtime (src/rt)
};

/// Canonical name: "sim" | "rt".
const char* backend_name(Backend b);
/// Both backends, in declaration order.
const std::vector<Backend>& all_backends();
/// Parses "sim" / "des" -> kSim, "rt" / "real" -> kRt (case-insensitive);
/// nullopt for unknown names.
std::optional<Backend> parse_backend(const std::string& name);

/// Case-insensitive policy lookup over the Table-1 names ("RWS", "RWSM-C",
/// "FA", "FAM-C", "DA", "DAM-C", "DAM-P") and the "dHEFT" baseline;
/// nullopt for unknown names.
std::optional<Policy> parse_policy(const std::string& name);

/// Resolves the --backend= / --policy= flag against the registries above:
/// returns `def` when the flag is absent, exits with a diagnostic on an
/// unknown name. The one flag block every example/bench driver shares.
Backend backend_flag(const cli::Flags& flags, Backend def);
Policy policy_flag(const cli::Flags& flags, Policy def);

/// Resolves the shared --scenario=<name|file> flag: a catalog name
/// ("clean", "dvfs-wave", ...) or a path to a JSON spec file
/// (src/scenario/scenario.hpp documents the format). Returns nullopt when
/// the flag is absent — the driver keeps its built-in condition; exits 2
/// with the scenario diagnostic (and the catalog list) on a bad value.
/// Assign the result to ExecutorConfig::scenario_spec.
std::optional<scenario::ScenarioSpec> scenario_flag(const cli::Flags& flags);

/// scenario::build with CLI semantics: exits 2 with the diagnostic when the
/// spec references what `topo` lacks — the build-time counterpart of
/// scenario_flag's parse-time exit. Drivers that build eagerly use this;
/// drivers that pass scenario_spec through ExecutorConfig catch
/// scenario::ScenarioError around make_executor instead.
SpeedScenario build_scenario_or_exit(const scenario::ScenarioSpec& spec,
                                     const Topology& topo);

/// Options shared by both engines, plus per-backend sub-structs. The
/// defaults match the engines' standalone defaults, except that `seed`
/// is the single documented kDefaultSeed for BOTH backends (the legacy
/// entry points used to default to 7 for rt and 42 for sim).
struct ExecutorConfig {
  std::uint64_t seed = kDefaultSeed;
  /// Dynamic-asymmetry emulation (DVFS waves, co-runners); null = clean
  /// machine. The DES charges it in virtual time; the real runtime stretches
  /// participations via the throttle. Not owned; must outlive the executor.
  const SpeedScenario* scenario = nullptr;
  /// Declarative alternative to `scenario` (typically from the shared
  /// --scenario= flag): make_executor builds it against each rank's topology
  /// and the executor OWNS the result — no lifetime dance for the driver.
  /// Like `scenario`, it is the fallback for ranks without their own
  /// scenario. Setting both scenario and scenario_spec is a precondition
  /// error; a spec that references what the topology lacks throws
  /// scenario::ScenarioError from make_executor.
  std::optional<scenario::ScenarioSpec> scenario_spec;
  PolicyOptions policy_options{};
  UpdateRatio ptt_ratio{};
  int stats_phases = 1;
  /// Optional execution timeline (Chrome trace export); recorded by the DES
  /// backend only. Not owned.
  Timeline* timeline = nullptr;

  /// Service-layer knobs (admission + fair release across sessions); the
  /// engines never see these. exec/session.hpp documents the model.
  ServiceConfig service;

  // The per-backend defaults are read off the engines' own option structs
  // so they can never drift from what a direct engine user would get (the
  // divergent-defaults bug class the unified seed fixes).
  struct Rt {
    /// Best-effort pthread affinity.
    bool pin_threads = ::das::rt::RtOptions{}.pin_threads;
    /// Victims probed before backing off.
    int steal_attempts_per_round = ::das::rt::RtOptions{}.steal_attempts_per_round;
    /// Run the fault watchdog even without a fault plan (rt/watchdog.cpp);
    /// a scenario_spec with fail/freeze faults arms it regardless.
    bool enable_watchdog = ::das::rt::RtOptions{}.enable_watchdog;
    double watchdog_period_s = ::das::rt::RtOptions{}.watchdog_period_s;
  } rt;

  struct Sim {
    double dispatch_overhead_s = ::das::sim::SimOptions{}.dispatch_overhead_s;
    double steal_latency_s = ::das::sim::SimOptions{}.steal_latency_s;
    double completion_overhead_s = ::das::sim::SimOptions{}.completion_overhead_s;
    double idle_wake_delay_s = ::das::sim::SimOptions{}.idle_wake_delay_s;
    /// Lognormal measurement noise.
    bool noise = ::das::sim::SimOptions{}.noise;
  } sim;

  class Builder;
  /// Fluent construction: `ExecutorConfig::builder().seed(7).build()`.
  static Builder builder();
};

/// Chained-setter construction for ExecutorConfig, split the way the config
/// is consumed: ENGINE options feed the sim/rt engines, SERVICE options
/// feed the multi-tenant layer wrapped around them. Every setter has the
/// same default as the plain struct — builder() with no calls reproduces
/// `ExecutorConfig{}` exactly.
class ExecutorConfig::Builder {
 public:
  // ---- engine options -----------------------------------------------------
  Builder& seed(std::uint64_t v) { cfg_.seed = v; return *this; }
  Builder& scenario(const SpeedScenario* s) { cfg_.scenario = s; return *this; }
  Builder& scenario_spec(scenario::ScenarioSpec s) {
    cfg_.scenario_spec = std::move(s);
    return *this;
  }
  Builder& policy_options(const PolicyOptions& o) {
    cfg_.policy_options = o;
    return *this;
  }
  Builder& ptt_ratio(UpdateRatio r) { cfg_.ptt_ratio = r; return *this; }
  Builder& stats_phases(int n) { cfg_.stats_phases = n; return *this; }
  Builder& timeline(Timeline* t) { cfg_.timeline = t; return *this; }
  Builder& pin_threads(bool v) { cfg_.rt.pin_threads = v; return *this; }
  Builder& steal_attempts_per_round(int v) {
    cfg_.rt.steal_attempts_per_round = v;
    return *this;
  }
  Builder& enable_watchdog(bool v) { cfg_.rt.enable_watchdog = v; return *this; }
  Builder& watchdog_period_s(double v) {
    cfg_.rt.watchdog_period_s = v;
    return *this;
  }
  Builder& sim_noise(bool v) { cfg_.sim.noise = v; return *this; }
  Builder& sim_overheads(double dispatch_s, double steal_s, double completion_s,
                         double idle_wake_s) {
    cfg_.sim.dispatch_overhead_s = dispatch_s;
    cfg_.sim.steal_latency_s = steal_s;
    cfg_.sim.completion_overhead_s = completion_s;
    cfg_.sim.idle_wake_delay_s = idle_wake_s;
    return *this;
  }

  // ---- service options ----------------------------------------------------
  Builder& max_service_inflight(int v) {
    cfg_.service.max_service_inflight = v;
    return *this;
  }
  Builder& drr_quantum_tasks(std::int64_t v) {
    cfg_.service.drr_quantum_tasks = v;
    return *this;
  }

  ExecutorConfig build() const { return cfg_; }

 private:
  ExecutorConfig cfg_;
};

inline ExecutorConfig::Builder ExecutorConfig::builder() { return {}; }

/// Structured result of one job (one submitted DAG): what run() returns and
/// what wait()/drain() return per job.
struct RunResult {
  /// How the job ended. Only kOk carries engine results (makespan, stats);
  /// the other outcomes mean the job never ran: bounced by admission
  /// (kRejected), cancelled by its queueing deadline (kTimedOut), or
  /// bounced after exhausting its tenant's retry budget
  /// (kRetriesExhausted).
  enum class Outcome : std::uint8_t {
    kOk = 0,
    kRejected,
    kTimedOut,
    kRetriesExhausted,
  };

  double makespan_s = 0.0;   ///< job latency: release -> completion, virtual
                             ///< (sim) or wall (rt) seconds
  double tasks_per_s = 0.0;  ///< this job's tasks / makespan_s
  std::int64_t tasks = 0;    ///< nodes executed by this job
  Backend backend = Backend::kSim;
  Policy policy = Policy::kRws;
  JobId job = kInvalidJob;   ///< the job's id within its executor
  /// Service clock at the job's ARRIVAL (admission into its queue); for
  /// bare submits this is the release instant, as before — the arrival
  /// metadata job-stream benches export next to the latency percentiles.
  double arrival_s = 0.0;
  /// Arrival -> engine release: time spent queued behind the tenant's
  /// admission budget and fair-share turn. 0 for bare submits.
  double queue_s = 0.0;
  /// Session name the job was submitted under; empty for bare submits.
  std::string tenant;
  /// How the job ended (see Outcome). Anything but kOk means the job never
  /// reached the engine: makespan_s/tasks_per_s are 0 and stats are empty.
  Outcome outcome = Outcome::kOk;
  bool ok() const { return outcome == Outcome::kOk; }
  /// Engine-cumulative count of tasks re-executed after fail-stop faults
  /// reclaimed their first attempt, snapshotted when this job was waited
  /// (0 on a healthy run; monotone across jobs on the same executor).
  std::int64_t tasks_reexecuted = 0;
  /// One snapshot per rank (scheduling domain), taken when the job was
  /// waited. Counters accumulate across jobs on the same executor (see
  /// Executor::reset_stats()).
  std::vector<StatsSnapshot> stats;
  /// The config's timeline, when the backend recorded into one; else null.
  const Timeline* timeline = nullptr;
};

class Session;

/// drain_grouped() bucket: one tenant's drained results in completion-claim
/// order. `tenant` is empty (weight 0) for the bare-submit group.
struct TenantResults {
  std::string tenant;
  double weight = 0.0;
  std::vector<RunResult> results;
};

/// Engine-agnostic handle. Obtain via make_executor(); all engine state
/// (workers, PTT, stats, clock) lives for the handle's lifetime.
///
/// The executor is a *job service*: submit() registers a DAG as a job
/// without blocking, wait() blocks until one job completes, drain() waits
/// for everything in flight. Jobs in flight concurrently share the worker
/// pool, the queues and the learned PTT — the persistent-runtime regime of
/// paper §4.1.1. run() remains the submit+wait sugar every one-shot driver
/// uses. open_session() adds multi-tenant admission control and weighted
/// fair release on top (exec/session.hpp). On Backend::kRt the job API is
/// thread-safe (multiple submitter threads may drive one executor); on
/// Backend::kSim the event loop is single-threaded — drive a sim executor
/// from one thread.
///
/// CLAIM OWNERSHIP. Every job is claimed by exactly ONE finisher: the first
/// wait(id) / drain() / Session::drain() / drain_grouped() to reach it owns
/// its RunResult, and a second claim of the same id throws. drain() claims
/// every unclaimed job — including jobs submitted through sessions — so an
/// executor-level drain composes with concurrent per-id wait()ers but NOT
/// with a concurrent Session::drain() expecting to collect its own jobs;
/// pick one finisher per job. A Session going out of scope does not claim
/// or cancel anything: its in-flight jobs stay drainable on the executor.
class Executor {
 public:
  virtual ~Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Registers `dag` as a job and releases it to the engine; returns
  /// immediately. `dag` must stay alive until the job has been waited.
  JobId submit(const Dag& dag) { return submit(dag, SubmitOptions{}); }

  /// submit() with per-job options. `opts.arrival_offset_s` delays the
  /// release on the engine's clock — the DES schedules the roots at
  /// now() + offset in virtual time, which is how a job stream's arrival
  /// trace is replayed deterministically; Backend::kRt paces the release
  /// with a wall-clock timer thread in the service layer.
  JobId submit(const Dag& dag, const SubmitOptions& opts);

  /// Blocks until job `id` completes (or its rejection is recorded);
  /// returns its structured result (makespan_s = release -> completion
  /// latency). Claims the job: each job can be waited exactly once, and
  /// waiting an unknown/already-claimed id throws.
  RunResult wait(JobId id);

  /// wait() with a timeout on the engine clock (virtual seconds on sim —
  /// deterministic; wall seconds on rt). Returns nullopt when the job is
  /// still unfinished at the deadline; the job then remains in flight and
  /// UNCLAIMED, so a later wait()/wait_for()/drain() can finish it. The
  /// degrade-gracefully primitive: a driver facing a wedged backend gets
  /// control back instead of blocking forever.
  std::optional<RunResult> wait_for(JobId id, double timeout_s);

  /// Waits for every unclaimed job (bare and session-submitted alike), in
  /// submission order; returns their results (ordered by JobId). Empty
  /// when nothing is in flight. See the claim-ownership contract above.
  std::vector<RunResult> drain();

  /// drain(), grouped: the bare-submit group first (empty tenant name, only
  /// present when non-empty), then one TenantResults per session in
  /// open_session() order — including sessions with no unclaimed jobs, so
  /// positions are stable across calls.
  std::vector<TenantResults> drain_grouped();

  /// Opens a tenant session: subsequent Session::submit()s are admission-
  /// checked against `cfg`'s budget and released to the engine by weighted
  /// deficit round-robin (exec/session.hpp). The handle borrows this
  /// executor — destroy it before the executor; destroying it early leaves
  /// the tenant's in-flight jobs drainable here. Sim sessions are bitwise-
  /// deterministic: same seed + same submission sequence = same release
  /// trace and results.
  std::unique_ptr<Session> open_session(TenantConfig cfg);

  /// Executes every task of `dag`: submit + wait sugar. Callable
  /// repeatedly; the PTT keeps learning and stats accumulate across runs
  /// (iterative applications keep their learned model, like a persistent
  /// runtime).
  RunResult run(const Dag& dag) { return wait(submit(dag)); }

  /// Zeroes every rank's counters (task counts, busy time, elapsed).
  /// Stats ACCUMULATE across runs/jobs by default — multi-run bench deltas
  /// are silently skewed unless the driver resets between measurement
  /// sections. The learned PTT and the engine clock are NOT reset: the
  /// performance model persisting across jobs is the paper's point.
  /// Call only while no job is in flight.
  void reset_stats();

  virtual Backend backend() const = 0;
  Policy policy_kind() const { return policy_kind_; }
  virtual int num_ranks() const = 0;
  virtual const Topology& topology(int rank = 0) const = 0;
  /// Seconds on the engine's scenario clock: virtual time for the DES, wall
  /// seconds since construction for the real runtime. Drivers use it to
  /// open/close SpeedScenario interference windows mid-experiment.
  virtual double now() const = 0;

  virtual ExecutionStats& stats(int rank = 0) = 0;
  virtual PolicyEngine& policy(int rank = 0) = 0;
  virtual PttStore& ptt(int rank = 0) = 0;

 protected:
  Executor(Policy policy, const Timeline* timeline, ServiceConfig service)
      : policy_kind_(policy), timeline_(timeline), svc_(service) {}

  /// A submitted job's identity plus its release instant on the engine
  /// clock (RunResult::arrival_s for bare submits).
  struct JobTicket {
    JobId id = kInvalidJob;
    double arrival_s = 0.0;
  };
  /// Engine-specific submission; must not block on job execution.
  virtual JobTicket submit_job(const Dag& dag, double arrival_offset_s) = 0;
  /// Engine-specific completion latch; returns the job's makespan seconds.
  /// Takes the ENGINE job id (ServiceJob::engine_id), not the public id.
  virtual double wait_job(JobId id) = 0;

  // ---- service bridge (implemented per engine) ----------------------------
  // The admission/fairness layer below is engine-agnostic; these three
  // virtuals are how it borrows an engine's notion of blocking and time.

  /// What a service-layer wait is waiting FOR (svc_block_until).
  enum class SvcWait : std::uint8_t {
    kReleased,          ///< job released to the engine (or rejected)
    kAdmissionDecided,  ///< blocked submit admitted (or rejected)
  };
  /// Blocks until svc_cond_locked(cond, id) holds. The sim implementation
  /// pumps the virtual-time event loop (single thread, nothing else will);
  /// the rt implementation parks on svc_cv_, woken by worker/pacer threads.
  virtual void svc_block_until(SvcWait cond, JobId id) = 0;
  /// Arms a one-shot service timer ~offset_s from now on the engine clock,
  /// delivering on_timer(token): a virtual-time event on sim, a wall-clock
  /// pacer thread on rt.
  virtual void svc_arm_timer(double offset_s, std::uint64_t token) = 0;
  /// True when submit_job() itself honors arrival_offset_s (the DES virtual
  /// clock); false when deferred releases must go through svc_arm_timer
  /// (the rt pacer). Bare sim submits ride the engine path unchanged, which
  /// is what keeps single-tenant sim streams bitwise-identical to pre-
  /// service builds.
  virtual bool engine_defers_arrivals() const = 0;
  /// Timed completion probe for wait_for(): blocks until job `id` (public)
  /// is finishable without blocking — engine-complete, rejected, or timed
  /// out — returning true; or until `deadline_s` on the engine clock passes
  /// first, returning false. Sim pumps virtual time; rt parks on svc_cv_.
  virtual bool svc_finished_by(JobId id, double deadline_s) = 0;
  /// Engine-cumulative fail-stop re-execution counter (RunResult field).
  virtual std::uint64_t engine_tasks_reexecuted() const = 0;

  /// Lock-free-to-callers snapshot used by svc_finished_by implementations.
  struct JobProbe {
    bool terminal = false;  ///< rejected or timed out: finish without engine
    bool released = false;  ///< engine_id is valid
    JobId engine_id = kInvalidJob;
  };
  JobProbe probe_job_locked(JobId id) DAS_REQUIRES(svc_mu_);
  JobProbe probe_job(JobId id) {
    MutexLock g(svc_mu_);
    return probe_job_locked(id);
  }

  /// Engine completion callback: derived classes wire their engine's
  /// job-done hook here. No-op for engine jobs the service is not tracking
  /// (bare submits). Never called with any engine lock held.
  void on_engine_job_done(JobId engine_id);
  /// Service timer callback (token = public JobId): releases a deferred
  /// bare job or runs a deferred session arrival's admission check.
  void on_timer(std::uint64_t token);
  /// Re-evaluates `cond` for job `id`; kAdmissionDecided RETRIES admission
  /// (side effect: the job may be enqueued/rejected here).
  bool svc_cond_locked(SvcWait cond, JobId id) DAS_REQUIRES(svc_mu_);

  /// Protects all service state; never held while calling into wait_job,
  /// but held across submit_job (lock order: svc_mu_ -> engine lock).
  Mutex svc_mu_;
  /// Signaled on every release/rejection/completion (rt waiters).
  CondVar svc_cv_;

 private:
  friend class Session;

  /// One submitted job's service-layer record, public-id keyed. Lives from
  /// submit() until its RunResult is claimed and assembled.
  struct ServiceJob {
    int tenant = -1;  ///< index into tenants_; -1 = bare submit
    const Dag* dag = nullptr;
    std::int64_t tasks = 0;
    int priority = 0;
    double arrival_s = 0.0;  ///< service clock at admission
    double release_s = 0.0;  ///< engine clock at release
    JobId engine_id = kInvalidJob;
    double deadline_s = 0.0;  ///< SubmitOptions::deadline_s (0 = none)
    int retries = 0;          ///< admission retries already run
    bool arrived = false;   ///< admitted into its tenant queue
    bool released = false;  ///< handed to the engine
    bool rejected = false;  ///< bounced by Overload::kReject
    bool retries_exhausted = false;  ///< rejected after the retry budget
    bool timed_out = false;          ///< cancelled by its queueing deadline
    bool claimed = false;   ///< a finisher owns its RunResult
  };

  /// Service timer tokens: low 62 bits = public JobId, top 2 bits = kind.
  /// kTimerArrival (0) keeps the historical plain-id encoding, so existing
  /// sim timer traces are unchanged.
  enum : std::uint64_t {
    kTimerArrival = 0,
    kTimerDeadline = 1,
    kTimerRetry = 2,
  };
  static constexpr int kTimerKindShift = 62;
  static std::uint64_t timer_token(std::uint64_t kind, JobId id) {
    return (kind << kTimerKindShift) | static_cast<std::uint64_t>(id);
  }

  /// One tenant's queue + DRR accounting (exec/session.hpp).
  struct TenantState {
    TenantConfig cfg;
    /// priority -> FIFO of queued public ids; higher priority drains first.
    std::map<int, std::deque<JobId>, std::greater<int>> buckets;
    std::int64_t pending_tasks = 0;  ///< task-weighted queue depth
    int released_in_flight = 0;      ///< released, not yet completed
    double deficit = 0.0;            ///< DRR credit, in tasks
    bool in_ring = false;            ///< member of ring_ (buckets non-empty)
    TenantCounters counters;
  };

  JobId submit_impl(const Dag& dag, const SubmitOptions& opts, int tenant);
  /// Admission decision for a not-yet-arrived job: true when decided
  /// (enqueued or rejected), false when Overload::kBlock defers it.
  bool try_admit_locked(JobId id) DAS_REQUIRES(svc_mu_);
  /// Weighted-DRR release pump: releases queued jobs to the engine until
  /// every backlogged tenant is blocked by an in-flight bound (its own or
  /// the global one) or drained. Deterministic given the queue state.
  void pump_locked() DAS_REQUIRES(svc_mu_);
  /// Hands one queued job to the engine and updates the accounting.
  void release_locked(JobId id) DAS_REQUIRES(svc_mu_);
  /// Deadline expiry for a still-queued session job: removes it from its
  /// tenant's bucket and marks it Outcome::kTimedOut.
  void timeout_locked(JobId id) DAS_REQUIRES(svc_mu_);
  /// Blocks on an already-claimed job and assembles its RunResult.
  RunResult finish_claimed(JobId id);
  /// Claims the lowest unclaimed job (optionally of one tenant; -1 = any,
  /// -2 = bare only); kInvalidJob when none.
  JobId claim_next_locked(int tenant) DAS_REQUIRES(svc_mu_);
  std::vector<RunResult> drain_tenant(int tenant);
  TenantCounters counters_of(int tenant);

  Policy policy_kind_;
  const Timeline* timeline_;
  /// Immutable after construction; read without svc_mu_.
  const ServiceConfig svc_;

  std::map<JobId, ServiceJob> jobs_ DAS_GUARDED_BY(svc_mu_);
  /// Engine id -> public id, for completion hooks; tenant jobs only (bare
  /// jobs are invisible to the hooks — no accounting to update).
  std::map<JobId, JobId> engine_to_public_ DAS_GUARDED_BY(svc_mu_);
  std::vector<TenantState> tenants_ DAS_GUARDED_BY(svc_mu_);
  /// DRR round-robin ring of backlogged tenant indices + cursor. The
  /// credited flag marks that the cursor tenant already received this
  /// visit's quantum — a burst interrupted by the GLOBAL in-flight bound
  /// resumes at the same tenant without re-crediting losing its turn
  /// (otherwise a tight global cap degrades weighted shares to 1:1 RR).
  std::vector<std::size_t> ring_ DAS_GUARDED_BY(svc_mu_);
  std::size_t ring_cursor_ DAS_GUARDED_BY(svc_mu_) = 0;
  bool cursor_credited_ DAS_GUARDED_BY(svc_mu_) = false;
  int service_inflight_ DAS_GUARDED_BY(svc_mu_) = 0;
  JobId next_public_ DAS_GUARDED_BY(svc_mu_) = 0;
};

/// A tenant's handle on a shared executor (Executor::open_session). All
/// methods proxy to the executor under the tenant's admission/fairness
/// contract; thread-safety follows the backend (rt: any thread, sim: the
/// one driving thread). The handle borrows the executor — it must not
/// outlive it. Destroying the handle does NOT cancel the tenant's jobs
/// (they stay drainable via the executor; see the claim-ownership
/// contract in Executor).
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Admission-checked submit under this tenant (exec/session.hpp):
  /// returns immediately unless the tenant is over its queued-task budget
  /// with Overload::kBlock, in which case it blocks until the backlog
  /// drains (kBlock requires opts.arrival_offset_s == 0). With kReject the
  /// id is always returned; wait() reports `rejected` when it bounced.
  JobId submit(const Dag& dag, const SubmitOptions& opts = {}) {
    return exec_->submit_impl(dag, opts, tenant_);
  }

  /// submit() for a batch; one shared SubmitOptions. Order preserved.
  std::vector<JobId> submit_batch(const std::vector<const Dag*>& dags,
                                  const SubmitOptions& opts = {});

  /// Executor::wait — any job id may be waited through any handle; the
  /// session adds no claim of its own.
  RunResult wait(JobId id) { return exec_->wait(id); }

  /// Waits for every unclaimed job of THIS tenant (submission order).
  std::vector<RunResult> drain() { return exec_->drain_tenant(tenant_); }

  /// Snapshot of this tenant's monotonic service counters.
  TenantCounters counters() const { return exec_->counters_of(tenant_); }

  const std::string& name() const { return name_; }
  double weight() const { return weight_; }
  /// The tenant's index within its executor (drain_grouped() position,
  /// bare group excluded).
  int tenant() const { return tenant_; }

 private:
  friend class Executor;
  Session(Executor* exec, int tenant, std::string name, double weight)
      : exec_(exec), tenant_(tenant), name_(std::move(name)), weight_(weight) {}

  Executor* exec_;
  int tenant_;
  std::string name_;
  double weight_;
};

/// Single-domain factory: one topology, optional scenario in `config`.
/// Both backends accept every config; fields the chosen backend does not
/// understand are ignored (e.g. sim.* under Backend::kRt).
std::unique_ptr<Executor> make_executor(Backend backend, const Topology& topo,
                                        Policy policy,
                                        const TaskTypeRegistry& registry,
                                        ExecutorConfig config = {});
/// The executor keeps pointers to the topology and the registry, so a
/// temporary would dangle: pass objects that outlive the executor.
std::unique_ptr<Executor> make_executor(Backend, Topology&&, Policy,
                                        const TaskTypeRegistry&,
                                        ExecutorConfig = {}) = delete;
std::unique_ptr<Executor> make_executor(Backend, const Topology&, Policy,
                                        TaskTypeRegistry&&,
                                        ExecutorConfig = {}) = delete;

/// Multi-domain factory (the distributed experiments): one RankSpec per
/// scheduling domain. Backend::kRt accepts exactly one rank (the real
/// runtime is single-domain; use net::World for real multi-rank runs).
/// Ranks without their own scenario inherit config.scenario.
std::unique_ptr<Executor> make_executor(Backend backend,
                                        std::vector<sim::RankSpec> ranks,
                                        Policy policy,
                                        const TaskTypeRegistry& registry,
                                        ExecutorConfig config = {});
std::unique_ptr<Executor> make_executor(Backend, std::vector<sim::RankSpec>,
                                        Policy, TaskTypeRegistry&&,
                                        ExecutorConfig = {}) = delete;

}  // namespace das
