#pragma once
// Discrete-event execution engine.
//
// Simulates the XiTAO-style runtime of paper §4.1.2 — per-worker
// work-stealing queue (WSQ), steal-exempt priority inbox, FIFO assembly
// queue (AQ), moldable assemblies — in deterministic virtual time. Task
// durations come from the task type's analytic cost model evaluated against
// the SpeedScenario at the participant's start instant, optionally perturbed
// by lognormal measurement noise.
//
// The engine drives the *same* PolicyEngine and Ptt code as the real-thread
// runtime, so scheduling behaviour (searches, exploration, steal-exemption)
// is shared, not re-implemented. It exists because the paper's figures
// depend on relative core speeds that the build machine does not have: in
// virtual time the TX2's asymmetry, the DVFS square wave and the co-runner
// interference are exact, and every figure regenerates bit-identically from
// a seed.
//
// Hot-path design (bench/sim_throughput.cpp is the regression sentinel; the
// golden determinism test pins that none of this perturbs the event or RNG
// streams):
//   - per-core queues are flat ring buffers reused across jobs (no
//     steady-state allocation, O(1) pops at both WSQ ends);
//   - an idle-core bitmap (bit set <=> no pending wake/done event) lets a
//     stealable push wake exactly the idle cores of the rank in ascending
//     core order without scanning every core;
//   - a WSQ-occupancy bitmap gives try_steal its victim count and the k-th
//     victim by bit rank, replacing the per-call victim vector while
//     preserving the seeded victim-selection stream;
//   - jobs live in a slot-indexed table (free-list reuse) with a flat
//     JobId -> slot window, so per-event job resolution is two array
//     loads, not a std::map walk;
//   - release fan-out walks the DAG's sealed CSR adjacency arena.
//
// Job service: the engine executes a *stream* of independent DAGs (jobs)
// over one persistent worker/PTT state. submit() releases a job's roots at
// now() + arrival_offset in virtual time; wait() advances the event loop
// until that job's last task completes and returns its makespan (release ->
// completion). Jobs whose release windows overlap interleave on the same
// queues exactly like concurrent applications sharing a runtime; the event
// queue's (time, insertion-sequence) order makes any fixed submission trace
// bitwise replayable. run() remains submit+wait sugar for the one-shot case.
//
// Multi-rank mode: each rank (MPI-process analogue) has its own topology,
// scenario, policy, PTT and stats; work stealing never crosses ranks; DAG
// edges between ranks carry a network delay (DagEdge::delay_s).
//
// Sharded DES: ALL mutable per-rank simulation state — event queue,
// virtual clock, RNG stream, core rings, idle/WSQ bitmaps, event counter —
// lives in a per-rank Shard arena; event payloads carry rank-LOCAL core
// ids, so the hot handlers never resolve a global core to a rank at all. A
// single-rank engine is exactly shard 0 and byte-for-byte reproduces the
// historical event/RNG streams (the sim_determinism goldens pin this). A
// multi-rank engine runs a conservative (Chandy-Misra-style) time-window
// protocol over the shards, on the calling thread:
//
//   window:  [W, W + L], L = min cross-rank DagEdge::delay_s over the
//            in-flight jobs (Dag::min_cross_rank_delay(), sealed metadata);
//            W = min next-event time across shards.
//   phase 1: in ascending rank order, every shard processes its local
//            events with time <= W + L; cross-rank releases are appended
//            to the destination shard's boundary inbox, never pushed into
//            its live event queue.
//   phase 2: every shard moves its inbox into its event queue in append
//            order — (sender rank, FIFO), since phase 1 ran the senders in
//            rank order — and clears it.
//
// Because a cross-rank release sent from t_send >= W arrives at
// t_send + delay >= W + L, nothing can land inside a horizon a rank already
// processed, and the window partition and inbox order (hence every
// same-time tie-break) are pure functions of the event streams.
// tests/multi_rank_sim_test.cpp pins the result per rank: makespan, trace
// hash and event count. The ranks do not run on threads: a threaded
// variant of this protocol measured 0.07-1.04x the serial speed on 4 ranks
// (README, "Multi-rank simulation").

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/dag.hpp"
#include "core/policy.hpp"
#include "core/ptt.hpp"
#include "core/task_type.hpp"
#include "platform/fault_plan.hpp"
#include "platform/speed_model.hpp"
#include "platform/topology.hpp"
#include "sim/event_queue.hpp"
#include "trace/stats.hpp"
#include "trace/timeline.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"

namespace das::sim {

struct SimOptions {
  std::uint64_t seed = kDefaultSeed;  ///< shared default (util/rng.hpp)
  double dispatch_overhead_s = 1e-6;  ///< dequeue -> assembly insertion cost
  double steal_latency_s = 2e-6;      ///< successful steal round-trip
  /// Bookkeeping a finishing participant performs (PTT update, waking the
  /// dependents) before it looks for new work. This matters: it gives a
  /// just-released high-priority assembly time to reach the finisher's AQ,
  /// so the finisher joins it instead of grabbing a low-priority child from
  /// its own WSQ first (priority inversion).
  double completion_overhead_s = 2e-6;
  /// Idle workers back off (XiTAO-style sleep between failed steal sweeps),
  /// so a task pushed while a core sleeps is noticed only after this delay.
  /// Busy cores re-examine their queues immediately on completion.
  double idle_wake_delay_s = 200e-6;
  bool noise = true;                  ///< lognormal measurement noise
  int stats_phases = 1;               ///< phase dimension of ExecutionStats
  /// Unused: nothing reads it. Multi-rank engines always run the window
  /// protocol on the calling thread. Kept only because the checked-in
  /// benchmark harness (perfbench/sim_halo.cpp) still assigns it; the next
  /// change to that harness deletes both.
  int des_threads = 1;
  /// Fold every processed event (time, kind, core, job, task, waker) into
  /// a per-rank FNV-1a trace hash, exposed by trace_hash(rank). The
  /// multi-rank golden tests pin these; off by default so the hot loop
  /// pays one predicted-untaken branch.
  bool hash_traces = false;
  PolicyOptions policy_options{};
  UpdateRatio ptt_ratio{};
  /// Optional execution timeline (Chrome trace export); not owned.
  Timeline* timeline = nullptr;
};

/// One scheduling domain (a machine node). `scenario` and `faults` may be
/// null; a non-empty fault plan (cores of THIS rank, rank-local ids) seeds
/// fail-stop/freeze events into the rank's shard at construction.
struct RankSpec {
  const Topology* topo = nullptr;
  const SpeedScenario* scenario = nullptr;
  const FaultPlan* faults = nullptr;
};

class SimEngine {
 public:
  SimEngine(std::vector<RankSpec> ranks, Policy policy,
            const TaskTypeRegistry& registry, SimOptions options = {});
  /// Single-rank convenience.
  SimEngine(const Topology& topo, Policy policy, const TaskTypeRegistry& registry,
            SimOptions options = {}, const SpeedScenario* scenario = nullptr,
            const FaultPlan* faults = nullptr);
  // The engine keeps pointers to the topology and the registry, so a
  // temporary would dangle.
  SimEngine(std::vector<RankSpec>, Policy, TaskTypeRegistry&&,
            SimOptions = {}) = delete;
  SimEngine(Topology&&, Policy, const TaskTypeRegistry&, SimOptions = {},
            const SpeedScenario* = nullptr,
            const FaultPlan* = nullptr) = delete;
  SimEngine(const Topology&, Policy, TaskTypeRegistry&&, SimOptions = {},
            const SpeedScenario* = nullptr,
            const FaultPlan* = nullptr) = delete;

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Registers `dag` as a job whose roots release at now() + arrival_offset_s
  /// virtual seconds, without advancing the clock. `dag` must stay alive
  /// until the job has been wait()ed. Submissions are part of the replayable
  /// trace: the same (seed, submit/arrival sequence) is bitwise deterministic.
  JobId submit(const Dag& dag, double arrival_offset_s = 0.0);

  /// Advances the event loop until job `id` completes (events of other
  /// in-flight jobs interleave in virtual-time order) and returns the job's
  /// makespan: completion - release, in virtual seconds. Each job can be
  /// waited exactly once; waiting an unknown/already-waited id throws.
  double wait(JobId id);

  /// Executes every task of `dag` and returns the run's makespan in virtual
  /// seconds (submit + wait). May be called repeatedly: the virtual clock,
  /// the PTTs and the stats accumulate across runs (iterative applications
  /// keep their learned model, exactly like a persistent runtime).
  double run(const Dag& dag) { return wait(submit(dag)); }

  /// Virtual clock: the single shard's clock, or — multi-rank — the latest
  /// instant any rank has simulated to (ranks inside one committed window
  /// are mutually unordered; the max is the cluster's wall clock).
  double now() const;
  /// Events dispatched since construction (wakes, completions, releases,
  /// root drops), summed over ranks. The simulator-throughput bench divides
  /// this by wall time; it is also a cheap cross-check that two runs took
  /// identical paths.
  std::uint64_t events_processed() const;
  /// Events dispatched by one rank's shard (per-rank bench reporting and
  /// the multi-rank golden tests).
  std::uint64_t events_processed(int rank) const;
  /// FNV-1a hash of the rank's processed-event trace; 0 unless
  /// SimOptions::hash_traces. Two runs with equal hashes per rank took
  /// bitwise-identical per-rank event paths.
  std::uint64_t trace_hash(int rank = 0) const;
  /// The window lookahead currently in force: min cross-rank delay over
  /// every job submitted so far (+inf before the first cross-rank edge).
  double lookahead_s() const { return lookahead_; }
  int num_ranks() const { return static_cast<int>(ranks_.size()); }
  /// Jobs submitted but not yet wait()ed to completion.
  int jobs_in_flight() const { return live_jobs_; }
  /// Fail-stop recovery accounting, summed over ranks: tasks re-released to
  /// survivors after losing at least one participant, and cores fail-stopped
  /// so far. Deterministic functions of (seed, fault plan, submission trace).
  std::uint64_t tasks_reexecuted() const;
  int cores_failed() const;

  ExecutionStats& stats(int rank = 0);
  const ExecutionStats& stats(int rank = 0) const;
  PolicyEngine& policy(int rank = 0);
  PttStore& ptt(int rank = 0);

  /// Virtual completion time of a node of the most recently wait()ed job.
  double completion_time(NodeId id) const;

  // --- service hooks (the exec-layer session/admission machinery) ----------
  // The job-service layer above the engine needs two notifications delivered
  // in event order: "job X finished at t" (to free an in-flight slot and
  // release queued jobs) and "timer T fired at t" (deferred tenant
  // arrivals). Both MAY re-enter the engine (submit(), schedule_timer()), so
  // they are NOT invoked from inside step() — step holds a live Job& while
  // job_slots_ could reallocate under a re-entrant submit. Instead step()
  // records them in a deferred list that pump_one() delivers after the
  // handler frame unwinds. Without hooks installed nothing is recorded and
  // the event/RNG streams are bit-identical to the bare engine.

  /// Installs the service hooks. Must be called before the first event that
  /// would fire one; typically right after construction.
  void set_service_hooks(std::function<void(JobId, double)> job_done,
                         std::function<void(std::uint64_t, double)> timer);
  /// Schedules a timer event at now() + offset_s carrying `token` back to
  /// the timer hook (rank 0's event stream). Requires service hooks
  /// installed.
  void schedule_timer(double offset_s, std::uint64_t token);
  /// Advances the simulation by one quantum — one event (single-rank), one
  /// conservative window (multi-rank) — then delivers any deferred service
  /// notifications it produced; returns false (advancing nothing) when
  /// every event queue is empty. Hooks may submit()/schedule_timer() but
  /// must not re-enter pump_one()/wait().
  bool pump_one();
  /// True once job `id`'s last task completed. `id` must be in flight
  /// (submitted, not yet wait()ed).
  bool job_done(JobId id) { return job_of(id).done; }

 private:
  enum class Ev : std::uint8_t { kWake, kDone, kRelease, kRoot, kTimer, kFault };
  struct Event {
    Ev kind;
    int core = -1;             // rank-LOCAL core id (kWake, kDone)
    JobId job = kInvalidJob;   // owning job (kDone, kRelease, kRoot)
    NodeId task = kInvalidNode;
    int from_core = -1;        // releasing LOCAL core, or kRemoteWaker
  };
  /// from_core sentinel on releases that crossed a rank boundary: the
  /// remote core id is meaningless here, and make_ready must take the
  /// affinity path (a remote completion cannot name local queues).
  static constexpr int kRemoteWaker = -2;

  /// A staged cross-rank release waiting in a destination shard's inbox.
  struct BoundaryMsg {
    double time;
    Event ev;
  };

  // FIFO lanes of the event queue (see sim/event_queue.hpp): each carries
  // one class of event whose delay from now() is a fixed constant, so its
  // timestamps are nondecreasing by construction and it needs no heap.
  static constexpr int kLaneImmediate = 0;   // direct wakes, 0-delay releases
  static constexpr int kLaneDispatch = 1;    // now + dispatch_overhead_s
  static constexpr int kLaneCompletion = 2;  // now + completion_overhead_s
  static constexpr int kLaneSteal = 3;       // now + steal + dispatch
  static constexpr int kNumLanes = 4;

  /// A task reference as queued: jobs interleave on the same per-core
  /// queues, so every entry names its job.
  struct QueuedTask {
    JobId job = kInvalidJob;
    NodeId task = kInvalidNode;
  };

  struct Participation {
    JobId job;
    NodeId task;
    int rank_in_assembly;
  };

  /// Per-core queues are flat rings, reused across jobs: pushing and
  /// popping allocate nothing in steady state, and the thief-side FIFO pop
  /// is O(1) instead of vector::erase(begin())'s memmove.
  struct CoreState {
    RingBuffer<QueuedTask> inbox;      // steal-exempt FIFO (pop front)
    RingBuffer<QueuedTask> wsq;        // owner pops back, thieves pop front
    RingBuffer<Participation> aq;      // FIFO (pop front)
    bool active = false;               // has a pending kWake/kDone event
    bool busy = false;                 // mid-participation (invariant check)
    /// Fail-stopped: queues reclaimed, active pinned true forever so
    /// activate() no-ops and the idle-bitmap sweep never wakes it again.
    bool dead = false;
    /// Freeze thaw instant: pending kWake/kDone popped before this are
    /// re-pushed at it (no progress inside the window). -inf-free sentinel.
    double frozen_until = -1.0;
    /// The participation currently executing (valid while busy): lets a
    /// core-death event reclaim its in-flight task. Written unconditionally
    /// — a plain store never perturbs the event/RNG streams.
    Participation running{};
  };

  struct TaskState {
    bool has_fixed_place = false;
    ExecutionPlace place{};
    int arrivals = 0;
    int departures = 0;
    /// Participations lost to core deaths: the task re-releases (fresh
    /// attempt on survivors) once departures + lost == place.width — live
    /// participants always finish their busy window first, so completion
    /// stays exactly-once.
    int lost = 0;
    double first_arrival = 0.0;
    double max_cost = 0.0;  ///< slowest participant's busy time
    double completion = -1.0;
    /// Registry row, resolved ONCE at make_ready: every participant of the
    /// task (cost evaluation + noise sigma) reads this instead of repeating
    /// the registry lookup. Valid for the task's lifetime — registering
    /// types mid-run is already unsupported (the PTT is sized at engine
    /// construction).
    const TaskTypeInfo* type_info = nullptr;
  };

  // Deferred service notifications (see set_service_hooks): appended by the
  // event handlers in event order, drained by pump_one() after the quantum
  // completes. Empty unless hooks are installed.
  struct Deferred {
    bool timer = false;
    std::uint64_t id = 0;  // JobId (done) or timer token
    double time = 0.0;
  };

  /// One in-flight job: its DAG, per-node state, and completion accounting.
  /// Lives in a reusable slot of job_slots_ (the tasks array's capacity
  /// survives slot reuse, so job churn stops allocating). `tasks` is an
  /// overwrite array, not a vector: entries are UNINITIALIZED until
  /// make_ready's first-touch reset, so a million-node submit does not
  /// sweep 50 MB of task state it is about to overwrite anyway.
  ///
  /// Sharing across ranks: dag/preds/tasks entries are only ever touched by
  /// the rank owning the node, so the only cross-rank fields are the
  /// completion accounting below. Multi-rank handlers take `finish_s` as
  /// the max over completion instants, because shards finish a window in
  /// rank order, not in virtual-time order.
  struct Job {
    const Dag* dag = nullptr;
    std::unique_ptr<TaskState[]> tasks;
    std::size_t tasks_cap = 0;
    /// Remaining-predecessor countdown, one int per node — separate from
    /// TaskState so submit seeds it with one flat copy from the DAG's
    /// sealed predecessor_counts() instead of a strided scatter.
    std::vector<std::int32_t> preds;
    std::int64_t completed = 0;
    double release_s = 0.0;   ///< virtual arrival instant of the roots
    double finish_s = -1.0;   ///< completion of the last task; -1 while open
    bool done = false;
  };

  /// Per-rank immutable configuration + learning state (the PTT/policy/
  /// stats were always rank-local; they stay here, next to the shard that
  /// is the only writer).
  struct Rank {
    const Topology* topo;
    const SpeedScenario* scenario;
    std::unique_ptr<PttStore> ptt;
    std::unique_ptr<PolicyEngine> policy;
    std::unique_ptr<ExecutionStats> stats;
    int first_core = 0;  // global core id of this rank's core 0 (timeline)
  };

  /// ALL mutable per-rank simulation state, one cacheline-aligned arena per
  /// rank. Core ids inside a shard are rank-local [0, num_cores) — the
  /// cross-rank hot path does no rank_of_core resolution at all. Single-rank engines have exactly one
  /// shard and local == global.
  struct alignas(64) Shard {
    int rank = 0;
    int num_cores = 0;
    EventQueue<Event> events;
    double now = 0.0;
    std::uint64_t events_processed = 0;
    std::uint64_t trace_hash = 0xcbf29ce484222325ULL;  // FNV offset basis
    Xoshiro256 rng{0};
    std::vector<CoreState> cores;
    std::vector<std::uint64_t> idle_bits;  // bit set <=> !cores[c].active
    std::vector<std::uint64_t> wsq_bits;   // bit set <=> !cores[c].wsq.empty()
    std::vector<Deferred> deferred;
    /// This rank's resolved fault schedule (empty without faults). Seeded
    /// into the event heap at construction; kFault events carry an index
    /// into this vector in their job field.
    std::vector<CoreFault> faults;
    std::uint64_t tasks_reexecuted = 0;
    int cores_failed = 0;
    /// In-bound cross-rank releases staged by window phase 1, moved into
    /// `events` by phase 2. Cleared, capacity kept, every window.
    std::vector<BoundaryMsg> boundary_inbox;

    double next_event_time() const;
  };

  /// API-boundary resolution (submit/wait): throws on unknown ids.
  Job& job_of(JobId id);
  /// Hot-path resolution: event payloads only ever name live jobs, so this
  /// is two array loads behind an assert.
  Job& job_at(JobId id) {
    const auto idx = static_cast<std::size_t>(id - lookup_base_);
    DAS_ASSERT(id >= lookup_base_ && idx < job_lookup_.size() &&
               job_lookup_[idx] >= 0);
    return job_slots_[static_cast<std::size_t>(job_lookup_[idx])];
  }
  const DagNode& node_of(const Job& job, NodeId id) const { return job.dag->node(id); }

  // --- core activity / occupancy bitmaps -----------------------------------
  // idle_bits mirrors !CoreState::active (bit set = idle, may be woken);
  // wsq_bits mirrors !CoreState::wsq.empty() (bit set = steal victim).
  // Every transition routes through these helpers so the bitmaps can never
  // drift from the per-core flags they index. All ids are shard-local.
  static void set_active(Shard& sh, int core) {
    sh.cores[static_cast<std::size_t>(core)].active = true;
    sh.idle_bits[static_cast<std::size_t>(core) >> 6] &=
        ~(std::uint64_t{1} << (core & 63));
  }
  static void set_inactive(Shard& sh, int core) {
    sh.cores[static_cast<std::size_t>(core)].active = false;
    sh.idle_bits[static_cast<std::size_t>(core) >> 6] |=
        std::uint64_t{1} << (core & 63);
  }
  static void wsq_push(Shard& sh, int core, const QueuedTask& qt) {
    CoreState& cs = sh.cores[static_cast<std::size_t>(core)];
    if (cs.wsq.empty())
      sh.wsq_bits[static_cast<std::size_t>(core) >> 6] |=
          std::uint64_t{1} << (core & 63);
    cs.wsq.push_back(qt);
  }
  static void wsq_mark_if_empty(Shard& sh, int core) {
    if (sh.cores[static_cast<std::size_t>(core)].wsq.empty())
      sh.wsq_bits[static_cast<std::size_t>(core) >> 6] &=
          ~(std::uint64_t{1} << (core & 63));
  }
  /// The word range [lo, hi) masked out of `bits`, for bitmap scans.
  static std::uint64_t masked_word(const std::vector<std::uint64_t>& bits,
                                   int word, int lo, int hi);

  /// `direct` models an explicit wake signal to the target worker (used for
  /// steal-exempt placements): no backoff-sleep jitter is added.
  void activate(Shard& sh, int core, double at, bool direct = false);
  /// activate(c, t) for every idle core of the shard in ascending core
  /// order — the bitmap replacement for the all-cores activation sweep.
  void wake_idle_cores(Shard& sh, double t);
  bool events_pending() const;
  /// Outlined kTimer record (the call site sits inside the step hot-path
  /// lint region; the deferred-list push must not).
  void note_timer_fired(Shard& sh, const Event& e, double t);

  // --- event handlers ------------------------------------------------------
  // Every handler operates on ONE shard. The policy hooks (core/policy.hpp)
  // and cost_eval (core/cost_expr.hpp) are header-inline, so they fold into
  // these handlers.
  /// Pops and dispatches the shard's next event.
  void step(Shard& sh);
  void handle_wake(Shard& sh, int core, double t);
  void handle_done(Shard& sh, const Event& e, double t);
  // --- fail-stop / freeze machinery (engine.cpp, outside the lint regions) --
  // Everything below is reached only when faults_enabled_; an empty fault
  // plan leaves the event and RNG streams byte-identical to the bare engine
  // (the determinism goldens pin this).
  /// kFault dispatch: freeze extends the core's thaw instant; fail-stop
  /// marks the core dead, reclaims its inbox/WSQ entries (re-homed to a
  /// survivor) and counts its queued + in-flight participations lost.
  void handle_fault(Shard& sh, const Event& e, double t);
  /// One participation lost to a core death; re-releases the task when no
  /// live participant remains outstanding.
  void reclaim_participation(Shard& sh, JobId job_id, NodeId id, double t);
  /// Re-releases a task whose attempt lost participants (exactly-once: the
  /// lost attempt recorded no completion).
  void requeue_lost(Shard& sh, JobId job_id, NodeId id, double t);
  /// Outlined freeze deferral (the call site sits inside the step hot-path
  /// lint region; the heap push must not).
  void defer_frozen(Shard& sh, const Event& e, double until);
  /// First live core at or cyclically after `from`; checks the rank still
  /// has survivors.
  int live_fallback_core(const Shard& sh, int from) const;
  void handle_release(Shard& sh, const Event& e, double t);
  void make_ready(Shard& sh, JobId job, NodeId id, int waking_core, double t);
  void start_participation(Shard& sh, int core, const Participation& p,
                           double t);
  bool try_steal(Shard& sh, int core, double t);
  double participation_cost(Shard& sh, const Job& job, NodeId id, int core,
                            int rank_in_assembly, double t);
  void distribute(Shard& sh, Job& job, JobId job_id, NodeId id,
                  const ExecutionPlace& place, double t);
  static double lognormal_noise(Shard& sh, double sigma);

  // --- conservative window protocol (multi-rank) ---------------------------
  /// Phase 1 of the current window for one shard: process local events up
  /// to and including `hi`, staging cross-rank releases.
  void window_phase1(Shard& sh, double hi);
  /// Phase 2: move the shard's boundary inbox into its event queue in
  /// append order (the deterministic seq assignment).
  static void window_phase2(Shard& sh);
  /// Runs one complete window [W, W + lookahead_] over all shards in rank
  /// order; returns false (running nothing) when every queue is empty.
  bool run_window();
  /// Delivers the deferred service notifications of every shard in rank
  /// order (event order within a shard), then clears them.
  void deliver_deferred();

  std::vector<Rank> ranks_;
  std::vector<Shard> shards_;
  const TaskTypeRegistry* registry_;
  SimOptions options_;
  /// Any rank has a non-empty fault plan. Gates every fault check in the
  /// hot handlers behind one predicted-untaken branch.
  bool faults_enabled_ = false;

  // Slot-indexed job table. JobIds are handed out monotonically, so the
  // id -> slot resolution is a flat window [lookup_base_, next_job_): two
  // array loads per event instead of a std::map walk. Completed ids mark
  // their window entry -1; the dead prefix is trimmed amortized-O(1).
  std::vector<Job> job_slots_;
  std::vector<std::int32_t> free_slots_;
  std::vector<std::int32_t> job_lookup_;  // [id - lookup_base_] -> slot | -1
  JobId lookup_base_ = 0;
  std::size_t lookup_dead_prefix_ = 0;
  int live_jobs_ = 0;
  JobId next_job_ = 0;
  double elapsed_mark_ = 0.0;  ///< now() at the end of the previous wait()
  // completion_time() source: the most recent wait()'s task array (swapped
  // out of the retiring job, counted entries only are meaningful).
  std::unique_ptr<TaskState[]> last_waited_tasks_;
  std::size_t last_waited_cap_ = 0;
  std::size_t last_waited_count_ = 0;

  std::function<void(JobId, double)> job_done_hook_;
  std::function<void(std::uint64_t, double)> timer_hook_;

  // --- window protocol state (multi-rank only) -----------------------------
  /// Conservative lookahead: min Dag::min_cross_rank_delay() over every job
  /// ever submitted. Monotone non-increasing — a deterministic function of
  /// the submission trace, which is what makes the window partition (and
  /// with it every cross-rank seq assignment) replayable.
  double lookahead_ = std::numeric_limits<double>::infinity();
};

}  // namespace das::sim
