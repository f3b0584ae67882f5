#pragma once
// Real-thread moldable-task runtime (the XiTAO analogue of paper §4.1.2).
//
// One worker thread per topology core. Each worker owns
//   - an assembly queue (AQ): FIFO of participations in moldable tasks that
//     have already been given an execution place — always drained first;
//   - a steal-exempt inbox: high-priority tasks routed here by the
//     criticality-aware policies ("we disable the stealing of high priority
//     tasks", §4.1.2);
//   - a feeder: an MPSC side-channel through which OTHER threads (the
//     submitter, remote wake-ups under ablation options) hand it stealable
//     tasks — drained into the WSQ by the owner, preserving the Chase-Lev
//     single-owner invariant;
//   - a Chase-Lev WSQ of stealable (low-priority) tasks.
//
// Task lifetime follows the paper's Fig. 3: wake-up -> queue insertion
// (policy decides where) -> dequeue (width molding) -> insertion into the
// AQs of the place's cores -> cooperative execution -> last finisher updates
// the PTT and wakes dependents.
//
// Lock-free channel design. The paper's runtime must react to asymmetry
// faster than the asymmetry changes, so per-task handoff is the hot path.
// Inbox, AQ and feeder are intrusive Vyukov MPSC queues (util/mpsc_queue.hpp)
// rather than mutex-guarded deques: every TaskRec embeds one queue hook,
// `ready_hook`, which serves every channel role the task occupies one at a
// time — the inbox OR the feeder at wake-up, then AQ slot 0 at distribution
// (pop() only returns fully-unlinked nodes, so the hook is free again by
// then). A width-W assembly sits in W assembly queues simultaneously; its
// W-1 non-leader slots come from a per-job arena allocated lazily by the
// first wide distribute, so width-1 workloads never pay for it.
// Steady-state dispatch therefore performs no allocation and takes no lock:
// a push is one atomic exchange, a pop one acquire load.
//
// Memory-ordering contract of the handoff: a producer writes the task's
// routing state (`place`, `has_fixed_place`) BEFORE pushing; the MPSC push
// publishes with a release store that the consumer's pop acquires, so the
// consumer always observes a fully-routed task. The WSQ keeps the Chase-Lev
// orderings documented in rt/wsq.hpp. Idle workers park on a per-worker
// EventCount (util/eventcount.hpp) under the three-phase
// prepare/re-check/commit protocol; every push either targets a specific
// worker (inbox/AQ/feeder: notify that worker's eventcount) or is stealable
// (WSQ push: wake one worker from the parked-set registry). The seq_cst
// fences inside the eventcount close the push-vs-park race, so a parked
// worker never misses work and an idle pool burns ~0 CPU instead of
// spinning on the producers' cache lines.
//
// Job service: the runtime executes a *stream* of independent DAGs (jobs).
// submit() registers a job and releases its roots into the worker queues
// immediately; wait() blocks until that job's last task finishes, returns
// its wall-clock latency (submit -> completion) and retires the job's
// record block — the jobs_ map holds only jobs in flight. Jobs in flight
// concurrently interleave on the same workers, inboxes, WSQs and shared
// PTT — the persistent-runtime regime of paper §4.1.1, where the
// performance model keeps learning across application phases. submit() and
// wait() are thread-safe: multiple submitter threads may drive one runtime.
// run() remains submit+wait sugar for the one-shot case.
//
// Asymmetry is emulated: when an RtOptions::scenario is given, every
// participation is stretched by busy-waiting to the wall time a core of that
// effective speed would need (platform/throttle.hpp explains why this
// preserves the scheduling problem).

#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/dag.hpp"
#include "core/policy.hpp"
#include "core/ptt.hpp"
#include "core/task_type.hpp"
#include "platform/fault_plan.hpp"
#include "platform/speed_model.hpp"
#include "platform/throttle.hpp"
#include "platform/topology.hpp"
#include "rt/wsq.hpp"
#include "trace/stats.hpp"
#include "util/aligned.hpp"
#include "util/eventcount.hpp"
#include "util/mpsc_queue.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace das::rt {

struct RtOptions {
  std::uint64_t seed = kDefaultSeed;  ///< shared default (util/rng.hpp)
  bool pin_threads = false;            ///< best-effort pthread affinity
  const SpeedScenario* scenario = nullptr;  ///< asymmetry emulation; null = off
  PolicyOptions policy_options{};
  UpdateRatio ptt_ratio{};
  int stats_phases = 1;
  int steal_attempts_per_round = 4;    ///< victims probed before backing off
  /// Fail-stop / freeze schedule (scenario::resolve_faults output). A
  /// non-empty plan spawns the watchdog thread, which arms each fault at
  /// epoch + t_s and re-homes the retired workers' queued tasks.
  FaultPlan faults{};
  /// Runs the watchdog even with an empty plan — needed by
  /// inject_worker_wedge() and by services that want wedge detection on an
  /// otherwise healthy pool.
  bool enable_watchdog = false;
  double watchdog_period_s = 0.001;  ///< watchdog tick == detection grain
};

class Runtime {
 public:
  Runtime(const Topology& topo, Policy policy, const TaskTypeRegistry& registry,
          RtOptions options = {});
  // The runtime keeps pointers to the topology and the registry, so a
  // temporary would dangle.
  Runtime(Topology&&, Policy, const TaskTypeRegistry&, RtOptions = {}) = delete;
  Runtime(const Topology&, Policy, TaskTypeRegistry&&, RtOptions = {}) = delete;
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Registers `dag` as a job and releases its roots to the workers without
  /// blocking. `dag` must stay alive until the job has been wait()ed.
  /// Thread-safe: concurrent submitters interleave their jobs on the shared
  /// worker pool and PTT.
  JobId submit(const Dag& dag);

  /// Blocks until job `id` completes; returns its wall-clock latency in
  /// seconds (submit -> last task finished) and releases the job's record
  /// block (jobs_ stays bounded by the number of jobs in flight). Each job
  /// can be waited exactly once; waiting an unknown/already-waited id
  /// throws.
  double wait(JobId id);

  /// Executes every task of `dag`, returns wall seconds for this run
  /// (submit + wait). Callable repeatedly and concurrently; workers, PTT
  /// state and stats persist across runs.
  double run(const Dag& dag) { return wait(submit(dag)); }

  const Topology& topology() const { return *topo_; }
  ExecutionStats& stats() { return *stats_; }
  PolicyEngine& policy() { return *policy_; }
  PttStore& ptt() { return *ptt_; }
  /// True if every worker thread was successfully pinned.
  bool pinned() const { return pinned_; }
  /// Seconds elapsed since the runtime's construction — the time base of
  /// the RtOptions::scenario (drivers use it to open/close interference
  /// windows at application-level boundaries, cf. the paper's Fig. 9).
  double scenario_now() const;
  /// Jobs submitted but not yet wait()ed to completion (== the size of the
  /// internal job map: finished-and-waited jobs are erased eagerly).
  int jobs_in_flight() const;
  /// Non-blocking probe: has job `id` (submitted, not yet wait()ed)
  /// completed? The timed waits of Executor::wait_for poll this between
  /// parks instead of committing to the blocking wait().
  bool job_done(JobId id) const;
  /// Workers currently parked on their eventcount (advisory snapshot; the
  /// starved-pool tests use it to observe that idle workers sleep instead
  /// of spinning).
  int parked_workers() const;

  /// Tasks re-executed after a fail-stop reclaimed a participation (the
  /// at-least-once execution / exactly-once completion accounting of the
  /// fault-tolerance layer). 0 on a healthy run.
  std::uint64_t tasks_reexecuted() const {
    return tasks_reexecuted_.load(std::memory_order_relaxed);
  }
  /// Workers retired by the watchdog (planned fail-stops + detected wedges).
  int workers_failed() const {
    return workers_failed_.load(std::memory_order_relaxed);
  }
  /// Test API: makes worker `core` go silent at its next loop top — no
  /// heartbeat, no queue consumption, no self-quarantine — so the watchdog
  /// must DETECT the failure from heartbeat staleness and re-home its work.
  /// Requires the watchdog (RtOptions::enable_watchdog or a non-empty plan).
  void inject_worker_wedge(int core);

  /// Installs a hook invoked (from the finishing worker's thread) each time
  /// a job's last task completes, AFTER the runtime released its internal
  /// lock — the hook may call submit()/wait() on this runtime. Install
  /// before the first submit(); the exec-layer job service uses it to free
  /// per-tenant in-flight slots and release queued jobs.
  void set_job_done_hook(std::function<void(JobId)> hook);

 private:
  struct Job;  // fwd

  struct TaskRec {
    const DagNode* node = nullptr;
    NodeId id = kInvalidNode;
    Job* job = nullptr;             // owning job (set before publication)
    std::atomic<int> preds{0};
    bool has_fixed_place = false;   // written before publication
    ExecutionPlace place{};
    std::atomic<int> arrivals{0};
    std::atomic<int> departures{0};
    std::atomic<std::int64_t> start_ns{0};
    std::atomic<std::int64_t> max_busy_ns{0};  ///< slowest participant
    // Intrusive channel hook (allocation-free queue membership). A task is
    // in at most one wake-up channel at a time (inbox OR feeder), and by
    // the time distribute() runs it has been popped from whichever channel
    // held it — pop() only returns fully-unlinked nodes — so the same hook
    // serves as AQ slot 0. Wide assemblies take slots 1..W-1 from the
    // job's lazily-allocated wide-hook arena (see Job::wide_dir).
    MpscQueue::Node ready_hook;
  };

  /// Tasks covered by one wide-hook chunk (see Job::wide_dir). 256 tasks x
  /// (width-1) x 16-byte nodes keeps a chunk in the tens of kilobytes.
  static constexpr std::size_t kWideChunkTasks = 256;

  /// One in-flight job: its record block (one TaskRec per node), a
  /// lazily-allocated arena of AQ hooks for the non-leader slots of wide
  /// assemblies, and a completion latch. `outstanding` counts unfinished
  /// tasks; the worker that drops it to zero marks the job done under mu_
  /// and broadcasts cv_ — the per-job latch every wait(id) blocks on.
  struct Job {
    JobId id = kInvalidJob;
    const Dag* dag = nullptr;
    std::unique_ptr<TaskRec[]> records;
    /// Two-level lazy arena for the non-leader AQ hooks of wide
    /// assemblies: a CAS-published directory of `num_wide_chunks` chunk
    /// pointers, each chunk holding kWideChunkTasks x (max_place_width - 1)
    /// MpscQueue::Nodes and CAS-claimed by the first wide distribute() of a
    /// task in its range (wide_hooks()). Width-1 workloads never allocate
    /// either level, and a job with a handful of wide tasks pays for the
    /// touched chunks only, not num_nodes x (width-1) up front. The
    /// directory entries own their chunks (freed in ~Job); the unique_ptr,
    /// written only by the directory-CAS winner, owns the directory.
    std::atomic<std::atomic<MpscQueue::Node*>*> wide_dir{nullptr};
    std::unique_ptr<std::atomic<MpscQueue::Node*>[]> wide_dir_owner;
    std::size_t num_wide_chunks = 0;
    std::atomic<std::int64_t> outstanding{0};
    std::int64_t submit_ns = 0;
    std::int64_t done_ns = 0;
    // Guarded by the owning Runtime's mu_ (a nested struct cannot name the
    // outer instance's member in a guarded_by attribute; complete_job and
    // wait() only touch it under MutexLock).
    bool done = false;

    ~Job() {
      if (auto* dir = wide_dir.load(std::memory_order_acquire)) {
        for (std::size_t c = 0; c < num_wide_chunks; ++c)
          delete[] dir[c].load(std::memory_order_acquire);
      }
    }
  };

  struct alignas(kCacheLine) Worker {
    WsDeque<TaskRec> wsq;
    MpscQueue inbox;    // steal-exempt, fixed-place tasks
    MpscQueue aq;       // committed participations; drained first
    MpscQueue feeder;   // stealable handoffs from other threads
    EventCount ec;      // only this worker ever waits on it
    std::atomic<bool> parked{false};  // set before the pre-park work re-check
    Xoshiro256 rng;
    std::thread thread;
    // Fault-tolerance plumbing (rt/watchdog.cpp); all of it inert — never
    // loaded or stored — unless faults_armed_.
    std::atomic<std::uint64_t> heartbeat{0};   ///< bumped each loop top
    std::atomic<std::uint8_t> fault_state{0};  ///< FaultState transitions
    std::atomic<std::int64_t> freeze_until_ns{0};  ///< absolute thaw time
    std::atomic<bool> in_round{false};  ///< inside a progress round (may block
                                    ///< in run_work; exempt from wedge scan)
  };

  /// Worker::fault_state values. Healthy -> (kWedgeRequested |
  /// kQuarantineRequested) is written by the injector/watchdog; the worker
  /// itself publishes kQuarantined (release) right before it stops consuming
  /// its queues, which is the watchdog's license to become their sole
  /// consumer (acquire) and re-home what is left. A wedged worker never
  /// acks; the watchdog force-marks it kQuarantined after the heartbeat
  /// grace period, relying on in_round to prove it holds no queue pop.
  enum FaultState : std::uint8_t {
    kHealthy = 0,
    kWedgeRequested,       ///< test injection: go silent, never ack
    kQuarantineRequested,  ///< planned fail-stop: ack then retire
    kQuarantined,          ///< retired; queues belong to the watchdog
  };

  // worker.cpp
  void worker_main(int core);
  /// Steady-state progress round: one pop from the first non-empty channel
  /// (AQ, inbox, feeder/WSQ, steal), dispatched to completion.
  bool try_make_progress(int core);
  void participate(int core, TaskRec* task);
  /// Executes the node's work (or emulates its cost model), applies the
  /// scenario throttle, records busy time; returns this participant's busy
  /// nanoseconds.
  std::int64_t run_work(int core, TaskRec* task, int rank);
  /// Last-finisher tail: wake dependents, retire the task from its job.
  void finish_last(int core, TaskRec* task);
  void distribute(int core, TaskRec* task, const ExecutionPlace& place);
  TaskRec* try_steal(int core);
  /// `caller_is_worker` means the calling thread IS worker `waking_core`
  /// (enables the owner-only WSQ fast path; the submitter passes false).
  void wake_task(TaskRec* task, int waking_core, bool caller_is_worker);
  void push_stealable(int target_core, TaskRec* task, bool from_owner);
  /// Wakes one parked worker (if any) to come steal; `from_core` seeds the
  /// rotation so wakes spread instead of always hitting worker 0.
  void notify_stealers(int from_core);
  /// Pre-park re-check: anything this worker could do right now?
  bool has_work(int core) const;
  /// The (max_place_width_ - 1) AQ hooks for task `id`'s non-leader slots,
  /// from the job's two-level lazy arena (directory and chunks are
  /// allocated on first use; CAS losers free their block and adopt the
  /// winner's).
  MpscQueue::Node* wide_hooks(Job* job, NodeId id);
  void complete_job(Job* job);

  // rt/watchdog.cpp — the fault-tolerance layer. A participation reclaimed
  // from a dead worker's AQ is a "wounded" task: the watchdog (its sole
  // accountant) waits until every live participant of the doomed attempt
  // has departed, then resets the record and re-wakes it — at-least-once
  // execution, exactly-once completion, single requeuer by construction.
  struct Wounded {
    TaskRec* task = nullptr;
    int lost = 0;  ///< participations reclaimed from dead workers
  };
  void watchdog_loop();
  void drain_worker(int core, std::vector<Wounded>& wounded);
  void poll_wounded(std::vector<Wounded>& wounded);
  void requeue_task(TaskRec* task);
  /// Cyclic scan for a non-retired worker starting at `from`; aborts if the
  /// whole pool died (resolve_faults refuses such plans up front).
  int live_worker_after(int from) const;
  bool worker_dead(int c) const {  // callers gate on faults_armed_
    return dead_[static_cast<std::size_t>(c)].load(std::memory_order_acquire);
  }
  void quarantine_self(int core);  // ack + retire (thread exits)
  void wedge_self();               // go silent until shutdown
  void freeze_self(int core, std::int64_t thaw_ns);

  // runtime.cpp
  void submit_roots(Job& job);

  const Topology* topo_;
  const TaskTypeRegistry* registry_;
  RtOptions options_;
  std::unique_ptr<PttStore> ptt_;
  std::unique_ptr<PolicyEngine> policy_;
  std::unique_ptr<ExecutionStats> stats_;
  std::unique_ptr<SpeedEmulator> emulator_;  // null when no scenario
  std::int64_t epoch_ns_ = 0;
  int max_place_width_ = 1;  ///< widest valid place; sizes the AQ arenas

  std::vector<std::unique_ptr<Worker>> workers_;
  bool pinned_ = true;

  // Parking registry: parked_count_ lets producers skip the wake scan when
  // nobody sleeps; Worker::parked marks scan candidates. Workers set both
  // BEFORE their pre-park has_work() re-check (the Dekker pairing with
  // notify_stealers' fence — see util/eventcount.hpp).
  std::atomic<int> parked_count_{0};
  std::atomic<bool> shutdown_{false};

  // Fault-tolerance state (rt/watchdog.cpp). faults_armed_ is written once
  // before the workers spawn; every per-dispatch fault check hides behind
  // it, so a healthy runtime pays one predictable branch. dead_[c] flips
  // true exactly once, when worker c's queues pass to the watchdog; wake
  // routing and place molding consult it to steer new work to survivors.
  bool faults_armed_ = false;
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::atomic<std::uint64_t> tasks_reexecuted_{0};
  std::atomic<int> workers_failed_{0};
  std::thread watchdog_;

  // Job coordination. jobs_ and the per-job `done` flags are guarded by
  // mu_; cv_ is the per-job completion latch (workers park on their
  // eventcounts, not on cv_). active_jobs_ is atomic so complete_job can
  // close the stats window without re-reading the map.
  mutable Mutex mu_;
  CondVar cv_;
  std::atomic<int> active_jobs_{0};
  std::unordered_map<JobId, std::unique_ptr<Job>> jobs_ DAS_GUARDED_BY(mu_);
  JobId next_job_ DAS_GUARDED_BY(mu_) = 0;
  // Stats attribution: elapsed accumulates only wall time while >= 1 job is
  // in flight (the union of job windows), so overlapping jobs are not
  // double-counted and sequential runs sum exactly as before.
  std::int64_t busy_window_start_ns_ DAS_GUARDED_BY(mu_) = 0;
  // Job-completion hook (see set_job_done_hook). Written once before any
  // submit, read by worker threads without mu_ — the install happens-before
  // every completion via the submit that publishes the job.
  std::function<void(JobId)> job_done_hook_;
};

}  // namespace das::rt
