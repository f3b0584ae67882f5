#pragma once
// Execution statistics shared by both engines.
//
// Collects exactly what the paper's evaluation plots need:
//   - task counts per (priority, execution place), optionally segmented into
//     *phases* (application iterations) — Figures 5 and 9(b,c);
//   - per-core cumulative kernel busy time, excluding runtime activity and
//     idleness — Figure 6;
//   - total tasks / elapsed time => throughput — Figures 4, 7, 10.
//
// Accumulation is thread-safe and wait-free: per-core padded atomics for
// busy time and a dense atomic counter grid for place counts.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/task_type.hpp"
#include "platform/topology.hpp"
#include "util/aligned.hpp"

namespace das {

/// Value-type copy of an ExecutionStats at one instant — what RunResult
/// carries back to drivers so results stay inspectable after the engine
/// (and its live ExecutionStats) is gone.
struct StatsSnapshot {
  std::int64_t tasks_total = 0;
  std::int64_t tasks_high = 0;   ///< high-priority (critical) tasks
  std::int64_t tasks_low = 0;
  double elapsed_s = 0.0;        ///< engine-reported elapsed seconds
  double total_busy_s = 0.0;
  std::vector<double> busy_s;    ///< per-core kernel busy time, index = core
  /// Fraction of high-priority tasks per execution place, descending share
  /// (zero-count places omitted) — the paper's Fig. 5 data.
  std::vector<std::pair<ExecutionPlace, double>> high_distribution;
};

class ExecutionStats {
 public:
  /// `num_phases` >= 1; phase 0 is used unless set_phase() is called.
  explicit ExecutionStats(const Topology& topo, int num_phases = 1);

  const Topology& topology() const { return *topo_; }
  int num_phases() const { return num_phases_; }

  /// Sets the phase tag for subsequently recorded tasks (driver calls this
  /// at iteration boundaries; engines never touch it).
  void set_phase(int phase);
  int phase() const { return phase_.load(std::memory_order_relaxed); }

  /// Records a completed task: its priority and where it ran. Tagged with
  /// the current phase (see set_phase).
  void record_task(Priority priority, int place_id);
  /// Same, with an explicit phase tag (clamped to the phase dimension);
  /// engines use this with DagNode::phase so concurrent workers recording
  /// tasks of different iterations never race on set_phase.
  void record_task_at(Priority priority, int place_id, int phase);
  /// Adds kernel busy time to a core (emulated time for throttled cores).
  void record_busy(int core, std::int64_t busy_ns);

  /// Single-writer variants: same counters, but plain load+store instead of
  /// an atomic RMW. Only for engines that record from ONE thread (the
  /// discrete-event simulator) — a lock-prefixed fetch_add per simulated
  /// task is pure waste there. Concurrent readers still see consistent
  /// relaxed values.
  void record_task_at_st(Priority priority, int place_id, int phase);
  void record_busy_st(int core, std::int64_t busy_ns);

  /// Engines set the experiment's elapsed (virtual or wall) seconds.
  /// Atomic: under the job service a worker closing the last job's window
  /// may publish elapsed while another thread snapshots.
  void set_elapsed(double seconds) {
    elapsed_s_.store(seconds, std::memory_order_relaxed);
  }
  double elapsed_s() const {
    return elapsed_s_.load(std::memory_order_relaxed);
  }

  // --- Queries --------------------------------------------------------------

  std::int64_t tasks_total() const;
  std::int64_t tasks_with_priority(Priority p) const;
  /// Count for one (priority, place), summed over phases.
  std::int64_t tasks_at(Priority p, int place_id) const;
  /// Count for one (priority, place, phase).
  std::int64_t tasks_at_phase(Priority p, int place_id, int phase) const;
  double busy_s(int core) const;
  double total_busy_s() const;
  /// Tasks per second over the recorded elapsed time.
  double throughput() const;

  /// Fraction of priority-`p` tasks executed at each place (places with a
  /// zero count omitted), ordered by descending share — the paper's Fig. 5
  /// pie-chart data.
  std::vector<std::pair<ExecutionPlace, double>> distribution(Priority p) const;

  /// Copies the current counters into a value-type snapshot.
  StatsSnapshot snapshot() const;

  /// Clears all counters (phases keep their dimension).
  void reset();

 private:
  std::size_t index(Priority p, int place_id, int phase) const;

  const Topology* topo_;
  int num_phases_;
  std::atomic<int> phase_{0};
  std::atomic<double> elapsed_s_{0.0};
  std::unique_ptr<CachePadded<std::atomic<std::int64_t>>[]> busy_ns_;
  // Dense grid [priority][phase][place] of counters.
  std::unique_ptr<std::atomic<std::int64_t>[]> counts_;
  std::size_t counts_size_ = 0;
};

}  // namespace das
