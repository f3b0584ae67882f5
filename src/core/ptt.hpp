#pragma once
// Performance Trace Table (paper §4.1.1, Fig. 2(b)).
//
// One table per task type. Each entry tracks the observed execution time of
// that task type at one execution place (leader core, width), smoothed with
// a weighted average (default new:old = 1:4) so short isolated events do not
// flip scheduling decisions, yet a few consecutive measurements are enough
// to track genuine asymmetry changes.
//
// Entries are initialised to ZERO. Because every scheduler search *minimises*
// over entries, a zero entry always wins, which guarantees each place is
// explored at least once before the model starts discriminating — this is
// the paper's exploration mechanism and we reproduce it literally (an
// optimistic-initialisation alternative is evaluated in the ablation bench).
//
// Layout: entries are grouped by leader core and each leader's group starts
// on a fresh cache line, so a worker updating its own places does not
// false-share with its neighbours (paper: "individual rows fit into cache
// lines ... each core mainly accesses a single cache line indexed with its
// own core id").

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/task_type.hpp"
#include "platform/topology.hpp"
#include "util/assert.hpp"

namespace das {

/// Weight of the NEW sample is num/den; the old value keeps (den-num)/den.
/// The paper's recommended ratio is 1:4, i.e. {1, 5}; Fig. 8 sweeps num=1..5.
struct UpdateRatio {
  int num = 1;
  int den = 5;
};

class Ptt {
 public:
  Ptt(const Topology& topo, UpdateRatio ratio = {});

  /// Smoothed execution-time estimate (seconds) for a place; 0.0 while the
  /// place is unexplored.
  double value(int place_id) const;
  double value(const ExecutionPlace& p) const { return value(topo_->place_id(p)); }

  /// Number of samples folded into the entry.
  std::uint64_t samples(int place_id) const;
  std::uint64_t samples(const ExecutionPlace& p) const { return samples(topo_->place_id(p)); }

  /// Folds a measurement (seconds) into the entry. The first sample is
  /// stored verbatim; later samples use the weighted average. Lock-free
  /// (CAS loop) so concurrent finishers cannot lose updates.
  void update(int place_id, double sample_s);
  void update(const ExecutionPlace& p, double s) { update(topo_->place_id(p), s); }

  /// update() for a table only one thread ever writes (the DES: one thread
  /// owns a rank's PTT): the same arithmetic, done as plain loads and
  /// stores instead of fetch_add and a CAS loop. Concurrent readers still
  /// see whole values.
  void update_st(int place_id, double sample_s);
  void update_st(const ExecutionPlace& p, double s) {
    update_st(topo_->place_id(p), s);
  }

  /// Overwrites every entry (used by tests and the optimistic-init ablation).
  void fill(double value_s);

  const Topology& topology() const { return *topo_; }
  UpdateRatio ratio() const { return ratio_; }

 private:
  // PolicyEngine's search reads entries by slot through precomputed
  // candidate tables (core/policy.cpp), skipping the per-place lookups.
  friend class PolicyEngine;

  struct Entry {
    std::atomic<double> value{0.0};
    std::atomic<std::uint64_t> samples{0};
  };

  const Topology* topo_;
  UpdateRatio ratio_;
  std::vector<int> slot_of_place_;            // place_id -> slot in entries_
  std::unique_ptr<Entry[]> entries_;
  std::size_t num_slots_ = 0;
};

/// One PTT per task type, all sharing a topology and update ratio. Tables
/// are created eagerly (the registry is small), so lookup is lock-free.
class PttStore {
 public:
  PttStore(const Topology& topo, int num_types, UpdateRatio ratio = {});

  // Inline: every search and every PTT update resolves its table here.
  Ptt& table(TaskTypeId id) {
    DAS_CHECK(id >= 0 && id < num_types());
    return *tables_[static_cast<std::size_t>(id)];
  }
  const Ptt& table(TaskTypeId id) const {
    DAS_CHECK(id >= 0 && id < num_types());
    return *tables_[static_cast<std::size_t>(id)];
  }
  int num_types() const { return static_cast<int>(tables_.size()); }
  UpdateRatio ratio() const { return ratio_; }

 private:
  UpdateRatio ratio_;
  std::vector<std::unique_ptr<Ptt>> tables_;
};

}  // namespace das
