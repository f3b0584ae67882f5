#pragma once
// Task DAG representation (paper §2).
//
// A Dag is built ahead of execution (static DAG); engines additionally allow
// tasks to insert successors at runtime (dynamic DAG — used by K-means).
// Each node carries a type (keys the PTT), a priority (high = critical), the
// cost-model parameters, and — for the real-thread engine — a work closure
// executed cooperatively by all participants of the chosen execution place.
//
// Edge storage is a CSR adjacency arena, not per-node vectors: add_edge
// appends to a chained staging pool, and seal() compacts every staged edge
// into (offsets, one contiguous edge array) preserving per-node insertion
// order. Engines seal at submit, so the release fan-out on the completion
// hot path walks a flat span — no pointer-chasing through a million little
// vectors, and a million-node DAG costs two allocations instead of a
// million. Edges added AFTER a seal land back in the staging pool (the
// overflow region) and are still iterated by successors(), so the dynamic
// add_edge API is unchanged; the next seal() folds them in. seal() is
// logically const (engines hold const Dag&) but not thread-safe while it
// has staged edges to compact — every workload builder returns sealed DAGs,
// which makes the engine-side seal-on-submit a read-only no-op.

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/task_type.hpp"
#include "util/assert.hpp"

namespace das {

using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Identity of one submitted DAG (a *job*) inside an engine's job service.
/// Engines allocate ids monotonically per engine instance; task records carry
/// their job id so multiple DAGs can interleave on the same workers, queues
/// and PTT (the runtime is persistent — paper §4.1.1).
using JobId = std::int64_t;
inline constexpr JobId kInvalidJob = -1;

/// Context a participant receives when executing (real-thread engine).
struct ExecContext {
  int rank = 0;    ///< 0..width-1; rank 0 need not be the leader core
  int width = 1;
  int leader = 0;  ///< leader core of the execution place
  int core = 0;    ///< the participant's core
};

using WorkFn = std::function<void(const ExecContext&)>;

/// Dependency edge. `delay_s` models a release latency between the
/// producer's completion and the consumer becoming ready — used for
/// cross-rank messages in the DES distributed-memory experiments. The
/// real-thread engine ignores it (real communication runs through das::net).
struct DagEdge {
  NodeId to = kInvalidNode;
  double delay_s = 0.0;
};

struct DagNode {
  TaskTypeId type = kInvalidTaskType;
  Priority priority = Priority::kLow;
  TaskParams params;
  WorkFn work;                  ///< may be empty (DES-only DAGs)
  int num_predecessors = 0;     ///< maintained by add_edge
  int rank = 0;                 ///< scheduling domain (MPI-rank analogue)
  int affinity_core = -1;       ///< waking-core hint; -1 = released-by core
  int phase = 0;                ///< stats phase tag (application iteration)
};

class Dag {
  struct EdgeCell {
    DagEdge edge;
    std::int32_t next = -1;  ///< staging-chain link within pool_
  };

 public:
  /// Forward range over one node's out-edges: the sealed CSR span first,
  /// then any edges staged after the seal (insertion order throughout).
  /// For a sealed DAG this iterates a contiguous array.
  class SuccessorRange {
   public:
    class iterator {
     public:
      const DagEdge& operator*() const { return *p_; }
      const DagEdge* operator->() const { return p_; }
      iterator& operator++() {
        ++p_;
        if (p_ == seg_end_) advance_segment();
        return *this;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.p_ == b.p_;
      }
      friend bool operator!=(const iterator& a, const iterator& b) {
        return a.p_ != b.p_;
      }

     private:
      friend class SuccessorRange;
      iterator(const DagEdge* p, const DagEdge* seg_end,
               const std::vector<EdgeCell>* pool, std::int32_t chain)
          : p_(p), seg_end_(seg_end), pool_(pool), chain_(chain) {
        if (p_ == seg_end_) advance_segment();
      }
      void advance_segment() {
        if (chain_ < 0) {
          p_ = seg_end_ = nullptr;  // end sentinel
          return;
        }
        const EdgeCell& c = (*pool_)[static_cast<std::size_t>(chain_)];
        p_ = &c.edge;
        seg_end_ = p_ + 1;
        chain_ = c.next;
      }
      const DagEdge* p_;
      const DagEdge* seg_end_;
      const std::vector<EdgeCell>* pool_;
      std::int32_t chain_;
    };

    iterator begin() const { return iterator(seg_, seg_end_, pool_, chain_); }
    iterator end() const { return iterator(nullptr, nullptr, pool_, -1); }
    bool empty() const { return seg_ == seg_end_ && chain_ < 0; }
    std::size_t size() const;
    /// Linear in the index past the CSR span — convenience for tests, not
    /// for hot loops.
    const DagEdge& operator[](std::size_t i) const;

   private:
    friend class Dag;
    SuccessorRange(const DagEdge* seg, const DagEdge* seg_end,
                   const std::vector<EdgeCell>* pool, std::int32_t chain)
        : seg_(seg), seg_end_(seg_end), pool_(pool), chain_(chain) {}
    const DagEdge* seg_;
    const DagEdge* seg_end_;
    const std::vector<EdgeCell>* pool_;
    std::int32_t chain_;
  };

  NodeId add_node(TaskTypeId type, Priority priority = Priority::kLow,
                  TaskParams params = {}, WorkFn work = {});
  /// Adds the dependency edge from -> to. Rejects self-edges.
  void add_edge(NodeId from, NodeId to, double delay_s = 0.0);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  std::size_t num_edges() const { return num_edges_; }
  // Inline: engines resolve a node once or twice per event, and an outlined
  // call costs more than the bounds check itself.
  DagNode& node(NodeId id) {
    DAS_CHECK(id >= 0 && id < num_nodes());
    return nodes_[static_cast<std::size_t>(id)];
  }
  const DagNode& node(NodeId id) const {
    DAS_CHECK(id >= 0 && id < num_nodes());
    return nodes_[static_cast<std::size_t>(id)];
  }

  /// The node's out-edges in insertion order.
  SuccessorRange successors(NodeId id) const;
  /// successors(id).size() without building the range.
  std::size_t num_successors(NodeId id) const { return successors(id).size(); }

  /// Compacts every staged edge into the CSR arena (idempotent; a no-op
  /// when nothing was staged since the last seal). Engines call this at
  /// submit; not thread-safe while staged edges exist (see header comment).
  /// Also snapshots the submit metadata below, so engines validate and
  /// release a million-node DAG without rescanning every node per submit.
  void seal() const;

  // --- sealed metadata (valid after seal(); snapshots node fields as of
  // the seal — post-seal mutations of rank/type are not re-reflected) -----

  /// Per-node predecessor counts, contiguous (engines memcpy this into a
  /// job's countdown array). Maintained incrementally by add_edge.
  const std::vector<std::int32_t>& predecessor_counts() const {
    DAS_ASSERT(csr_off_.size() == nodes_.size() + 1);
    return preds_counts_;
  }
  /// Nodes with no predecessors, ascending.
  const std::vector<NodeId>& root_ids() const {
    DAS_ASSERT(csr_off_.size() == nodes_.size() + 1);
    return roots_cache_;
  }
  /// Every distinct task type, in first-appearance order.
  const std::vector<TaskTypeId>& distinct_types() const {
    DAS_ASSERT(csr_off_.size() == nodes_.size() + 1);
    return distinct_types_;
  }
  int min_node_rank() const { return min_rank_; }
  int max_node_rank() const { return max_rank_; }
  /// Minimum delay_s over edges whose endpoints live on different ranks,
  /// +infinity when every edge is rank-local. This is the multi-rank DES
  /// lookahead: no rank can affect another sooner than this, so each rank
  /// may simulate a window of this width before exchanging cross-rank
  /// releases (sim/engine.hpp).
  double min_cross_rank_delay() const {
    DAS_ASSERT(csr_off_.size() == nodes_.size() + 1);
    return min_cross_rank_delay_;
  }

  /// Nodes with no predecessors (the initially-ready set).
  std::vector<NodeId> roots() const;
  /// True iff the edge relation is acyclic (Kahn's algorithm).
  bool is_acyclic() const;
  /// A topological order; DAS_CHECKs acyclicity.
  std::vector<NodeId> topological_order() const;
  /// Longest path length measured in nodes (the critical path of the paper's
  /// parallelism definition). DAS_CHECKs acyclicity.
  int longest_path_nodes() const;
  /// DAG parallelism = total tasks / longest path (paper §2, Fig. 1).
  double dag_parallelism() const;

 private:
  std::vector<DagNode> nodes_;
  std::size_t num_edges_ = 0;
  // Staging pool: per-node chains of edges not yet folded into the CSR
  // (freshly added, or added after the last seal — the overflow region).
  // Mutable with the CSR members so seal() can run behind const engine
  // references; see the thread-safety note in the header comment.
  mutable std::vector<EdgeCell> pool_;
  mutable std::vector<std::int32_t> chain_head_;  // per node; -1 = none
  mutable std::vector<std::int32_t> chain_tail_;
  // Sealed CSR arena: csr_off_ has num_nodes()+1 offsets into csr_edges_.
  mutable std::vector<std::int32_t> csr_off_;
  mutable std::vector<DagEdge> csr_edges_;
  // Sealed metadata (see accessors). preds_counts_ is maintained eagerly by
  // add_edge (and length-adjusted by seal); the rest are seal-time
  // snapshots.
  mutable std::vector<std::int32_t> preds_counts_;
  mutable std::vector<NodeId> roots_cache_;
  mutable std::vector<TaskTypeId> distinct_types_;
  mutable int min_rank_ = 0;
  mutable int max_rank_ = 0;
  mutable double min_cross_rank_delay_ =
      std::numeric_limits<double>::infinity();
};

}  // namespace das
