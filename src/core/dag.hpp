#pragma once
// Task DAG representation (paper §2).
//
// A Dag is built ahead of execution (static DAG); engines additionally allow
// tasks to insert successors at runtime (dynamic DAG — used by K-means).
// Each node carries a type (keys the PTT), a priority (high = critical), the
// cost-model parameters, and — for the real-thread engine — a work closure
// executed cooperatively by all participants of the chosen execution place.
//
// Storage is flat arrays throughout. Nodes are plain, trivially copyable
// records; work closures live in a side table that exists only once some
// node has one (DES-only DAGs never allocate it), read through work(id).
// add_edge appends (from, to, delay) to one staging array, and seal() moves
// the staged edges into a CSR arena — offsets plus one contiguous edge array
// — with a stable counting sort by source, so each node's out-edges keep
// their insertion order. Builders that know their counts call reserve()
// first and then grow nothing.
//
// OVERFLOW. Edges added after a seal are staged again; the next seal()
// appends them after the node's sealed edges. successors() returns a span
// into the arena and folds staged edges in first, so the dynamic add_edge
// API is unchanged. seal() (and so successors() on a DAG with staged edges
// or nodes added since the last seal) is logically const — engines hold
// const Dag& — but not thread-safe while it has work to do. Every workload
// builder returns sealed DAGs and engines seal at submit, so concurrent
// successors() calls on a submitted DAG only read.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>
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
  int num_predecessors = 0;     ///< maintained by add_edge
  int rank = 0;                 ///< scheduling domain (MPI-rank analogue)
  int affinity_core = -1;       ///< waking-core hint; -1 = released-by core
  int phase = 0;                ///< stats phase tag (application iteration)
};
static_assert(std::is_trivially_copyable_v<DagNode>);

class Dag;
namespace net {
class WireReader;
Dag decode_dag(WireReader& r);
}  // namespace net

class Dag {
 public:
  /// Pre-sizes the node and staged-edge arrays (and the closure table, once
  /// a closure arrives) for a builder that knows its counts.
  void reserve(std::size_t nodes, std::size_t edges);
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
  /// The node's work closure, or nullptr when it has none (DES-only nodes).
  /// The pointer stays valid until the next add_node().
  const WorkFn* work(NodeId id) const {
    DAS_CHECK(id >= 0 && id < num_nodes());
    const auto i = static_cast<std::size_t>(id);
    return i < work_.size() && work_[i] ? &work_[i] : nullptr;
  }

  /// The node's out-edges in insertion order. Folds staged edges first (a
  /// seal(), under its thread-safety note); on a sealed DAG this is two
  /// loads and a span.
  std::span<const DagEdge> successors(NodeId id) const {
    DAS_ASSERT(id >= 0 && id < num_nodes());
    seal();
    const auto i = static_cast<std::size_t>(id);
    return {csr_edges_.data() + csr_off_[i],
            csr_edges_.data() + csr_off_[i + 1]};
  }
  std::size_t num_successors(NodeId id) const { return successors(id).size(); }

  /// Moves every staged edge into the CSR arena (idempotent; a no-op when
  /// nothing changed since the last seal). Engines call this at submit; not
  /// thread-safe while it has work to do (see header comment). Also
  /// snapshots the submit metadata below, so engines validate and release a
  /// million-node DAG without rescanning every node per submit.
  void seal() const {
    if (!sealed_) [[unlikely]] fold();
  }

  // --- sealed metadata (valid after seal(); snapshots node fields as of
  // the seal — post-seal mutations of rank/type are not re-reflected) -----

  /// Per-node predecessor counts, contiguous (engines memcpy this into a
  /// job's countdown array).
  const std::vector<std::int32_t>& predecessor_counts() const {
    DAS_ASSERT(sealed_);
    return preds_counts_;
  }
  /// Nodes with no predecessors, ascending.
  const std::vector<NodeId>& root_ids() const {
    DAS_ASSERT(sealed_);
    return roots_cache_;
  }
  /// Every distinct task type, in first-appearance order.
  const std::vector<TaskTypeId>& distinct_types() const {
    DAS_ASSERT(sealed_);
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
    DAS_ASSERT(sealed_);
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
  // The wire decoder fills nodes and staged edges in bulk: a node's edges
  // arrive before the nodes they point to, which add_edge would reject. It
  // range-checks them against the declared node count instead.
  friend Dag net::decode_dag(net::WireReader& r);

  struct StagedEdge {
    NodeId from;
    NodeId to;
    double delay_s;
  };

  // The seal itself, kept out of line: successors() sits on the engines'
  // per-task completion path and must stay a flag test there.
  void fold() const;

  std::vector<DagNode> nodes_;
  std::vector<WorkFn> work_;  // per node, empty until a node has a closure
  std::size_t num_edges_ = 0;
  // Everything below is mutable so seal() can run behind const engine
  // references; see the thread-safety note in the header comment.
  mutable bool sealed_ = false;
  // Edges not yet in the CSR arena, in insertion order.
  mutable std::vector<StagedEdge> staged_;
  // Sealed CSR arena: csr_off_ has num_nodes()+1 offsets into csr_edges_.
  mutable std::vector<std::int32_t> csr_off_;
  mutable std::vector<DagEdge> csr_edges_;
  // Seal-time metadata snapshots (see accessors).
  mutable std::vector<std::int32_t> preds_counts_;
  mutable std::vector<NodeId> roots_cache_;
  mutable std::vector<TaskTypeId> distinct_types_;
  mutable int min_rank_ = 0;
  mutable int max_rank_ = 0;
  mutable double min_cross_rank_delay_ =
      std::numeric_limits<double>::infinity();
};

}  // namespace das
