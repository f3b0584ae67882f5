#include "core/dag.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace das {

namespace {
constexpr std::size_t idx(std::int32_t i) {
  return static_cast<std::size_t>(i);
}
}  // namespace

void Dag::reserve(std::size_t nodes, std::size_t edges) {
  nodes_.reserve(nodes);
  staged_.reserve(edges);
}

NodeId Dag::add_node(TaskTypeId type, Priority priority, TaskParams params,
                     WorkFn work) {
  DAS_CHECK(type != kInvalidTaskType);
  nodes_.push_back(DagNode{type, priority, params});
  if (work) {
    // The closure table is sized lazily, to the node array's capacity, the
    // first time a node brings a closure.
    if (work_.capacity() < nodes_.capacity()) work_.reserve(nodes_.capacity());
    work_.resize(nodes_.size());
    work_.back() = std::move(work);
  }
  sealed_ = false;
  return static_cast<NodeId>(nodes_.size()) - 1;
}

void Dag::add_edge(NodeId from, NodeId to, double delay_s) {
  DAS_CHECK(from >= 0 && from < num_nodes());
  DAS_CHECK(to >= 0 && to < num_nodes());
  DAS_CHECK_MSG(from != to, "self-edges are not allowed");
  DAS_CHECK(delay_s >= 0.0);
  staged_.push_back(StagedEdge{from, to, delay_s});
  nodes_[idx(to)].num_predecessors++;
  num_edges_++;
  sealed_ = false;
}

void Dag::fold() const {
  const std::size_t n = nodes_.size();
  // Nodes added since the last seal have no sealed edges.
  const std::size_t sealed_n = csr_off_.empty() ? 0 : csr_off_.size() - 1;

  // Stable counting sort by source. off[i + 2] first counts node i's edges;
  // the prefix sum turns off[i + 1] into node i's first slot, and placing an
  // edge advances it, so after the scatter off[i + 1] is node i's end —
  // node i+1's start — and off[0..n] is the CSR offset array.
  std::vector<std::int32_t> off(n + 2, 0);
  for (std::size_t i = 0; i < sealed_n; ++i)
    off[i + 2] = csr_off_[i + 1] - csr_off_[i];
  for (const StagedEdge& e : staged_) ++off[idx(e.from) + 2];
  for (std::size_t i = 2; i < n + 2; ++i) off[i] += off[i - 1];
  std::vector<DagEdge> edges(num_edges_);
  // Sealed edges first, then the staged ones in insertion order.
  for (std::size_t i = 0; i < sealed_n; ++i)
    for (std::int32_t k = csr_off_[i]; k < csr_off_[i + 1]; ++k)
      edges[idx(off[i + 1]++)] = csr_edges_[idx(k)];
  for (const StagedEdge& e : staged_)
    edges[idx(off[idx(e.from) + 1]++)] = DagEdge{e.to, e.delay_s};
  off.pop_back();
  DAS_ASSERT(static_cast<std::size_t>(off[n]) == num_edges_);

  csr_edges_ = std::move(edges);
  csr_off_ = std::move(off);
  // Release the staging array outright (swap, not clear): after a seal the
  // arena owns every edge, and steady-state DAG reuse should not pin a
  // second copy's worth of memory.
  std::vector<StagedEdge>().swap(staged_);

  // Snapshot the submit metadata in one sweep, so engines neither revalidate
  // nor rescan the node array per submit (K-means resubmits the same sealed
  // DAG every iteration and pays this once).
  preds_counts_.resize(n);
  roots_cache_.clear();
  distinct_types_.clear();
  min_rank_ = n > 0 ? nodes_[0].rank : 0;
  max_rank_ = min_rank_;
  min_cross_rank_delay_ = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const DagNode& node = nodes_[i];
    preds_counts_[i] = node.num_predecessors;
    if (node.num_predecessors == 0)
      roots_cache_.push_back(static_cast<NodeId>(i));
    if (node.rank < min_rank_) min_rank_ = node.rank;
    if (node.rank > max_rank_) max_rank_ = node.rank;
    bool seen = false;
    for (const TaskTypeId t : distinct_types_)
      if (t == node.type) {
        seen = true;
        break;
      }
    if (!seen) distinct_types_.push_back(node.type);
  }
  // Conservative DES lookahead (min_cross_rank_delay()): only a multi-rank
  // DAG has cross-rank edges to scan.
  if (min_rank_ != max_rank_) {
    for (std::size_t i = 0; i < n; ++i) {
      const int rank = nodes_[i].rank;
      for (std::int32_t k = csr_off_[i]; k < csr_off_[i + 1]; ++k) {
        const DagEdge& e = csr_edges_[idx(k)];
        if (nodes_[idx(e.to)].rank != rank &&
            e.delay_s < min_cross_rank_delay_)
          min_cross_rank_delay_ = e.delay_s;
      }
    }
  }
  sealed_ = true;
}

std::vector<NodeId> Dag::roots() const {
  std::vector<NodeId> r;
  for (NodeId i = 0; i < num_nodes(); ++i)
    if (nodes_[static_cast<std::size_t>(i)].num_predecessors == 0) r.push_back(i);
  return r;
}

bool Dag::is_acyclic() const {
  seal();
  std::vector<int> indeg(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) indeg[i] = nodes_[i].num_predecessors;
  std::vector<NodeId> stack = roots();
  std::size_t visited = 0;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    ++visited;
    for (const DagEdge& e : successors(n))
      if (--indeg[static_cast<std::size_t>(e.to)] == 0) stack.push_back(e.to);
  }
  return visited == nodes_.size();
}

std::vector<NodeId> Dag::topological_order() const {
  seal();
  std::vector<int> indeg(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) indeg[i] = nodes_[i].num_predecessors;
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  std::vector<NodeId> stack = roots();
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    order.push_back(n);
    for (const DagEdge& e : successors(n))
      if (--indeg[static_cast<std::size_t>(e.to)] == 0) stack.push_back(e.to);
  }
  DAS_CHECK_MSG(order.size() == nodes_.size(), "DAG contains a cycle");
  return order;
}

int Dag::longest_path_nodes() const {
  if (nodes_.empty()) return 0;
  const std::vector<NodeId> order = topological_order();
  std::vector<int> depth(nodes_.size(), 1);
  int best = 1;
  for (NodeId n : order) {
    for (const DagEdge& e : successors(n)) {
      auto& d = depth[static_cast<std::size_t>(e.to)];
      d = std::max(d, depth[static_cast<std::size_t>(n)] + 1);
      best = std::max(best, d);
    }
  }
  return best;
}

double Dag::dag_parallelism() const {
  const int lp = longest_path_nodes();
  if (lp == 0) return 0.0;
  return static_cast<double>(num_nodes()) / static_cast<double>(lp);
}

}  // namespace das
