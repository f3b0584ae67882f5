#include "net/wire.hpp"

#include <span>

namespace das::net {

namespace {

constexpr std::uint32_t kDagMagic = 0x44414731;  // "DAG1"
constexpr std::uint16_t kDagVersion = 1;

// Encoded sizes of one node record (type, priority, p0..p2, rank, affinity,
// phase, out-degree) and of one edge (target, delay).
constexpr std::size_t kNodeBytes =
    sizeof(TaskTypeId) + sizeof(std::uint8_t) + 3 * sizeof(double) +
    3 * sizeof(std::int32_t) + sizeof(std::uint32_t);
constexpr std::size_t kEdgeBytes = sizeof(NodeId) + sizeof(double);

template <typename T>
T get(const std::byte*& at) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v;
  std::memcpy(&v, at, sizeof(T));
  at += sizeof(T);
  return v;
}

}  // namespace

void encode_dag(const Dag& dag, WireWriter& w) {
  dag.seal();  // folds staged edges so successors() are contiguous spans
  w.pod(kDagMagic);
  w.pod(kDagVersion);
  const int n = dag.num_nodes();
  w.pod(static_cast<std::int32_t>(n));
  w.pod(static_cast<std::uint64_t>(dag.num_edges()));
  for (NodeId id = 0; id < n; ++id) {
    const DagNode& node = dag.node(id);
    const std::span<const DagEdge> out = dag.successors(id);
    w.pod(node.type);
    w.pod(static_cast<std::uint8_t>(node.priority));
    w.pod(node.params.p0);
    w.pod(node.params.p1);
    w.pod(node.params.p2);
    w.pod(static_cast<std::int32_t>(node.rank));
    w.pod(static_cast<std::int32_t>(node.affinity_core));
    w.pod(static_cast<std::int32_t>(node.phase));
    w.pod(static_cast<std::uint32_t>(out.size()));
    for (const DagEdge& e : out) {
      w.pod(e.to);
      w.pod(e.delay_s);
    }
  }
}

Dag decode_dag(WireReader& r) {
  DAS_CHECK_MSG(r.pod<std::uint32_t>() == kDagMagic,
                "decode_dag: bad magic (not a serialized DAG)");
  DAS_CHECK_MSG(r.pod<std::uint16_t>() == kDagVersion,
                "decode_dag: unsupported wire version");
  const auto n = r.pod<std::int32_t>();
  DAS_CHECK_MSG(n >= 0, "decode_dag: negative node count");
  const auto declared_edges = r.pod<std::uint64_t>();
  // Both counts size allocations below, so both are bounded by the bytes
  // actually present: n nodes and declared_edges edges need at least this
  // much payload, whatever the counts claim.
  const std::size_t node_bytes = static_cast<std::size_t>(n) * kNodeBytes;
  DAS_CHECK_MSG(node_bytes <= r.remaining(),
                "decode_dag: node count exceeds the payload");
  DAS_CHECK_MSG(declared_edges <= (r.remaining() - node_bytes) / kEdgeBytes,
                "decode_dag: edge count exceeds the payload");

  // Nodes are decoded in place and edges staged in source order, as
  // add_node/add_edge would; edges may point at nodes not yet read, so they
  // are range-checked against n here rather than by add_edge.
  Dag dag;
  dag.reserve(static_cast<std::size_t>(n),
              static_cast<std::size_t>(declared_edges));
  dag.nodes_.resize(static_cast<std::size_t>(n));
  for (NodeId id = 0; id < n; ++id) {
    const std::byte* p = r.consume(kNodeBytes);
    DagNode& node = dag.nodes_[static_cast<std::size_t>(id)];
    node.type = get<TaskTypeId>(p);
    DAS_CHECK_MSG(node.type != kInvalidTaskType,
                  "decode_dag: invalid task type");
    const auto priority = get<std::uint8_t>(p);
    DAS_CHECK_MSG(priority <= 1, "decode_dag: bad priority");
    node.priority = static_cast<Priority>(priority);
    node.params.p0 = get<double>(p);
    node.params.p1 = get<double>(p);
    node.params.p2 = get<double>(p);
    node.rank = get<std::int32_t>(p);
    node.affinity_core = get<std::int32_t>(p);
    node.phase = get<std::int32_t>(p);
    const auto degree = get<std::uint32_t>(p);
    DAS_CHECK_MSG(degree <= declared_edges - dag.staged_.size(),
                  "decode_dag: edge count mismatch");
    p = r.consume(degree * kEdgeBytes);
    for (std::uint32_t j = 0; j < degree; ++j) {
      const auto to = get<NodeId>(p);
      const auto delay_s = get<double>(p);
      DAS_CHECK_MSG(to >= 0 && to < n, "decode_dag: edge target out of range");
      DAS_CHECK_MSG(to != id, "decode_dag: self-edge");
      DAS_CHECK_MSG(delay_s >= 0.0, "decode_dag: negative edge delay");
      dag.staged_.push_back(Dag::StagedEdge{id, to, delay_s});
      dag.nodes_[static_cast<std::size_t>(to)].num_predecessors++;
    }
  }
  DAS_CHECK_MSG(dag.staged_.size() == declared_edges,
                "decode_dag: edge count mismatch");
  dag.num_edges_ = dag.staged_.size();
  dag.seal();
  return dag;
}

void encode_tenant_config(const TenantConfig& cfg, WireWriter& w) {
  w.str(cfg.name);
  w.pod(cfg.weight);
  w.pod(static_cast<std::int32_t>(cfg.max_in_flight));
  w.pod(cfg.max_queued_tasks);
  w.pod(static_cast<std::uint8_t>(cfg.overload));
  w.pod(static_cast<std::int32_t>(cfg.max_retries));
  w.pod(cfg.retry_backoff_s);
  w.pod(cfg.retry_backoff_cap_s);
}

TenantConfig decode_tenant_config(WireReader& r) {
  TenantConfig cfg;
  cfg.name = r.str();
  cfg.weight = r.pod<double>();
  cfg.max_in_flight = r.pod<std::int32_t>();
  cfg.max_queued_tasks = r.pod<std::int64_t>();
  const auto overload = r.pod<std::uint8_t>();
  DAS_CHECK_MSG(overload <= 1, "decode_tenant_config: bad overload policy");
  cfg.overload = static_cast<Overload>(overload);
  cfg.max_retries = r.pod<std::int32_t>();
  cfg.retry_backoff_s = r.pod<double>();
  cfg.retry_backoff_cap_s = r.pod<double>();
  return cfg;
}

void encode_submit_options(const SubmitOptions& opts, WireWriter& w) {
  w.pod(opts.arrival_offset_s);
  w.pod(static_cast<std::int32_t>(opts.priority));
  w.pod(opts.deadline_s);
}

SubmitOptions decode_submit_options(WireReader& r) {
  SubmitOptions opts;
  opts.arrival_offset_s = r.pod<double>();
  opts.priority = r.pod<std::int32_t>();
  opts.deadline_s = r.pod<double>();
  return opts;
}

void encode_run_result(const WireRunResult& res, WireWriter& w) {
  w.pod(res.makespan_s);
  w.pod(res.tasks_per_s);
  w.pod(res.tasks);
  w.pod(res.job);
  w.pod(res.arrival_s);
  w.pod(res.queue_s);
  w.str(res.tenant);
  w.pod(res.backend);
  w.pod(res.policy);
  w.pod(res.outcome);
  w.pod(res.tasks_reexecuted);
}

WireRunResult decode_run_result(WireReader& r) {
  WireRunResult res;
  res.makespan_s = r.pod<double>();
  res.tasks_per_s = r.pod<double>();
  res.tasks = r.pod<std::int64_t>();
  res.job = r.pod<std::int64_t>();
  res.arrival_s = r.pod<double>();
  res.queue_s = r.pod<double>();
  res.tenant = r.str();
  res.backend = r.pod<std::uint8_t>();
  res.policy = r.pod<std::uint8_t>();
  res.outcome = r.pod<std::uint8_t>();
  DAS_CHECK_MSG(res.outcome <= 3, "decode_run_result: bad outcome byte");
  res.tasks_reexecuted = r.pod<std::int64_t>();
  return res;
}

}  // namespace das::net
