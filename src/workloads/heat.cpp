#include "workloads/heat.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/network.hpp"
#include "util/assert.hpp"

namespace das::workloads {

namespace {
constexpr int kTagUp = 1;    // message travelling to rank-1
constexpr int kTagDown = 2;  // message travelling to rank+1
constexpr double kHotBoundary = 100.0;

int band_rows_of(const HeatConfig& cfg) {
  DAS_CHECK(cfg.ranks >= 1);
  DAS_CHECK_MSG(cfg.rows % cfg.ranks == 0, "rows must divide evenly by ranks");
  return cfg.rows / cfg.ranks;
}

/// Rows [begin, end) of a band of `rows` rows for compute task `t` of `T`.
std::pair<int, int> task_rows(int rows, int t, int T) {
  const int base = rows / T;
  const int extra = rows % T;
  const int begin = t * base + std::min(t, extra);
  return {begin, begin + base + (t < extra ? 1 : 0)};
}

}  // namespace

double heat_initial_value(int global_row, int col) {
  return static_cast<double>((global_row * 31 + col * 17) % 100) / 100.0;
}

HeatRank::HeatRank(const HeatConfig& cfg, net::Comm& comm,
                   TaskTypeId heat_compute_type, TaskTypeId comm_type)
    : cfg_(cfg), comm_(&comm), compute_type_(heat_compute_type),
      comm_type_(comm_type) {
  DAS_CHECK(cfg.cols >= 3);
  DAS_CHECK(cfg.tasks_per_rank >= 1);
  DAS_CHECK(comm.size() == cfg.ranks);
  band_rows_ = band_rows_of(cfg);
  DAS_CHECK(band_rows_ >= cfg.tasks_per_rank);
  cols_ = cfg.cols;

  const std::size_t cells = static_cast<std::size_t>(band_rows_ + 2) * cols_;
  cur_.assign(cells, 0.0);
  next_.assign(cells, 0.0);
  const int gr0 = comm.rank() * band_rows_;
  for (int r = 0; r < band_rows_; ++r)
    for (int c = 0; c < cols_; ++c)
      row(cur_, r + 1)[c] = heat_initial_value(gr0 + r, c);
  // Fixed physical boundaries: hot edge above rank 0, cold below the last
  // rank. Interior ghost rows are overwritten by the first exchange.
  if (comm.rank() == 0)
    for (int c = 0; c < cols_; ++c) row(cur_, 0)[c] = kHotBoundary;
  if (comm.rank() == cfg.ranks - 1)
    for (int c = 0; c < cols_; ++c) row(cur_, band_rows_ + 1)[c] = 0.0;
  next_ = cur_;
}

void HeatRank::exchange_ghosts(const ExecContext& ctx) {
  if (ctx.rank != 0) return;  // message passing is single-core by nature
  const int r = comm_->rank();
  const std::size_t bytes = static_cast<std::size_t>(cols_);
  // Buffered sends first (never block), then the receives: deadlock-free in
  // any rank order.
  if (r > 0) comm_->send_span(r - 1, kTagUp, row(cur_, 1), bytes);
  if (r < cfg_.ranks - 1)
    comm_->send_span(r + 1, kTagDown, row(cur_, band_rows_), bytes);
  if (r > 0) comm_->recv_span(r - 1, kTagDown, row(cur_, 0), bytes);
  if (r < cfg_.ranks - 1)
    comm_->recv_span(r + 1, kTagUp, row(cur_, band_rows_ + 1), bytes);
}

void HeatRank::sweep(int task_index, const ExecContext& ctx) {
  const auto [t_begin, t_end] = task_rows(band_rows_, task_index, cfg_.tasks_per_rank);
  // Participants split the task's rows.
  const int rows_here = t_end - t_begin;
  const int base = rows_here / ctx.width;
  const int extra = rows_here % ctx.width;
  const int my_begin = t_begin + ctx.rank * base + std::min(ctx.rank, extra);
  const int my_end = my_begin + base + (ctx.rank < extra ? 1 : 0);

  for (int r = my_begin; r < my_end; ++r) {
    const double* up = row(cur_, r);        // grid row r is interior row r-1
    const double* mid = row(cur_, r + 1);
    const double* down = row(cur_, r + 2);
    double* out = row(next_, r + 1);
    out[0] = mid[0];                        // fixed boundary columns
    out[cols_ - 1] = mid[cols_ - 1];
    for (int c = 1; c < cols_ - 1; ++c)
      out[c] = 0.25 * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
  }
}

void HeatRank::advance() {
  // Carry the ghost rows over so the fixed physical boundaries persist;
  // interior ghosts are refreshed by the next exchange anyway.
  std::memcpy(row(next_, 0), row(cur_, 0), static_cast<std::size_t>(cols_) * sizeof(double));
  std::memcpy(row(next_, band_rows_ + 1), row(cur_, band_rows_ + 1),
              static_cast<std::size_t>(cols_) * sizeof(double));
  cur_.swap(next_);
}

Dag HeatRank::make_iteration_dag(int phase) {
  Dag dag;
  dag.reserve(static_cast<std::size_t>(cfg_.tasks_per_rank) + 1,
              static_cast<std::size_t>(cfg_.tasks_per_rank));
  TaskParams cp;
  cp.p0 = 2.0 * cols_ * sizeof(double);  // bytes moved by the exchange
  const NodeId comm_node = dag.add_node(
      comm_type_, Priority::kHigh, cp,
      [this](const ExecContext& ctx) { exchange_ghosts(ctx); });
  dag.node(comm_node).phase = phase;

  const double points_per_task =
      static_cast<double>(band_rows_) * cols_ / cfg_.tasks_per_rank;
  for (int t = 0; t < cfg_.tasks_per_rank; ++t) {
    TaskParams kp;
    kp.p0 = std::max(3.0, std::sqrt(points_per_task));
    const NodeId n = dag.add_node(
        compute_type_, Priority::kLow, kp,
        [this, t](const ExecContext& ctx) { sweep(t, ctx); });
    dag.node(n).phase = phase;
    dag.add_edge(comm_node, n);
  }
  dag.seal();  // builders hand out sealed (CSR-compacted) DAGs
  return dag;
}

std::vector<double> HeatRank::interior() const {
  std::vector<double> out(static_cast<std::size_t>(band_rows_) * cols_);
  std::memcpy(out.data(), cur_.data() + cols_, out.size() * sizeof(double));
  return out;
}

std::vector<double> heat_serial_reference(const HeatConfig& cfg, double hot) {
  const int rows = cfg.rows, cols = cfg.cols;
  std::vector<double> cur(static_cast<std::size_t>(rows + 2) * cols, 0.0);
  std::vector<double> next;
  auto at = [cols](std::vector<double>& g, int r) {
    return g.data() + static_cast<std::size_t>(r) * cols;
  };
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) at(cur, r + 1)[c] = heat_initial_value(r, c);
  for (int c = 0; c < cols; ++c) {
    at(cur, 0)[c] = hot;
    at(cur, rows + 1)[c] = 0.0;
  }
  next = cur;
  for (int it = 0; it < cfg.iterations; ++it) {
    for (int r = 1; r <= rows; ++r) {
      const double* up = at(cur, r - 1);
      const double* mid = at(cur, r);
      const double* down = at(cur, r + 1);
      double* out = at(next, r);
      out[0] = mid[0];
      out[cols - 1] = mid[cols - 1];
      for (int c = 1; c < cols - 1; ++c)
        out[c] = 0.25 * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
    }
    cur.swap(next);
  }
  std::vector<double> out(static_cast<std::size_t>(rows) * cols);
  std::memcpy(out.data(), cur.data() + cols, out.size() * sizeof(double));
  return out;
}

Dag make_heat_sim_dag(const HeatConfig& cfg, TaskTypeId heat_compute_type,
                      TaskTypeId comm_type) {
  const int R = cfg.ranks;
  const int T = cfg.tasks_per_rank;
  const int band = band_rows_of(cfg);
  DAS_CHECK(T >= 1 && band >= T);
  const double bytes = static_cast<double>(cfg.cols) * sizeof(double);
  const sim::NetworkModel net{cfg.net_latency_s, cfg.net_bw_gbs};
  const double wire_delay = net.delay(bytes);
  const double points_per_task = static_cast<double>(band) * cfg.cols / T;

  Dag dag;
  // Per iteration: T compute tasks per rank plus an up and a down exchange
  // per rank boundary. Edges: each boundary's two exchanges release the
  // edge compute tasks every iteration; from the second iteration on, each
  // exchange also waits on a local and a remote band, and each compute task
  // on its (up to) three neighbours of the previous iteration.
  const auto I = static_cast<std::size_t>(std::max(cfg.iterations, 0));
  const auto ranks = static_cast<std::size_t>(R);
  const auto tasks = static_cast<std::size_t>(T);
  const std::size_t boundaries = ranks - 1;
  const std::size_t stencil_edges = ranks * (3 * tasks - 2);
  const std::size_t num_edges =
      I == 0 ? 0
             : I * 2 * boundaries +
                   (I - 1) * (4 * boundaries + stencil_edges);
  dag.reserve(I * (ranks * tasks + 2 * boundaries), num_edges);
  // Ids of the previous iteration's tasks, per rank.
  std::vector<std::vector<NodeId>> prev_compute(static_cast<std::size_t>(R));
  for (int i = 0; i < cfg.iterations; ++i) {
    std::vector<NodeId> up(static_cast<std::size_t>(R), kInvalidNode);
    std::vector<NodeId> down(static_cast<std::size_t>(R), kInvalidNode);
    std::vector<std::vector<NodeId>> compute(static_cast<std::size_t>(R));

    for (int r = 0; r < R; ++r) {
      TaskParams cp;
      cp.p0 = bytes;
      if (r > 0) {
        const NodeId n = dag.add_node(comm_type, Priority::kHigh, cp);
        dag.node(n).rank = r;
        dag.node(n).phase = i;
        dag.node(n).affinity_core = 0;
        up[static_cast<std::size_t>(r)] = n;
      }
      if (r < R - 1) {
        const NodeId n = dag.add_node(comm_type, Priority::kHigh, cp);
        dag.node(n).rank = r;
        dag.node(n).phase = i;
        dag.node(n).affinity_core = 0;
        down[static_cast<std::size_t>(r)] = n;
      }
      for (int t = 0; t < T; ++t) {
        TaskParams kp;
        kp.p0 = std::max(3.0, std::sqrt(points_per_task));
        const NodeId n = dag.add_node(heat_compute_type, Priority::kLow, kp);
        dag.node(n).rank = r;
        dag.node(n).phase = i;
        compute[static_cast<std::size_t>(r)].push_back(n);
      }
    }

    for (int r = 0; r < R; ++r) {
      // Exchange depends on the bands it ships (local, iteration i-1) and on
      // the neighbour's matching band arriving over the wire (cross edge).
      if (i > 0) {
        if (up[static_cast<std::size_t>(r)] != kInvalidNode) {
          dag.add_edge(prev_compute[static_cast<std::size_t>(r)].front(),
                       up[static_cast<std::size_t>(r)]);
          dag.add_edge(prev_compute[static_cast<std::size_t>(r - 1)].back(),
                       up[static_cast<std::size_t>(r)], wire_delay);
        }
        if (down[static_cast<std::size_t>(r)] != kInvalidNode) {
          dag.add_edge(prev_compute[static_cast<std::size_t>(r)].back(),
                       down[static_cast<std::size_t>(r)]);
          dag.add_edge(prev_compute[static_cast<std::size_t>(r + 1)].front(),
                       down[static_cast<std::size_t>(r)], wire_delay);
        }
      }
      // Compute depends on fresh ghosts (boundary tasks) and the 3-row
      // neighbourhood of the previous iteration (all tasks).
      for (int t = 0; t < T; ++t) {
        const NodeId n = compute[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)];
        if (t == 0 && up[static_cast<std::size_t>(r)] != kInvalidNode)
          dag.add_edge(up[static_cast<std::size_t>(r)], n);
        if (t == T - 1 && down[static_cast<std::size_t>(r)] != kInvalidNode)
          dag.add_edge(down[static_cast<std::size_t>(r)], n);
        if (i > 0) {
          for (int dt = -1; dt <= 1; ++dt) {
            const int tp = t + dt;
            if (tp < 0 || tp >= T) continue;
            dag.add_edge(prev_compute[static_cast<std::size_t>(r)][static_cast<std::size_t>(tp)], n);
          }
        }
      }
    }
    prev_compute = std::move(compute);
  }
  DAS_ASSERT(dag.num_edges() == num_edges);
  dag.seal();  // builders hand out sealed (CSR-compacted) DAGs
  return dag;
}

}  // namespace das::workloads
