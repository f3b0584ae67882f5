#include "workloads/kmeans.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace das::workloads {

std::vector<double> generate_blobs(int points, int dims, int k,
                                   std::uint64_t seed) {
  DAS_CHECK(points >= k && dims >= 1 && k >= 1);
  Xoshiro256 rng(seed);
  // Blob centers on a scaled hypercube diagonal lattice: far apart relative
  // to the unit-ish noise, so clustering converges quickly and tests can
  // assert recovery.
  std::vector<double> centers(static_cast<std::size_t>(k) * dims);
  for (int c = 0; c < k; ++c)
    for (int d = 0; d < dims; ++d)
      centers[static_cast<std::size_t>(c) * dims + d] =
          10.0 * c + 3.0 * ((c + d) % k);

  std::vector<double> pts(static_cast<std::size_t>(points) * dims);
  for (int i = 0; i < points; ++i) {
    const int c = i % k;
    for (int d = 0; d < dims; ++d) {
      // Sum of 4 uniforms ~ bell-shaped noise in [-2, 2); exactness of the
      // distribution is irrelevant here.
      double noise = 0.0;
      for (int j = 0; j < 4; ++j) noise += rng.uniform(-0.5, 0.5);
      pts[static_cast<std::size_t>(i) * dims + d] =
          centers[static_cast<std::size_t>(c) * dims + d] + noise;
    }
  }
  return pts;
}

namespace {

/// Shared chunk partition: big chunks carry `big_chunk_weight` shares,
/// small ones 1. Returns (number of big chunks, chunk boundaries).
std::pair<int, std::vector<int>> compute_chunk_bounds(const KMeansConfig& cfg) {
  DAS_CHECK(cfg.points >= cfg.k);
  DAS_CHECK(cfg.chunks >= 1 && cfg.chunks <= cfg.points);
  DAS_CHECK(cfg.big_chunk_weight >= 1.0);
  DAS_CHECK(cfg.big_chunk_fraction_den >= 1);
  const int num_big = std::max(1, cfg.chunks / cfg.big_chunk_fraction_den);
  const double total_weight =
      num_big * cfg.big_chunk_weight + (cfg.chunks - num_big);
  std::vector<int> bounds(static_cast<std::size_t>(cfg.chunks) + 1);
  bounds[0] = 0;
  double carried = 0.0;
  for (int c = 0; c < cfg.chunks; ++c) {
    const double w = c < num_big ? cfg.big_chunk_weight : 1.0;
    carried += w / total_weight * cfg.points;
    bounds[static_cast<std::size_t>(c) + 1] =
        c + 1 == cfg.chunks ? cfg.points
                            : std::min(cfg.points, static_cast<int>(carried));
  }
  return {num_big, std::move(bounds)};
}

/// Iteration DAG shape shared by the real and sim builders.
Dag build_iteration_dag(const KMeansConfig& cfg, int num_big,
                        const std::vector<int>& bounds, TaskTypeId map_type,
                        TaskTypeId reduce_type, int phase,
                        const std::function<WorkFn(int)>& map_work,
                        WorkFn reduce_work) {
  Dag dag;
  const auto chunks = static_cast<std::size_t>(cfg.chunks);
  dag.reserve(chunks + 1, chunks);
  std::vector<NodeId> maps;
  maps.reserve(chunks);
  for (int c = 0; c < cfg.chunks; ++c) {
    const Priority prio = c < num_big ? Priority::kHigh : Priority::kLow;
    TaskParams params;
    params.p0 = bounds[static_cast<std::size_t>(c) + 1] -
                bounds[static_cast<std::size_t>(c)];
    params.p1 = cfg.dims;
    params.p2 = cfg.k;
    const NodeId n = dag.add_node(map_type, prio, params,
                                  map_work ? map_work(c) : WorkFn{});
    dag.node(n).phase = phase;
    maps.push_back(n);
  }
  TaskParams rp;
  rp.p0 = static_cast<double>(cfg.k) * cfg.dims;
  const NodeId reduce =
      dag.add_node(reduce_type, Priority::kLow, rp, std::move(reduce_work));
  dag.node(reduce).phase = phase;
  for (NodeId m : maps) dag.add_edge(m, reduce);
  dag.seal();  // builders hand out sealed (CSR-compacted) DAGs
  return dag;
}

}  // namespace

KMeansSimBuilder::KMeansSimBuilder(KMeansConfig cfg, TaskTypeId map_type,
                                   TaskTypeId reduce_type)
    : cfg_(cfg), map_type_(map_type), reduce_type_(reduce_type) {
  auto [num_big, bounds] = compute_chunk_bounds(cfg_);
  num_big_ = num_big;
  chunk_begin_ = std::move(bounds);
}

int KMeansSimBuilder::chunk_size(int chunk) const {
  DAS_CHECK(chunk >= 0 && chunk < cfg_.chunks);
  return chunk_begin_[static_cast<std::size_t>(chunk) + 1] -
         chunk_begin_[static_cast<std::size_t>(chunk)];
}

Dag KMeansSimBuilder::make_iteration_dag(int phase) const {
  return build_iteration_dag(cfg_, num_big_, chunk_begin_, map_type_,
                             reduce_type_, phase, {}, {});
}

KMeans::KMeans(KMeansConfig cfg, TaskTypeId map_type, TaskTypeId reduce_type)
    : cfg_(cfg), map_type_(map_type), reduce_type_(reduce_type) {
  DAS_CHECK(cfg_.max_width >= 1);
  auto [num_big, bounds] = compute_chunk_bounds(cfg_);
  num_big_ = num_big;
  chunk_begin_ = std::move(bounds);

  points_ = generate_blobs(cfg_.points, cfg_.dims, cfg_.k, cfg_.seed);
  slot_stride_ = static_cast<std::size_t>(cfg_.k) * (cfg_.dims + 1);
  partials_.assign(slot_stride_ * static_cast<std::size_t>(cfg_.chunks) *
                       static_cast<std::size_t>(cfg_.max_width),
                   0.0);
  reset_centroids();
}

void KMeans::reset_centroids() {
  centroids_.assign(points_.begin(),
                    points_.begin() + static_cast<std::size_t>(cfg_.k) * cfg_.dims);
}

int KMeans::chunk_begin(int chunk) const {
  DAS_CHECK(chunk >= 0 && chunk <= cfg_.chunks);
  return chunk_begin_[static_cast<std::size_t>(chunk)];
}

int KMeans::chunk_size(int chunk) const {
  DAS_CHECK(chunk >= 0 && chunk < cfg_.chunks);
  return chunk_begin_[static_cast<std::size_t>(chunk) + 1] -
         chunk_begin_[static_cast<std::size_t>(chunk)];
}

void KMeans::map_chunk(int chunk, const ExecContext& ctx) {
  DAS_CHECK(ctx.width <= cfg_.max_width);
  double* acc = slot(chunk, ctx.rank);
  std::memset(acc, 0, slot_stride_ * sizeof(double));
  double* counts = acc;                 // k entries
  double* sums = acc + cfg_.k;          // k x dims entries

  const int begin = chunk_begin(chunk);
  const int size = chunk_size(chunk);
  // Participants split the chunk's points.
  const int base = size / ctx.width;
  const int extra = size % ctx.width;
  const int my_begin = begin + ctx.rank * base + std::min(ctx.rank, extra);
  const int my_len = base + (ctx.rank < extra ? 1 : 0);

  const int d = cfg_.dims;
  for (int i = my_begin; i < my_begin + my_len; ++i) {
    const double* p = points_.data() + static_cast<std::size_t>(i) * d;
    int best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (int c = 0; c < cfg_.k; ++c) {
      const double* q = centroids_.data() + static_cast<std::size_t>(c) * d;
      double dist = 0.0;
      for (int j = 0; j < d; ++j) {
        const double diff = p[j] - q[j];
        dist += diff * diff;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best = c;
      }
    }
    counts[best] += 1.0;
    double* s = sums + static_cast<std::size_t>(best) * d;
    for (int j = 0; j < d; ++j) s[j] += p[j];
  }
}

void KMeans::reduce_all(const ExecContext& ctx) {
  if (ctx.rank != 0) return;  // single participant does the (cheap) reduction
  const int d = cfg_.dims;
  std::vector<double> counts(static_cast<std::size_t>(cfg_.k), 0.0);
  std::vector<double> sums(static_cast<std::size_t>(cfg_.k) * d, 0.0);
  for (int c = 0; c < cfg_.chunks; ++c) {
    for (int w = 0; w < cfg_.max_width; ++w) {
      const double* acc = slot(c, w);
      for (int i = 0; i < cfg_.k; ++i) counts[static_cast<std::size_t>(i)] += acc[i];
      for (std::size_t i = 0; i < static_cast<std::size_t>(cfg_.k) * d; ++i)
        sums[i] += acc[static_cast<std::size_t>(cfg_.k) + i];
    }
  }
  for (int c = 0; c < cfg_.k; ++c) {
    if (counts[static_cast<std::size_t>(c)] <= 0.0) continue;  // keep empty clusters
    for (int j = 0; j < d; ++j)
      centroids_[static_cast<std::size_t>(c) * d + j] =
          sums[static_cast<std::size_t>(c) * d + j] / counts[static_cast<std::size_t>(c)];
  }
  // Stale partials must not leak into the next iteration: map tasks zero
  // their own slot on entry, but a slot used at width w this iteration and
  // width w' < w next iteration would keep ranks [w', w) stale. Clear now.
  std::memset(partials_.data(), 0, partials_.size() * sizeof(double));
}

Dag KMeans::make_real_iteration_dag(int phase) {
  return build_iteration_dag(
      cfg_, num_big_, chunk_begin_, map_type_, reduce_type_, phase,
      [this](int c) {
        return [this, c](const ExecContext& ctx) { map_chunk(c, ctx); };
      },
      [this](const ExecContext& ctx) { reduce_all(ctx); });
}

Dag KMeans::make_sim_iteration_dag(int phase) const {
  return build_iteration_dag(cfg_, num_big_, chunk_begin_, map_type_,
                             reduce_type_, phase, {}, {});
}

void KMeans::serial_iteration(std::vector<double>& centroids) const {
  DAS_CHECK(centroids.size() == static_cast<std::size_t>(cfg_.k) * cfg_.dims);
  const int d = cfg_.dims;
  std::vector<double> counts(static_cast<std::size_t>(cfg_.k), 0.0);
  std::vector<double> sums(static_cast<std::size_t>(cfg_.k) * d, 0.0);
  for (int i = 0; i < cfg_.points; ++i) {
    const double* p = points_.data() + static_cast<std::size_t>(i) * d;
    int best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (int c = 0; c < cfg_.k; ++c) {
      const double* q = centroids.data() + static_cast<std::size_t>(c) * d;
      double dist = 0.0;
      for (int j = 0; j < d; ++j) {
        const double diff = p[j] - q[j];
        dist += diff * diff;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best = c;
      }
    }
    counts[static_cast<std::size_t>(best)] += 1.0;
    for (int j = 0; j < d; ++j)
      sums[static_cast<std::size_t>(best) * d + j] += p[j];
  }
  for (int c = 0; c < cfg_.k; ++c) {
    if (counts[static_cast<std::size_t>(c)] <= 0.0) continue;
    for (int j = 0; j < d; ++j)
      centroids[static_cast<std::size_t>(c) * d + j] =
          sums[static_cast<std::size_t>(c) * d + j] / counts[static_cast<std::size_t>(c)];
  }
}

double KMeans::inertia() const {
  const int d = cfg_.dims;
  double total = 0.0;
  for (int i = 0; i < cfg_.points; ++i) {
    const double* p = points_.data() + static_cast<std::size_t>(i) * d;
    double best_dist = std::numeric_limits<double>::infinity();
    for (int c = 0; c < cfg_.k; ++c) {
      const double* q = centroids_.data() + static_cast<std::size_t>(c) * d;
      double dist = 0.0;
      for (int j = 0; j < d; ++j) {
        const double diff = p[j] - q[j];
        dist += diff * diff;
      }
      best_dist = std::min(best_dist, dist);
    }
    total += best_dist;
  }
  return total;
}

}  // namespace das::workloads
