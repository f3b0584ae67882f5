#pragma once
// Platform model: clusters of same-ISA cores with (possibly) different base
// speeds, shared per-cluster L2, and a set of valid moldable resource widths
// (paper §2, Fig. 2(a)).
//
// An *execution place* is the pair (leader core, resource width): the task
// runs on cores [leader, leader + width). A place is valid iff
//   - width is one of the leader's cluster widths, and
//   - the leader is width-aligned within its cluster, and
//   - the place does not spill out of the cluster.
// The alignment rule matches the places observed in the paper's Fig. 5
// ((C2,2), (C4,2), (C2,4) appear on the 4-core A57 cluster; (C3,2) never).

#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace das {

struct ExecutionPlace {
  int leader = 0;
  int width = 1;

  friend bool operator==(const ExecutionPlace&, const ExecutionPlace&) = default;
};

/// Renders "(C2,4)" like the paper's figures.
std::string to_string(const ExecutionPlace& p);

struct Cluster {
  std::string name;
  int first_core = 0;       ///< global id of the first core in the cluster
  int num_cores = 0;
  double base_speed = 1.0;  ///< static relative speed (1.0 = fastest class)
  std::vector<int> widths;  ///< valid resource widths, ascending

  // Memory-hierarchy parameters consumed by the DES cost models
  // (src/kernels/cost_models.cpp). Sizes in KiB, bandwidth in GB/s.
  double l1_kb = 32.0;      ///< per-core L1 data cache
  double l2_kb = 2048.0;    ///< shared per-cluster L2
  double mem_bw_gbs = 20.0; ///< cluster's share of memory bandwidth
  /// Latency-hiding ability on cache-spilling streaming sweeps (deep
  /// out-of-order cores sustain more outstanding misses): multiplies the
  /// stencil rate when the working set spills the L2.
  double stream_fit = 0.8;

  int end_core() const { return first_core + num_cores; }
  bool contains(int core) const { return core >= first_core && core < end_core(); }
};

class Topology {
 public:
  /// Clusters must tile the core ids contiguously starting at 0.
  explicit Topology(std::vector<Cluster> clusters);

  // --- Presets ------------------------------------------------------------

  /// NVIDIA Jetson TX2: 2x Denver (fast) + 4x A57 (slow), per-cluster L2.
  /// Used for the paper's Figures 4-8.
  static Topology tx2();
  /// 16-core Intel Haswell node modelled as 2 sockets x 8 cores (Fig. 9).
  static Topology haswell16();
  /// Dual-socket 10-core Haswell node as in the paper's cluster (Fig. 10).
  static Topology haswell20();
  /// `nodes` Haswell nodes concatenated (2 sockets x 10 cores each); used
  /// with per-node scheduling domains for the distributed Heat experiment.
  static Topology haswell_cluster(int nodes);
  /// Generic symmetric topology: `num_clusters` clusters of
  /// `cores_per_cluster` equal-speed cores, widths = powers of two.
  static Topology symmetric(int num_clusters, int cores_per_cluster,
                            double speed = 1.0);

  // --- Shape --------------------------------------------------------------

  int num_cores() const { return num_cores_; }
  int num_clusters() const { return static_cast<int>(clusters_.size()); }
  const Cluster& cluster(int idx) const;
  const std::vector<Cluster>& clusters() const { return clusters_; }
  int cluster_index_of(int core) const;
  const Cluster& cluster_of_core(int core) const { return clusters_[cluster_index_of(core)]; }

  /// Cluster index with the highest base speed (ties: lowest index). This is
  /// what the fixed-asymmetry schedulers (FA / FAM-C) treat as "the fast
  /// cores".
  int fastest_cluster() const { return fastest_cluster_; }
  double max_base_speed() const { return max_base_speed_; }

  // --- Execution places ---------------------------------------------------

  // Inline: the engines consult the place table two or three times per
  // task; the table lookup IS the validity check.
  bool is_valid_place(const ExecutionPlace& p) const {
    if (p.leader < 0 || p.leader >= num_cores_ || p.width < 1) return false;
    if (p.width >
        static_cast<int>(place_id_[static_cast<std::size_t>(p.leader)].size()) - 1)
      return false;
    return place_id_[static_cast<std::size_t>(p.leader)]
                    [static_cast<std::size_t>(p.width)] >= 0;
  }
  /// All valid places, ordered by (leader, width); the index in this vector
  /// is the dense PlaceId used by the PTT.
  const std::vector<ExecutionPlace>& places() const { return places_; }
  int num_places() const { return static_cast<int>(places_.size()); }
  const ExecutionPlace& place_at(int place_id) const;
  /// Dense id of a valid place; DAS_CHECKs validity.
  int place_id(const ExecutionPlace& p) const {
    DAS_CHECK(is_valid_place(p));
    return place_id_[static_cast<std::size_t>(p.leader)]
                    [static_cast<std::size_t>(p.width)];
  }

  /// Leader for `core` at `width`: core aligned down to the width boundary
  /// within its cluster. DAS_CHECKs that the width is valid for the cluster.
  int leader_for(int core, int width) const;
  /// The candidate places of a *local search* from `core` (paper Alg. 1
  /// line 4): one place per valid cluster width, leader = align-down(core).
  const std::vector<ExecutionPlace>& local_places(int core) const {
    DAS_CHECK(core >= 0 && core < num_cores_);
    return local_[static_cast<std::size_t>(core)];
  }
  /// Width-1 places of every core (used by the DA policy's global search).
  const std::vector<ExecutionPlace>& width1_places() const { return width1_places_; }

 private:
  std::vector<Cluster> clusters_;
  int num_cores_ = 0;
  int fastest_cluster_ = 0;
  double max_base_speed_ = 1.0;
  std::vector<int> cluster_of_;                      // core -> cluster index
  std::vector<ExecutionPlace> places_;               // dense PlaceId order
  std::vector<std::vector<int>> place_id_;           // [leader][width] -> id or -1
  std::vector<std::vector<ExecutionPlace>> local_;   // [core] -> local-search places
  std::vector<ExecutionPlace> width1_places_;
};

}  // namespace das
