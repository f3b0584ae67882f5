#include "platform/topology.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/format.hpp"

namespace das {

std::string to_string(const ExecutionPlace& p) {
  return "(C" + std::to_string(p.leader) + "," + std::to_string(p.width) + ")";
}

namespace {

std::vector<int> power_of_two_widths(int cores) {
  std::vector<int> w;
  for (int v = 1; v <= cores; v <<= 1) w.push_back(v);
  return w;
}

}  // namespace

Topology::Topology(std::vector<Cluster> clusters) : clusters_(std::move(clusters)) {
  DAS_CHECK(!clusters_.empty());
  int next = 0;
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    Cluster& c = clusters_[i];
    DAS_CHECK_MSG(c.first_core == next, "clusters must tile cores contiguously");
    DAS_CHECK(c.num_cores > 0);
    DAS_CHECK(c.base_speed > 0.0);
    DAS_CHECK(!c.widths.empty());
    DAS_CHECK_MSG(c.widths.front() == 1,
                  "every cluster must support width 1 (single-core execution)");
    DAS_CHECK(std::is_sorted(c.widths.begin(), c.widths.end()));
    for (int w : c.widths) {
      DAS_CHECK_MSG(w >= 1 && w <= c.num_cores, "width out of range for cluster");
      DAS_CHECK_MSG((w & (w - 1)) == 0, "widths must be powers of two");
    }
    next += c.num_cores;
    for (int k = 0; k < c.num_cores; ++k) cluster_of_.push_back(static_cast<int>(i));
  }
  num_cores_ = next;

  fastest_cluster_ = 0;
  for (int i = 1; i < num_clusters(); ++i)
    if (clusters_[i].base_speed > clusters_[fastest_cluster_].base_speed)
      fastest_cluster_ = i;
  max_base_speed_ = clusters_[fastest_cluster_].base_speed;

  // Enumerate valid places in (leader, width) order and build the dense map.
  place_id_.assign(num_cores_, {});
  for (int core = 0; core < num_cores_; ++core) {
    const Cluster& c = cluster_of_core(core);
    const int max_w = c.widths.back();
    place_id_[core].assign(static_cast<std::size_t>(max_w) + 1, -1);
  }
  for (int core = 0; core < num_cores_; ++core) {
    const Cluster& c = cluster_of_core(core);
    const int offset = core - c.first_core;
    for (int w : c.widths) {
      if (offset % w != 0) continue;
      if (offset + w > c.num_cores) continue;
      place_id_[core][w] = static_cast<int>(places_.size());
      places_.push_back(ExecutionPlace{core, w});
    }
  }

  local_.assign(num_cores_, {});
  for (int core = 0; core < num_cores_; ++core) {
    const Cluster& c = cluster_of_core(core);
    const int offset = core - c.first_core;
    for (int w : c.widths) {
      const int leader = c.first_core + (offset / w) * w;
      const ExecutionPlace p{leader, w};
      if (is_valid_place(p)) local_[core].push_back(p);
    }
  }

  for (const ExecutionPlace& p : places_)
    if (p.width == 1) width1_places_.push_back(p);
}

const Cluster& Topology::cluster(int idx) const {
  DAS_CHECK(idx >= 0 && idx < num_clusters());
  return clusters_[idx];
}

int Topology::cluster_index_of(int core) const {
  DAS_CHECK_MSG(core >= 0 && core < num_cores_, "core id out of range");
  return cluster_of_[core];
}

const ExecutionPlace& Topology::place_at(int place_id) const {
  DAS_CHECK(place_id >= 0 && place_id < num_places());
  return places_[place_id];
}

int Topology::leader_for(int core, int width) const {
  const Cluster& c = cluster_of_core(core);
  DAS_CHECK_MSG(std::find(c.widths.begin(), c.widths.end(), width) != c.widths.end(),
                "width not supported by cluster");
  const int offset = core - c.first_core;
  return c.first_core + (offset / width) * width;
}

// --- Presets ---------------------------------------------------------------

Topology Topology::tx2() {
  Cluster denver{.name = "denver",
                 .first_core = 0,
                 .num_cores = 2,
                 .base_speed = 1.0,
                 .widths = {1, 2},
                 .l1_kb = 64.0,
                 .l2_kb = 2048.0,
                 .mem_bw_gbs = 20.0};
  Cluster a57{.name = "a57",
              .first_core = 2,
              .num_cores = 4,
              .base_speed = 0.55,
              .widths = {1, 2, 4},
              .l1_kb = 32.0,
              .l2_kb = 2048.0,
              .mem_bw_gbs = 20.0,
              .stream_fit = 0.45};  // in-order-ish A57s stall on L2 misses
  return Topology({denver, a57});
}

Topology Topology::haswell16() {
  std::vector<Cluster> cs;
  for (int s = 0; s < 2; ++s) {
    cs.push_back(Cluster{.name = "socket" + std::to_string(s),
                         .first_core = s * 8,
                         .num_cores = 8,
                         .base_speed = 1.0,
                         .widths = {1, 2, 4, 8},
                         .l1_kb = 32.0,
                         .l2_kb = 20 * 1024.0,
                         .mem_bw_gbs = 50.0});
  }
  return Topology(std::move(cs));
}

Topology Topology::haswell20() {
  std::vector<Cluster> cs;
  for (int s = 0; s < 2; ++s) {
    cs.push_back(Cluster{.name = "socket" + std::to_string(s),
                         .first_core = s * 10,
                         .num_cores = 10,
                         .base_speed = 1.0,
                         .widths = {1, 2, 4, 8},
                         .l1_kb = 32.0,
                         .l2_kb = 25 * 1024.0,
                         .mem_bw_gbs = 50.0});
  }
  return Topology(std::move(cs));
}

Topology Topology::haswell_cluster(int nodes) {
  DAS_CHECK(nodes >= 1);
  std::vector<Cluster> cs;
  for (int n = 0; n < nodes; ++n) {
    for (int s = 0; s < 2; ++s) {
      std::string name = fmt_indexed("n", n);
      name += fmt_indexed(".s", s);
      cs.push_back(Cluster{.name = std::move(name),
                           .first_core = (n * 2 + s) * 10,
                           .num_cores = 10,
                           .base_speed = 1.0,
                           .widths = {1, 2, 4, 8},
                           .l1_kb = 32.0,
                           .l2_kb = 25 * 1024.0,
                           .mem_bw_gbs = 50.0});
    }
  }
  return Topology(std::move(cs));
}

Topology Topology::symmetric(int num_clusters, int cores_per_cluster, double speed) {
  DAS_CHECK(num_clusters >= 1 && cores_per_cluster >= 1);
  std::vector<Cluster> cs;
  for (int i = 0; i < num_clusters; ++i) {
    cs.push_back(Cluster{.name = "cluster" + std::to_string(i),
                         .first_core = i * cores_per_cluster,
                         .num_cores = cores_per_cluster,
                         .base_speed = speed,
                         .widths = power_of_two_widths(cores_per_cluster)});
  }
  return Topology(std::move(cs));
}

}  // namespace das
