#include "core/policy.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace das {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kRws: return "RWS";
    case Policy::kRwsmC: return "RWSM-C";
    case Policy::kFa: return "FA";
    case Policy::kFamC: return "FAM-C";
    case Policy::kDa: return "DA";
    case Policy::kDamC: return "DAM-C";
    case Policy::kDamP: return "DAM-P";
    case Policy::kDheft: return "dHEFT";
  }
  return "?";
}

const std::vector<Policy>& all_policies() {
  static const std::vector<Policy> kAll = {
      Policy::kRws, Policy::kRwsmC, Policy::kFa,  Policy::kFamC,
      Policy::kDa,  Policy::kDamC,  Policy::kDamP};
  return kAll;
}

const std::vector<Policy>& all_known_policies() {
  static const std::vector<Policy> kAll = [] {
    std::vector<Policy> v = all_policies();
    v.push_back(Policy::kDheft);
    return v;
  }();
  return kAll;
}

std::optional<Policy> policy_from_name(const std::string& name) {
  for (Policy p : all_known_policies())
    if (name == policy_name(p)) return p;
  return std::nullopt;
}

PolicyEngine::PolicyEngine(Policy policy, const Topology& topo, PttStore* ptt,
                           std::uint64_t seed, PolicyOptions options)
    : policy_(policy),
      traits_(policy_traits(policy)),
      topo_(&topo),
      ptt_(ptt),
      options_(options),
      rng_state_(seed ? seed : 0x9e3779b97f4a7c15ULL) {
  DAS_CHECK_MSG(!traits_.uses_ptt || ptt_ != nullptr,
                std::string(policy_name(policy)) + " requires a PttStore");
  const Cluster& fast = topo.cluster(topo.fastest_cluster());
  fast_first_core_ = fast.first_core;
  fast_num_cores_ = fast.num_cores;
  if (policy_ == Policy::kDheft) {
    reserved_ = std::make_unique<std::atomic<double>[]>(
        static_cast<std::size_t>(topo.num_cores()));
    for (int c = 0; c < topo.num_cores(); ++c)
      reserved_[static_cast<std::size_t>(c)].store(0.0, std::memory_order_relaxed);
  }

  // Candidate tables. Every table of the store shares one slot layout, so
  // the first table's is every table's; a store without tables can never
  // be searched (table() rejects every type).
  if (!traits_.uses_ptt || ptt_->num_types() == 0) return;
  const Ptt& layout = ptt_->table(0);
  DAS_CHECK_MSG(layout.topology().num_places() == topo.num_places(),
                "PttStore built for a different topology");
  for (int c = 0; c < topo.num_cores(); ++c)
    local_stride_ = std::max(local_stride_,
                             static_cast<int>(topo.local_places(c).size()));
  const std::size_t n = topo.places().size() + topo.width1_places().size() +
                        static_cast<std::size_t>(topo.num_cores()) *
                            static_cast<std::size_t>(local_stride_);
  candidates_ = std::make_unique_for_overwrite<Candidate[]>(n);
  Candidate* out = candidates_.get();
  const auto append = [&](const std::vector<ExecutionPlace>& places) {
    for (const ExecutionPlace& p : places) {
      const auto pid = static_cast<std::size_t>(topo.place_id(p));
      *out++ = Candidate{layout.slot_of_place_[pid], p.width};
    }
  };
  append(topo.places());
  append(topo.width1_places());
  for (int c = 0; c < topo.num_cores(); ++c) {
    append(topo.local_places(c));
    out += local_stride_ - static_cast<int>(topo.local_places(c).size());
  }
}

ExecutionPlace PolicyEngine::dheft_place(TaskTypeId type) {
  // HEFT's earliest-finish rule with runtime-discovered execution times
  // (dHEFT): finish(core) = reserved work on the core + the PTT's width-1
  // estimate. Unexplored cores borrow the mean of the explored entries so
  // the very first placements still spread by reserved work.
  const Ptt::Entry* entries = ptt_->table(type).entries_.get();
  const std::span<const Candidate> cands(
      candidates_.get() + topo_->num_places(), topo_->width1_places().size());
  double explored_sum = 0.0;
  int explored = 0;
  for (const Candidate& c : cands) {
    const Ptt::Entry& e = entries[c.slot];
    if (e.samples.load(std::memory_order_relaxed) > 0) {
      explored_sum += e.value.load(std::memory_order_relaxed);
      ++explored;
    }
  }
  const double fallback = explored > 0 ? explored_sum / explored : 1e-4;

  double best_finish = std::numeric_limits<double>::infinity();
  ExecutionPlace best{0, 1};
  double best_est = fallback;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const Ptt::Entry& e = entries[cands[i].slot];
    const ExecutionPlace& p = topo_->width1_places()[i];
    const double est = e.samples.load(std::memory_order_relaxed) > 0
                           ? e.value.load(std::memory_order_relaxed)
                           : fallback;
    const double finish =
        reserved_[static_cast<std::size_t>(p.leader)].load(std::memory_order_relaxed) +
        est;
    if (finish < best_finish) {
      best_finish = finish;
      best = p;
      best_est = est;
    }
  }
  reserved_[static_cast<std::size_t>(best.leader)].fetch_add(
      best_est, std::memory_order_relaxed);
  return best;
}

int PolicyEngine::round_robin_fast_core() {
  const std::uint32_t n = rr_counter_.fetch_add(1, std::memory_order_relaxed);
  return fast_first_core_ +
         static_cast<int>(n % static_cast<std::uint32_t>(fast_num_cores_));
}

ExecutionPlace PolicyEngine::global_search(TaskTypeId type,
                                           Objective objective) {
  const std::size_t i =
      search_index(ptt_->table(type),
                   {candidates_.get(), topo_->places().size()}, objective);
  return topo_->places()[i];
}

ExecutionPlace PolicyEngine::width1_search(TaskTypeId type) {
  const std::size_t i = search_index(
      ptt_->table(type),
      {candidates_.get() + topo_->num_places(), topo_->width1_places().size()},
      Objective::kTime);
  return topo_->width1_places()[i];
}

ExecutionPlace PolicyEngine::local_search(TaskTypeId type, int core) {
  // Algorithm 1, line 4: keep the resource partition and core fixed, mold
  // only the width; minimise predicted time x width (parallel cost).
  const std::vector<ExecutionPlace>& local = topo_->local_places(core);
  const std::size_t begin =
      static_cast<std::size_t>(topo_->num_places()) +
      topo_->width1_places().size() +
      static_cast<std::size_t>(core) * static_cast<std::size_t>(local_stride_);
  const std::size_t i =
      search_index(ptt_->table(type), {candidates_.get() + begin, local.size()},
                   Objective::kCost);
  return local[i];
}

ExecutionPlace PolicyEngine::search(
    TaskTypeId type, const std::vector<ExecutionPlace>& candidates,
    Objective objective) {
  DAS_CHECK(!candidates.empty());
  DAS_CHECK(ptt_ != nullptr);
  const Ptt& table = ptt_->table(type);
  std::vector<Candidate> cands;
  cands.reserve(candidates.size());
  for (const ExecutionPlace& p : candidates) {
    const auto pid = static_cast<std::size_t>(topo_->place_id(p));
    cands.push_back(Candidate{table.slot_of_place_[pid], p.width});
  }
  return candidates[search_index(table, cands, objective)];
}

PolicyEngine::TieState PolicyEngine::tie_state() const {
  return {tie_counter_.load(std::memory_order_relaxed),
          rng_state_.load(std::memory_order_relaxed)};
}

// daslint: begin-hot-path(policy-search)
std::size_t PolicyEngine::search_index(const Ptt& table,
                                       std::span<const Candidate> cands,
                                       Objective objective) {
  // Minimise the objective key. Zero-valued (unexplored) entries produce a
  // zero key and therefore win, yielding the paper's explore-everything
  // start-up behaviour. Exact key ties are broken by fewest samples, then
  // round-robin (or randomly under options_.random_tie_break) so the initial
  // exploration fans out instead of hammering candidate #0.
  //
  // Relaxed loads: an entry publishes nothing but itself (Ptt::update), and
  // a search racing an rt update may see either value.
  const Ptt::Entry* entries = table.entries_.get();
  const bool cost = objective == Objective::kCost;
  const auto key_of = [&](const Candidate& c) {
    const double v = entries[c.slot].value.load(std::memory_order_relaxed);
    return cost ? v * static_cast<double>(c.width) : v;
  };
  const auto samples_of = [&](const Candidate& c) {
    return entries[c.slot].samples.load(std::memory_order_relaxed);
  };

  // Pass 1: the minimum (key, samples) pair, its first index and how many
  // candidates share it. The running minimum only decreases, so no tie
  // precedes `best`.
  double best_key = std::numeric_limits<double>::infinity();
  std::uint64_t best_samples = 0;
  std::size_t best = 0;
  std::size_t ties = 0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const double key = key_of(cands[i]);
    const std::uint64_t s = samples_of(cands[i]);
    if (key < best_key || (key == best_key && s < best_samples)) {
      best_key = key;
      best_samples = s;
      best = i;
      ties = 1;
    } else if (key == best_key && s == best_samples) {
      ++ties;
    }
  }
  // No tie at all only when every key is +inf (infinite samples): any
  // candidate is then as good as `best`.
  if (ties <= 1) return best;

  std::size_t k;
  if (options_.random_tie_break) {
    // splitmix64 step on the shared state; contention is irrelevant here
    // because ties only persist during the brief exploration phase.
    std::uint64_t s = rng_state_.fetch_add(0x9e3779b97f4a7c15ULL,
                                           std::memory_order_relaxed);
    SplitMix64 sm(s);
    k = static_cast<std::size_t>(sm.next() % ties);
  } else {
    k = tie_counter_.fetch_add(1, std::memory_order_relaxed) % ties;
  }

  // Pass 2: the k-th tie after `best`. On rt a concurrent update can break
  // a tie between the passes; `best` is then still a valid minimum.
  for (std::size_t i = best + 1; i < cands.size() && k > 0; ++i) {
    if (key_of(cands[i]) == best_key && samples_of(cands[i]) == best_samples &&
        --k == 0)
      return i;
  }
  return best;
}
// daslint: end-hot-path

void PolicyEngine::dheft_drain(const ExecutionPlace& place, double seconds) {
  // Drain the reservation by the observed time; clamp drift at zero.
  auto& r = reserved_[static_cast<std::size_t>(place.leader)];
  double cur = r.load(std::memory_order_relaxed);
  double next;
  do {
    next = std::max(cur - seconds, 0.0);
  } while (!r.compare_exchange_weak(cur, next, std::memory_order_relaxed));
}

}  // namespace das
