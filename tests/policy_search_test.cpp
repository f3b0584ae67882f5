// Property test: the policy hooks' candidate-table search kernel against a
// verbatim copy of the original vector-based PolicyEngine::search (kept
// below as the reference). Random PTT states force exact key ties and
// sample-count ties, including the all-zero exploration start; every
// candidate set (all places, width-1 places, each core's local places),
// both objectives and both tie-break modes are compared call by call on
// the chosen place and on the tie-break state consumed.

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/policy.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace das {
namespace {

using Objective = PolicyEngine::Objective;

/// The tie-break state PolicyEngine starts from (see its constructor).
struct RefTieState {
  std::uint32_t tie_counter = 0;
  std::uint64_t rng_state = 0;
};

RefTieState fresh_tie_state(std::uint64_t seed) {
  return RefTieState{0, seed ? seed : 0x9e3779b97f4a7c15ULL};
}

// Verbatim body of the original PolicyEngine::search; only the member
// accesses became parameters.
ExecutionPlace reference_search(const Topology& topo, const Ptt& table,
                                 const std::vector<ExecutionPlace>& candidates,
                                 Objective objective, bool random_tie_break,
                                 RefTieState& st) {
  DAS_CHECK(!candidates.empty());
  double best_key = std::numeric_limits<double>::infinity();
  std::uint64_t best_samples = 0;
  std::vector<const ExecutionPlace*> ties;
  for (const ExecutionPlace& p : candidates) {
    const int pid = topo.place_id(p);
    const double v = table.value(pid);
    const double key =
        objective == Objective::kCost ? v * static_cast<double>(p.width) : v;
    const std::uint64_t s = table.samples(pid);
    if (key < best_key || (key == best_key && s < best_samples)) {
      best_key = key;
      best_samples = s;
      ties.clear();
      ties.push_back(&p);
    } else if (key == best_key && s == best_samples) {
      ties.push_back(&p);
    }
  }
  DAS_CHECK(!ties.empty());
  if (ties.size() == 1) return *ties.front();

  std::size_t idx;
  if (random_tie_break) {
    std::uint64_t s = st.rng_state;
    st.rng_state += 0x9e3779b97f4a7c15ULL;
    SplitMix64 sm(s);
    idx = static_cast<std::size_t>(sm.next() % ties.size());
  } else {
    idx = st.tie_counter++ % ties.size();
  }
  return *ties[idx];
}

/// Rewrites the table at random so that exact ties are common: values are
/// powers of two (v * w ties exactly across power-of-two widths, and
/// repeated equal samples leave the value bit-exact), sample counts come
/// from {1, 2, 3}, and a share of the places stays unexplored (0, 0).
void randomise(Ptt& table, Xoshiro256& rng, double unexplored_share) {
  const int n = table.topology().num_places();
  table.fill(0.0);
  for (int pid = 0; pid < n; ++pid) {
    if (rng.uniform() < unexplored_share) continue;
    const double v = static_cast<double>(1u << rng.below(4)) * 0.25;
    const int samples = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < samples; ++i) table.update(pid, v);
  }
}

/// An engine and the reference tie-break state that mirrors it.
struct Mirror {
  Mirror(Policy p, const Topology& topo, PttStore* store, std::uint64_t seed,
         PolicyOptions opts)
      : engine(p, topo, store, seed, opts), ref(fresh_tie_state(seed)) {}
  PolicyEngine engine;
  RefTieState ref;
};

void expect_same_tie_state(const PolicyEngine& eng, const RefTieState& ref,
                           const std::string& where) {
  const PolicyEngine::TieState st = eng.tie_state();
  ASSERT_EQ(st.round_robin, ref.tie_counter) << where;
  ASSERT_EQ(st.random, ref.rng_state) << where;
}

using SearchParam = std::tuple<int, bool>;  // (topology, random_tie_break)

class SearchKernelTest : public ::testing::TestWithParam<SearchParam> {
 protected:
  static Topology topology(int which) {
    switch (which) {
      case 0: return Topology::tx2();
      case 1: return Topology::haswell20();
      case 2: return Topology::haswell_cluster(4);
      default: return Topology::symmetric(3, 4);
    }
  }
};

TEST_P(SearchKernelTest, MatchesReferenceCallByCall) {
  const auto [which, random_tie_break] = GetParam();
  const Topology topo = topology(which);
  PttStore store(topo, 2);
  PolicyOptions opts;
  opts.random_tie_break = random_tie_break;
  const std::uint64_t seed = 11;

  // One engine per hook that searches, each mirrored by a reference state.
  std::deque<Mirror> engines;
  for (Policy p : {Policy::kDamC, Policy::kDamP, Policy::kDa, Policy::kFamC,
                   Policy::kRwsmC})
    engines.emplace_back(p, topo, &store, seed, opts);
  std::uint32_t famc_rr = 0;
  const Cluster& fast = topo.cluster(topo.fastest_cluster());

  std::vector<std::pair<std::string, std::vector<ExecutionPlace>>> sets = {
      {"all", topo.places()}, {"width1", topo.width1_places()}};
  for (int c = 0; c < topo.num_cores(); ++c)
    sets.emplace_back("local" + std::to_string(c), topo.local_places(c));

  Xoshiro256 rng(1234 + static_cast<std::uint64_t>(which));
  for (int round = 0; round < 40; ++round) {
    // Round 0 is the all-zero exploration start; later rounds vary how much
    // is left unexplored, up to fully explored tables.
    const double unexplored = round == 0 ? 1.0 : (round % 4) * 0.25;
    for (TaskTypeId t = 0; t < store.num_types(); ++t)
      randomise(store.table(t), rng, unexplored);

    for (int rep = 0; rep < 3; ++rep) {
      const TaskTypeId t = static_cast<TaskTypeId>(rep % store.num_types());
      const auto ref = [&](const std::vector<ExecutionPlace>& cands,
                           Objective obj, RefTieState& st) {
        return reference_search(topo, store.table(t), cands, obj,
                                random_tie_break, st);
      };
      const std::string where = "topology " + std::to_string(which) +
                                " round " + std::to_string(round) + " rep " +
                                std::to_string(rep);

      // Hook searches over the precomputed tables.
      for (Mirror& m : engines) {
        const Policy p = m.engine.policy();
        const std::string at = where + " " + policy_name(p);
        const int waker = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(topo.num_cores())));
        const WakeDecision wd = m.engine.on_ready(t, Priority::kHigh, waker);
        if (p == Policy::kDamC || p == Policy::kDamP) {
          const Objective obj =
              p == Policy::kDamC ? Objective::kCost : Objective::kTime;
          EXPECT_EQ(wd.fixed_place, ref(topo.places(), obj, m.ref)) << at;
        } else if (p == Policy::kDa) {
          EXPECT_EQ(wd.fixed_place,
                    ref(topo.width1_places(), Objective::kTime, m.ref))
              << at;
        } else if (p == Policy::kFamC) {
          const auto fast_cores = static_cast<std::uint32_t>(fast.num_cores);
          const int core =
              fast.first_core + static_cast<int>(famc_rr++ % fast_cores);
          EXPECT_EQ(wd.fixed_place,
                    ref(topo.local_places(core), Objective::kCost, m.ref))
              << at;
        }
        expect_same_tie_state(m.engine, m.ref, at + " on_ready");
        if (policy_moldable(p)) {
          for (int c = 0; c < topo.num_cores(); ++c) {
            EXPECT_EQ(m.engine.on_execute(t, Priority::kLow, c),
                      ref(topo.local_places(c), Objective::kCost, m.ref))
                << at << " on_execute core " << c;
            expect_same_tie_state(m.engine, m.ref, at + " on_execute");
          }
        }
      }

      // The public wrapper over every candidate set and both objectives.
      Mirror& w = engines.front();
      for (const auto& [name, cands] : sets) {
        for (Objective obj : {Objective::kCost, Objective::kTime}) {
          EXPECT_EQ(w.engine.search(t, cands, obj), ref(cands, obj, w.ref))
              << where << " search " << name;
          expect_same_tie_state(w.engine, w.ref, where + " search " + name);
        }
      }
    }
  }

  // The states above must have forced tie-breaks through every engine.
  const RefTieState fresh = fresh_tie_state(seed);
  for (const Mirror& m : engines) {
    const PolicyEngine::TieState st = m.engine.tie_state();
    EXPECT_TRUE(st.round_robin != fresh.tie_counter ||
                st.random != fresh.rng_state)
        << policy_name(m.engine.policy());
  }
}

std::string param_name(const ::testing::TestParamInfo<SearchParam>& info) {
  static const char* const kNames[] = {"tx2", "haswell20", "haswell_cluster4",
                                       "symmetric3x4"};
  return std::string(kNames[std::get<0>(info.param)]) +
         (std::get<1>(info.param) ? "_random" : "_round_robin");
}

INSTANTIATE_TEST_SUITE_P(TopologiesAndTieBreaks, SearchKernelTest,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Bool()),
                         param_name);

}  // namespace
}  // namespace das
