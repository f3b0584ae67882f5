// Golden-value pin for multi-rank simulation: the conservative window
// protocol of sim/engine.cpp over several ranks joined by cross-rank delay
// edges. Each cell records its hexfloat makespan, per-rank FNV-1a trace
// hash (every processed event folded in order) and per-rank event count,
// so any change to the window partition, the boundary-release order or a
// rank's event/RNG stream fails loudly — in absolute terms, not just as a
// difference between two ways of running the same protocol.
//
// If a change INTENTIONALLY alters the multi-rank event stream, regenerate
// the tables:
//   DAS_PRINT_GOLDENS=1 ./multi_rank_sim_test
// and paste the printed initializers over the tables below.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/registry.hpp"
#include "platform/topology.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "trace/timeline.hpp"
#include "util/json.hpp"
#include "workloads/heat.hpp"

namespace das::sim {
namespace {

constexpr int kRanks = 3;

/// One pinned multi-rank cell.
struct Golden {
  const char* cell;
  const char* makespan_hex;
  std::uint64_t hashes[kRanks];
  std::uint64_t events[kRanks];
};

// Catalog scenario x policy x seed over the three asymmetric ranks below.
const Golden kGridGoldens[] = {
    {"clean/RWS/42", "0x1.d30a3de0a5b6ep-12", {0x2129587ccf51ab6cULL, 0xd604d5616c1b5c79ULL, 0xdd1a1667e1f8565eULL}, {90, 133, 94}},
    {"clean/RWS/1234", "0x1.c3f452ec2544dp-12", {0xf90527d6f3da1281ULL, 0x057258f86c37c51cULL, 0x86557c03c0f72f81ULL}, {90, 140, 90}},
    {"clean/FAM-C/42", "0x1.79d8c8f4bc50fp-10", {0xf76534b9464caa30ULL, 0x566ca48bc86239f9ULL, 0x5570e5ee65a1176fULL}, {108, 283, 114}},
    {"clean/FAM-C/1234", "0x1.c60849ad43b7bp-10", {0xff4eedf43854737bULL, 0xf810d03ce9edcd90ULL, 0xa4b938e97a107621ULL}, {114, 284, 119}},
    {"clean/DAM-C/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"clean/DAM-C/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
    {"clean/DAM-P/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"clean/DAM-P/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
    {"dvfs-wave/RWS/42", "0x1.d30a3de0a5b6ep-12", {0x2129587ccf51ab6cULL, 0xd604d5616c1b5c79ULL, 0xdd1a1667e1f8565eULL}, {90, 133, 94}},
    {"dvfs-wave/RWS/1234", "0x1.c3f452ec2544dp-12", {0xf90527d6f3da1281ULL, 0x057258f86c37c51cULL, 0x86557c03c0f72f81ULL}, {90, 140, 90}},
    {"dvfs-wave/FAM-C/42", "0x1.79d8c8f4bc50fp-10", {0xf76534b9464caa30ULL, 0x566ca48bc86239f9ULL, 0x5570e5ee65a1176fULL}, {108, 283, 114}},
    {"dvfs-wave/FAM-C/1234", "0x1.c60849ad43b7bp-10", {0xff4eedf43854737bULL, 0xf810d03ce9edcd90ULL, 0xa4b938e97a107621ULL}, {114, 284, 119}},
    {"dvfs-wave/DAM-C/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"dvfs-wave/DAM-C/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
    {"dvfs-wave/DAM-P/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"dvfs-wave/DAM-P/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
    {"interference-burst/RWS/42", "0x1.d30a3de0a5b6ep-12", {0x2129587ccf51ab6cULL, 0xd604d5616c1b5c79ULL, 0xdd1a1667e1f8565eULL}, {90, 133, 94}},
    {"interference-burst/RWS/1234", "0x1.c3f452ec2544dp-12", {0xf90527d6f3da1281ULL, 0x057258f86c37c51cULL, 0x86557c03c0f72f81ULL}, {90, 140, 90}},
    {"interference-burst/FAM-C/42", "0x1.79d8c8f4bc50fp-10", {0xf76534b9464caa30ULL, 0x566ca48bc86239f9ULL, 0x5570e5ee65a1176fULL}, {108, 283, 114}},
    {"interference-burst/FAM-C/1234", "0x1.c60849ad43b7bp-10", {0xff4eedf43854737bULL, 0xf810d03ce9edcd90ULL, 0xa4b938e97a107621ULL}, {114, 284, 119}},
    {"interference-burst/DAM-C/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"interference-burst/DAM-C/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
    {"interference-burst/DAM-P/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"interference-burst/DAM-P/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
    {"ramp-down/RWS/42", "0x1.d30a3de0a5b6ep-12", {0x2129587ccf51ab6cULL, 0xd604d5616c1b5c79ULL, 0xdd1a1667e1f8565eULL}, {90, 133, 94}},
    {"ramp-down/RWS/1234", "0x1.c3f452ec2544dp-12", {0xf90527d6f3da1281ULL, 0x057258f86c37c51cULL, 0x86557c03c0f72f81ULL}, {90, 140, 90}},
    {"ramp-down/FAM-C/42", "0x1.79d8c8f4bc50fp-10", {0xf76534b9464caa30ULL, 0x566ca48bc86239f9ULL, 0x5570e5ee65a1176fULL}, {108, 283, 114}},
    {"ramp-down/FAM-C/1234", "0x1.c60849ad43b7bp-10", {0xff4eedf43854737bULL, 0xf810d03ce9edcd90ULL, 0xa4b938e97a107621ULL}, {114, 284, 119}},
    {"ramp-down/DAM-C/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"ramp-down/DAM-C/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
    {"ramp-down/DAM-P/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"ramp-down/DAM-P/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
    {"random-churn/RWS/42", "0x1.d30a3de0a5b6ep-12", {0x2129587ccf51ab6cULL, 0xd604d5616c1b5c79ULL, 0xdd1a1667e1f8565eULL}, {90, 133, 94}},
    {"random-churn/RWS/1234", "0x1.c3f452ec2544dp-12", {0xf90527d6f3da1281ULL, 0x057258f86c37c51cULL, 0x86557c03c0f72f81ULL}, {90, 140, 90}},
    {"random-churn/FAM-C/42", "0x1.79d8c8f4bc50fp-10", {0xf76534b9464caa30ULL, 0x566ca48bc86239f9ULL, 0x5570e5ee65a1176fULL}, {108, 283, 114}},
    {"random-churn/FAM-C/1234", "0x1.c60849ad43b7bp-10", {0xff4eedf43854737bULL, 0xf810d03ce9edcd90ULL, 0xa4b938e97a107621ULL}, {114, 284, 119}},
    {"random-churn/DAM-C/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"random-churn/DAM-C/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
    {"random-churn/DAM-P/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"random-churn/DAM-P/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
    {"phase-flip/RWS/42", "0x1.19fc67e8b3a46p-11", {0x02a6171dba095348ULL, 0x1befd8c7aa878a24ULL, 0xed74fb23acf3831bULL}, {90, 144, 93}},
    {"phase-flip/RWS/1234", "0x1.40c46a40fff33p-11", {0x07f2e96c7a56d541ULL, 0x24ef4f5f7818634eULL, 0xe488689c3df19b86ULL}, {94, 155, 95}},
    {"phase-flip/FAM-C/42", "0x1.cbf4a63b50addp-10", {0x40106c76e9fe5013ULL, 0x722d3d63c5c09164ULL, 0x56b04a8731e28a75ULL}, {108, 289, 114}},
    {"phase-flip/FAM-C/1234", "0x1.c635a20e874c1p-10", {0xff4eedf43854737bULL, 0x2c83de358a60eaedULL, 0xf1773af9355066f1ULL}, {114, 284, 119}},
    {"phase-flip/DAM-C/42", "0x1.f21c67f050dccp-10", {0x7f44f5e7e764133dULL, 0x90901308923a4d48ULL, 0x6aa1755a837c3b95ULL}, {128, 301, 116}},
    {"phase-flip/DAM-C/1234", "0x1.af8a36181beedp-10", {0x57b10c450548aa71ULL, 0x07aafed027e92a1cULL, 0xa283e1935d5132deULL}, {125, 259, 113}},
    {"phase-flip/DAM-P/42", "0x1.f21c67f050dccp-10", {0x7f44f5e7e764133dULL, 0x90901308923a4d48ULL, 0x6aa1755a837c3b95ULL}, {128, 301, 116}},
    {"phase-flip/DAM-P/1234", "0x1.af8a36181beedp-10", {0x57b10c450548aa71ULL, 0x07aafed027e92a1cULL, 0xa283e1935d5132deULL}, {125, 259, 113}},
    {"fail-stop/RWS/42", "0x1.d30a3de0a5b6ep-12", {0x2129587ccf51ab6cULL, 0xd604d5616c1b5c79ULL, 0xdd1a1667e1f8565eULL}, {90, 133, 94}},
    {"fail-stop/RWS/1234", "0x1.c3f452ec2544dp-12", {0xf90527d6f3da1281ULL, 0x057258f86c37c51cULL, 0x86557c03c0f72f81ULL}, {90, 140, 90}},
    {"fail-stop/FAM-C/42", "0x1.79d8c8f4bc50fp-10", {0xf76534b9464caa30ULL, 0x566ca48bc86239f9ULL, 0x5570e5ee65a1176fULL}, {108, 283, 114}},
    {"fail-stop/FAM-C/1234", "0x1.c60849ad43b7bp-10", {0xff4eedf43854737bULL, 0xf810d03ce9edcd90ULL, 0xa4b938e97a107621ULL}, {114, 284, 119}},
    {"fail-stop/DAM-C/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"fail-stop/DAM-C/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
    {"fail-stop/DAM-P/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"fail-stop/DAM-P/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
    {"straggler-tail/RWS/42", "0x1.d30a3de0a5b6ep-12", {0x2129587ccf51ab6cULL, 0xd604d5616c1b5c79ULL, 0xdd1a1667e1f8565eULL}, {90, 133, 94}},
    {"straggler-tail/RWS/1234", "0x1.c3f452ec2544dp-12", {0xf90527d6f3da1281ULL, 0x057258f86c37c51cULL, 0x86557c03c0f72f81ULL}, {90, 140, 90}},
    {"straggler-tail/FAM-C/42", "0x1.79d8c8f4bc50fp-10", {0xf76534b9464caa30ULL, 0x566ca48bc86239f9ULL, 0x5570e5ee65a1176fULL}, {108, 283, 114}},
    {"straggler-tail/FAM-C/1234", "0x1.c60849ad43b7bp-10", {0xff4eedf43854737bULL, 0xf810d03ce9edcd90ULL, 0xa4b938e97a107621ULL}, {114, 284, 119}},
    {"straggler-tail/DAM-C/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"straggler-tail/DAM-C/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
    {"straggler-tail/DAM-P/42", "0x1.ac72ee504eb83p-10", {0xde3a8df72e4b81ffULL, 0xf9c92172847aa09fULL, 0xd825a27b6ab6b2dcULL}, {128, 279, 116}},
    {"straggler-tail/DAM-P/1234", "0x1.9dcda2684d0aap-10", {0x35eb38060d1acc91ULL, 0xecc265666d526e65ULL, 0xd931243d34bec26cULL}, {121, 252, 114}},
};

// Named single cells (see the tests that use them).
const Golden kFailStopGolden =
    {"fail-stop", "0x1.8e34de2a4b7afp-10", {0xa21a0802e0d36368ULL, 0xfdd06eba78c6836cULL, 0xd4251848e8d7efc3ULL}, {111, 245, 110}};
const Golden kTinyLookaheadGolden =
    {"tiny-lookahead", "0x1.7082055cca0b9p-10", {0xd57281ece05e0ebeULL, 0x53f26e019e89cb15ULL, 0x32a962291aacf064ULL}, {124, 251, 114}};
const Golden kMultiJobGolden =
    {"multi-job", "0x1.b82e5876bcb14p-10", {0x7067d6c9b005a47cULL, 0xcafbcb66d5c40089ULL, 0x071659d3702dd7efULL}, {236, 512, 213}};
// Fail-stop recovery accounting of kFailStopGolden's run.
constexpr std::uint64_t kFailStopReexecuted = 1;

bool print_goldens() { return std::getenv("DAS_PRINT_GOLDENS") != nullptr; }

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

struct CellResult {
  double makespan = 0.0;
  double lookahead = 0.0;
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint64_t> events;
  std::uint64_t reexecuted = 0;
  int failed = 0;
};

void print_golden(const std::string& cell, const CellResult& r) {
  std::printf("    {\"%s\", \"%s\", {", cell.c_str(), hex(r.makespan).c_str());
  for (std::size_t i = 0; i < r.hashes.size(); ++i)
    std::printf("%s0x%016llxULL", i ? ", " : "",
                static_cast<unsigned long long>(r.hashes[i]));
  std::printf("}, {");
  for (std::size_t i = 0; i < r.events.size(); ++i)
    std::printf("%s%llu", i ? ", " : "",
                static_cast<unsigned long long>(r.events[i]));
  std::printf("}},\n");
}

void expect_golden(const Golden& g, const CellResult& r) {
  EXPECT_EQ(hex(r.makespan), g.makespan_hex)
      << g.cell << ": makespan moved — the multi-rank event stream changed";
  ASSERT_EQ(r.hashes.size(), static_cast<std::size_t>(kRanks)) << g.cell;
  for (int k = 0; k < kRanks; ++k) {
    EXPECT_EQ(r.hashes[static_cast<std::size_t>(k)], g.hashes[k])
        << g.cell << ": rank " << k << " trace hash moved";
    EXPECT_EQ(r.events[static_cast<std::size_t>(k)], g.events[k])
        << g.cell << ": rank " << k << " event count moved";
  }
}

class MultiRankSimTest : public ::testing::Test {
 protected:
  MultiRankSimTest()
      : tx2_(Topology::tx2()),
        haswell_(Topology::haswell20()),
        small_(Topology::symmetric(2, 3, 1.0)) {
    ids_ = kernels::register_paper_kernels(registry_);
  }

  /// Three scheduling domains with deliberately different shapes: a
  /// big.LITTLE part, a 20-core server node, and a small symmetric node.
  std::vector<RankSpec> asymmetric_ranks() const {
    return {RankSpec{&tx2_, nullptr}, RankSpec{&haswell_, nullptr},
            RankSpec{&small_, nullptr}};
  }

  Dag heat_dag(int ranks, double net_latency_s = 30e-6) const {
    workloads::HeatConfig cfg;
    cfg.rows = 96;
    cfg.cols = 48;
    cfg.ranks = ranks;
    cfg.iterations = 4;
    cfg.tasks_per_rank = 3;
    cfg.net_latency_s = net_latency_s;
    return workloads::make_heat_sim_dag(cfg, ids_.heat_compute, ids_.comm);
  }

  CellResult run_cell(const std::vector<RankSpec>& ranks, const Dag& dag,
                      Policy policy, std::uint64_t seed, int jobs = 1) {
    SimOptions o;
    o.seed = seed;
    o.hash_traces = true;
    SimEngine eng(ranks, policy, registry_, o);
    CellResult res;
    for (int j = 0; j < jobs; ++j) res.makespan = eng.run(dag);
    res.lookahead = eng.lookahead_s();
    for (int r = 0; r < static_cast<int>(ranks.size()); ++r) {
      res.hashes.push_back(eng.trace_hash(r));
      res.events.push_back(eng.events_processed(r));
    }
    res.reexecuted = eng.tasks_reexecuted();
    res.failed = eng.cores_failed();
    return res;
  }

  Topology tx2_, haswell_, small_;
  TaskTypeRegistry registry_;
  kernels::PaperKernelIds ids_;
};

/// Every catalog scenario x policy x seed over three asymmetric ranks —
/// the golden-grid shape of sim_determinism_test, multi-rank.
TEST_F(MultiRankSimTest, ThreeRankGridGoldens) {
  const Dag dag = heat_dag(kRanks);
  const Topology* topos[] = {&tx2_, &haswell_, &small_};
  const Policy policies[] = {Policy::kRws, Policy::kFamC, Policy::kDamC,
                             Policy::kDamP};
  const std::uint64_t seeds[] = {kDefaultSeed, 1234u};
  std::size_t i = 0;
  for (const std::string& sc_name : scenario::catalog_names()) {
    const scenario::ScenarioSpec spec = *scenario::find_catalog(sc_name);
    std::vector<SpeedScenario> scenarios;
    for (const Topology* t : topos)
      scenarios.push_back(scenario::build(spec, *t));
    std::vector<RankSpec> ranks;
    for (std::size_t r = 0; r < kRanks; ++r)
      ranks.push_back(RankSpec{topos[r], &scenarios[r]});
    for (Policy p : policies) {
      for (std::uint64_t seed : seeds) {
        const std::string cell = sc_name + "/" + policy_name(p) + "/" +
                                 std::to_string(seed);
        const CellResult res = run_cell(ranks, dag, p, seed);
        if (print_goldens()) {
          print_golden(cell, res);
        } else {
          ASSERT_LT(i, std::size(kGridGoldens))
              << "catalog/policy/seed grid changed — regenerate the table";
          EXPECT_STREQ(kGridGoldens[i].cell, cell.c_str());
          expect_golden(kGridGoldens[i], res);
        }
        ++i;
      }
    }
  }
  if (print_goldens()) GTEST_SKIP() << "golden table printed";
  EXPECT_EQ(i, std::size(kGridGoldens));
}

/// Fail-stop faults are rank-local events inside the window protocol: a
/// per-rank FaultPlan (resolve_faults keeps core 0 of each rank alive, so
/// no rank ever leaves the protocol) replays bitwise, including the
/// reclaim/re-release recovery.
TEST_F(MultiRankSimTest, FailStopFaultsGolden) {
  const Dag dag = heat_dag(kRanks);
  const Topology* topos[] = {&tx2_, &haswell_, &small_};

  // A clean probe sizes the onset so the kills land mid-run on every rank's
  // schedule.
  const CellResult clean =
      run_cell(asymmetric_ranks(), dag, Policy::kDamC, kDefaultSeed);

  scenario::ScenarioSpec spec;
  spec.name = "multi-rank-fail";
  spec.faults.push_back(scenario::FaultSpec{
      .kind = scenario::FaultSpec::Kind::kFail,
      .cores = {},
      .cluster = scenario::FaultSpec::kNoCluster,
      .fraction = 0.25,
      .t_s = clean.makespan * 0.3,
      .duration_s = 0.0,
      .slowdown = 0.0});
  std::vector<FaultPlan> plans;
  for (const Topology* t : topos)
    plans.push_back(scenario::resolve_faults(spec, *t));
  std::vector<RankSpec> ranks;
  for (std::size_t r = 0; r < plans.size(); ++r)
    ranks.push_back(RankSpec{topos[r], nullptr, &plans[r]});

  const CellResult res = run_cell(ranks, dag, Policy::kDamC, kDefaultSeed);
  if (print_goldens()) {
    print_golden(kFailStopGolden.cell, res);
    std::printf("    reexecuted=%llu\n",
                static_cast<unsigned long long>(res.reexecuted));
    GTEST_SKIP() << "golden printed";
  }
  // tx2 and small lose 2 cores each, haswell20 loses 5.
  EXPECT_EQ(res.failed, 9);
  EXPECT_EQ(res.reexecuted, kFailStopReexecuted);
  expect_golden(kFailStopGolden, res);
  // And the faulty schedule is genuinely different from the clean one.
  EXPECT_NE(res.hashes, clean.hashes);
}

/// Tiny cross-rank delay -> tiny lookahead -> many small windows with
/// boundary traffic in nearly every round.
TEST_F(MultiRankSimTest, TinyLookaheadManyWindows) {
  const Dag dag = heat_dag(kRanks, /*net_latency_s=*/1e-9);
  const auto ranks = asymmetric_ranks();
  const CellResult res = run_cell(ranks, dag, Policy::kDamC, kDefaultSeed);
  EXPECT_GT(res.lookahead, 0.0);
  EXPECT_LT(res.lookahead, 1e-6);  // the tiny latency really took effect
  if (print_goldens()) {
    print_golden(kTinyLookaheadGolden.cell, res);
    GTEST_SKIP() << "golden printed";
  }
  expect_golden(kTinyLookaheadGolden, res);
}

/// Back-to-back jobs on a persistent engine: the virtual clock and PTT
/// state carry over the submit/wait boundary.
TEST_F(MultiRankSimTest, MultiJobPersistentEngineGolden) {
  const Dag dag = heat_dag(kRanks);
  const auto ranks = asymmetric_ranks();
  const CellResult res =
      run_cell(ranks, dag, Policy::kRwsmC, kDefaultSeed, /*jobs=*/2);
  if (print_goldens()) {
    print_golden(kMultiJobGolden.cell, res);
    GTEST_SKIP() << "golden printed";
  }
  expect_golden(kMultiJobGolden, res);
}

/// A multi-rank engine records one timeline: every rank's participations on
/// that rank's global core range, in an order fixed by the window protocol,
/// so two runs export byte-identical Chrome traces.
TEST_F(MultiRankSimTest, TimelineCoversEveryRankDeterministically) {
  const Dag dag = heat_dag(kRanks);
  const auto ranks = asymmetric_ranks();
  const auto record = [&] {
    Timeline tl;
    SimOptions o;
    o.timeline = &tl;
    SimEngine eng(ranks, Policy::kDamC, registry_, o);
    eng.run(dag);
    std::ostringstream os;
    tl.write_chrome_json(os);
    return os.str();
  };
  const std::string first = record();
  EXPECT_EQ(first, record()) << "timeline export is not replayable";

  // Global core ranges: tx2 [0, 6), haswell20 [6, 26), small [26, 32).
  const int bounds[kRanks + 1] = {0, tx2_.num_cores(),
                                  tx2_.num_cores() + haswell_.num_cores(),
                                  tx2_.num_cores() + haswell_.num_cores() +
                                      small_.num_cores()};
  std::set<int> ranks_seen;
  const json::Value doc = json::parse(first);
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);
  for (const json::Value& ev : events->as_array()) {
    const int core = static_cast<int>(ev.find("tid")->as_number());
    ASSERT_GE(core, 0);
    ASSERT_LT(core, bounds[kRanks]);
    for (int r = 0; r < kRanks; ++r)
      if (core >= bounds[r] && core < bounds[r + 1]) ranks_seen.insert(r);
  }
  EXPECT_EQ(ranks_seen.size(), static_cast<std::size_t>(kRanks))
      << "some rank recorded no interval";
}

/// The conservative lookahead is the minimum cross-rank edge delay over
/// all submitted DAGs, monotone under further submissions.
TEST_F(MultiRankSimTest, LookaheadTracksMinCrossRankDelay) {
  const auto ranks = asymmetric_ranks();
  SimOptions o;
  o.hash_traces = true;
  SimEngine eng(ranks, Policy::kDamC, registry_, o);
  EXPECT_TRUE(std::isinf(eng.lookahead_s()));  // no cross-rank edges yet
  eng.run(heat_dag(kRanks, /*net_latency_s=*/50e-6));
  const double wide = eng.lookahead_s();
  EXPECT_GE(wide, 50e-6);  // latency is a floor under the wire delay
  eng.run(heat_dag(kRanks, /*net_latency_s=*/2e-6));
  EXPECT_LT(eng.lookahead_s(), wide);  // monotone min over submissions
}

}  // namespace
}  // namespace das::sim
