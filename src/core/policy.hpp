#pragma once
// The seven scheduler configurations of the paper's Table 1, implemented as
// one engine-agnostic decision object (Algorithm 1 + §4.1.2 / §4.2.3).
//
// | Name   | Asymmetry awareness | Moldability | Priority placement       |
// | RWS    | N/A                 | N/A         | N/A                      |
// | RWSM-C | N/A                 | Yes         | Resource Cost            |
// | FA     | Fixed               | No          | N/A (fast cores, RR)     |
// | FAM-C  | Fixed               | Yes         | Resource Cost            |
// | DA     | Dynamic             | No          | N/A (fastest core)       |
// | DAM-C  | Dynamic             | Yes         | Resource Cost            |
// | DAM-P  | Dynamic             | Yes         | Performance              |
//
// Both execution engines (src/rt real threads, src/sim discrete events) call
// the same three hooks:
//   on_ready    — wake-up time: which worker queue receives the task, is it
//                 steal-exempt, and (for high-priority tasks under the
//                 criticality-aware policies) the fixed execution place.
//   on_execute  — dequeue time: the final width molding for tasks without a
//                 fixed place (paper Fig. 3 steps 4-5: thieves re-run the
//                 local search).
//   record_sample — task completion: folds the observed span into the PTT.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/ptt.hpp"
#include "core/task_type.hpp"
#include "platform/topology.hpp"
#include "util/assert.hpp"

namespace das {

enum class Policy : std::uint8_t {
  kRws = 0,
  kRwsmC,
  kFa,
  kFamC,
  kDa,
  kDamC,
  kDamP,
  // Baseline beyond the paper's Table 1: dHEFT (Chronaki et al.) — every
  // ready task, regardless of priority, is centrally placed on the single
  // core with the earliest predicted FINISH time (reserved work + predicted
  // execution time), discovered at runtime like the PTT. Not moldable, not
  // work-stealing. Used by bench/baseline_dheft for the related-work
  // comparison the paper cites.
  kDheft,
};

const char* policy_name(Policy p);
/// The paper's seven schedulers, in Table 1 order (excludes baselines).
const std::vector<Policy>& all_policies();
/// Every policy with a parseable name: Table 1 plus the baselines. The
/// single source the name-lookup functions (and the facade's case-
/// insensitive parse_policy) iterate.
const std::vector<Policy>& all_known_policies();
/// Parses "DAM-C" etc. (exact spelling); returns nullopt for unknown names.
std::optional<Policy> policy_from_name(const std::string& name);

/// Introspection used to print the paper's Table 1.
struct PolicyTraits {
  const char* asymmetry;           // "N/A" | "Fixed" | "Dynamic"
  const char* moldability;         // "N/A" | "No" | "Yes"
  const char* priority_placement;  // "N/A" | "Resource Cost" | "Performance"
  bool uses_ptt;                   // needs the performance model
  bool priority_aware;             // treats high-priority tasks specially
};
/// constexpr so the per-policy hook bodies below branch on traits at
/// compile time (if constexpr (policy_traits(P).uses_ptt) ...).
constexpr PolicyTraits policy_traits(Policy p) {
  switch (p) {
    case Policy::kRws:
      return {"N/A", "N/A", "N/A", /*uses_ptt=*/false, /*priority_aware=*/false};
    case Policy::kRwsmC:
      return {"N/A", "Yes", "Resource Cost", true, false};
    case Policy::kFa:
      return {"Fixed", "No", "N/A", false, true};
    case Policy::kFamC:
      return {"Fixed", "Yes", "Resource Cost", true, true};
    case Policy::kDa:
      return {"Dynamic", "No", "N/A", true, true};
    case Policy::kDamC:
      return {"Dynamic", "Yes", "Resource Cost", true, true};
    case Policy::kDamP:
      return {"Dynamic", "Yes", "Performance", true, true};
    case Policy::kDheft:
      return {"Dynamic", "No", "Earliest Finish", true, false};
  }
  return {"?", "?", "?", false, false};
}

/// Whether the policy molds widths at dequeue time (the on_execute local
/// search); derived, but named — on_execute keys on it.
constexpr bool policy_moldable(Policy p) {
  return p == Policy::kRwsmC || p == Policy::kFamC || p == Policy::kDamC ||
         p == Policy::kDamP;
}

struct WakeDecision {
  int queue_core = 0;       ///< worker whose queue receives the task
  bool stealable = true;    ///< false => steal-exempt inbox (paper §4.1.2)
  bool has_fixed_place = false;
  ExecutionPlace fixed_place{};
};

/// Tunables mostly exercised by the ablation bench; the defaults reproduce
/// the paper's scheduler.
struct PolicyOptions {
  bool steal_exempt_high_priority = true;  ///< paper disables stealing of
                                           ///< high-priority tasks
  bool remold_on_dequeue = true;           ///< re-run the local search when a
                                           ///< (stolen) task is dequeued
  bool random_tie_break = false;           ///< default: round-robin
};

/// Who folds observed spans into the PTT. kConcurrent: any worker may
/// finish any task (rt), so Ptt::update's CAS loop. kSingle: one thread
/// owns the table (the DES owns each rank's PTT), so Ptt::update_st.
enum class PttWriters : std::uint8_t { kConcurrent, kSingle };

class PolicyEngine {
 public:
  /// `ptt` may be null only for policies with traits().uses_ptt == false.
  PolicyEngine(Policy policy, const Topology& topo, PttStore* ptt,
               std::uint64_t seed = 1, PolicyOptions options = {});

  Policy policy() const { return policy_; }
  const PolicyTraits& traits() const { return traits_; }
  const Topology& topology() const { return *topo_; }
  const PolicyOptions& options() const { return options_; }

  /// Wake-up decision for a task released by (or spawned from) `waking_core`.
  WakeDecision on_ready(TaskTypeId type, Priority priority, int waking_core);

  /// Final place for a task WITHOUT a fixed place, dequeued by `core`.
  /// Low-priority molding: local search minimising PTT(c,w) * w.
  ExecutionPlace on_execute(TaskTypeId type, Priority priority, int core);

  /// Folds an observed task span into the model (no-op for RWS / FA).
  void record_sample(TaskTypeId type, const ExecutionPlace& place, double seconds);
  /// record_sample for an engine whose PTT only the calling thread writes.
  void record_sample_st(TaskTypeId type, const ExecutionPlace& place,
                        double seconds);

  // Exposed for tests and analysis ------------------------------------------
  enum class Objective { kCost, kTime };
  /// The min-search of Algorithm 1 over an explicit candidate set, with the
  /// zero-entry exploration semantics and fewest-samples tie-breaking. The
  /// hooks search precomputed candidate tables with the same kernel; this
  /// wrapper translates `candidates` first (and allocates to do so).
  ExecutionPlace search(TaskTypeId type,
                        const std::vector<ExecutionPlace>& candidates,
                        Objective objective);
  /// Tie-break state the searches have consumed: the round-robin counter
  /// and the random stream's position (options().random_tie_break).
  struct TieState {
    std::uint32_t round_robin;
    std::uint64_t random;
  };
  TieState tie_state() const;

 private:
  // --- per-policy hook bodies -----------------------------------------------
  // The single implementation of the three hooks, with the policy resolved
  // at compile time. The public hooks are one switch over these, defined
  // inline below so the trivial bodies (RWS/FA wake-up, the non-moldable
  // width-1 on_execute, the PTT-less record_sample) fold into the engines'
  // scheduling loops instead of costing an out-of-line call per task.
  template <Policy P>
  WakeDecision on_ready_static(TaskTypeId type, Priority priority,
                               int waking_core);
  template <Policy P>
  ExecutionPlace on_execute_static(TaskTypeId type, Priority priority,
                                   int core);
  template <Policy P, PttWriters W = PttWriters::kConcurrent>
  void record_sample_static(TaskTypeId type, const ExecutionPlace& place,
                            double seconds);

  /// One candidate of a search: the place's entry slot, the same in every
  /// Ptt of the store (the layout depends only on the topology), and its
  /// width for the cost objective.
  struct Candidate {
    std::int32_t slot;
    std::int32_t width;
  };

  /// The search kernel: index into `cands` of the minimum. No allocation,
  /// no per-candidate place lookup.
  std::size_t search_index(const Ptt& table, std::span<const Candidate> cands,
                           Objective objective);
  /// Global search over every place (DAM-C / DAM-P).
  ExecutionPlace global_search(TaskTypeId type, Objective objective);
  /// Global search over the width-1 places (DA).
  ExecutionPlace width1_search(TaskTypeId type);
  /// Local width search at `core` (every moldable on_execute, FAM-C).
  ExecutionPlace local_search(TaskTypeId type, int core);
  int round_robin_fast_core();
  ExecutionPlace dheft_place(TaskTypeId type);
  /// dHEFT completion: drain the leader's reservation by the observed time
  /// (out-of-line: the CAS loop's ordering argument lives in policy.cpp).
  void dheft_drain(const ExecutionPlace& place, double seconds);

  Policy policy_;
  PolicyTraits traits_;
  const Topology* topo_;
  PttStore* ptt_;
  PolicyOptions options_;
  // FA / FAM-C round-robin targets: the fastest cluster's cores.
  int fast_first_core_ = 0;
  int fast_num_cores_ = 1;
  // Candidate tables of the PTT policies, in one array parallel to the
  // topology's place lists: [places() | width1_places() | local_places(c)
  // of every core c, local_stride_ entries each]. Null for RWS / FA.
  std::unique_ptr<Candidate[]> candidates_;
  int local_stride_ = 0;
  std::atomic<std::uint32_t> rr_counter_{0};
  std::atomic<std::uint32_t> tie_counter_{0};
  std::atomic<std::uint64_t> rng_state_;             // splitmix for random ties

  // dHEFT: per-core reserved work (seconds of placed-but-unfinished tasks).
  // Incremented by the estimate at placement, drained by the observed time
  // at completion; the small drift between the two is self-correcting.
  std::unique_ptr<std::atomic<double>[]> reserved_;
};

// --- hook definitions --------------------------------------------------------
// Kept in the header so both engines inline them. The searches / round-robin
// / dHEFT helpers stay out-of-line in policy.cpp: they are the genuinely
// expensive branches, and keeping them there keeps the relaxed-atomic
// counters inside the lint whitelist.

template <Policy P>
inline WakeDecision PolicyEngine::on_ready_static(TaskTypeId type,
                                                  Priority priority,
                                                  int waking_core) {
  DAS_CHECK(waking_core >= 0 && waking_core < topo_->num_cores());

  if constexpr (P == Policy::kDheft) {
    // dHEFT centrally places EVERY task (priority plays no role) and does
    // not allow stealing to second-guess the placement.
    const ExecutionPlace p = dheft_place(type);
    return WakeDecision{p.leader, /*stealable=*/false, true, p};
  } else if constexpr (!policy_traits(P).priority_aware) {
    // ALL tasks under the priority-oblivious schedulers stay on the waking
    // core's queue to preserve data reuse across dependent tasks (paper
    // §3.2); idle workers may steal them.
    (void)type;
    (void)priority;
    return WakeDecision{waking_core, /*stealable=*/true, false, {}};
  } else {
    // Low-priority tasks stay local under every scheduler (see above).
    if (priority == Priority::kLow)
      return WakeDecision{waking_core, /*stealable=*/true, false, {}};
    const bool exempt = options_.steal_exempt_high_priority;
    if constexpr (P == Policy::kFa) {
      // Statically-fast cores, round-robin, width 1 (CATS-style).
      const int core = round_robin_fast_core();
      return WakeDecision{core, !exempt, true, ExecutionPlace{core, 1}};
    } else if constexpr (P == Policy::kFamC) {
      // FA's strict mapping to the statically-fast cores (round-robin),
      // plus moldability: the width is chosen by the local cost search at
      // the assigned core. Note the core choice itself stays PTT-blind —
      // that is what keeps half the criticals on a perturbed fast core in
      // the paper's Fig. 5(d) (35% (C0,1) / 48% (C1,1) / 17% (C0,2)).
      const int core = round_robin_fast_core();
      const ExecutionPlace p = local_search(type, core);
      return WakeDecision{p.leader, !exempt, true, p};
    } else if constexpr (P == Policy::kDa) {
      // Global search over single cores for the best predicted time.
      const ExecutionPlace p = width1_search(type);
      return WakeDecision{p.leader, !exempt, true, p};
    } else if constexpr (P == Policy::kDamC) {
      // Global search minimising PTT(c,w) * w (Algorithm 1, line 8).
      const ExecutionPlace p = global_search(type, Objective::kCost);
      return WakeDecision{p.leader, !exempt, true, p};
    } else {
      static_assert(P == Policy::kDamP, "unhandled priority-aware policy");
      // Global search minimising PTT(c,w) (Algorithm 1, line 11).
      const ExecutionPlace p = global_search(type, Objective::kTime);
      return WakeDecision{p.leader, !exempt, true, p};
    }
  }
}

template <Policy P>
inline ExecutionPlace PolicyEngine::on_execute_static(TaskTypeId type,
                                                      Priority priority,
                                                      int core) {
  DAS_CHECK(core >= 0 && core < topo_->num_cores());
  (void)priority;  // high-priority tasks with fixed places never reach here
  if constexpr (policy_moldable(P)) {
    return local_search(type, core);
  } else {
    // Non-moldable schedulers always run where they dequeue, width 1.
    (void)type;
    return ExecutionPlace{core, 1};
  }
}

template <Policy P, PttWriters W>
inline void PolicyEngine::record_sample_static(TaskTypeId type,
                                               const ExecutionPlace& place,
                                               double seconds) {
  if constexpr (!policy_traits(P).uses_ptt) {
    (void)type;
    (void)place;
    (void)seconds;
  } else {
    if constexpr (W == PttWriters::kSingle)
      ptt_->table(type).update_st(place, seconds);
    else
      ptt_->table(type).update(place, seconds);
    if constexpr (P == Policy::kDheft) dheft_drain(place, seconds);
  }
}

inline WakeDecision PolicyEngine::on_ready(TaskTypeId type, Priority priority,
                                           int waking_core) {
  switch (policy_) {
    case Policy::kRws:
      return on_ready_static<Policy::kRws>(type, priority, waking_core);
    case Policy::kRwsmC:
      return on_ready_static<Policy::kRwsmC>(type, priority, waking_core);
    case Policy::kFa:
      return on_ready_static<Policy::kFa>(type, priority, waking_core);
    case Policy::kFamC:
      return on_ready_static<Policy::kFamC>(type, priority, waking_core);
    case Policy::kDa:
      return on_ready_static<Policy::kDa>(type, priority, waking_core);
    case Policy::kDamC:
      return on_ready_static<Policy::kDamC>(type, priority, waking_core);
    case Policy::kDamP:
      return on_ready_static<Policy::kDamP>(type, priority, waking_core);
    case Policy::kDheft:
      return on_ready_static<Policy::kDheft>(type, priority, waking_core);
  }
  return on_ready_static<Policy::kRws>(type, priority, waking_core);
}

inline ExecutionPlace PolicyEngine::on_execute(TaskTypeId type,
                                               Priority priority, int core) {
  // Only the moldability trait matters here; two instantiations cover all
  // eight policies.
  if (policy_moldable(policy_))
    return on_execute_static<Policy::kDamC>(type, priority, core);
  return on_execute_static<Policy::kRws>(type, priority, core);
}

inline void PolicyEngine::record_sample(TaskTypeId type,
                                        const ExecutionPlace& place,
                                        double seconds) {
  // Only the uses_ptt trait and the dHEFT drain matter; three
  // instantiations cover all eight policies.
  if (policy_ == Policy::kDheft)
    return record_sample_static<Policy::kDheft>(type, place, seconds);
  if (traits_.uses_ptt)
    return record_sample_static<Policy::kDamC>(type, place, seconds);
  return record_sample_static<Policy::kRws>(type, place, seconds);
}

inline void PolicyEngine::record_sample_st(TaskTypeId type,
                                           const ExecutionPlace& place,
                                           double seconds) {
  constexpr PttWriters kSingle = PttWriters::kSingle;
  if (policy_ == Policy::kDheft)
    return record_sample_static<Policy::kDheft, kSingle>(type, place, seconds);
  if (traits_.uses_ptt)
    return record_sample_static<Policy::kDamC, kSingle>(type, place, seconds);
  return record_sample_static<Policy::kRws, kSingle>(type, place, seconds);
}

}  // namespace das
