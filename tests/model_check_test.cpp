// Deterministic model-checking of the lock-free core (src/chk): the REAL
// primitive templates instantiated with chk::Model run under exhaustive
// small-bound schedules and seeded random sweeps, asserting
//
//   - MpscQueue: FIFO per producer, payload publication (no race on the
//     non-atomic tag/payload), unlink-before-reuse;
//   - EventCount: no lost wakeup (a parked waiter is always woken);
//   - WsDeque: every item taken exactly once (no loss, no double-take),
//     stolen payloads published;
//   - RingBuffer: matches a reference deque over every op sequence,
//     including growth while the ring is wrapped;
//
// and that seeded memory-order mutants (chk::Mutant) are each CAUGHT while
// the unmutated algorithms pass. The default ctest run explores >= 10k
// distinct interleavings per primitive (see the *Coverage tests). A longer
// randomized sweep runs when DAS_CHK_LONG is set (scheduled CI job).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "chk/chk.hpp"
#include "rt/wsq.hpp"
#include "util/eventcount.hpp"
#include "util/mpsc_queue.hpp"
#include "util/ring_buffer.hpp"

namespace das {
namespace {

namespace chk = das::chk;

/// Resets the process-global mutant on scope exit so a failing mutant test
/// cannot poison later tests.
struct MutantGuard {
  explicit MutantGuard(chk::Mutant m) { chk::set_mutant(m); }
  ~MutantGuard() { chk::set_mutant(chk::Mutant::kNone); }
};

bool long_mode() { return std::getenv("DAS_CHK_LONG") != nullptr; }

// ---------------------------------------------------------------------------
// MpscQueue scenarios

using ChkMpsc = BasicMpscQueue<chk::Model>;

/// One producer pushes two tagged nodes; the consumer pops both and asserts
/// FIFO order. Payloads are chk::Var cells, so a missing release/acquire
/// edge on the queue's internal `next` pointers surfaces as a data race.
chk::Scenario mpsc_small_scenario() {
  struct State {
    ChkMpsc q;
    ChkMpsc::Node n1, n2;
    chk::Var<int> v1{0}, v2{0};
  };
  auto st = std::make_shared<State>();
  chk::Scenario s;
  s.threads.push_back([st] {
    st->v1 = 101;
    st->q.push(&st->n1, &st->v1);
    st->v2 = 202;
    st->q.push(&st->n2, &st->v2);
  });
  s.threads.push_back([st] {
    int got = 0;
    int vals[2] = {0, 0};
    while (got < 2) {
      void* t = st->q.pop();
      if (t != nullptr)
        vals[got++] = *static_cast<chk::Var<int>*>(t);
      else
        chk::spin_yield();
    }
    chk::expect(vals[0] == 101 && vals[1] == 202,
                "mpsc: FIFO per producer violated");
  });
  return s;
}

/// Unlink-before-reuse under concurrency: the consumer re-pushes a node the
/// moment pop() returned it, while another producer is pushing. If pop
/// handed the node back before the queue unlinked it, the chain corrupts
/// and an item is lost or duplicated.
chk::Scenario mpsc_reuse_scenario() {
  struct State {
    ChkMpsc q;
    ChkMpsc::Node n1, n2;
    chk::Var<int> v1{0}, v2{0}, v3{0};
  };
  auto st = std::make_shared<State>();
  chk::Scenario s;
  s.threads.push_back([st] {
    st->v2 = 202;
    st->q.push(&st->n2, &st->v2);
  });
  s.threads.push_back([st] {
    st->v1 = 101;
    st->q.push(&st->n1, &st->v1);
    std::vector<int> got;
    bool reused = false;
    while (got.size() < 3) {
      void* t = st->q.pop();
      if (t == nullptr) {
        chk::spin_yield();
        continue;
      }
      got.push_back(*static_cast<chk::Var<int>*>(t));
      if (t == &st->v1 && !reused) {
        reused = true;  // n1 is ours again: recycle it immediately
        st->v3 = 303;
        st->q.push(&st->n1, &st->v3);
      }
    }
    chk::expect(got[0] == 101 || got[0] == 202, "mpsc: unknown first tag");
    std::multiset<int> all(got.begin(), got.end());
    chk::expect(all == std::multiset<int>({101, 202, 303}),
                "mpsc: reuse lost or duplicated an item");
  });
  return s;
}

/// Two producers, two items each: global order is free, per-producer order
/// is not.
chk::Scenario mpsc_two_producer_scenario() {
  struct State {
    ChkMpsc q;
    ChkMpsc::Node n[4];
    chk::Var<int> v[4];
  };
  auto st = std::make_shared<State>();
  chk::Scenario s;
  for (int p = 0; p < 2; ++p) {
    s.threads.push_back([st, p] {
      for (int i = 0; i < 2; ++i) {
        const int idx = p * 2 + i;
        st->v[idx] = 100 * (p + 1) + i;
        st->q.push(&st->n[idx], &st->v[idx]);
      }
    });
  }
  s.threads.push_back([st] {
    std::vector<int> got;
    while (got.size() < 4) {
      void* t = st->q.pop();
      if (t != nullptr)
        got.push_back(*static_cast<chk::Var<int>*>(t));
      else
        chk::spin_yield();
    }
    int last1 = -1, last2 = -1;
    for (int v : got) {
      if (v / 100 == 1) {
        chk::expect(v > last1, "mpsc: producer-1 order inverted");
        last1 = v;
      } else {
        chk::expect(v > last2, "mpsc: producer-2 order inverted");
        last2 = v;
      }
    }
    chk::expect(last1 == 101 && last2 == 201, "mpsc: item lost");
  });
  return s;
}

TEST(ModelCheckMpsc, SmallBoundSchedules) {
  chk::Options o;
  o.max_schedules = 30000;
  auto r = chk::explore(o, mpsc_small_scenario);
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_GE(r.distinct_interleavings, 100u);
}

TEST(ModelCheckMpsc, NodeReuseAfterPop) {
  chk::Options o;
  o.max_schedules = 20000;
  auto r = chk::explore(o, mpsc_reuse_scenario);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST(ModelCheckMpsc, TwoProducersRandomSweep) {
  chk::Options o;
  o.mode = chk::Options::Mode::kRandom;
  o.max_schedules = long_mode() ? 200000 : 9000;
  o.seed = 0xDA5;
  auto r = chk::explore(o, mpsc_two_producer_scenario);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST(ModelCheckMpsc, CoverageAtLeast10k) {
  chk::Options dfs;
  dfs.max_schedules = 30000;
  auto r1 = chk::explore(dfs, mpsc_small_scenario);
  ASSERT_TRUE(r1.ok) << r1.violation;
  chk::Options rnd;
  rnd.mode = chk::Options::Mode::kRandom;
  rnd.max_schedules = 9000;
  rnd.seed = 7;
  auto r2 = chk::explore(rnd, mpsc_two_producer_scenario);
  ASSERT_TRUE(r2.ok) << r2.violation;
  const auto total = r1.distinct_interleavings + r2.distinct_interleavings;
  RecordProperty("mpsc_interleavings", static_cast<int>(total));
  EXPECT_GE(total, 10000u);
}

TEST(ModelCheckMpscMutants, ReleasePublishDowngradeCaught) {
  MutantGuard g(chk::Mutant::kStoreReleaseToRelaxed);
  chk::Options o;
  o.max_schedules = 50000;
  auto r = chk::explore(o, mpsc_small_scenario);
  EXPECT_FALSE(r.ok) << "mutant 1 survived " << r.schedules << " schedules";
  EXPECT_NE(r.violation.find("race"), std::string::npos) << r.violation;
}

TEST(ModelCheckMpscMutants, AcquireConsumeDowngradeCaught) {
  MutantGuard g(chk::Mutant::kLoadAcquireToRelaxed);
  chk::Options o;
  o.max_schedules = 50000;
  auto r = chk::explore(o, mpsc_small_scenario);
  EXPECT_FALSE(r.ok) << "mutant 5 survived " << r.schedules << " schedules";
  EXPECT_NE(r.violation.find("race"), std::string::npos) << r.violation;
}

// ---------------------------------------------------------------------------
// EventCount scenarios

using ChkEc = BasicEventCount<chk::Model>;

/// The canonical lost-wakeup duel: a waiter parks unless it sees the flag;
/// the notifier raises the flag then notifies. Every schedule must
/// terminate (deadlock detection covers "parked forever") and the waiter
/// must observe the flag raised once it returns.
chk::Scenario ec_scenario() {
  struct State {
    ChkEc ec;
    chk::Atomic<int> flag{0};
  };
  auto st = std::make_shared<State>();
  chk::Scenario s;
  s.threads.push_back([st] {
    const auto key = st->ec.prepare_wait();
    if (st->flag.load(std::memory_order_acquire) != 0)
      st->ec.cancel_wait();
    else
      st->ec.commit_wait(key);
    chk::expect(st->flag.load(std::memory_order_acquire) == 1,
                "eventcount: woke without the flag raised");
  });
  s.threads.push_back([st] {
    st->flag.store(1, std::memory_order_release);
    st->ec.notify();
  });
  return s;
}

/// Wider variant for the random sweep: two notifiers, a waiter that parks
/// repeatedly until both increments landed.
chk::Scenario ec_wide_scenario() {
  struct State {
    ChkEc ec;
    chk::Atomic<int> flag{0};
  };
  auto st = std::make_shared<State>();
  chk::Scenario s;
  s.threads.push_back([st] {
    while (st->flag.load(std::memory_order_acquire) != 2) {
      const auto key = st->ec.prepare_wait();
      if (st->flag.load(std::memory_order_acquire) != 2)
        st->ec.commit_wait(key);
      else
        st->ec.cancel_wait();
    }
  });
  for (int i = 0; i < 2; ++i) {
    s.threads.push_back([st] {
      st->flag.fetch_add(1, std::memory_order_release);
      st->ec.notify();
    });
  }
  return s;
}

TEST(ModelCheckEventCount, ExhaustiveNoLostWakeup) {
  chk::Options o;
  o.max_schedules = 60000;
  auto r = chk::explore(o, ec_scenario);
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_TRUE(r.exhausted) << "state space larger than expected: "
                           << r.schedules << " schedules";
}

TEST(ModelCheckEventCount, RandomWideSweep) {
  chk::Options o;
  o.mode = chk::Options::Mode::kRandom;
  o.max_schedules = long_mode() ? 150000 : 10000;
  o.seed = 0xEC;
  auto r = chk::explore(o, ec_wide_scenario);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST(ModelCheckEventCount, CoverageAtLeast10k) {
  chk::Options dfs;
  dfs.max_schedules = 60000;
  auto r1 = chk::explore(dfs, ec_scenario);
  ASSERT_TRUE(r1.ok) << r1.violation;
  chk::Options rnd;
  rnd.mode = chk::Options::Mode::kRandom;
  rnd.max_schedules = 11000;
  rnd.seed = 11;
  auto r2 = chk::explore(rnd, ec_wide_scenario);
  ASSERT_TRUE(r2.ok) << r2.violation;
  const auto total = r1.distinct_interleavings + r2.distinct_interleavings;
  RecordProperty("eventcount_interleavings", static_cast<int>(total));
  EXPECT_GE(total, 10000u);
}

TEST(ModelCheckEventCountMutants, SeqCstFenceDowngradeIsLostWakeup) {
  MutantGuard g(chk::Mutant::kFenceSeqCstToRelaxed);
  chk::Options o;
  o.max_schedules = 60000;
  auto r = chk::explore(o, ec_scenario);
  EXPECT_FALSE(r.ok) << "mutant 2 survived " << r.schedules << " schedules";
  EXPECT_NE(r.violation.find("deadlock"), std::string::npos) << r.violation;
}

// ---------------------------------------------------------------------------
// WsDeque scenarios

using ChkWsq = rt::WsDeque<chk::Var<int>, chk::Model>;

struct WsqState {
  ChkWsq dq{4};
  chk::Var<int> a{0}, b{0};
  chk::Var<int>* owner_got[2] = {nullptr, nullptr};
  chk::Var<int>* thief_got[2] = {nullptr, nullptr};
};

void wsq_check_partition(const std::shared_ptr<WsqState>& st, int pushed) {
  std::vector<chk::Var<int>*> taken;
  for (auto* p : st->owner_got)
    if (p != nullptr) taken.push_back(p);
  for (auto* p : st->thief_got)
    if (p != nullptr) taken.push_back(p);
  chk::expect(static_cast<int>(taken.size()) == pushed,
              "wsq: an item was lost or taken twice (count)");
  std::set<chk::Var<int>*> uniq(taken.begin(), taken.end());
  chk::expect(static_cast<int>(uniq.size()) == pushed,
              "wsq: an item was taken twice");
  for (auto* p : uniq)
    chk::expect(p == &st->a || p == &st->b, "wsq: unknown item");
}

/// One item, one steal attempt: exhaustively provable.
chk::Scenario wsq_one_item_scenario() {
  auto st = std::make_shared<WsqState>();
  chk::Scenario s;
  s.threads.push_back([st] {
    st->a = 1;
    st->dq.push_bottom(&st->a);
    st->owner_got[0] = st->dq.pop_bottom();
    if (st->owner_got[0] != nullptr)
      chk::expect(*st->owner_got[0] == 1, "wsq: owner read torn payload");
  });
  s.threads.push_back([st] {
    st->thief_got[0] = st->dq.steal_top();
    if (st->thief_got[0] != nullptr)
      chk::expect(*st->thief_got[0] == 1, "wsq: thief read torn payload");
  });
  s.check = [st] { wsq_check_partition(st, 1); };
  return s;
}

/// Two items, two pops, two steal attempts: the scenario that exposes the
/// classic double-take when the seq_cst fences in pop_bottom/steal_top are
/// weakened (owner reads a stale top_ and keeps the item a thief already
/// has; the second steal reads a stale bottom_ and takes it again).
chk::Scenario wsq_two_item_scenario() {
  auto st = std::make_shared<WsqState>();
  chk::Scenario s;
  s.threads.push_back([st] {
    st->a = 1;
    st->dq.push_bottom(&st->a);
    st->b = 2;
    st->dq.push_bottom(&st->b);
    for (int i = 0; i < 2; ++i) {
      st->owner_got[i] = st->dq.pop_bottom();
      if (st->owner_got[i] != nullptr) {
        const int v = *st->owner_got[i];
        chk::expect(v == 1 || v == 2, "wsq: owner read torn payload");
      }
    }
  });
  s.threads.push_back([st] {
    for (int i = 0; i < 2; ++i) {
      st->thief_got[i] = st->dq.steal_top();
      if (st->thief_got[i] != nullptr) {
        const int v = *st->thief_got[i];
        chk::expect(v == 1 || v == 2, "wsq: thief read torn payload");
      }
    }
  });
  s.check = [st] { wsq_check_partition(st, 2); };
  return s;
}

TEST(ModelCheckWsq, OneItemExhaustive) {
  chk::Options o;
  o.max_schedules = 200000;
  auto r = chk::explore(o, wsq_one_item_scenario);
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_TRUE(r.exhausted) << "state space larger than expected: "
                           << r.schedules << " schedules";
}

TEST(ModelCheckWsq, TwoItemBoundedDfs) {
  chk::Options o;
  o.max_schedules = long_mode() ? 400000 : 12000;
  auto r = chk::explore(o, wsq_two_item_scenario);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST(ModelCheckWsq, CoverageAtLeast10k) {
  chk::Options o;
  o.max_schedules = 12000;
  auto r = chk::explore(o, wsq_two_item_scenario);
  ASSERT_TRUE(r.ok) << r.violation;
  RecordProperty("wsq_interleavings",
                 static_cast<int>(r.distinct_interleavings));
  EXPECT_GE(r.distinct_interleavings, 10000u);
}

TEST(ModelCheckWsqMutants, SeqCstFenceDowngradeIsDoubleTake) {
  MutantGuard g(chk::Mutant::kWsqFenceSeqCstToRelaxed);
  chk::Options o;
  o.max_schedules = 200000;
  auto r = chk::explore(o, wsq_two_item_scenario);
  EXPECT_FALSE(r.ok) << "mutant 3 survived " << r.schedules << " schedules";
}

// ---------------------------------------------------------------------------
// RingBuffer scenarios (single-threaded container: the checker enumerates
// every operation sequence against a reference deque)

template <bool kMutant>
chk::Scenario ring_scenario(int steps) {
  chk::Scenario s;
  s.threads.push_back([steps] {
    RingBuffer<int, kMutant> rb;
    std::deque<int> ref;
    int seq = 0;
    for (int i = 0; i < steps; ++i) {
      switch (chk::choice(3)) {
        case 0:
          rb.push_back(seq);
          ref.push_back(seq);
          ++seq;
          break;
        case 1:
          if (!ref.empty()) {
            chk::expect(rb.front() == ref.front(), "ring: front mismatch");
            rb.pop_front();
            ref.pop_front();
          }
          break;
        default:
          if (!ref.empty()) {
            chk::expect(rb.back() == ref.back(), "ring: back mismatch");
            rb.pop_back();
            ref.pop_back();
          }
          break;
      }
      chk::expect(rb.size() == ref.size(), "ring: size mismatch");
    }
    while (!ref.empty()) {
      chk::expect(rb.front() == ref.front(), "ring: drain mismatch");
      rb.pop_front();
      ref.pop_front();
    }
    chk::expect(rb.empty(), "ring: not empty after drain");
  });
  return s;
}

/// Deterministic sequence that grows the ring while head_ is wrapped — the
/// exact case the kMutantWrap template parameter corrupts.
template <bool kMutant>
chk::Scenario ring_wrap_grow_scenario() {
  chk::Scenario s;
  s.threads.push_back([] {
    RingBuffer<int, kMutant> rb;
    std::deque<int> ref;
    int seq = 0;
    for (int i = 0; i < 8; ++i) {
      rb.push_back(seq);
      ref.push_back(seq);
      ++seq;
    }
    for (int i = 0; i < 5; ++i) {
      rb.pop_front();
      ref.pop_front();
    }
    for (int i = 0; i < 5; ++i) {  // head_ is now mid-ring; these wrap
      rb.push_back(seq);
      ref.push_back(seq);
      ++seq;
    }
    rb.push_back(seq);  // 9th live slot: grows from 8 to 16 while wrapped
    ref.push_back(seq);
    while (!ref.empty()) {
      chk::expect(rb.front() == ref.front(), "ring: wrap-grow mismatch");
      rb.pop_front();
      ref.pop_front();
    }
  });
  return s;
}

TEST(ModelCheckRing, ExhaustiveOpSequences) {
  chk::Options o;
  o.max_schedules = 25000;
  auto r = chk::explore(o, [] { return ring_scenario<false>(9); });
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_TRUE(r.exhausted);
  RecordProperty("ring_interleavings",
                 static_cast<int>(r.distinct_interleavings));
  EXPECT_GE(r.distinct_interleavings, 10000u);  // 3^9 = 19683
}

TEST(ModelCheckRing, WrapGrowIsCorrect) {
  chk::Options o;
  auto r = chk::explore(o, ring_wrap_grow_scenario<false>);
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_TRUE(r.exhausted);
}

TEST(ModelCheckRingMutants, WrapCopyBugCaught) {
  chk::Options o;
  auto r = chk::explore(o, ring_wrap_grow_scenario<true>);
  EXPECT_FALSE(r.ok) << "mutant 4 survived";
  EXPECT_NE(r.violation.find("ring"), std::string::npos) << r.violation;
}

// ---------------------------------------------------------------------------
// Checker self-tests

TEST(ModelCheckEngine, DetectsAbbaDeadlock) {
  chk::Options o;
  o.max_schedules = 20000;
  auto r = chk::explore(o, [] {
    struct State {
      chk::Mutex m1, m2;
    };
    auto st = std::make_shared<State>();
    chk::Scenario s;
    s.threads.push_back([st] {
      st->m1.lock();
      st->m2.lock();
      st->m2.unlock();
      st->m1.unlock();
    });
    s.threads.push_back([st] {
      st->m2.lock();
      st->m1.lock();
      st->m1.unlock();
      st->m2.unlock();
    });
    return s;
  });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violation.find("deadlock"), std::string::npos) << r.violation;
}

TEST(ModelCheckEngine, RelaxedLoadsCanGoStale) {
  // Sanity that the memory model is actually weak: with only relaxed
  // accesses, some schedule lets the reader miss the writer's store.
  chk::Options o;
  o.max_schedules = 1000;
  auto r = chk::explore(o, [] {
    struct State {
      chk::Atomic<int> x{0};
    };
    auto st = std::make_shared<State>();
    chk::Scenario s;
    s.threads.push_back([st] { st->x.store(1, std::memory_order_relaxed); });
    s.threads.push_back([st] {
      chk::expect(st->x.load(std::memory_order_relaxed) == 1,
                  "reader saw stale value (expected for this self-test)");
    });
    return s;
  });
  EXPECT_FALSE(r.ok) << "model never produced a stale relaxed read";
}

TEST(ModelCheckEngine, MutantFromEnvParses) {
  EXPECT_EQ(chk::mutant_from_env(), chk::Mutant::kNone);
  ::setenv("DAS_CHK_MUTANT", "3", 1);
  EXPECT_EQ(chk::mutant_from_env(), chk::Mutant::kWsqFenceSeqCstToRelaxed);
  ::unsetenv("DAS_CHK_MUTANT");
  EXPECT_EQ(chk::mutant_from_env(), chk::Mutant::kNone);
}

/// Manual entry point: DAS_CHK_MUTANT=<n> ./model_check_test
/// --gtest_filter='*EnvMutant*' runs the scenario that mutant targets and
/// expects the checker to catch it. Skipped when the env var is unset.
TEST(ModelCheckEngine, EnvMutantIsCaught) {
  const auto m = chk::mutant_from_env();
  if (m == chk::Mutant::kNone) GTEST_SKIP() << "DAS_CHK_MUTANT not set";
  MutantGuard g(m);
  chk::Options o;
  o.max_schedules = 200000;
  chk::Result r;
  switch (m) {
    case chk::Mutant::kStoreReleaseToRelaxed:
    case chk::Mutant::kLoadAcquireToRelaxed:
      r = chk::explore(o, mpsc_small_scenario);
      break;
    case chk::Mutant::kFenceSeqCstToRelaxed:
      r = chk::explore(o, ec_scenario);
      break;
    case chk::Mutant::kWsqFenceSeqCstToRelaxed:
      r = chk::explore(o, wsq_two_item_scenario);
      break;
    case chk::Mutant::kRingBufferWrapCopy:
      r = chk::explore(o, ring_wrap_grow_scenario<true>);
      break;
    default:
      FAIL() << "unknown DAS_CHK_MUTANT";
  }
  EXPECT_FALSE(r.ok) << "mutant survived " << r.schedules << " schedules";
}

}  // namespace
}  // namespace das
