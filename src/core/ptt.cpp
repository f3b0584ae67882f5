#include "core/ptt.hpp"

#include "util/aligned.hpp"
#include "util/assert.hpp"

namespace das {

namespace {

// The smoothing step both writers share, so they cannot drift apart.
double fold(std::uint64_t prior, double old_v, double sample_s,
            UpdateRatio ratio) {
  const double num = static_cast<double>(ratio.num);
  const double den = static_cast<double>(ratio.den);
  // The very first measurement seeds the entry verbatim: averaging a real
  // sample against the sentinel 0 would underestimate by (den-num)/den and
  // take several rounds to recover.
  return prior == 0 ? sample_s : ((den - num) * old_v + num * sample_s) / den;
}

}  // namespace

Ptt::Ptt(const Topology& topo, UpdateRatio ratio) : topo_(&topo), ratio_(ratio) {
  DAS_CHECK_MSG(ratio_.den > 0 && ratio_.num > 0 && ratio_.num <= ratio_.den,
                "update ratio must satisfy 0 < num <= den");

  // Assign slots: group places by leader core, pad each leader's group to a
  // cache-line boundary.
  constexpr std::size_t kEntriesPerLine = kCacheLine / sizeof(Entry);
  static_assert(kCacheLine % sizeof(Entry) == 0);

  slot_of_place_.assign(static_cast<std::size_t>(topo.num_places()), -1);
  std::size_t slot = 0;
  int current_leader = -1;
  std::size_t used_in_group = 0;
  for (int pid = 0; pid < topo.num_places(); ++pid) {
    const ExecutionPlace& p = topo.place_at(pid);
    if (p.leader != current_leader) {
      // Start a new leader group on a cache-line boundary.
      slot = align_up(slot + used_in_group, kEntriesPerLine);
      current_leader = p.leader;
      used_in_group = 0;
    }
    slot_of_place_[static_cast<std::size_t>(pid)] = static_cast<int>(slot + used_in_group);
    ++used_in_group;
  }
  num_slots_ = align_up(slot + used_in_group, kEntriesPerLine);
  entries_ = std::make_unique<Entry[]>(num_slots_);
}

double Ptt::value(int place_id) const {
  DAS_CHECK(place_id >= 0 && place_id < topo_->num_places());
  return entries_[static_cast<std::size_t>(slot_of_place_[static_cast<std::size_t>(place_id)])]
      .value.load(std::memory_order_relaxed);
}

std::uint64_t Ptt::samples(int place_id) const {
  DAS_CHECK(place_id >= 0 && place_id < topo_->num_places());
  return entries_[static_cast<std::size_t>(slot_of_place_[static_cast<std::size_t>(place_id)])]
      .samples.load(std::memory_order_relaxed);
}

void Ptt::update(int place_id, double sample_s) {
  DAS_CHECK(place_id >= 0 && place_id < topo_->num_places());
  DAS_CHECK_MSG(sample_s >= 0.0, "negative execution time");
  Entry& e =
      entries_[static_cast<std::size_t>(slot_of_place_[static_cast<std::size_t>(place_id)])];

  // Relaxed: an entry is a self-contained statistic that publishes no other
  // data, so readers only need untorn values.
  const std::uint64_t prior = e.samples.fetch_add(1, std::memory_order_relaxed);
  double old_v = e.value.load(std::memory_order_relaxed);
  while (!e.value.compare_exchange_weak(
      old_v, fold(prior, old_v, sample_s, ratio_), std::memory_order_relaxed)) {
  }
}

void Ptt::update_st(int place_id, double sample_s) {
  DAS_CHECK(place_id >= 0 && place_id < topo_->num_places());
  DAS_CHECK_MSG(sample_s >= 0.0, "negative execution time");
  Entry& e = entries_[static_cast<std::size_t>(
      slot_of_place_[static_cast<std::size_t>(place_id)])];

  // Single writer: nobody else stores to this entry, so load + store cannot
  // lose an update. Relaxed for the same reason as in update().
  const std::uint64_t prior = e.samples.load(std::memory_order_relaxed);
  e.samples.store(prior + 1, std::memory_order_relaxed);
  const double old_v = e.value.load(std::memory_order_relaxed);
  e.value.store(fold(prior, old_v, sample_s, ratio_),
                std::memory_order_relaxed);
}

void Ptt::fill(double value_s) {
  for (int pid = 0; pid < topo_->num_places(); ++pid) {
    Entry& e =
        entries_[static_cast<std::size_t>(slot_of_place_[static_cast<std::size_t>(pid)])];
    e.value.store(value_s, std::memory_order_relaxed);
    e.samples.store(value_s > 0.0 ? 1 : 0, std::memory_order_relaxed);
  }
}

PttStore::PttStore(const Topology& topo, int num_types, UpdateRatio ratio)
    : ratio_(ratio) {
  DAS_CHECK(num_types >= 0);
  tables_.reserve(static_cast<std::size_t>(num_types));
  for (int i = 0; i < num_types; ++i)
    tables_.push_back(std::make_unique<Ptt>(topo, ratio));
}

}  // namespace das
