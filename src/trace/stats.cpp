#include "trace/stats.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace das {

ExecutionStats::ExecutionStats(const Topology& topo, int num_phases)
    : topo_(&topo), num_phases_(num_phases) {
  DAS_CHECK(num_phases >= 1);
  busy_ns_ = std::make_unique<CachePadded<std::atomic<std::int64_t>>[]>(
      static_cast<std::size_t>(topo.num_cores()));
  counts_size_ = 2ull * static_cast<std::size_t>(num_phases_) *
                 static_cast<std::size_t>(topo.num_places());
  counts_ = std::make_unique<std::atomic<std::int64_t>[]>(counts_size_);
  reset();
}

void ExecutionStats::set_phase(int phase) {
  DAS_CHECK(phase >= 0 && phase < num_phases_);
  phase_.store(phase, std::memory_order_relaxed);
}

std::size_t ExecutionStats::index(Priority p, int place_id, int phase) const {
  DAS_ASSERT(place_id >= 0 && place_id < topo_->num_places());
  DAS_ASSERT(phase >= 0 && phase < num_phases_);
  const std::size_t prio = p == Priority::kHigh ? 1 : 0;
  return (prio * static_cast<std::size_t>(num_phases_) +
          static_cast<std::size_t>(phase)) *
             static_cast<std::size_t>(topo_->num_places()) +
         static_cast<std::size_t>(place_id);
}

void ExecutionStats::record_task(Priority priority, int place_id) {
  record_task_at(priority, place_id, phase_.load(std::memory_order_relaxed));
}

void ExecutionStats::record_task_at(Priority priority, int place_id,
                                    int phase) {
  const int ph = std::clamp(phase, 0, num_phases_ - 1);
  counts_[index(priority, place_id, ph)].fetch_add(1, std::memory_order_relaxed);
}

void ExecutionStats::record_task_at_st(Priority priority, int place_id,
                                       int phase) {
  const int ph = std::clamp(phase, 0, num_phases_ - 1);
  std::atomic<std::int64_t>& c = counts_[index(priority, place_id, ph)];
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

void ExecutionStats::record_busy_st(int core, std::int64_t busy_ns) {
  DAS_ASSERT(core >= 0 && core < topo_->num_cores());
  std::atomic<std::int64_t>& b = busy_ns_[static_cast<std::size_t>(core)].value;
  b.store(b.load(std::memory_order_relaxed) + busy_ns,
          std::memory_order_relaxed);
}

void ExecutionStats::record_busy(int core, std::int64_t busy_ns) {
  DAS_ASSERT(core >= 0 && core < topo_->num_cores());
  busy_ns_[static_cast<std::size_t>(core)].value.fetch_add(busy_ns,
                                                           std::memory_order_relaxed);
}

std::int64_t ExecutionStats::tasks_total() const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < counts_size_; ++i)
    total += counts_[i].load(std::memory_order_relaxed);
  return total;
}

std::int64_t ExecutionStats::tasks_with_priority(Priority p) const {
  std::int64_t total = 0;
  for (int pid = 0; pid < topo_->num_places(); ++pid) total += tasks_at(p, pid);
  return total;
}

std::int64_t ExecutionStats::tasks_at(Priority p, int place_id) const {
  std::int64_t total = 0;
  for (int ph = 0; ph < num_phases_; ++ph) total += tasks_at_phase(p, place_id, ph);
  return total;
}

std::int64_t ExecutionStats::tasks_at_phase(Priority p, int place_id, int phase) const {
  DAS_CHECK(place_id >= 0 && place_id < topo_->num_places());
  DAS_CHECK(phase >= 0 && phase < num_phases_);
  return counts_[index(p, place_id, phase)].load(std::memory_order_relaxed);
}

double ExecutionStats::busy_s(int core) const {
  DAS_CHECK(core >= 0 && core < topo_->num_cores());
  return ns_to_s(busy_ns_[static_cast<std::size_t>(core)].value.load(
      std::memory_order_relaxed));
}

double ExecutionStats::total_busy_s() const {
  double total = 0.0;
  for (int c = 0; c < topo_->num_cores(); ++c) total += busy_s(c);
  return total;
}

double ExecutionStats::throughput() const {
  const double elapsed = elapsed_s();
  if (elapsed <= 0.0) return 0.0;
  return static_cast<double>(tasks_total()) / elapsed;
}

std::vector<std::pair<ExecutionPlace, double>> ExecutionStats::distribution(
    Priority p) const {
  const std::int64_t total = tasks_with_priority(p);
  std::vector<std::pair<ExecutionPlace, double>> out;
  if (total == 0) return out;
  for (int pid = 0; pid < topo_->num_places(); ++pid) {
    const std::int64_t n = tasks_at(p, pid);
    if (n > 0)
      out.emplace_back(topo_->place_at(pid),
                       static_cast<double>(n) / static_cast<double>(total));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

StatsSnapshot ExecutionStats::snapshot() const {
  StatsSnapshot s;
  s.tasks_high = tasks_with_priority(Priority::kHigh);
  s.tasks_low = tasks_with_priority(Priority::kLow);
  s.tasks_total = s.tasks_high + s.tasks_low;
  s.elapsed_s = elapsed_s();
  s.busy_s.resize(static_cast<std::size_t>(topo_->num_cores()));
  for (int c = 0; c < topo_->num_cores(); ++c) {
    s.busy_s[static_cast<std::size_t>(c)] = busy_s(c);
    s.total_busy_s += s.busy_s[static_cast<std::size_t>(c)];
  }
  s.high_distribution = distribution(Priority::kHigh);
  return s;
}

void ExecutionStats::reset() {
  for (int c = 0; c < topo_->num_cores(); ++c)
    busy_ns_[static_cast<std::size_t>(c)].value.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < counts_size_; ++i)
    counts_[i].store(0, std::memory_order_relaxed);
  elapsed_s_.store(0.0, std::memory_order_relaxed);
  phase_.store(0, std::memory_order_relaxed);
}

}  // namespace das
