#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

void Reservoir::add(double v) {
  ++seen_;
  if (values_.size() < kCapacity) {
    values_.push_back(v);
    return;
  }
  // splitmix64 step; replace a kept value with probability kCapacity / seen.
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const std::uint64_t j = z % static_cast<std::uint64_t>(seen_);
  if (j < kCapacity) values_[static_cast<std::size_t>(j)] = v;
}

void WindowPercentiles::add(double t, double v) {
  if (t < start_s_) return;
  const auto w = static_cast<std::int64_t>((t - start_s_) / window_s_);
  if (w != current_) {
    if (buf_.size() >= min_samples_) out_.push_back(percentile(buf_, q_));
    buf_.clear();
    current_ = w;
  }
  buf_.push_back(v);
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_pct(double pct) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%g", pct);
  return buf;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics[name] = {value, unit};
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    // Only the first few failures are spelled out; the count covers all.
    if (failed <= 5) notes.push_back("FAILED: " + what);
  }
}

void Report::print() const {
  for (const std::string& n : notes) std::cout << n << "\n";
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    if (!first) out += ", ";
    first = false;
    // A value that is not finite is printed as null: the run is then
    // refused instead of silently reporting a made-up number.
    out += "\"" + name + "\": {\"value\": " +
           (std::isfinite(vu.first) ? fmt(vu.first) : std::string("null")) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void report_latency(Report& rep, const std::string& workload,
                    const std::vector<double>& samples_ms, double tail_pct) {
  const double p50 = percentile(samples_ms, 50.0);
  const double tail = percentile(samples_ms, tail_pct);
  const auto beyond = static_cast<long long>(std::floor(
      static_cast<double>(samples_ms.size()) * (1.0 - tail_pct / 100.0)));
  rep.metric("latency_p50_ms", p50, "ms");
  rep.metric("latency_tail_ms", tail, "ms");
  rep.note(workload + ": latency_tail_ms is p" + fmt_pct(tail_pct) + " over " +
           std::to_string(samples_ms.size()) + " samples (" +
           std::to_string(beyond) + " beyond it)");
  if (beyond < 10)
    rep.note(workload + ": WARNING fewer than ten samples beyond the tail "
             "percentile; the tail is not resolved in this run");
}

// --- span recorder ----------------------------------------------------------

namespace {

// Bounded memory per thread: the totals keep counting past the cap.
constexpr std::size_t kMaxKeptSpansPerThread = 50000;

std::atomic<Tracer*> g_active{nullptr};
std::atomic<std::uint64_t> g_generation{0};
std::mutex g_all_mu;
std::vector<std::unique_ptr<Tracer>> g_all;

}  // namespace

/// One recorded span: a timed call into a library layer.
struct Span {
  const char* name = nullptr;
  double start_s = 0.0;
  double end_s = 0.0;
  std::int32_t parent = -1;  ///< index within the same thread's spans
  std::int32_t thread = 0;
  std::int64_t job = -1;
};

struct Tracer::ThreadLog {
  struct Open {
    const char* name = nullptr;
    double start_s = 0.0;
    double child_s = 0.0;
    std::int64_t job = -1;
    std::int32_t kept = -1;  ///< index into spans, -1 when over the cap
  };
  std::int32_t thread = 0;
  std::vector<Span> spans;
  std::vector<Open> stack;
  /// Keyed by the name literal; totals() compares by content.
  std::map<const char*, SpanTotals> totals;
};

namespace {
thread_local Tracer::ThreadLog* tl_log = nullptr;
thread_local std::uint64_t tl_generation = 0;
}  // namespace

Tracer::Tracer(std::string label)
    : label_(std::move(label)), generation_(++g_generation) {}

Tracer::~Tracer() {
  Tracer* self = this;
  g_active.compare_exchange_strong(self, nullptr);
}

Tracer& Tracer::create(std::string label) {
  std::lock_guard<std::mutex> g(g_all_mu);
  g_all.push_back(std::make_unique<Tracer>(std::move(label)));
  return *g_all.back();
}

Tracer* Tracer::active() { return g_active.load(std::memory_order_acquire); }
void Tracer::activate() { g_active.store(this, std::memory_order_release); }
void Tracer::deactivate() { g_active.store(nullptr, std::memory_order_release); }

Tracer::ThreadLog& Tracer::log() {
  if (tl_generation != generation_ || tl_log == nullptr) {
    std::lock_guard<std::mutex> g(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    logs_.back()->thread = static_cast<std::int32_t>(logs_.size() - 1);
    logs_.back()->spans.reserve(1024);
    tl_log = logs_.back().get();
    tl_generation = generation_;
  }
  return *tl_log;
}

int Tracer::open(const char* name, std::int64_t job) {
  ThreadLog& l = log();
  if (job < 0 && !l.stack.empty()) job = l.stack.back().job;
  const std::int32_t parent = l.stack.empty() ? -1 : l.stack.back().kept;
  const double t = now_s();
  std::int32_t kept = -1;
  if (l.spans.size() < kMaxKeptSpansPerThread) {
    kept = static_cast<std::int32_t>(l.spans.size());
    l.spans.push_back(Span{name, t, t, parent, l.thread, job});
  }
  l.stack.push_back(ThreadLog::Open{name, t, 0.0, job, kept});
  return static_cast<int>(l.stack.size()) - 1;
}

void Tracer::close(int depth) {
  const double t = now_s();
  ThreadLog& l = log();
  // Scopes nest, so the span closing is always the innermost open one.
  if (static_cast<int>(l.stack.size()) - 1 != depth) std::abort();
  const ThreadLog::Open o = l.stack.back();
  l.stack.pop_back();
  const double dur = t - o.start_s;
  if (!l.stack.empty()) l.stack.back().child_s += dur;
  SpanTotals& tot = l.totals[o.name];
  ++tot.count;
  tot.total_s += dur;
  tot.self_s += dur - o.child_s;
  if (o.kept >= 0) l.spans[static_cast<std::size_t>(o.kept)].end_s = t;
}

SpanTotals Tracer::totals(const char* name) const {
  std::lock_guard<std::mutex> g(mu_);
  SpanTotals sum;
  for (const auto& l : logs_) {
    for (const auto& [key, t] : l->totals) {
      if (std::strcmp(key, name) != 0) continue;
      sum.count += t.count;
      sum.total_s += t.total_s;
      sum.self_s += t.self_s;
    }
  }
  return sum;
}

std::size_t Tracer::write_all(const std::string& path) {
  std::lock_guard<std::mutex> ga(g_all_mu);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return 0;
  std::size_t written = 0;
  out << "[";
  for (const auto& tr : g_all) {
    std::lock_guard<std::mutex> g(tr->mu_);
    for (const auto& l : tr->logs_) {
      for (const Span& s : l->spans) {
        out << (written++ == 0 ? "\n" : ",\n") << "{\"workload\":\""
            << tr->label_ << "\",\"name\":\"" << s.name
            << "\",\"start_s\":" << fmt(s.start_s)
            << ",\"end_s\":" << fmt(s.end_s) << ",\"parent\":" << s.parent
            << ",\"thread\":" << s.thread << ",\"job\":" << s.job << "}";
      }
    }
  }
  out << "\n]\n";
  return written;
}

double timed_seal_copy(const das::Dag& dag) {
  das::Dag copy;
  for (das::NodeId id = 0; id < dag.num_nodes(); ++id) {
    const das::DagNode& n = dag.node(id);
    const das::NodeId c = copy.add_node(n.type, n.priority, n.params);
    das::DagNode& cn = copy.node(c);
    cn.rank = n.rank;
    cn.affinity_core = n.affinity_core;
    cn.phase = n.phase;
  }
  for (das::NodeId id = 0; id < dag.num_nodes(); ++id)
    for (const das::DagEdge& e : dag.successors(id))
      copy.add_edge(id, e.to, e.delay_s);
  const double t0 = now_s();
  {
    SpanScope span("core.dag.seal");
    copy.seal();
  }
  return now_s() - t0;
}

}  // namespace perfbench
