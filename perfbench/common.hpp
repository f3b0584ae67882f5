#pragma once
// Shared plumbing of the repo benchmark (perfbench.cpp documents the
// workloads and metrics): the run's arguments, the metric report printed as
// the last stdout line, sample statistics, and the span recorder of the
// traced run.
//
// Spans are recorded only by this benchmark's own code, around its calls
// into the library's public functions; nothing inside src/ is instrumented.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/dag.hpp"

namespace perfbench {

/// Command line of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans
};

/// Seconds on the steady clock since the first call.
double now_s();

/// CPU seconds the calling thread has run. On a paravirtualised host this
/// leaves out the time the hypervisor gave the vCPU to another guest
/// (steal time), which wall time counts.
double thread_cpu_s();

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Nearest-rank percentile, q in [0, 100].
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// f(x) for every x of `xs`.
template <class T, class F>
std::vector<double> each(const std::vector<T>& xs, F f) {
  std::vector<double> v;
  v.reserve(xs.size());
  for (const T& x : xs) v.push_back(f(x));
  return v;
}

/// Metrics, counts and human-readable notes of one run.
struct Report {
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes.push_back(line); }
  /// Records one checked operation; a failed one also prints `what`.
  void check(bool ok, const std::string& what);
  /// Prints the notes, then the result JSON as the last stdout line.
  void print() const;

  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> notes;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// A uniform random sample of at most kCapacity values of a stream
/// (reservoir sampling). Its memory stops growing once it is full, so the
/// samples a run keeps do not make peak_rss_mb grow with throughput.
class Reservoir {
 public:
  static constexpr std::size_t kCapacity = 4096;

  void add(double v);
  const std::vector<double>& values() const { return values_; }
  std::int64_t seen() const { return seen_; }

 private:
  std::uint64_t state_ = 1;
  std::int64_t seen_ = 0;
  std::vector<double> values_;
};

/// The `q` percentile of each whole `window_s` window of a stream of
/// samples that arrive in time order; windows with fewer than
/// `min_samples` samples are left out. Holds one window's samples at a
/// time.
class WindowPercentiles {
 public:
  WindowPercentiles(double start_s, double window_s, double q, std::size_t min_samples)
      : start_s_(start_s), window_s_(window_s), q_(q), min_samples_(min_samples) {}
  void add(double t, double v);
  /// Per-window percentiles of the windows closed so far; a sample at or
  /// after the end of a window closes it.
  const std::vector<double>& windows() const { return out_; }

 private:
  double start_s_;
  double window_s_;
  double q_;
  std::size_t min_samples_;
  std::int64_t current_ = 0;
  std::vector<double> buf_;
  std::vector<double> out_;
};

/// Formats a double with every significant digit.
std::string fmt(double v);
/// Formats a percentile label ("99.9").
std::string fmt_pct(double pct);

/// The tail percentile of a latency metric, fixed per workload so a run's
/// sample count cannot change which percentile is compared. The note
/// states how many samples lie beyond it.
void report_latency(Report& rep, const std::string& workload,
                    const std::vector<double>& samples_ms, double tail_pct);

// --- traced run ---------------------------------------------------------

/// Per-name totals; self time excludes the time child spans cover.
struct SpanTotals {
  std::int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Collects spans from every thread while active. Spans stay in memory
/// (bounded per thread; the totals always cover every span) until
/// write_all() at exit.
class Tracer {
 public:
  explicit Tracer(std::string label);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A new tracer that lives until exit, so write_all() can write it.
  static Tracer& create(std::string label);
  /// Writes the spans of every created tracer as one JSON document;
  /// returns how many spans it wrote.
  static std::size_t write_all(const std::string& path);

  /// The active tracer, or null while tracing is off.
  static Tracer* active();
  /// Makes this the active tracer / turns tracing off. Call only while no
  /// span is open.
  void activate();
  static void deactivate();

  /// Opens a span on the calling thread; returns its stack depth.
  int open(const char* name, std::int64_t job);
  void close(int depth);

  /// Totals of one span name over every thread (zero when never recorded).
  /// Call only while no thread is recording.
  SpanTotals totals(const char* name) const;

  /// One thread's spans (common.cpp).
  struct ThreadLog;

 private:
  ThreadLog& log();

  std::string label_;
  std::uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span; records nothing while no tracer is active.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::int64_t job = -1)
      : tracer_(Tracer::active()),
        depth_(tracer_ != nullptr ? tracer_->open(name, job) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(depth_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int depth_;
};

/// A sealed copy of `dag` built node by node; the seal is timed into the
/// "core.dag.seal" span. Returns the seal's wall seconds.
double timed_seal_copy(const das::Dag& dag);

// --- workloads (one translation unit each) -----------------------------

void run_sim_moldable_flip(const Args& args, Report& rep);
void run_sim_halo_ranks(const Args& args, Report& rep);
void run_svc_remote_mixed(const Args& args, Report& rep);
void run_rt_finegrain(const Args& args, Report& rep);

}  // namespace perfbench
