// rt-finegrain: the real-thread runtime with DAM-C on a 3-worker, 2-cluster
// topology (2 cores with widths {1, 2}, plus 1 core), a closed loop with one
// job in flight of empty-kernel layered DAGs whose width equals the worker
// count.
//
// Every nanosecond is runtime overhead: WSQ push/pop/steal, eventcount
// park/wake, and the per-task on_execute and PTT update. The policy layer
// runs here with a steady PTT, the opposite of sim-moldable-flip's churning
// one.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common.hpp"
#include "exec/executor.hpp"
#include "kernels/cost_models.hpp"
#include "platform/topology.hpp"
#include "workloads/synthetic_dag.hpp"

namespace perfbench {
namespace {

using namespace das;

const char* const kName = "rt-finegrain";

constexpr int kRounds = 4;       ///< executors that run jobs, per run
constexpr int kSetupOnly = 30;   ///< further executors set up and torn down
constexpr double kWindowS = 0.25;  ///< tail sample window
constexpr int kWorkers = 3;
constexpr int kLayers = 100;   ///< per job: kLayers x kWorkers tasks
constexpr int kPoolDags = 8;
/// The tail is the kTailPct latency of each window, taken at the calmest
/// tenth (kCalmPct) of the windows. In stretches, minutes long, in which
/// the hypervisor often runs other guests on the workers' vCPUs, each
/// preemption stalls the one job in flight for up to milliseconds, and in
/// most windows such jobs reach past the 90th percentile: one set of ten
/// runs spread 0.40 with the median over windows.
constexpr double kTailPct = 90.0;
constexpr double kCalmPct = 10.0;

Topology small_topology() {
  return Topology({Cluster{.name = "pair",
                           .first_core = 0,
                           .num_cores = 2,
                           .base_speed = 1.0,
                           .widths = {1, 2}},
                   Cluster{.name = "single",
                           .first_core = 2,
                           .num_cores = 1,
                           .base_speed = 0.5,
                           .widths = {1}}});
}

struct Setup {
  TaskTypeRegistry registry;
  TaskTypeId empty = kInvalidTaskType;
  Topology topo = small_topology();
  std::vector<Dag> dags;
  std::unique_ptr<Executor> exec;
};

std::unique_ptr<Setup> build(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  s->empty = s->registry.register_type("empty", kernels::fixed_cost(1e-9));
  for (int k = 0; k < kPoolDags; ++k) {
    workloads::SyntheticDagSpec spec;
    spec.type = s->empty;
    spec.parallelism = kWorkers;
    spec.total_tasks = kLayers * kWorkers;
    spec.work = [](const ExecContext&) {};
    s->dags.push_back(workloads::make_synthetic_dag(spec));
  }
  s->exec = make_executor(Backend::kRt, s->topo, Policy::kDamC, s->registry,
                          ExecutorConfig::builder().seed(seed).build());
  return s;
}

/// Per-job samples of every round of a run, bounded in memory.
struct Samples {
  Reservoir latency_ms;  ///< submit call -> wait return
  Reservoir makespan_s;  ///< RunResult::makespan_s
  Reservoir submit_us;
  Reservoir wait_us;
  std::vector<double> window_tails_ms;  ///< kTailPct of latency_ms per window
};

struct RoundResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::int64_t tasks = 0;
  // traced-run probes
  std::vector<double> snapshot_us;
  double busy_frac = 0.0;
  double busy_imbalance = 0.0;
  double on_execute_ns = 0.0;
  double on_ready_ns = 0.0;
  double seal_ns_per_node = 0.0;
};

RoundResult run_round(std::uint64_t seed, double seconds, Report& rep, bool probes,
                      Samples& samples) {
  RoundResult r;
  const double t_setup = now_s();
  std::unique_ptr<Setup> s = build(seed);
  r.setup_s = now_s() - t_setup;
  Executor& exec = *s->exec;

  const double t0 = now_s();
  const double deadline = t0 + seconds;
  // Each window holds over a thousand jobs; ten beyond the tail at least.
  WindowPercentiles tails(t0, kWindowS, kTailPct,
                          static_cast<std::size_t>(std::ceil(10.0 / (1.0 - kTailPct / 100.0))));
  double probe_s = 0.0;
  for (std::int64_t i = 0; now_s() < deadline; ++i) {
    const Dag& dag = s->dags[static_cast<std::size_t>(i % kPoolDags)];
    const double a = now_s();
    RunResult res;
    double b = 0.0;
    {
      SpanScope job("rt.job", i);
      JobId id = kInvalidJob;
      {
        SpanScope span("rt.submit");
        id = exec.submit(dag);
      }
      b = now_s();
      SpanScope span("rt.wait");
      res = exec.wait(id);
    }
    const double c = now_s();
    samples.latency_ms.add((c - a) * 1e3);
    tails.add(c, (c - a) * 1e3);
    samples.submit_us.add((b - a) * 1e6);
    samples.wait_us.add((c - b) * 1e6);
    samples.makespan_s.add(res.makespan_s);
    r.tasks += res.tasks;
    // The message is built only for a failed job: this sits in the timed loop.
    const bool ok = res.ok() && res.tasks == dag.num_nodes();
    rep.check(ok, ok ? std::string()
                     : std::string(kName) + ": job " + std::to_string(i) + " ran " +
                           std::to_string(res.tasks) + " of " +
                           std::to_string(dag.num_nodes()) + " tasks");
    if (probes && i % 100 == 99) {
      const double q0 = now_s();
      {
        SpanScope span("trace.snapshot");
        const StatsSnapshot snap = exec.stats(0).snapshot();
        (void)snap;
      }
      const double spent = now_s() - q0;
      r.snapshot_us.push_back(spent * 1e6);
      probe_s += spent;
    }
  }
  r.wall_s = now_s() - t0 - probe_s;
  samples.window_tails_ms.insert(samples.window_tails_ms.end(), tails.windows().begin(),
                                 tails.windows().end());

  if (probes) {
    const StatsSnapshot snap = exec.stats(0).snapshot();
    const double busy_max = *std::max_element(snap.busy_s.begin(), snap.busy_s.end());
    r.busy_frac = snap.total_busy_s / (kWorkers * r.wall_s);
    r.busy_imbalance = snap.total_busy_s > 0.0
                           ? busy_max * kWorkers / snap.total_busy_s
                           : 0.0;
    // The runtime's live policy with the PTT the run learned; the workers
    // are parked, so the probe has the core to itself.
    PolicyEngine& pe = exec.policy(0);
    constexpr int kCalls = 300000;
    int sink = 0;
    double t = now_s();
    {
      SpanScope span("core.policy.on_execute");
      for (int k = 0; k < kCalls; ++k)
        sink += pe.on_execute(s->empty, Priority::kLow, k % kWorkers).width;
    }
    r.on_execute_ns = (now_s() - t) * 1e9 / kCalls;
    t = now_s();
    {
      SpanScope span("core.policy.on_ready");
      for (int k = 0; k < kCalls; ++k)
        sink += pe.on_ready(s->empty, Priority::kHigh, k % kWorkers).queue_core;
    }
    r.on_ready_ns = (now_s() - t) * 1e9 / kCalls;
    rep.check(sink > 0, std::string(kName) + ": policy probe");
    double seal_s = 0.0;
    for (const Dag& d : s->dags) seal_s += timed_seal_copy(d);
    r.seal_ns_per_node = seal_s * 1e9 / (kPoolDags * kLayers * kWorkers);
  }
  return r;
}

}  // namespace

void run_rt_finegrain(const Args& args, Report& rep) {
  if (!args.trace) {
    std::vector<double> setup;
    for (int k = 0; k < kSetupOnly; ++k) {
      const double t0 = now_s();
      const std::unique_ptr<Setup> s = build(args.seed + k);
      setup.push_back(now_s() - t0);
    }
    Samples samples;
    for (int k = 0; k < kRounds; ++k)
      setup.push_back(run_round(args.seed + k, args.seconds / kRounds, rep, false, samples).setup_s);
    // One job in flight: the throughput is that of the median job. The
    // mean job would count the jobs stalled by preemption (kTailPct says
    // why they come in stretches), which halve the mean rate in such a
    // stretch while the median job slows by a tenth.
    const double p50_ms = percentile(samples.latency_ms.values(), 50.0);
    const double makespan_p50 = percentile(samples.makespan_s.values(), 50.0);
    rep.metric("setup_s", median(setup), "s");
    rep.metric("tasks_per_s", kLayers * kWorkers * 1e3 / p50_ms, "1/s");
    rep.metric("jobs_per_s", 1e3 / p50_ms, "1/s");
    rep.metric("makespan_s", makespan_p50, "s");
    rep.metric("latency_p50_ms", p50_ms, "ms");
    rep.metric("latency_tail_ms", percentile(samples.window_tails_ms, kCalmPct), "ms");
    rep.note(std::string(kName) + ": latency_tail_ms is the p" + fmt_pct(kCalmPct) +
             " over " + std::to_string(samples.window_tails_ms.size()) +
             " windows of each window's p" + fmt_pct(kTailPct));
    rep.note(std::string(kName) + ": rt.tasks_per_s = tasks_per_s; "
             "rt.ns_per_task_p50 = " + fmt(makespan_p50 * 1e9 / (kLayers * kWorkers)) +
             " ns, rt.ns_per_task_tail = p" + fmt_pct(kTailPct) + " " +
             fmt(percentile(samples.makespan_s.values(), kTailPct) * 1e9 / (kLayers * kWorkers)) +
             " ns over " + std::to_string(samples.makespan_s.values().size()) +
             " sampled of " + std::to_string(samples.makespan_s.seen()) + " jobs of " +
             std::to_string(kLayers * kWorkers) + " tasks");
    return;
  }

  // Traced run: untraced and traced rounds interleaved so that drift in
  // the host's speed hits both alike; the probes run after each traced
  // round's timed part.
  constexpr int kPairs = 3;
  const double round_s = args.seconds / (4.0 * kPairs);
  Tracer& tracer = Tracer::create(kName);
  std::vector<RoundResult> plain, traced;
  Samples plain_samples, traced_samples;
  for (int k = 0; k < kPairs; ++k) {
    plain.push_back(run_round(args.seed + k, round_s, rep, false, plain_samples));
    tracer.activate();
    traced.push_back(run_round(args.seed + k, round_s, rep, true, traced_samples));
    Tracer::deactivate();
  }
  std::vector<double> snapshot_us;
  for (const RoundResult& r : traced)
    snapshot_us.insert(snapshot_us.end(), r.snapshot_us.begin(), r.snapshot_us.end());
  auto med = [&](const std::vector<RoundResult>& rs, double RoundResult::*field) {
    std::vector<double> v;
    for (const RoundResult& r : rs) v.push_back(r.*field);
    return median(v);
  };
  auto tps = [](const std::vector<RoundResult>& rs) {
    double tasks = 0.0, wall = 0.0;
    for (const RoundResult& r : rs) {
      tasks += static_cast<double>(r.tasks);
      wall += r.wall_s;
    }
    return tasks / wall;
  };
  const std::string p = std::string(kName) + ".";
  rep.metric(p + "core.dag.seal_ns_per_node", med(traced, &RoundResult::seal_ns_per_node), "ns");
  rep.metric(p + "core.policy.on_execute_ns", med(traced, &RoundResult::on_execute_ns), "ns");
  rep.metric(p + "core.policy.on_ready_ns", med(traced, &RoundResult::on_ready_ns), "ns");
  rep.metric(p + "rt.submit_us", median(traced_samples.submit_us.values()), "us");
  rep.metric(p + "rt.wait_us", median(traced_samples.wait_us.values()), "us");
  rep.metric(p + "rt.busy_frac", med(traced, &RoundResult::busy_frac), "ratio");
  rep.metric(p + "rt.core_busy_imbalance", med(traced, &RoundResult::busy_imbalance), "ratio");
  rep.metric(p + "trace.snapshot_us", mean(snapshot_us), "us");
  rep.metric(p + "trace.overhead_frac", 1.0 - tps(traced) / tps(plain), "ratio");
  const SpanTotals job = tracer.totals("rt.job");
  rep.note(p + "job self time outside submit/wait: " +
           fmt(job.self_s * 1e6 / static_cast<double>(std::max<std::int64_t>(job.count, 1))) +
           " us per job");
}

}  // namespace perfbench
