// sim-moldable-flip: single-rank DES, haswell20, catalog scenario
// "phase-flip", DAM-C, an open-loop stream of the paper's matmul / copy /
// stencil synthetic DAGs at several widths released at fixed virtual gaps.
//
// Loads the moldable placement search (on_execute), the PTT updates, cost
// evaluation and heap-ordered irregular completions while the fast socket
// keeps flipping. The traced run replays the identical stream under RWS to
// measure the DAM-C gap from outside and sets it next to the measured cost
// of the policy's search.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/policy.hpp"
#include "kernels/registry.hpp"
#include "platform/speed_model.hpp"
#include "platform/topology.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic_dag.hpp"

namespace perfbench {
namespace {

using namespace das;

const char* const kName = "sim-moldable-flip";

// Stream shape. The gap keeps the platform about 60% busy (four to five
// jobs in flight), so jobs overlap without an unbounded backlog; the stream
// spans six 10 s phase-flip periods in virtual time, so the PTT has to
// track the flips.
constexpr int kJobs = 1200;
constexpr double kGapS = 0.050;
/// Jobs submitted ahead of the one being waited: a 3.2 s virtual horizon,
/// far beyond any job's makespan, so every arrival is scheduled before the
/// clock reaches it while only a window of jobs holds engine state.
constexpr int kSubmitAhead = 64;
constexpr int kBlockJobs = 10;  ///< jobs per latency sample
constexpr int kMinReps = 3;     ///< the exact-repeat check needs two
/// Timed figures come from the slowest tenth of the repetitions
/// (run_sim_moldable_flip says why).
constexpr double kSlowPct = 10.0;
constexpr double kTailPct = 95.0;

struct JobSpec {
  int kind = 0;  ///< 0 matmul, 1 copy, 2 stencil
  int parallelism = 2;
  int tasks = 0;
};

/// The distinct job shapes: every kind x width x size combination.
std::vector<JobSpec> job_shapes() {
  std::vector<JobSpec> shapes;
  for (int kind = 0; kind < 3; ++kind)
    for (int par : {2, 4, 6, 8})
      for (int tasks : {160, 200, 240, 280, 320})
        shapes.push_back(JobSpec{kind, par, tasks});
  return shapes;
}

/// The stream as indices into job_shapes(): consecutive blocks that each
/// hold every shape once, in a seed-shuffled order. Every seed streams the
/// same work with the same mix in every stretch of virtual time, so seeds
/// differ in interleaving and engine stream, not in the load the flips see.
std::vector<int> make_stream(std::uint64_t seed) {
  const int shapes = static_cast<int>(job_shapes().size());
  Xoshiro256 rng(seed ^ 0x5eedf11bULL);
  std::vector<int> jobs;
  jobs.reserve(kJobs);
  std::vector<int> block(static_cast<std::size_t>(shapes));
  while (static_cast<int>(jobs.size()) < kJobs) {
    for (int k = 0; k < shapes; ++k) block[static_cast<std::size_t>(k)] = k;
    std::shuffle(block.begin(), block.end(), rng);
    jobs.insert(jobs.end(), block.begin(), block.end());
  }
  jobs.resize(kJobs);
  return jobs;
}

/// Everything one repetition of the stream needs; kept alive together for
/// the engine's lifetime (the engine stores pointers to all of it). Jobs of
/// one shape share its DAG.
struct Setup {
  TaskTypeRegistry registry;
  kernels::PaperKernelIds ids;
  Topology topo = Topology::haswell20();
  std::unique_ptr<SpeedScenario> scenario;
  std::vector<Dag> dags;
  std::unique_ptr<sim::SimEngine> engine;
};

std::unique_ptr<Setup> build(std::uint64_t seed, Policy policy) {
  auto s = std::make_unique<Setup>();
  s->ids = kernels::register_paper_kernels(s->registry);
  s->scenario = std::make_unique<SpeedScenario>(
      scenario::build(*scenario::find_catalog("phase-flip"), s->topo));
  for (const JobSpec& j : job_shapes()) {
    workloads::SyntheticDagSpec spec =
        j.kind == 0   ? workloads::paper_matmul_spec(s->ids.matmul, j.parallelism)
        : j.kind == 1 ? workloads::paper_copy_spec(s->ids.copy, j.parallelism)
                      : workloads::paper_stencil_spec(s->ids.stencil, j.parallelism);
    spec.total_tasks = j.tasks;
    s->dags.push_back(workloads::make_synthetic_dag(spec));
  }
  sim::SimOptions opts;
  opts.seed = seed;
  opts.hash_traces = true;
  s->engine = std::make_unique<sim::SimEngine>(s->topo, policy, s->registry,
                                               opts, s->scenario.get());
  return s;
}

/// Mean relative error of the learned PTT against the cost the registry's
/// model charges at the scenario speed now, over every explored (type,
/// place) of the stream's three kernel types.
double ptt_rel_error(Setup& s) {
  sim::SimEngine& eng = *s.engine;
  const double t = eng.now();
  const TaskTypeId types[] = {s.ids.matmul, s.ids.copy, s.ids.stencil};
  const TaskParams params[] = {
      workloads::paper_matmul_spec(s.ids.matmul, 2).params,
      workloads::paper_copy_spec(s.ids.copy, 2).params,
      workloads::paper_stencil_spec(s.ids.stencil, 2).params};
  double sum = 0.0;
  int n = 0;
  for (int k = 0; k < 3; ++k) {
    const Ptt& ptt = eng.ptt(0).table(types[k]);
    const TaskTypeInfo& info = s.registry.info(types[k]);
    for (const ExecutionPlace& p : s.topo.places()) {
      if (ptt.samples(p) == 0) continue;
      double truth = 0.0;
      for (int i = 0; i < p.width; ++i) {
        CostQuery q;
        q.place = p;
        q.rank = i;
        q.core = p.leader + i;
        q.cluster = &s.topo.cluster_of_core(q.core);
        q.speed = s.scenario->speed(q.core, t);
        q.bw_share =
            s.scenario->bandwidth_share(s.topo.cluster_index_of(q.core), t);
        truth = std::max(truth, info.cost(params[k], q));
      }
      sum += std::abs(ptt.value(p) - truth) / truth;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

/// Times are the thread's CPU time (thread_cpu_s): the engine runs on the
/// calling thread alone, and on a shared host its wall time also counts the
/// stretches in which the hypervisor runs another guest on the vCPU.
struct RepResult {
  double setup_s = 0.0;
  double cpu_s = 0.0;  ///< submits + waits, probes excluded
  std::int64_t tasks = 0;
  std::int64_t tasks_low = 0;
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
  std::vector<double> makespans;  ///< virtual, per job in stream order
  int late_submits = 0;
  std::vector<double> block_ms;  ///< CPU time per kBlockJobs waits
  // traced-run probes
  std::vector<double> ptt_errors;
  std::vector<double> snapshot_us;
  double on_execute_ns = 0.0;
  double on_ready_ns = 0.0;
  double seal_ns_per_node = 0.0;
};

RepResult run_rep(const std::vector<int>& stream, std::uint64_t seed,
                  Policy policy, Report& rep, bool probes) {
  RepResult r;
  const double t_setup = thread_cpu_s();
  std::unique_ptr<Setup> s = build(seed, policy);
  r.setup_s = thread_cpu_s() - t_setup;
  sim::SimEngine& eng = *s->engine;

  const int n = static_cast<int>(stream.size());
  std::vector<JobId> ids(static_cast<std::size_t>(n), kInvalidJob);
  r.makespans.reserve(static_cast<std::size_t>(n));
  double probe_s = 0.0;
  int next = 0;

  const double t0 = thread_cpu_s();
  double block_start = t0;
  for (int i = 0; i < n; ++i) {
    // Open loop: job j arrives at j * kGapS on the virtual clock whatever
    // the engine is doing; a late submit would be counted and released now.
    for (; next < std::min(n, i + kSubmitAhead); ++next) {
      double offset = kGapS * next - eng.now();
      if (offset < 0.0) {
        ++r.late_submits;
        offset = 0.0;
      }
      const Dag& dag = s->dags[static_cast<std::size_t>(stream[static_cast<std::size_t>(next)])];
      SpanScope span("sim.submit", next);
      ids[static_cast<std::size_t>(next)] = eng.submit(dag, offset);
    }
    {
      SpanScope span("sim.wait", i);
      r.makespans.push_back(eng.wait(ids[static_cast<std::size_t>(i)]));
    }
    if (i % kBlockJobs == kBlockJobs - 1) {
      const double t = thread_cpu_s();
      r.block_ms.push_back((t - block_start) * 1e3);
      block_start = t;
    }
    if (probes && i % 50 == 49) {
      // Job-boundary samples, kept out of the timed totals.
      const double p0 = thread_cpu_s();
      r.ptt_errors.push_back(ptt_rel_error(*s));
      const double q0 = now_s();
      {
        SpanScope span("trace.snapshot");
        const StatsSnapshot snap = eng.stats(0).snapshot();
        (void)snap;
      }
      r.snapshot_us.push_back((now_s() - q0) * 1e6);
      const double spent = thread_cpu_s() - p0;
      probe_s += spent;
      block_start += spent;
    }
  }
  r.cpu_s = thread_cpu_s() - t0 - probe_s;

  const StatsSnapshot snap = eng.stats(0).snapshot();
  r.tasks = snap.tasks_total;
  r.tasks_low = snap.tasks_low;
  r.events = eng.events_processed();
  r.hash = eng.trace_hash(0);

  std::int64_t nodes = 0;
  for (int k : stream) nodes += s->dags[static_cast<std::size_t>(k)].num_nodes();
  rep.check(r.tasks == nodes, std::string(kName) + ": engine ran " +
                                  std::to_string(r.tasks) + " tasks of " +
                                  std::to_string(nodes));
  rep.check(std::all_of(r.makespans.begin(), r.makespans.end(),
                        [](double m) { return m > 0.0 && std::isfinite(m); }),
            std::string(kName) + ": a job makespan is not positive and finite");

  if (probes) {
    // The engine's live policy with the PTT this run learned: the two
    // hooks over every kernel type and core, timed in bulk.
    PolicyEngine& pe = eng.policy(0);
    const TaskTypeId types[] = {s->ids.matmul, s->ids.copy, s->ids.stencil};
    const int cores = s->topo.num_cores();
    constexpr int kRounds = 2000;
    long sink = 0;
    double t = now_s();
    {
      SpanScope span("core.policy.on_execute");
      for (int k = 0; k < kRounds; ++k)
        for (TaskTypeId ty : types)
          for (int c = 0; c < cores; ++c) {
            sink += pe.on_execute(ty, Priority::kLow, c).width;
          }
    }
    const double calls = static_cast<double>(kRounds) * 3 * cores;
    r.on_execute_ns = (now_s() - t) * 1e9 / calls;
    t = now_s();
    {
      SpanScope span("core.policy.on_ready");
      for (int k = 0; k < kRounds; ++k)
        for (TaskTypeId ty : types)
          for (int c = 0; c < cores; ++c) {
            sink += pe.on_ready(ty, Priority::kHigh, c).queue_core;
          }
    }
    r.on_ready_ns = (now_s() - t) * 1e9 / calls;
    rep.check(sink > 0, std::string(kName) + ": policy probe");

    double seal_s = 0.0;
    std::int64_t sealed = 0;
    for (const Dag& d : s->dags) {
      seal_s += timed_seal_copy(d);
      sealed += d.num_nodes();
    }
    r.seal_ns_per_node = seal_s * 1e9 / static_cast<double>(sealed);
  }
  return r;
}

bool same_run(const RepResult& a, const RepResult& b) {
  return a.makespans == b.makespans && a.events == b.events &&
         a.tasks == b.tasks && a.hash == b.hash;
}


}  // namespace

void run_sim_moldable_flip(const Args& args, Report& rep) {
  const std::vector<int> stream = make_stream(args.seed);
  if (!args.trace) {
    // Repeats the stream on fresh engines for the run's budget; every
    // repetition must reproduce the first exactly.
    std::vector<RepResult> reps;
    const double start = now_s();
    while (static_cast<int>(reps.size()) < kMinReps || now_s() - start < args.seconds) {
      reps.push_back(run_rep(stream, args.seed, Policy::kDamC, rep, false));
      rep.check(same_run(reps.front(), reps.back()),
                std::string(kName) + ": repetition diverged from the first "
                                     "(makespan, events or trace hash)");
    }
    const RepResult& first = reps.front();
    // On a shared host this single thread runs at one of two speeds, about
    // 1.6x apart, that alternate within seconds as other tenants load the
    // caches; CPU time does not remove that. The slow speed shows up in
    // most runs, the fast one for a share of the run that differs from run
    // to run, so a median over the repetitions lands on whichever speed
    // dominated. The timed figures therefore come from the slowest tenth
    // of the repetitions: the rate at that percentile, and the latency of
    // the blocks of the repetitions at or below it.
    const std::vector<double> rates = each(reps, [](const RepResult& r) {
      return static_cast<double>(r.tasks) / r.cpu_s;
    });
    const double slow_tps = percentile(rates, kSlowPct);
    std::vector<double> block_ms;
    int slow_reps = 0;
    for (std::size_t k = 0; k < reps.size(); ++k) {
      if (rates[k] > slow_tps) continue;
      ++slow_reps;
      block_ms.insert(block_ms.end(), reps[k].block_ms.begin(), reps[k].block_ms.end());
    }
    rep.metric("setup_s", median(each(reps, [](const RepResult& r) { return r.setup_s; })), "s");
    rep.metric("tasks_per_s", slow_tps, "1/s");
    rep.metric("jobs_per_s", percentile(each(reps, [](const RepResult& r) {
                 return static_cast<double>(kJobs) / r.cpu_s;
               }), kSlowPct), "1/s");
    rep.metric("makespan_s", mean(first.makespans), "s");
    report_latency(rep, kName, block_ms, kTailPct);
    rep.note(std::string(kName) + ": timed figures (thread CPU time) from the slowest " +
             std::to_string(slow_reps) + " of " + std::to_string(reps.size()) +
             " repetitions (p" + fmt_pct(kSlowPct) + " tasks per second " +
             fmt(slow_tps) + ", median " + fmt(median(rates)) + ")");
    rep.note(std::string(kName) + ": " + std::to_string(reps.size()) +
             " repetitions of " + std::to_string(stream.size()) + " jobs, " +
             std::to_string(first.tasks) + " tasks, " +
             std::to_string(first.events) + " events each; trace hash " +
             std::to_string(first.hash) + "; late arrivals " +
             std::to_string(first.late_submits));
    rep.note(std::string(kName) + ": sim.tasks_per_s = tasks_per_s, "
             "sim.makespan_s = makespan_s (mean virtual job makespan, exact)");
    return;
  }

  // Traced run: untraced DAM-C, traced DAM-C (with the probes) and RWS
  // repetitions of the identical stream, interleaved so that drift in the
  // host's speed hits all three alike.
  Tracer& tracer = Tracer::create(kName);
  std::vector<RepResult> plain, traced, rws;
  const double start = now_s();
  while (traced.empty() || now_s() - start < 0.75 * args.seconds) {
    plain.push_back(run_rep(stream, args.seed, Policy::kDamC, rep, false));
    tracer.activate();
    traced.push_back(run_rep(stream, args.seed, Policy::kDamC, rep, true));
    Tracer::deactivate();
    rws.push_back(run_rep(stream, args.seed, Policy::kRws, rep, false));
    rep.check(same_run(plain.front(), plain.back()) &&
                  same_run(plain.front(), traced.back()) &&
                  same_run(rws.front(), rws.back()),
              std::string(kName) + ": traced or repeated run diverged");
  }

  const RepResult& t = traced.front();
  auto med = [&](double RepResult::*field) {
    return median(each(traced, [&](const RepResult& r) { return r.*field; }));
  };
  auto tasks_per_s = [](const RepResult& r) {
    return static_cast<double>(r.tasks) / r.cpu_s;
  };
  const double plain_cpu = median(each(plain, [](const RepResult& r) { return r.cpu_s; }));
  const double traced_tps = median(each(traced, tasks_per_s));
  const double plain_tps = median(each(plain, tasks_per_s));
  const std::string p = std::string(kName) + ".";
  const SpanTotals sub = tracer.totals("sim.submit");
  const SpanTotals wait = tracer.totals("sim.wait");

  const double on_execute_ns = med(&RepResult::on_execute_ns);
  const double on_ready_ns = med(&RepResult::on_ready_ns);
  rep.metric(p + "core.dag.seal_ns_per_node", med(&RepResult::seal_ns_per_node), "ns");
  rep.metric(p + "core.policy.on_execute_ns", on_execute_ns, "ns");
  rep.metric(p + "core.policy.on_ready_ns", on_ready_ns, "ns");
  // One on_execute call per low-priority task, at its dequeue.
  rep.metric(p + "core.policy.on_execute_calls",
             static_cast<double>(t.tasks_low), "count");
  rep.metric(p + "core.ptt.rel_error", mean(t.ptt_errors), "ratio");
  rep.metric(p + "sim.events_per_s", static_cast<double>(t.events) / plain_cpu, "1/s");
  rep.metric(p + "sim.events_per_task",
             static_cast<double>(t.events) / static_cast<double>(t.tasks), "count");
  rep.metric(p + "sim.ns_per_event", plain_cpu * 1e9 / static_cast<double>(t.events), "ns");
  rep.metric(p + "sim.submit_us_per_job", sub.total_s * 1e6 / static_cast<double>(sub.count), "us");
  rep.metric(p + "sim.wait_us_per_job", wait.self_s * 1e6 / static_cast<double>(wait.count), "us");
  // The DAM-C gap, decomposed from outside: the share of DAM-C's CPU time
  // it spends beyond RWS on the identical stream, next to the share the
  // measured on_execute search cost times its call count accounts for.
  const double rws_cpu = median(each(rws, [](const RepResult& r) { return r.cpu_s; }));
  rep.metric(p + "sim.policy_gap_frac", (plain_cpu - rws_cpu) / plain_cpu, "ratio");
  rep.metric(p + "sim.policy_search_frac",
             on_execute_ns * 1e-9 * static_cast<double>(t.tasks_low) / plain_cpu,
             "ratio");
  // Same for the wake-up search DAM-C runs for every critical task.
  rep.metric(p + "sim.policy_ready_frac",
             on_ready_ns * 1e-9 * static_cast<double>(t.tasks - t.tasks_low) / plain_cpu,
             "ratio");
  std::vector<double> snapshot_us;
  for (const RepResult& r : traced)
    snapshot_us.insert(snapshot_us.end(), r.snapshot_us.begin(), r.snapshot_us.end());
  rep.metric(p + "trace.snapshot_us", mean(snapshot_us), "us");
  rep.metric(p + "trace.overhead_frac", 1.0 - traced_tps / plain_tps, "ratio");
  rep.note(p + "rws_replay: " + fmt(rws_cpu) + " s CPU vs DAM-C " +
           fmt(plain_cpu) + " s per repetition; " +
           std::to_string(rws.front().events) + " vs " +
           std::to_string(t.events) + " events");
}

}  // namespace perfbench
