// svc-remote-mixed: a net::World of one server rank and two client ranks.
// The server runs a sim-backed DAM-C Executor on the TX2 model through
// net::serve_executor. Client "interactive" (session weight 2) runs a
// closed loop of small 40-task matmul jobs; client "batch" (weight 1) runs a
// closed loop of large stencil jobs of thousands of tasks.
//
// The engine does little per small job, so the interactive client's time
// goes to the wire codec, the mailbox, the server loop, DAG decode + seal,
// admission/DRR and result assembly. The server handles one request at a
// time, so the interactive tail shows head-of-line blocking behind the
// batch client's waits. The traced run also replays the recorded request
// sequence on a local executor, with no net, to split the path's cost.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "exec/executor.hpp"
#include "kernels/registry.hpp"
#include "net/service.hpp"
#include "net/wire.hpp"
#include "net/world.hpp"
#include "platform/topology.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic_dag.hpp"

namespace perfbench {
namespace {

using namespace das;

const char* const kName = "svc-remote-mixed";

constexpr int kRounds = 4;         ///< worlds that serve jobs, per run
constexpr int kSetupOnly = 30;     ///< further worlds set up and torn down
constexpr double kWindowS = 0.25;  ///< throughput sample window
constexpr int kSmallTasks = 40;
constexpr double kTailPct = 95.0;
constexpr int kPings = 500;

/// The generated inputs: DAG pools with a fixed composition whose order
/// comes from the seed, so every seed submits the same mix of work.
struct Inputs {
  TaskTypeRegistry registry;
  kernels::PaperKernelIds ids;
  Topology topo = Topology::tx2();
  std::vector<Dag> small;
  std::vector<Dag> large;
};

std::unique_ptr<Inputs> make_inputs(std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->ids = kernels::register_paper_kernels(in->registry);
  std::vector<int> small_par = {2, 4, 5, 8, 2, 4, 5, 8};
  std::vector<int> large_tasks = {2000, 2500, 3000, 3500};
  Xoshiro256 rng(seed ^ 0x5eed5e7cULL);
  std::shuffle(small_par.begin(), small_par.end(), rng);
  std::shuffle(large_tasks.begin(), large_tasks.end(), rng);
  for (int par : small_par) {
    workloads::SyntheticDagSpec spec =
        workloads::paper_matmul_spec(in->ids.matmul, par);
    spec.total_tasks = kSmallTasks;
    in->small.push_back(workloads::make_synthetic_dag(spec));
  }
  for (int tasks : large_tasks) {
    workloads::SyntheticDagSpec spec =
        workloads::paper_stencil_spec(in->ids.stencil, 4);
    spec.total_tasks = tasks;
    in->large.push_back(workloads::make_synthetic_dag(spec));
  }
  return in;
}

/// One job in the engine at a time: the weighted DRR decides whose job is
/// released next, so the admission layer does real work on every request.
ExecutorConfig server_config(std::uint64_t seed) {
  return ExecutorConfig::builder().seed(seed).max_service_inflight(1).build();
}

TenantConfig tenant(const char* name, double weight) {
  TenantConfig cfg;
  cfg.name = name;
  cfg.weight = weight;
  return cfg;
}

/// One request as a client issued it; the traced run replays these in
/// timestamp order on a local executor.
struct Op {
  double t = 0.0;
  int client = 0;  ///< 0 interactive, 1 batch
  int job = 0;     ///< the client's job index
  bool wait = false;
};

/// What one client thread saw. Only its own thread writes it. The vectors
/// of per-job records are filled in traced rounds only; what an untraced
/// run reports is kept in bounded memory, so that peak_rss_mb does not
/// grow with the number of jobs a run completes.
struct ClientLog {
  double anchor_s = 0.0;             ///< start of window 0
  std::vector<double> window_tasks;  ///< tasks completed per kWindowS window
  std::vector<double> window_jobs;   ///< jobs completed per window
  Reservoir rtt_ms;                  ///< submit call -> wait reply
  Reservoir makespan_s;              ///< virtual, from the reply
  std::vector<double> submit_us;
  std::vector<double> wait_us;
  std::vector<double> ping_us;
  std::vector<std::pair<double, double>> wait_spans;  ///< [start, end] wall
  std::vector<double> queue_s;
  std::vector<int> dag_index;
  std::vector<Op> ops;
  std::int64_t tasks = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_failure;
  double ready_s = 0.0;  ///< when the session was open
  double done_s = 0.0;
};

struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< first client ready -> last client done
  ClientLog client[2];
};

void client_loop(net::Comm& comm, int which, const std::vector<Dag>& dags,
                 double deadline_s, bool traced, ClientLog& log) {
  const char* name = which == 0 ? "interactive" : "batch";
  net::ServiceClient client(comm, /*server_rank=*/0);
  const int session = client.open_session(tenant(name, which == 0 ? 2.0 : 1.0));
  if (traced && which == 0) {
    for (int i = 0; i < kPings; ++i) {
      const double t0 = now_s();
      SpanScope span("net.ping");
      client.ping();
      log.ping_us.push_back((now_s() - t0) * 1e6);
    }
  }
  log.ready_s = now_s();
  const char* job_span = which == 0 ? "svc.interactive_job" : "svc.batch_job";
  for (int i = 0; now_s() < deadline_s; ++i) {
    const std::size_t k = static_cast<std::size_t>(i) % dags.size();
    const Dag& dag = dags[k];
    const double t0 = now_s();
    net::WireRunResult r;
    double t1 = 0.0;
    {
      SpanScope job(job_span, i);
      JobId id = kInvalidJob;
      {
        SpanScope span("net.submit");
        id = client.submit(dag, {}, session);
      }
      t1 = now_s();
      SpanScope span("net.wait");
      r = client.wait(id);
    }
    const double t2 = now_s();
    const auto w = static_cast<std::size_t>((t2 - log.anchor_s) / kWindowS);
    if (w >= log.window_tasks.size()) {
      log.window_tasks.resize(w + 1, 0.0);
      log.window_jobs.resize(w + 1, 0.0);
    }
    log.window_tasks[w] += static_cast<double>(r.tasks);
    log.window_jobs[w] += 1.0;
    log.rtt_ms.add((t2 - t0) * 1e3);
    log.makespan_s.add(r.makespan_s);
    if (traced) {
      log.ops.push_back(Op{t0, which, i, false});
      log.ops.push_back(Op{t1, which, i, true});
      log.submit_us.push_back((t1 - t0) * 1e6);
      log.wait_us.push_back((t2 - t1) * 1e6);
      log.wait_spans.emplace_back(t1, t2);
      log.queue_s.push_back(r.queue_s);
      log.dag_index.push_back(static_cast<int>(k));
    }
    log.tasks += r.tasks;
    ++log.attempted;
    const bool ok =
        r.ok() && r.tasks == dag.num_nodes() && r.tenant == name && r.makespan_s > 0.0;
    if (!ok) {
      ++log.failed;
      if (log.first_failure.empty())
        log.first_failure = std::string(kName) + ": " + name + " job " +
                            std::to_string(i) + " came back with outcome " +
                            std::to_string(r.outcome) + ", " +
                            std::to_string(r.tasks) + " tasks, tenant '" +
                            r.tenant + "'";
    }
  }
  log.done_s = now_s();
  client.bye();
}

Round run_round(std::uint64_t seed, double seconds, bool traced, Report& rep) {
  Round round;
  const double t_setup = now_s();
  // Topology, registry and DAGs outlive the executor that points at them.
  std::unique_ptr<Inputs> in = make_inputs(seed);
  net::World world(3);
  const double deadline = t_setup + seconds;
  for (ClientLog& c : round.client) c.anchor_s = t_setup;
  world.run([&](net::Comm& comm) {
    if (comm.rank() == 0) {
      std::unique_ptr<Executor> exec = make_executor(
          Backend::kSim, in->topo, Policy::kDamC, in->registry, server_config(seed));
      net::serve_executor(comm, *exec);
      return;
    }
    const int which = comm.rank() - 1;
    client_loop(comm, which, which == 0 ? in->small : in->large, deadline, traced,
                round.client[which]);
  });
  const ClientLog& a = round.client[0];
  const ClientLog& b = round.client[1];
  round.setup_s = std::max(a.ready_s, b.ready_s) - t_setup;
  round.wall_s = std::max(a.done_s, b.done_s) - std::max(a.ready_s, b.ready_s);
  for (const ClientLog& c : round.client) {
    rep.attempted += c.attempted;
    rep.failed += c.failed;
    if (!c.first_failure.empty()) rep.note("FAILED: " + c.first_failure);
  }
  if (seconds > 0.0)
    rep.check(a.attempted > 0 && b.attempted > 0,
              std::string(kName) + ": a client completed no job");
  return round;
}

/// How many interactive waits overlap some batch wait.
std::int64_t hol_blocked(const ClientLog& inter, const ClientLog& batch) {
  std::vector<std::pair<double, double>> b = batch.wait_spans;
  std::sort(b.begin(), b.end());
  std::int64_t blocked = 0;
  for (const auto& [s, e] : inter.wait_spans) {
    // The batch wait starting last before e is the only candidate that can
    // overlap, since one client's waits never overlap each other.
    auto it = std::upper_bound(b.begin(), b.end(), std::make_pair(e, e));
    if (it != b.begin() && std::prev(it)->second > s) ++blocked;
  }
  return blocked;
}

struct Replay {
  std::vector<double> turnaround_ms;  ///< interactive submit -> wait return
  std::vector<double> session_submit_us;
  std::vector<double> wait_us;  ///< interactive waits
  std::vector<double> snapshot_us;
};

/// Replays the round's requests, in the order the clients issued them, on
/// a local executor configured like the server: the same work with no net.
Replay replay_local(const Round& round, std::uint64_t seed, Report& rep) {
  std::unique_ptr<Inputs> in = make_inputs(seed);
  std::unique_ptr<Executor> exec = make_executor(
      Backend::kSim, in->topo, Policy::kDamC, in->registry, server_config(seed));
  std::unique_ptr<Session> sessions[2] = {
      exec->open_session(tenant("interactive", 2.0)),
      exec->open_session(tenant("batch", 1.0))};
  std::vector<Op> ops = round.client[0].ops;
  ops.insert(ops.end(), round.client[1].ops.begin(), round.client[1].ops.end());
  std::stable_sort(ops.begin(), ops.end(),
                   [](const Op& x, const Op& y) { return x.t < y.t; });
  Replay out;
  std::vector<JobId> ids[2];
  std::vector<double> submitted_at;
  for (int c = 0; c < 2; ++c)
    ids[c].resize(round.client[c].dag_index.size(), kInvalidJob);
  submitted_at.resize(round.client[0].dag_index.size(), 0.0);
  int done = 0;
  for (const Op& op : ops) {
    const ClientLog& log = round.client[op.client];
    const std::vector<Dag>& pool = op.client == 0 ? in->small : in->large;
    const Dag& dag = pool[static_cast<std::size_t>(log.dag_index[static_cast<std::size_t>(op.job)])];
    const std::size_t j = static_cast<std::size_t>(op.job);
    if (!op.wait) {
      const double t0 = now_s();
      {
        SpanScope span("exec.session_submit", op.job);
        ids[op.client][j] = sessions[op.client]->submit(dag);
      }
      out.session_submit_us.push_back((now_s() - t0) * 1e6);
      if (op.client == 0) submitted_at[j] = t0;
      continue;
    }
    const double t0 = now_s();
    RunResult r;
    {
      SpanScope span("exec.wait", op.job);
      r = exec->wait(ids[op.client][j]);
    }
    const double t1 = now_s();
    if (op.client == 0) {
      out.wait_us.push_back((t1 - t0) * 1e6);
      out.turnaround_ms.push_back((t1 - submitted_at[j]) * 1e3);
    }
    rep.check(r.ok() && r.tasks == dag.num_nodes() && r.tenant == sessions[op.client]->name(),
              std::string(kName) + ": local replay job " + std::to_string(op.job));
    if (++done % 100 == 0) {
      const double q0 = now_s();
      {
        SpanScope span("trace.snapshot");
        const StatsSnapshot snap = exec->stats(0).snapshot();
        (void)snap;
      }
      out.snapshot_us.push_back((now_s() - q0) * 1e6);
    }
  }
  return out;
}

}  // namespace

void run_svc_remote_mixed(const Args& args, Report& rep) {
  if (!args.trace) {
    // Setup-only worlds: the clients open their sessions and leave.
    std::vector<double> setup;
    for (int k = 0; k < kSetupOnly; ++k)
      setup.push_back(run_round(args.seed, 0.0, false, rep).setup_s);
    std::vector<Round> rounds;
    for (int k = 0; k < kRounds; ++k)
      rounds.push_back(run_round(args.seed, args.seconds / kRounds, false, rep));
    std::vector<double> tps, jps, small_ms, large_ms, makespan;
    std::int64_t small_jobs = 0, large_jobs = 0;
    auto at = [](const std::vector<double>& v, std::size_t k) {
      return k < v.size() ? v[k] : 0.0;
    };
    for (const Round& r : rounds) {
      const ClientLog& a = r.client[0];
      const ClientLog& b = r.client[1];
      setup.push_back(r.setup_s);
      // The whole windows in which both clients were running.
      const double start = std::max(a.ready_s, b.ready_s) - a.anchor_s;
      const double end = std::min(a.done_s, b.done_s) - a.anchor_s;
      for (auto k = static_cast<std::size_t>(std::ceil(start / kWindowS));
           static_cast<double>(k + 1) * kWindowS <= end; ++k) {
        tps.push_back((at(a.window_tasks, k) + at(b.window_tasks, k)) / kWindowS);
        jps.push_back((at(a.window_jobs, k) + at(b.window_jobs, k)) / kWindowS);
      }
      auto cat = [](std::vector<double>& to, const Reservoir& from) {
        to.insert(to.end(), from.values().begin(), from.values().end());
      };
      cat(small_ms, a.rtt_ms);
      cat(large_ms, b.rtt_ms);
      cat(makespan, a.makespan_s);
      small_jobs += a.rtt_ms.seen();
      large_jobs += b.rtt_ms.seen();
    }
    rep.metric("setup_s", median(setup), "s");
    rep.metric("tasks_per_s", median(tps), "1/s");
    rep.metric("jobs_per_s", median(jps), "1/s");
    rep.metric("makespan_s", median(makespan), "s");
    report_latency(rep, kName, small_ms, kTailPct);
    rep.note(std::string(kName) + ": svc.jobs_per_s = jobs_per_s, "
             "svc.small_rtt_p50_ms = latency_p50_ms, svc.small_rtt_tail_ms = "
             "latency_tail_ms, makespan_s = median virtual makespan of the "
             "interactive jobs");
    rep.note(std::string(kName) + ": svc.large_rtt_p50_ms = " +
             fmt(percentile(large_ms, 50.0)) + " ms over " +
             std::to_string(large_ms.size()) + " sampled of " +
             std::to_string(large_jobs) + " batch jobs; " +
             std::to_string(small_ms.size()) + " sampled of " +
             std::to_string(small_jobs) + " interactive jobs");
    return;
  }

  // Traced run: untraced and traced rounds interleaved so that drift in
  // the host's speed hits both alike; each traced round is replayed locally
  // right after it.
  constexpr int kPairs = 3;
  const double round_s = args.seconds / (4.0 * kPairs);
  Tracer& tracer = Tracer::create(kName);
  ClientLog inter;  // the traced rounds' interactive samples, merged
  std::vector<double> inter_rtt_ms, large_ms, turnaround_ms, session_submit_us, wait_us,
      snapshot_us;
  std::int64_t blocked = 0, plain_jobs = 0, traced_jobs = 0;
  double plain_wall = 0.0, traced_wall = 0.0;
  for (int k = 0; k < kPairs; ++k) {
    const Round plain = run_round(args.seed, round_s, false, rep);
    plain_jobs += plain.client[0].rtt_ms.seen();
    plain_wall += plain.wall_s;
    tracer.activate();
    const Round traced = run_round(args.seed, round_s, true, rep);
    const Replay local = replay_local(traced, args.seed, rep);
    Tracer::deactivate();
    const ClientLog& a = traced.client[0];
    traced_jobs += a.rtt_ms.seen();
    traced_wall += traced.wall_s;
    blocked += hol_blocked(a, traced.client[1]);
    auto cat = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    cat(inter_rtt_ms, a.rtt_ms.values());
    cat(inter.submit_us, a.submit_us);
    cat(inter.wait_us, a.wait_us);
    cat(inter.ping_us, a.ping_us);
    cat(inter.queue_s, a.queue_s);
    cat(large_ms, traced.client[1].rtt_ms.values());
    cat(turnaround_ms, local.turnaround_ms);
    cat(session_submit_us, local.session_submit_us);
    cat(wait_us, local.wait_us);
    cat(snapshot_us, local.snapshot_us);
  }

  std::int64_t nodes = 0;
  double encode_s = 0.0, decode_s = 0.0, seal_s = 0.0;
  std::size_t bytes = 0;
  {
    const std::unique_ptr<Inputs> in = make_inputs(args.seed);
    constexpr int kCodecReps = 20;
    for (const std::vector<Dag>* pool : {&in->small, &in->large}) {
      for (const Dag& d : *pool) {
        for (int k = 0; k < kCodecReps; ++k) {
          net::WireWriter w;
          double t0 = now_s();
          net::encode_dag(d, w);
          encode_s += now_s() - t0;
          net::WireReader rd(w.data(), w.size());
          t0 = now_s();
          const Dag back = net::decode_dag(rd);
          decode_s += now_s() - t0;
          rep.check(back.num_nodes() == d.num_nodes() && back.num_edges() == d.num_edges(),
                    std::string(kName) + ": wire round trip changed the DAG");
          if (k == 0) bytes += w.size();
        }
        nodes += d.num_nodes();
        seal_s += timed_seal_copy(d);
      }
    }
    encode_s /= kCodecReps;
    decode_s /= kCodecReps;
  }
  const double n = static_cast<double>(nodes);
  const std::string p = std::string(kName) + ".";
  rep.metric(p + "core.dag.seal_ns_per_node", seal_s * 1e9 / n, "ns");
  rep.metric(p + "exec.session_submit_us", median(session_submit_us), "us");
  rep.metric(p + "exec.wait_us", median(wait_us), "us");
  rep.metric(p + "exec.queue_mean_s", mean(inter.queue_s), "s");
  rep.metric(p + "net.ping_rtt_us", median(inter.ping_us), "us");
  rep.metric(p + "net.submit_rtt_us", median(inter.submit_us), "us");
  rep.metric(p + "net.wait_rtt_us", median(inter.wait_us), "us");
  rep.metric(p + "net.encode_dag_ns_per_node", encode_s * 1e9 / n, "ns");
  rep.metric(p + "net.decode_dag_ns_per_node", decode_s * 1e9 / n, "ns");
  rep.metric(p + "net.dag_bytes_per_node", static_cast<double>(bytes) / n, "B");
  rep.metric(p + "net.path_overhead_us",
             (median(inter_rtt_ms) - median(turnaround_ms)) * 1e3, "us");
  rep.metric(p + "net.hol_blocked_frac",
             static_cast<double>(blocked) / static_cast<double>(traced_jobs), "ratio");
  rep.metric(p + "net.large_rtt_p50_ms", median(large_ms), "ms");
  rep.metric(p + "trace.snapshot_us", mean(snapshot_us), "us");
  rep.metric(p + "trace.overhead_frac",
             1.0 - (static_cast<double>(traced_jobs) / traced_wall) /
                       (static_cast<double>(plain_jobs) / plain_wall),
             "ratio");
  const SpanTotals job = tracer.totals("svc.interactive_job");
  rep.note(p + "interactive job self time outside submit/wait: " +
           fmt(job.self_s * 1e6 / static_cast<double>(std::max<std::int64_t>(job.count, 1))) +
           " us per job; local turnaround p50 " +
           fmt(median(turnaround_ms) * 1e3) + " us");
}

}  // namespace perfbench
