// The repo benchmark: one command that runs a named workload from inputs
// generated from --seed, checks the outputs, and prints every metric by
// name and unit, the last stdout line being one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Workloads (BENCHMARK.json records why each was chosen):
//   sim-moldable-flip  single-rank DES, DAM-C, phase-flip, open-loop stream
//   svc-remote-mixed   net::World service: sim DAM-C server, an interactive
//                      and a batch client in closed loops
//   rt-finegrain       real-thread runtime, DAM-C, 3 workers, empty kernels
// and, in the traced sweep only, sim-halo-ranks (4-rank DES Heat, RWS; its
// wall-clock metrics were too unsteady to bound, sim_halo.cpp says why).
//
// --trace 0 measures the end-to-end metrics of the named workload for
// S seconds, the same set on every workload (perfbench/NOTES.md maps them
// to each workload's own terms):
//   setup_s, peak_rss_mb, tasks_per_s, jobs_per_s, makespan_s,
//   latency_p50_ms, latency_tail_ms.
// --trace 1 is the separate traced run: for all four workloads it interleaves
// untraced and traced repetitions (about S/2 seconds per workload) plus the
// layer probes, and prints the per-layer metrics as
// <workload>.<layer>.<metric>, spans written to --trace-out at exit.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n";
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--trace-out") {
        a.trace_out = val;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return a;
}

using RunFn = void (*)(const perfbench::Args&, perfbench::Report&);
struct Workload {
  const char* name;
  RunFn run;
  bool end_to_end;  ///< false: part of the traced sweep only
};
constexpr Workload kWorkloads[] = {
    {"sim-moldable-flip", perfbench::run_sim_moldable_flip, true},
    {"sim-halo-ranks", perfbench::run_sim_halo_ranks, false},
    {"svc-remote-mixed", perfbench::run_svc_remote_mixed, true},
    {"rt-finegrain", perfbench::run_rt_finegrain, true},
};

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name && (w.end_to_end || args.trace)) chosen = &w;
  if (chosen == nullptr) usage("unknown workload " + args.workload);

  perfbench::Report rep;
  try {
    if (!args.trace) {
      chosen->run(args, rep);
      rep.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
    } else {
      // The layer sweep covers every workload, so each traced run prints
      // the full per-layer set whichever workload it was started for.
      for (const Workload& w : kWorkloads) w.run(args, rep);
      if (!args.trace_out.empty()) {
        const std::size_t n = perfbench::Tracer::write_all(args.trace_out);
        rep.note("spans written: " + std::to_string(n) + " to " + args.trace_out);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  rep.print();
  return rep.failed == 0 ? 0 : 1;
}
