// The repo benchmark.  Usage (normally through perfbench/run.py, which
// builds this binary first):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--report-dir DIR] [--rate QPS] [--tamper]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// the last stdout line is the result object.  See perfbench/README.md.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up is timed this many times before the first pass and once more
// after every timed pass; setup_s is the median of all of them.
constexpr int kSetupsUpFront = 5;
// At least this many timed passes, even past --seconds.
constexpr int kMinPasses = 3;
// Backlog check: the last tenth's mean queue delay may exceed the middle
// tenth's by this share plus this many ms.
constexpr double kStationaryTolerance = 0.25;
constexpr double kStationarySlackMs = 0.5;
// p99.9 needs at least this many samples beyond it.
constexpr double kTailSamples = 10.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string report_dir = ".bench_build/out";
  double rate = 0.0;
  bool tamper = false;
};

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
      have_seconds = true;
    } else if (flag == "--trace") {
      a.trace = std::stoi(value());
      have_trace = true;
    } else if (flag == "--report-dir") {
      a.report_dir = value();
    } else if (flag == "--rate") {
      a.rate = std::stod(value());
    } else if (flag == "--tamper") {
      a.tamper = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "--workload, --seed, --seconds and --trace are required");
  }
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace takes 0 or 1");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// Counts passes and the ones that failed a check.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Count(const std::string& label, const PassResult& pass,
             std::uint64_t expected_hash) {
    ++attempted;
    std::vector<std::string> problems = pass.outcome.violations;
    if (pass.outcome.Hash() != expected_hash) {
      problems.push_back("record hash differs from the first pass");
    }
    if (problems.empty()) return;
    ++failed;
    for (const std::string& p : problems) {
      std::cerr << "perfbench: " << label << ": " << p << "\n";
    }
  }
};

double Share(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

void PrintOperatingPoint(const Workload& w, const PassResult& p) {
  const Outcome& o = p.outcome;
  std::fprintf(stderr,
               "%s: offered %.1f q/s, utilization %.4f, SLA attainment %.6f, "
               "completed %llu/%llu, failed %llu, shed %llu, queue delay "
               "middle/last tenth %.4f/%.4f ms\n",
               w.name().c_str(), p.offered_qps, p.utilization,
               Share(o.within_sla, o.post_warmup),
               static_cast<unsigned long long>(o.completed),
               static_cast<unsigned long long>(o.injected),
               static_cast<unsigned long long>(o.failed),
               static_cast<unsigned long long>(o.shed), o.queue_mid_ms,
               o.queue_last_ms);
  if (p.fault.faulted) {
    std::fprintf(stderr,
                 "%s: retried %llu, rerouted %llu, repartitions %llu\n",
                 w.name().c_str(),
                 static_cast<unsigned long long>(p.fault.retried),
                 static_cast<unsigned long long>(p.fault.rerouted),
                 static_cast<unsigned long long>(p.fault.repartitions));
  }
}

// Checks that only make sense on the reference pass of a run.
void CheckReferencePass(const Workload& w, PassResult& p) {
  Outcome& o = p.outcome;
  if (w.stationary()) {
    CheckStationary(o, kStationaryTolerance, kStationarySlackMs);
  }
  if (static_cast<double>(o.latency_ms.size()) * 0.001 < kTailSamples) {
    o.violations.push_back("too few samples for p99.9");
  }
  if (p.fault.faulted && (p.fault.repartitions == 0 || p.fault.retried == 0 ||
                          p.fault.shed == 0)) {
    o.violations.push_back(
        "the incident must cause repartitions, retries and shed queries");
  }
}

void PrintSpread(const char* what, const std::vector<double>& v) {
  std::fprintf(stderr,
               "  %s min/q1/median/q3/max %.6f/%.6f/%.6f/%.6f/%.6f s\n", what,
               Quantile(v, 0.0), Quantile(v, 0.25), Quantile(v, 0.5),
               Quantile(v, 0.75), Quantile(v, 1.0));
}

std::string ReportPath(const Args& a, const std::string& what) {
  return a.report_dir + "/" + a.workload + "-" + what + ".json";
}

int RunEndToEnd(const Args& a, Workload& w) {
  std::vector<double> setups;
  const auto timed_build = [&] {
    const double t0 = WallNow();
    const std::shared_ptr<void> spare = w.Build();
    setups.push_back(WallNow() - t0);
  };
  for (int i = 0; i < kSetupsUpFront; ++i) timed_build();

  PassOptions opt;
  opt.seed = a.seed;
  opt.queries = w.default_queries();
  opt.jobs = w.jobs();
  opt.report_path = ReportPath(a, "report");
  Tally tally;

  // The first pass fills lazily built tables and is not timed; its
  // records are the run's reference.  --tamper breaks the next pass.
  PassResult first = w.Run(opt);
  CheckReferencePass(w, first);
  const std::uint64_t reference = first.outcome.Hash();
  tally.Count("pass 0", first, reference);
  PrintOperatingPoint(w, first);
  // Read before the timed passes, whose number depends on the machine's
  // speed and whose freed blocks fragment the allocator's arenas.
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> walls, cpus;
  const double start = WallNow();
  while (walls.size() < static_cast<std::size_t>(kMinPasses) ||
         WallNow() - start < a.seconds) {
    opt.tamper = a.tamper && walls.empty();
    const PassResult pass = w.Run(opt);
    tally.Count("pass " + std::to_string(walls.size() + 1), pass, reference);
    walls.push_back(pass.wall_s);
    cpus.push_back(pass.cpu_s);
    timed_build();
  }

  if (w.identity_prefix() > 0) {
    PassOptions prefix = opt;
    prefix.queries = std::min(w.identity_prefix(), opt.queries);
    prefix.report_path.clear();
    prefix.jobs = 1;
    const PassResult serial = w.Run(prefix);
    prefix.jobs = w.jobs();
    const PassResult parallel = w.Run(prefix);
    tally.Count("prefix jobs=1", serial, serial.outcome.Hash());
    tally.Count("prefix jobs=" + std::to_string(prefix.jobs), parallel,
                serial.outcome.Hash());
  }

  // Pass wall and CPU times are read at their minimum.  Every pass does the
  // same work (its records hash to the reference pass), and other tenants
  // of a shared machine only ever slow a pass down -- on a shared 4-vCPU VM
  // by up to 1.7x, in spells of seconds to minutes -- so the fastest pass
  // is the best estimate of the program's own cost.
  const double best_wall = *std::min_element(walls.begin(), walls.end());
  const double best_cpu = *std::min_element(cpus.begin(), cpus.end());
  const Outcome& o = first.outcome;
  const double n = static_cast<double>(opt.queries);
  const std::vector<Metric> metrics = {
      {"throughput_qps", n / best_wall, "q/s"},
      {"setup_s", Median(setups), "s"},
      {"cpu_s_per_mq", best_cpu / n * 1e6, "s/Mq"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"p50_ms", Quantile(o.latency_ms, 0.5), "ms"},
      {"p99_ms", Quantile(o.latency_ms, 0.99), "ms"},
      {"p999_ms", Quantile(o.latency_ms, 0.999), "ms"},
      {"sla_attainment", Share(o.within_sla, o.post_warmup), "share"},
      {"completed_share", Share(o.completed, o.injected), "share"},
  };
  std::fprintf(stderr, "%s: %zu timed passes of %.0f queries, jobs=%d, "
               "%zu latency samples\n",
               w.name().c_str(), walls.size(), n, opt.jobs,
               o.latency_ms.size());
  PrintSpread("pass wall", walls);
  PrintSpread("set-up", setups);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-16s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::cout << ResultLine(tally.failed == 0, tally.attempted, tally.failed,
                          metrics)
            << std::endl;
  return 0;
}

// Median over traced passes of one per-layer figure.
template <typename Fn>
double MedianOf(const std::vector<PassResult>& passes, Fn&& fn) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const PassResult& p : passes) v.push_back(fn(p));
  return Median(std::move(v));
}

int RunTraced(const Args& a, Workload& w) {
  w.Build();
  w.PrepareTraced();

  PassOptions opt;
  opt.seed = a.seed;
  opt.queries = w.default_queries();
  opt.jobs = w.jobs();
  opt.report_path = ReportPath(a, "report");
  Tally tally;

  PassResult first = w.Run(opt);
  CheckReferencePass(w, first);
  const std::uint64_t reference = first.outcome.Hash();
  tally.Count("untraced pass 0", first, reference);
  PrintOperatingPoint(w, first);

  // Traced and untraced passes alternate so both see the same machine.
  std::vector<PassResult> traced;
  std::vector<double> untraced_walls;
  std::unique_ptr<Tracer> last_tracer;
  const double start = WallNow();
  while (traced.size() < 2 || WallNow() - start < a.seconds) {
    auto tracer = std::make_unique<Tracer>();
    opt.tracer = tracer.get();
    opt.tamper = a.tamper && traced.empty();
    PassResult t = w.Run(opt);
    opt.tamper = false;
    tally.Count("traced pass " + std::to_string(traced.size()), t, reference);
    traced.push_back(std::move(t));
    traced.back().outcome.latency_ms.clear();
    last_tracer = std::move(tracer);

    opt.tracer = nullptr;
    const PassResult u = w.Run(opt);
    tally.Count("untraced pass " + std::to_string(untraced_walls.size() + 1),
                u, reference);
    untraced_walls.push_back(u.wall_s);
  }

  const std::string trace_path = ReportPath(a, "trace");
  {
    std::ofstream out(trace_path);
    out << last_tracer->ChromeJson();
    if (!out) throw std::runtime_error("cannot write " + trace_path);
  }

  const PassResult& last = traced.back();
  const SchedCounters& sched = last.layers.sched;
  const auto layer = [&](double Layers::*field) {
    return MedianOf(traced, [&](const PassResult& p) { return p.layers.*field; });
  };
  const double simulate_s = layer(&Layers::simulate_s);
  const double sim_cpu_s = layer(&Layers::sim_cpu_s);
  const double sched_self_s = MedianOf(traced, [](const PassResult& p) {
    return static_cast<double>(p.layers.sched.decide_ns) * 1e-9;
  });
  const double server_p50 = MedianOf(traced, [](const PassResult& p) {
    return Median(p.layers.server_s);
  });
  const double server_max = MedianOf(traced, [](const PassResult& p) {
    return p.layers.server_s.empty()
               ? 0.0
               : *std::max_element(p.layers.server_s.begin(),
                                   p.layers.server_s.end());
  });
  double min_availability = 1.0;
  for (const double av : last.fault.availability) {
    min_availability = std::min(min_availability, av);
  }
  const double untraced_wall = Median(untraced_walls);
  const double traced_wall =
      MedianOf(traced, [](const PassResult& p) { return p.wall_s; });

  const std::vector<Metric> metrics = {
      {"workload.gen_s", layer(&Layers::gen_s), "s"},
      {"workload.offered_qps", last.offered_qps, "q/s"},
      {"fleet.split_s", layer(&Layers::split_s), "s"},
      {"fleet.route_imbalance", last.route_imbalance, "ratio"},
      {"sched.arrivals", static_cast<double>(sched.arrivals), "count"},
      {"sched.decide_ns_mean",
       sched.arrivals + sched.orphans > 0
           ? static_cast<double>(sched.decide_ns) /
                 static_cast<double>(sched.arrivals + sched.orphans)
           : 0.0,
       "ns"},
      {"sched.decide_ns_p99", sched.hist.Quantile(0.99), "ns"},
      {"sched.self_s", sched_self_s, "s"},
      {"sched.held_share", Share(sched.held, sched.arrivals), "share"},
      {"sched.orphans_requeued", static_cast<double>(sched.orphans), "count"},
      {"sched.reconfigures", static_cast<double>(sched.reconfigures), "count"},
      {"sim.simulate_s", simulate_s, "s"},
      {"sim.self_s", sim_cpu_s - sched_self_s, "s"},
      {"sim.cpu_s", sim_cpu_s, "s"},
      {"sim.jobs", static_cast<double>(opt.jobs), "count"},
      {"sim.parallel_efficiency",
       simulate_s > 0.0 ? sim_cpu_s / (simulate_s * opt.jobs) : 0.0, "ratio"},
      {"sim.server_p50_s", server_p50, "s"},
      {"sim.server_max_s", server_max, "s"},
      {"sim.straggler_ratio", server_p50 > 0.0 ? server_max / server_p50 : 0.0,
       "ratio"},
      {"sim.utilization", last.utilization, "share"},
      {"sim.model_swap_share", last.model_swap_share, "share"},
      {"partition.partitions", static_cast<double>(last.partitions), "count"},
      {"stats.reduce_s", layer(&Layers::stats_s), "s"},
      {"stats.cpu_s", layer(&Layers::stats_cpu_s), "s"},
      {"fleet.failover_self_s", layer(&Layers::failover_self_s), "s"},
      {"fleet.retried", static_cast<double>(last.fault.retried), "count"},
      {"fleet.rerouted", static_cast<double>(last.fault.rerouted), "count"},
      {"fleet.shed", static_cast<double>(last.fault.shed), "count"},
      {"fleet.min_availability", min_availability, "share"},
      {"fleet.p99_incident_ms", last.fault.p99_incident_ms, "ms"},
      {"online.replans", static_cast<double>(last.layers.replans), "count"},
      {"online.replan_s", layer(&Layers::replan_s), "s"},
      {"core.report_s", layer(&Layers::report_s), "s"},
      {"trace.overhead", untraced_wall > 0.0 ? traced_wall / untraced_wall : 0.0,
       "ratio"},
      {"trace.coverage", layer(&Layers::coverage), "share"},
  };

  // Per-layer table: wall span, self time and share of the pipeline.
  const double root = layer(&Layers::root_s);
  std::fprintf(stderr,
               "%s traced: %zu traced + %zu untraced passes, jobs=%d of "
               "nproc=%d, spans in %s\n",
               w.name().c_str(), traced.size(), untraced_walls.size(),
               opt.jobs, Nproc(), trace_path.c_str());
  std::fprintf(stderr, "  %-22s %10s %10s %8s\n", "layer", "span_s", "self_s",
               "share");
  const auto row = [&](const char* name, double span, double self) {
    std::fprintf(stderr, "  %-22s %10.4f %10.4f %7.1f%%\n", name, span, self,
                 root > 0.0 ? 100.0 * self / root : 0.0);
  };
  row("workload.gen", layer(&Layers::gen_s), layer(&Layers::gen_s));
  row("fleet.split", layer(&Layers::split_s), layer(&Layers::split_s));
  row("sim.simulate (wall)", simulate_s, layer(&Layers::simulate_self_s));
  row("  sched (cpu)", sched_self_s, sched_self_s);
  row("  sim self (cpu)", sim_cpu_s - sched_self_s, sim_cpu_s - sched_self_s);
  row("  fleet.failover (cpu)", layer(&Layers::failover_self_s),
      layer(&Layers::failover_self_s));
  row("  online.replan (cpu)", layer(&Layers::replan_s),
      layer(&Layers::replan_s));
  row("stats.reduce", layer(&Layers::stats_s), layer(&Layers::stats_s));
  row("core.report", layer(&Layers::report_s), layer(&Layers::report_s));
  row("pipeline (untraced)", untraced_wall, untraced_wall);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-26s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::cout << ResultLine(tally.failed == 0, tally.attempted, tally.failed,
                          metrics)
            << std::endl;
  return 0;
}

int Main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  std::unique_ptr<Workload> w = MakeWorkload(a.workload);
  if (!w) throw std::invalid_argument("unknown workload " + a.workload);
  if (a.rate > 0.0) w->set_rate_qps(a.rate);
  std::filesystem::create_directories(a.report_dir);
  return a.trace == 0 ? RunEndToEnd(a, *w) : RunTraced(a, *w);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
