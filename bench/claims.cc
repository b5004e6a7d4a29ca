#include "bench/claims.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/mix_runner.h"
#include "online/elastic_server.h"
#include "online/repartition_controller.h"
#include "partition/paris.h"
#include "profile/model_repertoire.h"
#include "profile/profile_table.h"
#include "sched/elsa.h"
#include "workload/batch_dist.h"
#include "workload/scenario.h"

namespace pe::bench {
namespace {

using core::SchedulerKind;
using PerSeed = std::function<double(int)>;
constexpr double kInf = std::numeric_limits<double>::infinity();

const std::vector<std::string>& PaperModels() {
  static const std::vector<std::string> kModels = {
      "shufflenet", "mobilenet", "resnet", "bert", "conformer"};
  return kModels;
}

// a / b, where 0 / 0 is a tie and a / 0 (a > 0) is unbounded.
double Ratio(double a, double b) { return b > 0 ? a / b : a > 0 ? kInf : 1; }

// Seed index s (0-based) runs workload seed s + 1.
std::uint64_t SeedOf(std::size_t s) { return s + 1; }

double Median(int seeds, const PerSeed& at) {
  std::vector<double> values;
  for (int s = 0; s < seeds; ++s) values.push_back(at(s));
  return Quantile(std::move(values), 0.5);
}

Claim Judged(std::string name, std::string statement, Predicate predicate,
             int seeds, const PerSeed& ratio, double cited = 0.0) {
  Claim claim{std::move(name), std::move(statement), predicate, cited, {}};
  for (int s = 0; s < seeds; ++s) claim.ratios.push_back(ratio(s));
  return claim;
}

// A claim on a seed-free number: the same ratio at every seed.
Claim Fixed(std::string name, std::string statement, Predicate predicate,
            const LedgerSize& size, double ratio, double cited = 0.0) {
  return Judged(std::move(name), std::move(statement), predicate, size.seeds,
                [=](int) { return ratio; }, cited);
}

// One claim per paper model, named `name`.<model>.
void PerModel(std::vector<Claim>& claims, const std::string& name,
              const std::string& statement, Predicate predicate, int seeds,
              const std::function<double(int, std::size_t)>& ratio) {
  for (std::size_t m = 0; m < PaperModels().size(); ++m) {
    claims.push_back(Judged(name + "." + PaperModels()[m], statement,
                            predicate, seeds,
                            [&](int s) { return ratio(s, m); }));
  }
}

void Header(std::ostream& out, const std::string& title,
            const std::string& note) {
  out << "==================================================\n"
      << title << "\n" << note << "\n"
      << "==================================================\n\n";
}

// Field-wise medians over the seeds of the ServerStats fields the tables
// print; counts round to the nearest integer.
sim::ServerStats MedianStats(
    int seeds, const std::function<const sim::ServerStats&(int)>& at) {
  const auto med = [&](auto field) {
    return Median(seeds,
                  [&](int s) { return static_cast<double>(at(s).*field); });
  };
  using S = sim::ServerStats;
  S m;
  m.mean_latency_ms = med(&S::mean_latency_ms);
  m.p95_latency_ms = med(&S::p95_latency_ms);
  m.p99_latency_ms = med(&S::p99_latency_ms);
  m.achieved_qps = med(&S::achieved_qps);
  m.sla_violation_rate = med(&S::sla_violation_rate);
  m.mean_worker_utilization = med(&S::mean_worker_utilization);
  m.reconfig_stalled =
      static_cast<std::size_t>(std::lround(med(&S::reconfig_stalled)));
  m.model_swaps = static_cast<std::size_t>(std::lround(med(&S::model_swaps)));
  return m;
}

// fn(seed, task) for each seed and task < n over `jobs` threads, seed-major.
template <typename Fn>
auto PerSeedTasks(const LedgerSize& size, std::size_t n, int jobs, Fn&& fn) {
  return ParallelMap(static_cast<std::size_t>(size.seeds) * n, jobs,
                     [&](std::size_t i) { return fn(i / n, i % n); });
}

// --- Capacity grids: models x designs x one knob axis --------------------

// A layout: GPU(n) for n > 0, else one of these.
constexpr int kParis = 0;
constexpr int kRandom = -1;
constexpr int kGpuMax = -2;  // the best homogeneous size (see RunGrid)

struct Design {
  std::string label;
  int layout = kParis;
  SchedulerKind kind = SchedulerKind::kFifs;
};

Design Gpu(int n) { return {"GPU(" + std::to_string(n) + ")+FIFS", n}; }
Design GpuMax() { return {"GPU(max)+FIFS", kGpuMax}; }
Design Paris(SchedulerKind kind) {
  return {kind == SchedulerKind::kElsa ? "PARIS+ELSA" : "PARIS+FIFS", kParis,
          kind};
}

// A value on an experiment's knob axis: a change to each Table-I config.
struct Knob {
  std::string label;
  std::function<void(core::MixConfig&)> apply;
};

// One knob per value, labelled with the value at `precision` digits.
std::vector<Knob> Knobs(std::initializer_list<double> values, int precision,
                        void (*apply)(core::MixConfig&, double)) {
  std::vector<Knob> knobs;
  for (double v : values) {
    knobs.push_back({Table::Num(v, precision),
                     [v, apply](core::MixConfig& c) { apply(c, v); }});
  }
  return knobs;
}

// Every cell a latency-bounded throughput search at each seed, under a
// tail bound of `bound_x_sla` SLA targets.
struct Grid {
  std::vector<Knob> knobs;
  std::vector<std::string> models;
  std::vector<Design> designs;
  double bound_x_sla = 1.0;
};

struct Cell {
  double qps = 0.0;
  int gpcs = 0;  // GPU(max)'s size
};

// Seed index s's search: serial, since the ledger fans out over cells.
core::SearchOptions Search(const LedgerSize& size, std::size_t s) {
  return {.num_queries = size.queries, .seed = SeedOf(s), .iterations = 9};
}

struct GridRun {
  Grid grid;
  int seeds = 0;
  // Per (knob, model); built once, the searches only read them.
  std::vector<std::unique_ptr<const core::MixTestbed>> testbeds;
  std::vector<double> sla_ms;
  std::vector<partition::PartitionPlan> plans;  // knob-, model-, design-major
  std::vector<Cell> cells;                      // seed-major, then as plans

  std::size_t Index(std::size_t k, std::size_t m, std::size_t d) const {
    return (k * grid.models.size() + m) * grid.designs.size() + d;
  }
  const Cell& At(int s, std::size_t k, std::size_t m, std::size_t d) const {
    return cells[static_cast<std::size_t>(s) * plans.size() + Index(k, m, d)];
  }
  double Qps(int s, std::size_t k, std::size_t m, std::size_t d) const {
    return At(s, k, m, d).qps;
  }
  // Medians over the seeds: of a cell's qps, and of its ratio to `base`'s.
  double MedianQps(std::size_t k, std::size_t m, std::size_t d) const {
    return Median(seeds, [&](int s) { return Qps(s, k, m, d); });
  }
  double MedianNorm(std::size_t k, std::size_t m, std::size_t d,
                    std::size_t base) const {
    return Median(seeds, [&](int s) {
      return Ratio(Qps(s, k, m, d), Qps(s, k, m, base));
    });
  }
  // GPU(max)'s size: "GPU(3)", or "GPU(2/3)" when the seeds disagree.
  std::string Sizes(std::size_t k, std::size_t m, std::size_t d) const {
    std::set<int> sizes;
    for (int s = 0; s < seeds; ++s) sizes.insert(At(s, k, m, d).gpcs);
    std::string label;
    for (int n : sizes) {
      label += label.empty() ? "GPU(" : "/";
      label += std::to_string(n);
    }
    return label + ")";
  }
};

partition::PartitionPlan PlanOf(const core::MixTestbed& tb, int layout) {
  if (layout > 0) return tb.PlanHomogeneous(layout);
  if (layout == kRandom) return tb.PlanRandom();
  if (layout == kParis) return tb.PlanMixed().plan;
  return {};  // GPU(max): its size is found per seed (RunGrid)
}

GridRun RunGrid(Grid grid, const LedgerSize& size, int jobs) {
  GridRun run{std::move(grid), size.seeds, {}, {}, {}, {}};
  const std::vector<Design>& designs = run.grid.designs;
  for (const Knob& knob : run.grid.knobs) {
    for (const std::string& model : run.grid.models) {
      core::MixConfig config = core::Table1Config(model);
      if (knob.apply) knob.apply(config);
      run.testbeds.push_back(std::make_unique<const core::MixTestbed>(config));
      run.sla_ms.push_back(TicksToMs(run.testbeds.back()->sla_target()));
      for (const Design& d : designs) {
        run.plans.push_back(PlanOf(*run.testbeds.back(), d.layout));
      }
    }
  }
  // A grid holding every GPU(n) candidate of GPU(max) takes GPU(max) from
  // those cells instead of searching them again.
  std::vector<std::size_t> candidates;
  for (int n : core::kHomogeneousSizes) {
    for (std::size_t d = 0; d < designs.size(); ++d) {
      if (designs[d].layout == n) candidates.push_back(d);
    }
  }
  const bool search_max =
      candidates.size() < std::size(core::kHomogeneousSizes);
  run.cells = PerSeedTasks(
      size, run.plans.size(), jobs, [&](std::size_t s, std::size_t cell) {
        const core::MixTestbed& tb = *run.testbeds[cell / designs.size()];
        const Design& d = designs[cell % designs.size()];
        const double bound_ms =
            run.grid.bound_x_sla * run.sla_ms[cell / designs.size()];
        const auto search = Search(size, s);
        if (d.layout != kGpuMax) {
          const auto found = core::LatencyBoundedThroughput(
              tb, run.plans[cell], d.kind, bound_ms, search);
          return Cell{found.qps};
        }
        if (!search_max) return Cell{};
        const auto best = core::BestHomogeneous(tb, d.kind, bound_ms, search);
        return Cell{best.qps, best.partition_gpcs};
      });
  // In BestHomogeneous's order, the first strictly greater winning.
  for (std::size_t i = 0; i < run.cells.size() && !search_max; ++i) {
    if (designs[i % designs.size()].layout != kGpuMax) continue;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const double qps = run.cells[i - i % designs.size() + candidates[c]].qps;
      if (qps > run.cells[i].qps) {
        run.cells[i] = {qps, core::kHomogeneousSizes[c]};
      }
    }
  }
  return run;
}

// One row per design and one "norm (qps)" column per model, or per knob
// when there are several, normalized to design 0; GPU(max)'s row is
// followed by the sizes it chose.
void PrintNormalized(const GridRun& run, std::ostream& out) {
  const bool by_knob = run.grid.knobs.size() > 1;
  const std::size_t n =
      by_knob ? run.grid.knobs.size() : run.grid.models.size();
  std::vector<std::string> header = {"design"};
  for (std::size_t i = 0; i < n; ++i) {
    header.push_back(by_knob ? run.grid.knobs[i].label : run.grid.models[i]);
  }
  Table t(header);
  for (std::size_t d = 0; d < run.grid.designs.size(); ++d) {
    std::vector<std::string> row = {run.grid.designs[d].label};
    std::vector<std::string> sizes = {"GPU(max) size"};
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = by_knob ? i : 0;
      const std::size_t m = by_knob ? 0 : i;
      row.push_back(Table::Num(run.MedianNorm(k, m, d, 0), 2) + " (" +
                    Table::Num(run.MedianQps(k, m, d), 0) + ")");
      sizes.push_back(run.Sizes(k, m, d));
    }
    t.AddRow(row);
    if (run.grid.designs[d].layout == kGpuMax) t.AddRow(sizes);
  }
  t.Print(out);
  out << '\n';
}

// --- Profile and planner reads (seed-free) ------------------------------

// Figures 3 and 4, over the three models the paper plots.
std::vector<Claim> Profiles(const LedgerSize& size, std::ostream& out) {
  Header(out, "Figure 3: utilization & latency vs partition size (batch 8)",
         "latency normalized to GPU(7); utilization in percent");
  std::ostringstream fig4;
  Header(fig4, "Figure 4: utilization (a) and latency (b) vs batch size",
         "rows: batch; columns: partition size; knee of GPU(1) marked with *");
  std::vector<Claim> claims;
  std::vector<double> slowdown;  // GPU(1) over GPU(7) latency at batch 8
  for (const std::string model : {"mobilenet", "resnet", "bert"}) {
    const core::MixTestbed tb(core::Table1Config(model));
    const auto& profile = tb.repertoire().profile(0);
    Table t({"partition", "utilization %", "latency (norm)", "latency (ms)"});
    const double base = profile.LatencySec(7, 8);
    // The smallest step from one partition size to the next larger one.
    double util_step = kInf;
    double latency_step = kInf;
    int prev = 0;
    for (int gpcs : {1, 2, 3, 4, 7}) {
      const double util = profile.Utilization(gpcs, 8);
      const double latency_sec = profile.LatencySec(gpcs, 8);
      t.AddRow({"GPU(" + std::to_string(gpcs) + ")",
                Table::Num(100.0 * util, 1), Table::Num(latency_sec / base, 2),
                Table::Num(1e3 * latency_sec, 2)});
      if (prev > 0) {
        util_step =
            std::min(util_step, Ratio(profile.Utilization(prev, 8), util));
        latency_step = std::min(
            latency_step, Ratio(profile.LatencySec(prev, 8), latency_sec));
      }
      prev = gpcs;
    }
    slowdown.push_back(profile.LatencySec(1, 8) / base);
    out << "--- " << model << " ---\n";
    t.Print(out);
    out << '\n';
    claims.push_back(Fixed("fig03.utilization_falls." + model,
                           "utilization falls with partition size",
                           Predicate::kAbove, size, util_step));
    claims.push_back(Fixed("fig03.latency_rises." + model,
                           "latency rises as partitions shrink",
                           Predicate::kAbove, size, latency_step));

    const int knee1 = profile.MaxBatchKnee(1, tb.config().paris.knee_threshold,
                                           tb.config().paris.knee_mode);
    Table util({"batch", "GPU(1) %", "GPU(2) %", "GPU(3) %", "GPU(4) %",
                "GPU(7) %"});
    Table lat({"batch", "GPU(1) ms", "GPU(2) ms", "GPU(3) ms", "GPU(4) ms",
               "GPU(7) ms"});
    for (int b : {1, 2, 4, 8, 16, 32, 64}) {
      const std::string mark = (b == knee1) ? "*" : "";
      std::vector<std::string> urow = {Table::Int(b) + mark};
      std::vector<std::string> lrow = {Table::Int(b) + mark};
      for (int g : {1, 2, 3, 4, 7}) {
        urow.push_back(Table::Num(100.0 * profile.Utilization(g, b), 1));
        lrow.push_back(Table::Num(1e3 * profile.LatencySec(g, b), 2));
      }
      util.AddRow(urow);
      lat.AddRow(lrow);
    }
    fig4 << "--- " << model << " (a) GPU utilization ---\n";
    util.Print(fig4);
    fig4 << "--- " << model << " (b) latency ---\n";
    lat.Print(fig4);
    fig4 << '\n';
  }
  claims.push_back(Fixed("fig03.slowdown_order",
                         "GPU(1)/GPU(7) latency: mobilenet < resnet < bert",
                         Predicate::kAbove, size,
                         std::min(Ratio(slowdown[1], slowdown[0]),
                                  Ratio(slowdown[2], slowdown[1]))));
  out << fig4.str();
  return claims;
}

// Figure 7's PARIS segments, then Table I's layouts, per paper model.
std::vector<Claim> Plans(const LedgerSize& size, std::ostream& out) {
  Header(out, "Figure 7: knee-derived batch segments over the batch-size PDF",
         "default workload: log-normal(median 6, sigma 0.9), max batch 32");
  std::vector<Claim> claims;
  std::vector<std::vector<std::string>> rows = {
      {"GPU(1)"}, {"GPU(2)"}, {"GPU(3)"},   {"GPU(7)"},
      {"Random"}, {"PARIS"},  {"# of A100"}};
  for (const std::string& model : PaperModels()) {
    const core::MixTestbed tb(core::Table1Config(model));
    const auto& dist = tb.batch_dist(0);
    partition::ParisPartitioner paris(tb.repertoire().profile(0), dist,
                                      tb.config().paris);
    const auto d = paris.Derive(tb.config().gpc_budget);
    Table t({"partition", "MaxBatch_knee", "segment", "PDF mass %",
             "demand R_k"});
    int prev = 0;
    // Segments are contiguous by construction; one is empty where a
    // partition's knee does not rise above the smaller partition's.
    int nonempty = 0;
    for (std::size_t k = 0; k < d.partition_sizes.size(); ++k) {
      int hi = std::min(d.knees[k], dist.max_batch());
      if (k + 1 == d.partition_sizes.size()) hi = dist.max_batch();
      double mass = 0.0;
      for (int b = prev + 1; b <= hi; ++b) mass += dist.Pdf(b);
      std::ostringstream segment;
      segment << '[' << prev + 1 << ".." << hi << ']';
      nonempty += prev + 1 <= hi;
      t.AddRow({"GPU(" + std::to_string(d.partition_sizes[k]) + ")",
                Table::Int(d.knees[k]),
                prev + 1 <= hi ? segment.str() : "(empty)",
                Table::Num(100 * mass, 1),
                Table::Num(d.ratios[k] * 1e3, 3) + "e-3"});
      prev = std::max(prev, hi);
    }
    out << "--- " << model << " ---\n";
    t.Print(out);
    out << '\n';
    claims.push_back(Fixed(
        "fig07.segments_ascend." + model,
        "the batch segments are contiguous and ascending: each partition "
        "size gets its own non-empty one",
        Predicate::kAtLeast, size,
        static_cast<double>(nonempty) /
            static_cast<double>(d.partition_sizes.size())));
    std::size_t r = 0;
    for (int gpcs : {1, 2, 3, 7}) {
      const auto plan = tb.PlanHomogeneous(gpcs);
      rows[r++].push_back(std::to_string(plan.NumInstances()) + " (" +
                          std::to_string(plan.TotalGpcs()) + ")");
    }
    rows[4].push_back(tb.PlanRandom().Summary());
    rows[5].push_back(tb.PlanMixed().plan.Summary());
    rows[6].push_back(std::to_string(tb.config().num_gpus));
  }
  Header(out, "Table I: server configurations per model",
         "counts as '#instances (#GPCs)'; PARIS/Random show their "
         "heterogeneous layout");
  Table t({"design", "shufflenet", "mobilenet", "resnet", "bert",
           "conformer"});
  for (auto& row : rows) t.AddRow(row);
  t.Print(out);
  out << '\n';
  return claims;
}

std::vector<Claim> Figure8(const LedgerSize& size, std::ostream& out) {
  Header(out, "Figure 8: PARIS instance-count derivation example",
         "reproduces the paper's 1.5 : 2.3 small:large ratio");
  // Knees B1=2 / B2=4, batch PDF {20, 20, 40, 20}%, and the paper's table:
  // small GPU 40/20 queries/sec at batch 1/2, large 30/20 at batch 3/4.
  profile::ProfileTable profile("fig8", {1, 7}, {1, 2, 3, 4});
  const double qps[2][4] = {{40, 20, 15, 10}, {60, 50, 30, 20}};
  const double util[2][4] = {{0.5, 0.85, 0.9, 0.95}, {0.2, 0.4, 0.6, 0.85}};
  for (int b = 1; b <= 4; ++b) {
    profile.Set(1, b, {1.0 / qps[0][b - 1], util[0][b - 1]});
    profile.Set(7, b, {1.0 / qps[1][b - 1], util[1][b - 1]});
  }
  workload::EmpiricalBatchDist dist({20, 20, 40, 20});
  partition::ParisConfig config;
  config.knee_mode = profile::KneeMode::kAbsolute;
  const auto d = partition::ParisPartitioner(profile, dist, config).Derive(14);
  Table t({"GPU type", "knee", "R_k (GPU-sec/query)", "x100 queries",
           "instances (14 GPCs)"});
  const char* names[] = {"Small (1 GPC)", "Large (7 GPCs)"};
  for (std::size_t k = 0; k < 2; ++k) {
    t.AddRow({names[k], Table::Int(d.knees[k]), Table::Num(d.ratios[k], 4),
              Table::Num(d.ratios[k] * 100, 2), Table::Int(d.instances[k])});
  }
  t.Print(out);
  out << '\n';
  return {Fixed("fig08.demand_small", "1.50 small GPUs per 100 queries",
                Predicate::kMatches, size, 100 * d.ratios[0], 1.50),
          Fixed("fig08.demand_large", "2.33 large GPUs per 100 queries",
                Predicate::kMatches, size, 100 * d.ratios[1], 2.33)};
}

// --- Simulated experiments -----------------------------------------------

// Figure 11's curves over `designs` of Figure 12's grid: each sweeps
// fractions of its design's capacity, GPU(max) at the size the grid found
// at that seed.
void Figure11(const GridRun& fig12, const std::vector<std::size_t>& designs,
              const LedgerSize& size, int jobs, std::ostream& out) {
  Header(out, "Figure 11: p95 tail latency vs throughput",
         "one block per model; (x, y) = (achieved qps, p95 ms)");
  const std::size_t n = designs.size();
  const std::size_t tasks = PaperModels().size() * n;
  const std::vector<double> fractions = {0.5, 0.7, 0.85, 0.95, 1.0, 1.1};
  const auto curve = [&](std::size_t s, std::size_t i) {
    const std::size_t m = i / n;
    const std::size_t d = designs[i % n];
    const core::MixTestbed& tb = *fig12.testbeds[m];
    auto plan = fig12.plans[fig12.Index(0, m, d)];
    if (fig12.grid.designs[d].layout == kGpuMax) {
      const int gpcs = fig12.At(static_cast<int>(s), 0, m, d).gpcs;
      // No curve when no homogeneous size meets the bound at all.
      if (gpcs == 0) return std::vector<core::RatePoint>{};
      plan = tb.PlanHomogeneous(gpcs);
    }
    return core::TailLatencyCurve(tb, plan, fig12.grid.designs[d].kind,
                                  fractions, fig12.sla_ms[m], Search(size, s));
  };
  const auto curves = PerSeedTasks(size, tasks, jobs, curve);
  for (std::size_t m = 0; m < PaperModels().size(); ++m) {
    out << "--- " << PaperModels()[m] << " (SLA "
        << Table::Num(fig12.sla_ms[m], 1) << " ms) ---\n";
    Table t({"design", "offered qps", "achieved qps", "p95 ms", "viol. %",
             "util %"});
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t task = m * n + i;
      const Design& design = fig12.grid.designs[designs[i]];
      std::string label = design.label;
      if (design.layout == kGpuMax) {
        label = "GPU(max)=" + fig12.Sizes(0, m, designs[i]) + "+FIFS";
      }
      for (std::size_t f = 0; f < fractions.size(); ++f) {
        const auto med = [&](double core::RatePoint::*field, int precision,
                             double scale = 1.0) {
          const double v = Median(size.seeds, [&](int s) {
            const auto& c = curves[static_cast<std::size_t>(s) * tasks + task];
            return c.empty() ? 0.0 : c[f].*field;
          });
          return Table::Num(scale * v, precision);
        };
        using P = core::RatePoint;
        t.AddRow({label, med(&P::offered_qps, 0), med(&P::achieved_qps, 0),
                  med(&P::p95_ms, 2), med(&P::violation_rate, 1, 100),
                  med(&P::utilization, 1, 100)});
      }
    }
    t.Print(out);
    out << '\n';
  }
}

// Figure 12, after Figure 11's curves over four of its designs.
std::vector<Claim> Figures11And12(const LedgerSize& size, int jobs,
                                  std::ostream& out) {
  enum : std::size_t { kG7, kG3, kG2, kG1, kRandF, kRandE, kParF, kParE, kMax };
  const GridRun run = RunGrid(
      {{Knob{}},
       PaperModels(),
       {Gpu(7), Gpu(3), Gpu(2), Gpu(1), {"Random+FIFS", kRandom},
        {"Random+ELSA", kRandom, SchedulerKind::kElsa},
        Paris(SchedulerKind::kFifs), Paris(SchedulerKind::kElsa), GpuMax()}},
      size, jobs);
  Figure11(run, {kG7, kMax, kParF, kParE}, size, jobs, out);
  Header(out,
         "Figure 12: latency-bounded throughput (normalized to GPU(7)+FIFS)",
         "absolute qps in parentheses; p95 bound = SLA target");
  PrintNormalized(run, out);
  out << "Note: designs whose p95 exceeds the SLA even when idle (small "
         "homogeneous partitions on heavy models) report 0.\n\n";

  const auto qps = [&](int s, std::size_t m, std::size_t d) {
    return run.Qps(s, 0, m, d);
  };
  std::vector<Claim> claims;
  PerModel(claims, "fig12.no_universal_gpu",
           "no GPU(N) wins universally: this model's GPU(max) loses elsewhere",
           Predicate::kBelow, size.seeds, [&](int s, std::size_t m) {
             // The design index of GPU(n), n in {1, 2, 3, 7}.
             const std::size_t index[] = {0, kG1, kG2, kG3, 0, 0, 0, kG7};
             const int best = run.At(s, 0, m, kMax).gpcs;
             if (best == 0) return 1.0;  // no homogeneous size to judge
             double share = kInf;
             for (std::size_t o = 0; o < PaperModels().size(); ++o) {
               if (o == m) continue;
               share = std::min(share, Ratio(qps(s, o, index[best]),
                                             qps(s, o, kMax)));
             }
             return share;
           });
  PerModel(claims, "fig12.paris_elsa_best",
           "PARIS+ELSA is best or tied-best among all designs",
           Predicate::kAtLeast, size.seeds, [&](int s, std::size_t m) {
             double other = 0.0;
             for (std::size_t d = 0; d < run.grid.designs.size(); ++d) {
               if (d != kParE) other = std::max(other, qps(s, m, d));
             }
             return Ratio(qps(s, m, kParE), other);
           });
  PerModel(claims, "fig12.elsa_lifts_random",
           "ELSA lifts the Random partition over FIFS", Predicate::kAbove,
           size.seeds, [&](int s, std::size_t m) {
             return Ratio(qps(s, m, kRandE), qps(s, m, kRandF));
           });
  PerModel(claims, "fig12.elsa_lifts_paris",
           "ELSA lifts the PARIS partition over FIFS", Predicate::kAbove,
           size.seeds, [&](int s, std::size_t m) {
             return Ratio(qps(s, m, kParE), qps(s, m, kParF));
           });
  // BERT (high compute intensity in perf/model_zoo.h) favors GPU(7); the
  // low-intensity ShuffleNet and MobileNet favor GPU(1..3).
  for (const std::size_t m : {0, 1, 3}) {
    const bool large = PaperModels()[m] == "bert";
    claims.push_back(Judged(
        (large ? "fig12.favors_large." : "fig12.favors_small.") +
            PaperModels()[m],
        large ? "BERT favors large partitions: GPU(7)"
              : "lightweight models favor small/medium partitions: GPU(1..3)",
        Predicate::kAtLeast, size.seeds, [&](int s) {
          const double small =
              std::max({qps(s, m, kG1), qps(s, m, kG2), qps(s, m, kG3)});
          return Ratio(large ? qps(s, m, kG7) : small, qps(s, m, kMax));
        }));
  }
  return claims;
}

std::vector<Claim> Figure13a(const LedgerSize& size, int jobs,
                             std::ostream& out) {
  Header(out, "Figure 13(a): sensitivity to batch-size distribution variance",
         "ResNet; latency-bounded throughput normalized to GPU(7)+FIFS");
  auto knobs = Knobs({0.3, 0.9, 1.8}, 1, [](core::MixConfig& c, double v) {
    c.models[0].dist_sigma = v;
  });
  for (Knob& k : knobs) k.label = "sigma=" + k.label;
  knobs[1].label += " (default)";
  enum : std::size_t { kG7, kG3, kG2, kG1, kParF, kParE, kMax };
  const GridRun run =
      RunGrid({knobs,
               {"resnet"},
               {Gpu(7), Gpu(3), Gpu(2), Gpu(1), Paris(SchedulerKind::kFifs),
                Paris(SchedulerKind::kElsa), GpuMax()}},
              size, jobs);
  PrintNormalized(run, out);
  // PARIS+ELSA's lead over the best homogeneous design at knob k.
  const auto lead = [&](int s, std::size_t k) {
    return Ratio(run.Qps(s, k, 0, kParE), run.Qps(s, k, 0, kMax));
  };
  return {Judged("fig13a.homogeneous_closes_gap",
                 "at sigma 0.3 a homogeneous design closes the gap",
                 Predicate::kAtLeast, size.seeds,
                 [&](int s) { return Ratio(1.0, lead(s, 0)); }),
          Judged("fig13a.lead_grows_with_sigma",
                 "PARIS+ELSA's lead over GPU(max) grows with sigma",
                 Predicate::kAbove, size.seeds, [&](int s) {
                   return std::min(Ratio(lead(s, 1), lead(s, 0)),
                                   Ratio(lead(s, 2), lead(s, 1)));
                 })};
}

std::vector<Claim> Figure13b(const LedgerSize& size, int jobs,
                             std::ostream& out) {
  Header(out, "Figure 13(b): sensitivity to maximum batch size",
         "normalized to GPU(max)+FIFS per (model, max batch) pair");
  const auto knobs = Knobs({16, 32, 64}, 0, [](core::MixConfig& c, double v) {
    c.max_batch = static_cast<int>(v);
  });
  enum : std::size_t { kMax, kParF, kParE };
  const GridRun run = RunGrid(
      {knobs,
       PaperModels(),
       {GpuMax(), Paris(SchedulerKind::kFifs), Paris(SchedulerKind::kElsa)}},
      size, jobs);
  Table t({"model", "max batch", "GPU(max)+FIFS", "PARIS+FIFS",
           "PARIS+ELSA"});
  std::vector<Claim> claims;
  for (std::size_t m = 0; m < PaperModels().size(); ++m) {
    for (std::size_t k = 0; k < knobs.size(); ++k) {
      t.AddRow({PaperModels()[m], knobs[k].label,
                "1.00 [" + run.Sizes(k, m, kMax) + ", " +
                    Table::Num(run.MedianQps(k, m, kMax), 0) + " qps]",
                Table::Num(run.MedianNorm(k, m, kParF, kMax), 2),
                Table::Num(run.MedianNorm(k, m, kParE, kMax), 2)});
      claims.push_back(Judged(
          "fig13b.paris_elsa_robust." + PaperModels()[m] + ".max" +
              knobs[k].label,
          "PARIS+ELSA's lead over GPU(max) is robust across max batch",
          Predicate::kAtLeast, size.seeds, [&](int s) {
            return Ratio(run.Qps(s, k, m, kParE), run.Qps(s, k, m, kMax));
          }));
    }
  }
  t.Print(out);
  out << '\n';
  return claims;
}

std::vector<Claim> SlaSensitivity(const LedgerSize& size, int jobs,
                                  std::ostream& out) {
  Header(out, "SLA sensitivity (Section VI-C)",
         "PARIS+ELSA speedup over GPU(7)+FIFS and GPU(max)+FIFS under "
         "different SLA multipliers N");
  const auto knobs = Knobs({1.2, 1.5, 2.0}, 1,
                           [](core::MixConfig& c, double v) { c.sla_n = v; });
  enum : std::size_t { kG7, kMax, kParE };
  const GridRun run = RunGrid(
      {knobs, PaperModels(), {Gpu(7), GpuMax(), Paris(SchedulerKind::kElsa)}},
      size, jobs);
  // The geometric mean of PARIS+ELSA's speedup over `base` across the
  // models whose speedups over GPU(7) and GPU(max) are positive and finite.
  const auto geomean = [&](int s, std::size_t k, std::size_t base) {
    double log_sum = 0.0;
    int counted = 0;
    for (std::size_t m = 0; m < PaperModels().size(); ++m) {
      const double ours = run.Qps(s, k, m, kParE);
      const double s7 = Ratio(ours, run.Qps(s, k, m, kG7));
      const double smax = Ratio(ours, run.Qps(s, k, m, kMax));
      if (s7 > 0 && smax > 0 && s7 < kInf && smax < kInf) {
        log_sum += std::log(base == kG7 ? s7 : smax);
        ++counted;
      }
    }
    return counted > 0 ? std::exp(log_sum / counted) : 0.0;
  };
  Table t({"model", "N", "vs GPU(7)", "vs GPU(max)", "GPU(max)"});
  for (std::size_t k = 0; k < knobs.size(); ++k) {
    for (std::size_t m = 0; m < PaperModels().size(); ++m) {
      t.AddRow({PaperModels()[m], knobs[k].label,
                Table::Num(run.MedianNorm(k, m, kParE, kG7), 2),
                Table::Num(run.MedianNorm(k, m, kParE, kMax), 2),
                run.Sizes(k, m, kMax)});
    }
    const auto mean = [&](std::size_t base) {
      return Table::Num(
          Median(size.seeds, [&](int s) { return geomean(s, k, base); }), 2);
    };
    t.AddRow({"geomean", knobs[k].label, mean(kG7), mean(kMax), ""});
  }
  t.Print(out);
  out << '\n';
  const std::size_t n2 = 2;  // N = 2.0
  return {Judged("sla.n2_vs_gpu7", "at N = 2.0, 1.7x GPU(7) (geomean)",
                 Predicate::kMatches, size.seeds,
                 [&](int s) { return geomean(s, n2, kG7); }, 1.7),
          Judged("sla.n2_vs_gpumax", "at N = 2.0, 1.1x GPU(max) (geomean)",
                 Predicate::kMatches, size.seeds,
                 [&](int s) { return geomean(s, n2, kMax); }, 1.1)};
}

std::vector<Claim> FrontendAblation(const LedgerSize& size, int jobs,
                                    std::ostream& out) {
  Header(out, "Ablation: frontend bottleneck (Section V)",
         "MobileNet, GPU(1) homogeneous server; latency-bounded throughput "
         "under a relaxed 3x SLA bound");
  // The paper gave MobileNet 24 GPCs: at 48 it was frontend-bound.  GPU(1)
  // misses the strict SLA even unloaded.
  std::vector<Knob> knobs;
  for (bool capped : {false, true}) {
    for (int gpcs : {24, 48}) {
      knobs.push_back({capped ? "1 lane x 400us" : "unconstrained",
                       [capped, gpcs](core::MixConfig& c) {
                         c.num_gpus = 8;
                         c.gpc_budget = gpcs;
                         c.frontend.enabled = capped;
                         c.frontend.lanes = 1;
                         c.frontend.cost_per_query = UsToTicks(400.0);
                       }});
    }
  }
  const GridRun run =
      RunGrid({knobs, {"mobilenet"}, {Gpu(1)}, 3.0}, size, jobs);
  // Throughput at 48 GPCs over 24, for the knob pair starting at k24.
  const auto scaling = [&](int s, std::size_t k24) {
    return Ratio(run.Qps(s, k24 + 1, 0, 0), run.Qps(s, k24, 0, 0));
  };
  Table t({"frontend", "GPCs", "instances", "qps", "scaling 24->48"});
  for (std::size_t k = 0; k < knobs.size(); ++k) {
    const auto& plan = run.plans[run.Index(k, 0, 0)];
    const double scale =
        Median(size.seeds, [&](int s) { return scaling(s, k - k % 2); });
    t.AddRow({knobs[k].label, Table::Int(plan.TotalGpcs()),
              Table::Int(plan.NumInstances()),
              Table::Num(run.MedianQps(k, 0, 0), 0),
              k % 2 == 0 ? "-" : Table::Num(scale, 2) + "x"});
  }
  t.Print(out);
  out << '\n';
  return {Judged("frontend.scaling_unconstrained",
                 "no frontend cap: 24 -> 48 GPCs scale ~2x",
                 Predicate::kMatches, size.seeds,
                 [&](int s) { return scaling(s, 0); }, 2.0),
          Judged("frontend.scaling_capped",
                 "frontend capped at 1 lane x 400 us: 24 -> 48 GPCs scale ~1x",
                 Predicate::kMatches, size.seeds,
                 [&](int s) { return scaling(s, 2); }, 1.0)};
}

void ElsaAblation(const LedgerSize& size, int jobs, std::ostream& out) {
  Header(out, "Ablation: ELSA alpha/beta and scheduler components",
         "ResNet, PARIS partitioning, fixed offered load = 90% of "
         "PARIS+ELSA(1,1) capacity");
  // The paper leaves Eq. 2's alpha/beta unswept; JSQ and GreedyFastest
  // (ELSA without Step A) isolate each ELSA component.
  const GridRun capacity = RunGrid(
      {{Knob{}}, {"resnet"}, {Paris(SchedulerKind::kElsa)}}, size, jobs);
  const core::MixTestbed& tb = *capacity.testbeds[0];
  std::vector<std::pair<SchedulerKind, sched::ElsaParams>> variants;
  for (double alpha : {0.5, 1.0, 1.5, 2.0}) {
    for (double beta : {0.5, 1.0, 2.0}) {
      variants.push_back(
          {SchedulerKind::kElsa, {.alpha = alpha, .beta = beta}});
    }
  }
  for (auto kind : {SchedulerKind::kGreedyFastest, SchedulerKind::kJsq,
                    SchedulerKind::kFifs}) {
    variants.push_back({kind, {}});
  }
  const auto stats = PerSeedTasks(
      size, variants.size(), jobs, [&](std::size_t s, std::size_t v) {
        const auto& [kind, params] = variants[v];
        auto scheduler = tb.MakeScheduler(kind, params);
        core::RunOptions run;
        run.rate_qps = 0.9 * capacity.Qps(static_cast<int>(s), 0, 0, 0);
        run.num_queries = 2 * size.queries;
        run.seed = SeedOf(s);
        return tb.Run(capacity.plans[0].instance_gpcs, *scheduler, run)
            .Stats(tb.sla_target());
      });
  out << "PARIS+ELSA(alpha=1,beta=1) capacity: "
      << Table::Num(capacity.MedianQps(0, 0, 0), 0)
      << " qps; probing at 90% of each seed's\n\n";
  Table t({"scheduler", "alpha", "beta", "p95 ms", "viol. %", "util %"});
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const auto m = MedianStats(size.seeds, [&](int s) -> const auto& {
      return stats[static_cast<std::size_t>(s) * variants.size() + v];
    });
    const auto& [kind, params] = variants[v];
    const bool elsa = kind == SchedulerKind::kElsa;
    t.AddRow({core::ToString(kind), elsa ? Table::Num(params.alpha, 1) : "-",
              elsa ? Table::Num(params.beta, 1) : "-",
              Table::Num(m.p95_latency_ms, 2),
              Table::Num(100 * m.sla_violation_rate, 2),
              Table::Num(100 * m.mean_worker_utilization, 1)});
  }
  t.Print(out);
  out << "\nGreedyFastest = ELSA Step B only (no small-first slack rule); "
         "JSQ ignores the query's own cost; FIFS ignores heterogeneity "
         "entirely.\n\n";
}

std::vector<Claim> OnlineAblation(const LedgerSize& size, int jobs,
                                  std::ostream& out) {
  Header(out, "Ablation: online elastic re-partitioning (extension)",
         "ResNet, batches small -> large -> small; ELSA; reconfigurations "
         "simulated live");
  // static-initial plans PARIS on the first phase's PDF, static-oracle on
  // the day's; elastic re-plans live at epoch boundaries.
  const auto repertoire = profile::BuildZooRepertoire({"resnet"});
  const auto& profile = repertoire.profile(0);
  const SimTime sla = SecToTicks(1.5 * profile.LatencySec(7, 32));
  const double sla_ms = TicksToMs(sla);
  const workload::LogNormalBatchDist small(3.0, 0.6, 32);
  const workload::LogNormalBatchDist large(18.0, 0.4, 32);
  std::vector<double> mixture;  // the day's batch PDF: 2/3 small, 1/3 large
  for (int b = 1; b <= 32; ++b) {
    mixture.push_back((2.0 * small.Pdf(b) + large.Pdf(b)) / 3.0);
  }
  const workload::EmpiricalBatchDist mixture_dist(mixture);
  const std::size_t per_epoch = size.queries * 3 / 8;
  const std::size_t phase = 4 * per_epoch;  // three phases of four epochs
  const online::ElasticConfig never{.drift_threshold = 2.0};  // unreachable
  const online::ElasticConfig adaptive{
      .min_observations = std::min<std::size_t>(800, per_epoch),
      .drift_threshold = 0.15};
  const char* labels[] = {"static-initial", "static-oracle", "elastic"};
  const workload::BatchDistribution* plan_dists[] = {&small, &mixture_dist,
                                                     &small};
  const online::ElasticConfig* configs[] = {&never, &never, &adaptive};
  const auto results = PerSeedTasks(
      size, std::size(labels), jobs, [&](std::size_t s, std::size_t p) {
        const auto trace = workload::GeneratePhasedTrace(
            350.0, {{&small, phase}, {&large, phase}, {&small, phase}},
            3 * phase, SeedOf(s));
        online::RepartitionController controller(
            repertoire, hw::Cluster(8), 48,
            {{.model_id = 0, .share = 1.0, .profile = &profile,
              .dist = plan_dists[p]}},
            {}, *configs[p]);
        online::ElasticServerSim sim(
            controller, repertoire,
            [&] {
              return std::make_unique<sched::ElsaScheduler>(repertoire, sla);
            },
            sla, per_epoch);
        return sim.Run(trace);
      });
  const auto result = [&](int s, std::size_t p) -> const auto& {
    return results[static_cast<std::size_t>(s) * std::size(labels) + p];
  };

  Table t({"policy", "p95 ms", "viol. %", "mean ms", "stalled", "reconfigs"});
  for (std::size_t p = 0; p < std::size(labels); ++p) {
    const auto m = MedianStats(
        size.seeds, [&](int s) -> const auto& { return result(s, p).total; });
    const double reconfigs = Median(size.seeds, [&](int s) {
      return static_cast<double>(result(s, p).reconfigurations);
    });
    t.AddRow({labels[p], Table::Num(m.p95_latency_ms, 2),
              Table::Num(100 * m.sla_violation_rate, 2),
              Table::Num(m.mean_latency_ms, 2),
              Table::Int(static_cast<long long>(m.reconfig_stalled)),
              Table::Num(reconfigs, 0)});
  }
  t.Print(out);
  out << "\nPer-epoch view (elastic policy, seed 1):\n";
  Table e({"epoch", "layout", "p95 ms", "viol. %", "stalled", "reconfigured"});
  const auto& elastic = result(0, 2);
  for (std::size_t i = 0; i < elastic.epochs.size(); ++i) {
    const auto& ep = elastic.epochs[i];
    partition::PartitionPlan layout;
    layout.instance_gpcs = ep.layout;
    e.AddRow({Table::Int(static_cast<long long>(i)), layout.Summary(),
              Table::Num(ep.p95_ms, 2), Table::Num(100 * ep.violation_rate, 2),
              Table::Int(static_cast<long long>(ep.stalled)),
              ep.reconfigured ? "yes" : ""});
  }
  e.Print(out);
  out << '\n';

  // The worst p95 of policy p's run at seed s over the given epochs (four
  // per phase: the large-batch phase is epochs 4-7).
  const auto worst = [&](int s, std::size_t p,
                         std::initializer_list<std::size_t> epochs) {
    double w = 0.0;
    for (std::size_t i : epochs) {
      w = std::max(w, result(s, p).epochs.at(i).p95_ms);
    }
    return w;
  };
  return {Judged("online.static_initial_degrades",
                 "static-initial breaks the SLA in the drifted phase",
                 Predicate::kAbove, size.seeds,
                 [&](int s) { return worst(s, 0, {4, 5, 6, 7}) / sla_ms; }),
          Judged("online.elastic_tracks_phases",
                 "elastic is back within the SLA by the end of every phase",
                 Predicate::kAtLeast, size.seeds,
                 [&](int s) { return Ratio(sla_ms, worst(s, 2, {3, 7, 11})); }),
          Judged("online.elastic_approaches_oracle",
                 "elastic approaches or beats the mixture oracle's p95",
                 Predicate::kAtLeast, size.seeds, [&](int s) {
                   return Ratio(result(s, 1).total.p95_latency_ms,
                                result(s, 2).total.p95_latency_ms);
                 })};
}

void MixConsolidation(const LedgerSize& size, int jobs, std::ostream& out) {
  Header(out, "Mixed-model serving: dedicated vs consolidated at equal GPCs",
         "ResNet (60%) + MobileNet (40%), mixed-PARIS layouts, ELSA; "
         "model-swap penalty charged on resident-model changes");
  // dedicated: each model's share-derived slice serves its own traffic;
  // consolidated: the union of the slices serves the interleaved trace.
  core::MixConfig mc;
  mc.models.push_back({"resnet", 0.6, 6.0, 0.9});
  mc.models.push_back({"mobilenet", 0.4, 4.0, 0.9});
  mc.swap_cost_us = 1000.0;  // ~1 ms weight reload per displaced model
  const core::MixTestbed tb(mc);
  const auto mixed = tb.PlanMixed();
  const char* policies[] = {"dedicated", "consolidated",
                            "consolidated+locality"};
  const auto stats = PerSeedTasks(
      size, std::size(policies), jobs, [&](std::size_t s, std::size_t p) {
        const auto trace = tb.GenerateMix(400.0, 4 * size.queries, SeedOf(s));
        if (p == 0) {
          // Each model's queries (ids dense from 0) on its own slice; merged
          // records get their trace ids back for the id-keyed warmup cut.
          std::vector<sim::QueryRecord> merged;
          for (int m = 0; m < tb.num_models(); ++m) {
            std::vector<workload::Query> own;
            std::vector<std::uint64_t> trace_ids;
            for (workload::Query q : trace.queries()) {
              if (q.model_id != m) continue;
              trace_ids.push_back(q.id);
              q.id = own.size();
              own.push_back(q);
            }
            auto scheduler = tb.MakeScheduler(SchedulerKind::kElsa);
            const auto result =
                tb.Run(mixed.per_model_sizes[static_cast<std::size_t>(m)],
                       *scheduler, workload::QueryTrace(std::move(own)),
                       SeedOf(s) + static_cast<std::uint64_t>(m));
            for (sim::QueryRecord r : result.records) {
              r.id = trace_ids[r.id];
              merged.push_back(r);
            }
          }
          return sim::ComputeStats(merged, tb.sla_target());
        }
        sched::ElsaParams params;
        if (p == 2) params.locality_tie_sec = 0.002;  // about the swap cost
        auto scheduler = tb.MakeScheduler(SchedulerKind::kElsa, params);
        return tb.Run(mixed.plan.instance_gpcs, *scheduler, trace, SeedOf(s))
            .Stats(tb.sla_target());
      });
  Table t({"policy", "p99 ms", "p95 ms", "achieved qps", "viol. %", "swaps"});
  for (std::size_t p = 0; p < std::size(policies); ++p) {
    const auto m = MedianStats(size.seeds, [&](int s) -> const auto& {
      return stats[static_cast<std::size_t>(s) * std::size(policies) + p];
    });
    t.AddRow({policies[p], Table::Num(m.p99_latency_ms, 2),
              Table::Num(m.p95_latency_ms, 2), Table::Num(m.achieved_qps, 1),
              Table::Num(100 * m.sla_violation_rate, 2),
              Table::Int(static_cast<long long>(m.model_swaps))});
  }
  t.Print(out);
  out << "\nLayouts (equal total GPCs, budget " << tb.config().gpc_budget
      << "):\n  dedicated: ";
  for (int m = 0; m < tb.num_models(); ++m) {
    partition::PartitionPlan slice;
    slice.instance_gpcs = mixed.per_model_sizes[static_cast<std::size_t>(m)];
    out << (m > 0 ? " | " : "") << tb.repertoire().name(m) << ": "
        << slice.Summary();
  }
  out << "\n  consolidated: " << mixed.plan.Summary() << "\n\n";
}

}  // namespace

const char* ToString(Verdict verdict) {
  const char* names[] = {"reproduced", "mixed", "not reproduced"};
  return names[static_cast<int>(verdict)];
}

bool Claim::Holds(double ratio) const {
  switch (predicate) {
    case Predicate::kAtLeast: return ratio >= 1.0 - kTie;
    case Predicate::kAbove: return ratio > 1.0 + kTie;
    case Predicate::kBelow: return ratio < 1.0 - kTie;
    case Predicate::kMatches:
      return std::abs(ratio / cited - 1.0) <= kCiteTolerance;
  }
  return false;
}

int Claim::Wins() const {
  return static_cast<int>(std::count_if(ratios.begin(), ratios.end(),
                                        [&](double r) { return Holds(r); }));
}

Verdict Claim::Judge() const {
  const auto wins = static_cast<std::size_t>(Wins());
  if (10 * wins >= 9 * ratios.size()) return Verdict::kReproduced;
  if (10 * wins <= ratios.size()) return Verdict::kNotReproduced;
  return Verdict::kMixed;
}

std::string Claim::Rule() const {
  if (predicate == Predicate::kMatches) {
    return Table::Num(cited, 2) + " +/- " +
           Table::Num(100 * kCiteTolerance, 0) + "%";
  }
  const char* ops[] = {">= ", "> ", "< "};
  const double bounds[] = {1.0 - kTie, 1.0 + kTie, 1.0 - kTie};
  const auto i = static_cast<std::size_t>(predicate);
  return ops[i] + Table::Num(bounds[i], 2);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto k = static_cast<std::size_t>(pos);
  const double f = pos - static_cast<double>(k);
  if (f == 0.0) return values[k];
  return values[k] * (1.0 - f) + values[k + 1] * f;
}

Ledger RunLedger(const LedgerSize& size, int jobs, std::ostream& out) {
  Ledger ledger{size, {}};
  out << "Simulated numbers are medians over " << size.seeds << " seeds.\n\n";
  const auto add = [&](std::vector<Claim> claims) {
    for (Claim& c : claims) ledger.claims.push_back(std::move(c));
  };
  add(Profiles(size, out));
  add(Plans(size, out));
  add(Figure8(size, out));
  add(Figures11And12(size, jobs, out));
  add(Figure13a(size, jobs, out));
  add(Figure13b(size, jobs, out));
  add(SlaSensitivity(size, jobs, out));
  add(FrontendAblation(size, jobs, out));
  ElsaAblation(size, jobs, out);
  add(OnlineAblation(size, jobs, out));
  MixConsolidation(size, jobs, out);
  return ledger;
}

void PrintVerdicts(const Ledger& ledger, std::ostream& out) {
  Header(out, "Claims ledger",
         std::to_string(ledger.size.seeds) + " seeds x " +
             std::to_string(ledger.size.queries) +
             " queries per probe; tied = within 1%; a cited number is "
             "matched within 10%");
  Table t({"claim", "rule", "wins", "median [q1, q3]", "verdict"});
  int counts[3] = {0, 0, 0};
  for (const Claim& c : ledger.claims) {
    ++counts[static_cast<int>(c.Judge())];
    t.AddRow({c.name, c.Rule(),
              std::to_string(c.Wins()) + "/" + std::to_string(c.ratios.size()),
              Table::Num(Quantile(c.ratios, 0.5), 2) + " [" +
                  Table::Num(Quantile(c.ratios, 0.25), 2) + ", " +
                  Table::Num(Quantile(c.ratios, 0.75), 2) + "]",
              ToString(c.Judge())});
  }
  t.Print(out);
  out << "\n" << ledger.claims.size() << " claims: " << counts[0]
      << " reproduced, " << counts[1] << " mixed, " << counts[2]
      << " not reproduced\n";
}

core::Json ToJson(const Ledger& ledger) {
  core::Json claims = core::Json::Array();
  for (const Claim& c : ledger.claims) {
    core::Json j = core::Json::Object();
    j.Set("name", c.name);
    j.Set("statement", c.statement);
    j.Set("rule", c.Rule());
    if (c.predicate == Predicate::kMatches) j.Set("cited", c.cited);
    j.Set("wins", c.Wins());
    j.Set("median", Quantile(c.ratios, 0.5));
    j.Set("q1", Quantile(c.ratios, 0.25));
    j.Set("q3", Quantile(c.ratios, 0.75));
    j.Set("verdict", ToString(c.Judge()));
    core::Json ratios = core::Json::Array();
    for (double r : c.ratios) ratios.Add(r);
    j.Set("ratios", std::move(ratios));
    claims.Add(std::move(j));
  }
  core::Json doc = core::Json::Object();
  doc.Set("schema", "paris-elsa-claims-v1");
  doc.Set("seeds", ledger.size.seeds);
  doc.Set("queries", static_cast<std::uint64_t>(ledger.size.queries));
  doc.Set("tie", kTie);
  doc.Set("cite_tolerance", kCiteTolerance);
  doc.Set("claims", std::move(claims));
  return doc;
}

}  // namespace pe::bench
