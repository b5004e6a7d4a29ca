// The engine scenario grid shared by the golden-digest suite and the
// shadow-view check: FIFS and ELSA, one and three models, static runs and
// live reconfigurations, three seeds -- plus the wide cells (ELSA, JSQ and
// FIFS on a 132-partition, four-size layout, with ELSA's swap charge and
// locality tie-break, SLAs from 40 ms down to 2 ms, and a fail / recover /
// reconfigure drive), three knee cells (perfbench's server-knee server at
// 20,000 queries: plain, with a charged swap cost and a locality tie, and
// with execution noise) and six event-ordering scenarios (out-of-order
// injection, same-instant bursts, far-future spill, incremental waves,
// mid-run injection on pending ticks, in-order injection behind an
// out-of-order one).
// Each scenario builds its scheduler through a SchedulerSource, so a test
// can decorate the scheduler and attach the decorator to the server once
// it exists.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/mix_runner.h"
#include "profile/model_repertoire.h"
#include "sched/baselines.h"
#include "sched/elsa.h"
#include "sched/fifs.h"
#include "sim/server.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace pe::testing {

using SchedulerFactory = std::function<std::unique_ptr<sched::Scheduler>()>;

// Supplies the scheduler a scenario's server runs with.  The default hands
// back make() unchanged; decorating sources override both hooks.
class SchedulerSource {
 public:
  virtual ~SchedulerSource() = default;
  virtual std::unique_ptr<sched::Scheduler> Make(const SchedulerFactory& make) {
    return make();
  }
  // Called once the server that runs Make()'s scheduler is constructed.
  virtual void Attach(sim::InferenceServer& server) { (void)server; }
};

// Distinct per-model cost surfaces; the actual latency deliberately
// diverges from the profile so estimate/actual paths stay distinguishable.
inline profile::ProfileTable MakeScenarioTable(const std::string& name,
                                               double scale) {
  profile::ProfileTable t(name, {1, 2, 3, 7}, {1, 2, 4, 8, 16, 32});
  for (int g : t.partition_sizes()) {
    for (int b : t.batch_sizes()) {
      profile::ProfileEntry e;
      e.latency_sec = scale * 1e-3 * (0.5 + 0.4 * b) / static_cast<double>(g);
      e.utilization = std::min(1.0, 0.08 * b);
      t.Set(g, b, e);
    }
  }
  return t;
}

inline profile::ModelRepertoire MakeScenarioRepertoire(int num_models) {
  profile::ModelRepertoire rep;
  for (int m = 0; m < num_models; ++m) {
    const double scale = 1.0 + 0.6 * m;
    // Built via += (not `"m" + std::to_string(...)`): GCC-12's -Wrestrict
    // false-positives on operator+(const char*, string&&) in Release.
    std::string name = "m";
    name += std::to_string(m);
    rep.Register(std::move(name), MakeScenarioTable("m", scale),
                 [scale](int gpcs, int batch) {
                   return scale * 1.07e-3 * (0.5 + 0.4 * batch) /
                          static_cast<double>(gpcs);
                 });
  }
  return rep;
}

inline workload::QueryTrace MakeScenarioTrace(
    const profile::ModelRepertoire& rep, std::size_t n, std::uint64_t seed,
    double rate_qps = 900.0) {
  const double weights[] = {0.5, 0.3, 0.2};
  const double medians[] = {6.0, 4.0, 9.0};
  const double sigmas[] = {0.9, 0.7, 0.8};
  workload::ScenarioSpec spec;
  spec.rate.base_qps = rate_qps;
  for (int m = 0; m < (rep.size() == 1 ? 1 : 3); ++m) {
    workload::ComponentSpec c;
    c.model_id = m;
    c.weight = weights[m];
    c.median = medians[m];
    c.sigma = sigmas[m];
    spec.components.push_back(c);
  }
  return workload::GenerateScenarioTrace(spec, n, seed);
}

enum class Sched { kFifs, kElsa, kJsq };

struct GridCell {
  Sched sched = Sched::kFifs;
  int models = 1;
  bool reconfigure = false;
  std::uint64_t seed = 1;
  double sla_ms = 40.0;

  std::string Label() const {
    std::string label = sched == Sched::kFifs ? "FIFS" : "ELSA";
    label += "/m";
    label += std::to_string(models);
    label += reconfigure ? "/reconfig" : "/static";
    label += "/seed";
    label += std::to_string(seed);
    return label;
  }
};

// The 24 cells, in a fixed order.
inline std::vector<GridCell> ScenarioGrid() {
  std::vector<GridCell> grid;
  for (const Sched sched : {Sched::kFifs, Sched::kElsa}) {
    for (const int models : {1, 3}) {
      for (const bool reconfigure : {false, true}) {
        for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
          grid.push_back({sched, models, reconfigure, seed});
        }
      }
    }
  }
  return grid;
}

inline sched::ElsaParams GridElsaParams(const GridCell& cell) {
  sched::ElsaParams params;
  params.locality_tie_sec = cell.models > 1 ? 0.002 : 0.0;
  return params;
}

inline SchedulerFactory GridSchedulerFactory(
    const GridCell& cell, const profile::ModelRepertoire& rep, SimTime sla) {
  if (cell.sched == Sched::kFifs) {
    return [] { return std::make_unique<sched::FifsScheduler>(); };
  }
  const sched::ElsaParams params = GridElsaParams(cell);
  return [&rep, sla, params] {
    return std::make_unique<sched::ElsaScheduler>(rep, sla, params);
  };
}

inline std::vector<sim::QueryRecord> RunGridCell(const GridCell& cell,
                                                 SchedulerSource& source) {
  const auto rep = MakeScenarioRepertoire(cell.models);
  const SimTime sla = MsToTicks(cell.sla_ms);
  sim::ServerConfig config;
  config.partition_gpcs = {1, 1, 2, 3, 7, 7};
  config.sla_target = sla;
  config.latency_noise_sigma = 0.25;  // exercise the RNG stream
  config.seed = cell.seed ^ 0xBEEF;
  config.model_swap_cost = UsToTicks(250.0);
  auto scheduler = source.Make(GridSchedulerFactory(cell, rep, sla));
  sim::InferenceServer server(config, rep, *scheduler);
  source.Attach(server);
  const auto trace = MakeScenarioTrace(rep, 600, cell.seed);
  if (!cell.reconfigure) return server.Run(trace).records;
  // Live-reconfiguration driving: chunked advances around two layout
  // swaps (the second supersedes nothing; both complete).
  server.InjectTrace(trace);
  server.AdvanceTo(MsToTicks(120.0));
  server.BeginReconfigure({2, 2, 3, 7}, MsToTicks(15.0));
  server.AdvanceTo(MsToTicks(300.0));
  server.BeginReconfigure({1, 2, 3, 3, 7, 7}, MsToTicks(10.0));
  return server.Finish().records;
}

// ---- Wide cells (three models, 132 partitions) --------------------------

struct WideCell {
  Sched sched = Sched::kElsa;
  double sla_ms = 40.0;
  // ELSA's predictor charges the simulator's swap cost and the locality
  // tie-break is on; off runs ELSA with its default parameters.
  bool swap_aware = true;
  // Fails and recovers workers around a live reconfiguration.
  bool faults = false;

  std::string Label() const {
    std::string label = sched == Sched::kJsq    ? "JSQ"
                        : sched == Sched::kFifs ? "FIFS"
                                                : "ELSA";
    label += "/wide/sla";
    label += std::to_string(static_cast<int>(sla_ms));
    if (sched == Sched::kElsa) label += swap_aware ? "/swap+local" : "/default";
    if (faults) label += "/faults";
    return label;
  }
};

// 40 x 1 + 40 x 2 + 32 x 3 + 20 x 7 GPCs.  Listed largest-first so the
// server's size-ascending worker order differs from the configured one.
inline std::vector<int> WideLayout() {
  std::vector<int> layout;
  layout.insert(layout.end(), 20, 7);
  layout.insert(layout.end(), 32, 3);
  layout.insert(layout.end(), 40, 2);
  layout.insert(layout.end(), 40, 1);
  return layout;
}

// Offered load of the wide cells' trace.
inline constexpr double kWideRateQps = 60000.0;

// In a fixed order: ELSA with its default parameters (Step A at 40 ms,
// mostly Step B at 2 ms), ELSA with the swap charge and locality
// tie-break, the fail / recover / reconfigure drive, JSQ, then FIFS
// without and with the drive.  FIFS is the one reader of the server's
// idle index, and the layout's 2- and 7-GPC runs straddle positions 64
// and 128.
inline std::vector<WideCell> WideGrid() {
  std::vector<WideCell> cells;
  for (const double sla_ms : {40.0, 2.0}) {
    cells.push_back({Sched::kElsa, sla_ms, /*swap_aware=*/false});
  }
  for (const double sla_ms : {40.0, 8.0, 2.0}) {
    cells.push_back({Sched::kElsa, sla_ms, /*swap_aware=*/true});
  }
  cells.push_back({Sched::kElsa, 8.0, /*swap_aware=*/true, /*faults=*/true});
  cells.push_back({Sched::kJsq, 8.0, /*swap_aware=*/false});
  for (const bool faults : {false, true}) {
    cells.push_back({Sched::kFifs, 8.0, /*swap_aware=*/false, faults});
  }
  return cells;
}

inline sched::ElsaParams WideElsaParams(const WideCell& cell) {
  sched::ElsaParams params;
  if (cell.swap_aware) {
    params.swap_cost_sec = 250e-6;  // == the server's model_swap_cost
    params.locality_tie_sec = 0.002;
  }
  return params;
}

inline std::vector<sim::QueryRecord> RunWideCell(const WideCell& cell,
                                                 SchedulerSource& source) {
  const auto rep = MakeScenarioRepertoire(3);
  const SimTime sla = MsToTicks(cell.sla_ms);
  sim::ServerConfig config;
  config.partition_gpcs = WideLayout();
  config.sla_target = sla;
  config.latency_noise_sigma = 0.25;  // actual runs past the estimate
  config.seed = 0x51DE;
  config.model_swap_cost = UsToTicks(250.0);
  const sched::ElsaParams params = WideElsaParams(cell);
  auto scheduler = source.Make([&]() -> std::unique_ptr<sched::Scheduler> {
    if (cell.sched == Sched::kJsq) {
      return std::make_unique<sched::JsqScheduler>();
    }
    if (cell.sched == Sched::kFifs) {
      return std::make_unique<sched::FifsScheduler>();
    }
    return std::make_unique<sched::ElsaScheduler>(rep, sla, params);
  });
  sim::InferenceServer server(config, rep, *scheduler);
  source.Attach(server);
  const auto trace = MakeScenarioTrace(rep, 6000, /*seed=*/13, kWideRateQps);
  if (!cell.faults) return server.Run(trace).records;
  // Failures of every size around a live reconfiguration to a narrower
  // layout, then failures on the new layout.
  server.InjectTrace(trace);
  server.AdvanceTo(MsToTicks(15.0));
  for (const int index : {3, 45, 90, 131}) (void)server.FailWorker(index);
  server.AdvanceTo(MsToTicks(30.0));
  server.RecoverWorker(45);
  server.RecoverWorker(131);
  std::vector<int> narrow(3, 1);
  narrow.insert(narrow.end(), 3, 2);
  narrow.insert(narrow.end(), 12, 3);
  narrow.insert(narrow.end(), 24, 7);
  server.BeginReconfigure(std::move(narrow), MsToTicks(2.0));
  server.AdvanceTo(MsToTicks(60.0));
  for (const int index : {0, 20, 41}) (void)server.FailWorker(index);
  server.AdvanceTo(MsToTicks(75.0));
  server.RecoverWorker(0);
  server.RecoverWorker(41);
  return server.Finish().records;
}

// ---- Knee cells (the benchmark's single server, at test size) ----------

// perfbench's server-knee configuration with 20,000 queries: the
// four-model 0.25-share mix on 64 GPUs, its 448-GPC mixed-PARIS layout and
// ELSA at 12,000 q/s, seed 1 -- plain, with a 500 us swap cost charged by
// ELSA and a 1 ms locality tie, and with 0.25 execution noise (estimate
// overruns).
struct KneeCell {
  const char* name = "";
  double swap_cost_us = 0.0;
  double locality_tie_sec = 0.0;
  double noise_sigma = 0.0;
};

inline std::vector<KneeCell> KneeCells() {
  return {{"knee"},
          {"knee/swap500us+tie1ms", 500.0, 1e-3},
          {"knee/noise0.25", 0.0, 0.0, 0.25}};
}

inline core::MixTestbed KneeTestbed(const KneeCell& cell) {
  core::MixConfig config;
  for (const char* name : {"resnet", "mobilenet", "bert", "shufflenet"}) {
    core::MixModelConfig m;
    m.model = name;
    m.share = 0.25;
    config.models.push_back(m);
  }
  config.num_gpus = 64;
  config.gpc_budget = 448;
  config.swap_cost_us = cell.swap_cost_us;
  config.latency_noise_sigma = cell.noise_sigma;
  return core::MixTestbed(config);
}

// ELSA's parameters as MixTestbed::MakeScheduler completes them.
inline sched::ElsaParams KneeElsaParams(const KneeCell& cell) {
  sched::ElsaParams params;
  params.swap_cost_sec = cell.swap_cost_us * 1e-6;
  params.locality_tie_sec = cell.locality_tie_sec;
  return params;
}

// Replays the cell's trace on `layout` (the testbed's PlanMixed layout)
// with the server MixTestbed::Run would build.
inline std::vector<sim::QueryRecord> RunKneeCell(const KneeCell& cell,
                                                 const core::MixTestbed& tb,
                                                 const std::vector<int>& layout,
                                                 SchedulerSource& source) {
  constexpr std::uint64_t kSeed = 1;
  sim::ServerConfig config;
  config.partition_gpcs = layout;
  config.sla_target = tb.sla_target();
  config.latency_noise_sigma = cell.noise_sigma;
  config.seed = kSeed ^ 0xA5A5A5A5ULL;
  config.model_swap_cost = tb.swap_cost();
  auto scheduler = source.Make([&] {
    return tb.MakeScheduler(core::SchedulerKind::kElsa, KneeElsaParams(cell));
  });
  sim::InferenceServer server(config, tb.repertoire(), *scheduler);
  source.Attach(server);
  return server.Run(tb.GenerateMix(12'000.0, 20'000, kSeed)).records;
}

// ---- Event-ordering scenarios (FIFS, one model) ------------------------

// Runs `drive` on a FIFS server over `config` and returns its records.
inline std::vector<sim::QueryRecord> RunFifs(
    const sim::ServerConfig& config, SchedulerSource& source,
    const std::function<sim::SimResult(sim::InferenceServer&)>& drive) {
  static const auto rep = MakeScenarioRepertoire(1);
  auto scheduler = source.Make(
      [] { return std::make_unique<sched::FifsScheduler>(); });
  sim::InferenceServer server(config, rep, *scheduler);
  source.Attach(server);
  return drive(server).records;
}

// Out-of-order injection falls off the sorted arrival cursor into the
// event calendar.
inline std::vector<sim::QueryRecord> RunOutOfOrderInjection(
    SchedulerSource& source) {
  sim::ServerConfig config;
  config.partition_gpcs = {1, 7};
  config.sla_target = MsToTicks(30.0);
  config.seed = 5;
  const SimTime arrivals[] = {MsToTicks(0.0), MsToTicks(9.0), MsToTicks(3.0),
                              MsToTicks(3.0), MsToTicks(12.0), MsToTicks(1.0)};
  return RunFifs(config, source, [&](sim::InferenceServer& server) {
    for (std::size_t i = 0; i < 6; ++i) {
      workload::Query q;
      q.id = i;
      q.arrival = arrivals[i];
      q.batch = 8;
      server.InjectQuery(q);
    }
    return server.Finish();
  });
}

// Same-timestamp bursts: many arrivals share one instant, so frontend and
// worker completions collide on single timestamps too; the (time, seq)
// tie-break and the batched same-instant sweep are both on the line.
inline std::vector<sim::QueryRecord> RunSameInstantBursts(
    SchedulerSource& source) {
  sim::ServerConfig config;
  config.partition_gpcs = {1, 1, 2, 7};
  config.sla_target = MsToTicks(30.0);
  config.seed = 17;
  config.frontend.enabled = true;  // same-instant frontend-done trains
  config.frontend.lanes = 3;
  std::vector<workload::Query> qs;
  for (std::size_t burst = 0; burst < 50; ++burst) {
    const SimTime at = MsToTicks(5.0 * static_cast<double>(burst));
    for (int k = 0; k < 8; ++k) {
      workload::Query q;
      q.id = qs.size();
      q.arrival = at;  // every query of the burst lands on one tick
      q.batch = 1 + (k % 4) * 8;
      qs.push_back(q);
    }
  }
  const workload::QueryTrace trace(std::move(qs));
  return RunFifs(config, source, [&](sim::InferenceServer& server) {
    return server.Run(trace);
  });
}

// Overflow-spill promotion: out-of-order injections spread over ~8 s land
// far beyond the calendar's initial wheel horizon and are promoted across
// several re-anchors.
inline std::vector<sim::QueryRecord> RunFarFutureSpill(
    SchedulerSource& source) {
  sim::ServerConfig config;
  config.partition_gpcs = {1, 7};
  config.sla_target = MsToTicks(30.0);
  config.seed = 23;
  return RunFifs(config, source, [](sim::InferenceServer& server) {
    // Alternating near/far arrivals in injection order: every second query
    // breaks the sorted-cursor invariant and falls into the calendar.
    for (std::size_t i = 0; i < 40; ++i) {
      workload::Query q;
      q.id = i;
      q.arrival = (i % 2 == 0)
                      ? MsToTicks(1.0 * static_cast<double>(i))
                      : MsToTicks(8000.0 - 150.0 * static_cast<double>(i));
      q.batch = 4;
      server.InjectQuery(q);
    }
    return server.Finish();
  });
}

// Out-of-order injection under incremental driving: chunked AdvanceTo
// between injection waves, so calendar pops interleave with clock moves
// and a partially drained wheel keeps receiving behind-the-cursor pushes.
inline std::vector<sim::QueryRecord> RunIncrementalWaves(
    SchedulerSource& source) {
  sim::ServerConfig config;
  config.partition_gpcs = {1, 2, 7};
  config.sla_target = MsToTicks(30.0);
  config.seed = 31;
  return RunFifs(config, source, [](sim::InferenceServer& server) {
    std::uint64_t id = 0;
    for (int wave = 0; wave < 4; ++wave) {
      const SimTime base = MsToTicks(25.0 * static_cast<double>(wave));
      // In-order arrivals ahead of now, then a burst that jumps backwards
      // relative to the previous push, all at or after the current clock.
      for (int k = 0; k < 6; ++k) {
        workload::Query q;
        q.id = id++;
        q.arrival = base + MsToTicks(20.0 + static_cast<double>(k));
        q.batch = 8;
        server.InjectQuery(q);
      }
      for (int k = 0; k < 6; ++k) {
        workload::Query q;
        q.id = id++;
        q.arrival = base + MsToTicks(5.0 + 2.0 * static_cast<double>(k));
        q.batch = 2;
        server.InjectQuery(q);
      }
      server.AdvanceTo(base + MsToTicks(25.0));
    }
    return server.Finish();
  });
}

// Mid-run, in-order injections that land on the exact tick of a pending
// worker completion or frontend-done, so an arrival injected after
// events are pending ties with them.  Each wave injects a few arrivals,
// advances past them, then injects one query on every pending tick that
// falls before the next wave (so every injection keeps time order).  Two
// servers, records concatenated:
//  * frontend off, {1, 2, 7}: whether the completion pops before the
//    arrival on its tick decides which partition FIFS picks;
//  * frontend on, one lane whose cost equals a batch-8 query's run time
//    on the 7-GPC partition (every query is batch 8): each wave also
//    injects on the latest pending frontend-done tick, and the frontend
//    and the 7-GPC partition keep finishing on the same ticks.
inline std::vector<sim::QueryRecord> RunMidRunInjectionTies(
    SchedulerSource& source) {
  const SimTime cost =
      SecToTicks(MakeScenarioRepertoire(1).ActualSec(0, 7, 8));
  const auto drive = [cost](bool frontend) {
    return [cost, frontend](sim::InferenceServer& server) {
      // The one frontend lane serves arrivals FIFO, so its done ticks are
      // a running max over the injected arrivals.
      SimTime frontend_done = 0;
      std::uint64_t id = 0;
      const auto inject = [&](SimTime at, int batch) {
        workload::Query q;
        q.id = id++;
        q.arrival = at;
        q.batch = frontend ? 8 : batch;
        server.InjectQuery(q);
        frontend_done = std::max(at, frontend_done) + cost;
      };
      const SimTime period = MsToTicks(3.0);
      for (int wave = 0; wave < 12; ++wave) {
        const SimTime base = period * wave;
        for (int k = 0; k < (frontend ? 2 : 4); ++k) {
          inject(base + UsToTicks(300.0 * k), 1 + 7 * ((wave + k) % 4));
        }
        server.AdvanceTo(base + MsToTicks(1.0));
        std::vector<SimTime> ticks;
        for (const sim::PartitionWorker& w : server.workers()) {
          if (w.busy()) ticks.push_back(w.busy_until());
        }
        if (frontend && frontend_done >= server.now()) {
          ticks.push_back(frontend_done);
        }
        std::sort(ticks.begin(), ticks.end());
        for (std::size_t k = 0; k < ticks.size(); ++k) {
          if (ticks[k] >= base + period) break;
          inject(ticks[k], 4 + 4 * static_cast<int>(k % 3));
        }
        server.AdvanceTo(base + MsToTicks(1.6));
      }
      return server.Finish();
    };
  };
  sim::ServerConfig plain;
  plain.partition_gpcs = {1, 2, 7};
  plain.sla_target = MsToTicks(30.0);
  plain.seed = 37;
  std::vector<sim::QueryRecord> records = RunFifs(plain, source, drive(false));
  sim::ServerConfig fronted = plain;
  fronted.partition_gpcs = {1, 7};
  fronted.frontend.enabled = true;
  fronted.frontend.lanes = 1;
  fronted.frontend.cost_per_query = cost;
  const auto more = RunFifs(fronted, source, drive(true));
  records.insert(records.end(), more.begin(), more.end());
  return records;
}

// Up-front injections, all before the first advance: an in-order prefix,
// then an arrival that goes back in time onto an instant the prefix
// occupies, then more arrivals in order with the prefix -- several on
// instants earlier arrivals occupy.  The (time, seq) order puts the
// arrival injected earlier first on every shared instant.
inline std::vector<sim::QueryRecord> RunInOrderAfterOutOfOrder(
    SchedulerSource& source) {
  sim::ServerConfig config;
  config.partition_gpcs = {1, 2, 7};
  config.sla_target = MsToTicks(30.0);
  config.seed = 41;
  return RunFifs(config, source, [](sim::InferenceServer& server) {
    // Milliseconds into each block, in injection order; the fifth and the
    // ninth go back in time.
    const double offsets[] = {0.0, 0.4, 0.4, 1.0, 0.4, 1.0, 1.0,
                              1.2, 0.4, 1.2, 1.5, 1.5};
    std::uint64_t id = 0;
    for (int block = 0; block < 6; ++block) {
      const double base = 2.0 * static_cast<double>(block);
      for (std::size_t k = 0; k < std::size(offsets); ++k) {
        workload::Query q;
        q.id = id++;
        q.arrival = MsToTicks(base + offsets[k]);
        q.batch = 1 + static_cast<int>((k * 5 + block) % 16);
        server.InjectQuery(q);
      }
    }
    return server.Finish();
  });
}

struct NamedScenario {
  const char* name;
  std::vector<sim::QueryRecord> (*run)(SchedulerSource&);
};

inline const std::vector<NamedScenario>& OrderingScenarios() {
  static const std::vector<NamedScenario> kScenarios = {
      {"out-of-order injection", &RunOutOfOrderInjection},
      {"same-instant bursts", &RunSameInstantBursts},
      {"far-future spill", &RunFarFutureSpill},
      {"incremental waves", &RunIncrementalWaves},
      {"mid-run injection ties", &RunMidRunInjectionTies},
      {"in-order after out-of-order", &RunInOrderAfterOutOfOrder},
  };
  return kScenarios;
}

}  // namespace pe::testing
