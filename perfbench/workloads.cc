#include "workloads.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/fleet_runner.h"
#include "core/mix_runner.h"
#include "core/result_io.h"
#include "fleet/cluster.h"
#include "fleet/failover.h"
#include "fleet/router.h"
#include "sim/server.h"

namespace perfbench {

namespace {

using namespace pe;  // NOLINT: benchmark-local convenience

// Leading share of the arrival order left out of every latency figure.
constexpr double kWarmup = 0.1;

std::vector<core::MixModelConfig> FourModelMix() {
  std::vector<core::MixModelConfig> models;
  for (const char* name : {"resnet", "mobilenet", "bert", "shufflenet"}) {
    core::MixModelConfig m;  // the paper's log-normal batch distribution
    m.model = name;
    m.share = 0.25;
    models.push_back(m);
  }
  return models;
}

// Times `fn` as a child span of `parent` when tracing; a plain call
// otherwise.
template <typename Fn>
auto Step(Tracer* tracer, int parent, const char* name, double* seconds,
          Fn&& fn) {
  if (tracer == nullptr) return fn();
  const int id = tracer->Open(name, parent);
  auto result = fn();
  tracer->Close(id);
  *seconds = tracer->Duration(id);
  return result;
}

// Opens the pipeline span and the wall/CPU clocks of one pass; Finish
// closes both and derives the span coverage.
class PassClock {
 public:
  PassClock(Tracer* tracer, PassResult& out)
      : tracer_(tracer),
        out_(out),
        root_(tracer ? tracer->Open("pipeline", -1) : -1),
        wall0_(WallNow()),
        cpu0_(ProcessCpuSec()) {}

  int root() const { return root_; }

  void Finish() {
    out_.wall_s = WallNow() - wall0_;
    out_.cpu_s = ProcessCpuSec() - cpu0_;
    if (tracer_ == nullptr) return;
    tracer_->Close(root_);
    out_.layers.root_s = tracer_->Duration(root_);
    if (out_.layers.root_s > 0.0) {
      out_.layers.coverage =
          1.0 - tracer_->SelfTime(root_) / out_.layers.root_s;
    }
  }

 private:
  Tracer* tracer_;
  PassResult& out_;
  int root_;
  double wall0_;
  double cpu0_;
};

int WriteReport(const std::string& path, const core::Json& doc) {
  if (!path.empty()) core::WriteJsonFile(path, doc);
  return 0;
}

// Breaks one completed record's causality (start after finish) so the
// checks must reject the pass.
void Tamper(std::vector<sim::QueryRecord>& records) {
  for (sim::QueryRecord& r : records) {
    if (r.failed || r.shed) continue;
    r.started = r.finished + 1;
    return;
  }
}

// ---- server-knee -------------------------------------------------------

class ServerKnee final : public Workload {
 public:
  std::string name() const override { return "server-knee"; }
  std::size_t default_queries() const override { return 50'000; }
  int jobs() const override { return 1; }
  void set_rate_qps(double rate) override { rate_ = rate; }
  bool stationary() const override { return true; }
  std::size_t identity_prefix() const override { return 0; }

  std::shared_ptr<void> Build() override {
    core::MixConfig config;
    config.models = FourModelMix();
    config.num_gpus = 64;
    config.gpc_budget = 448;
    auto testbed = std::make_unique<core::MixTestbed>(config);
    std::vector<int> layout = testbed->PlanMixed().plan.instance_gpcs;
    if (testbed_) return std::shared_ptr<void>(std::move(testbed));
    testbed_ = std::move(testbed);
    layout_ = std::move(layout);
    return nullptr;
  }

  void PrepareTraced() override {}

  PassResult Run(const PassOptions& opt) override {
    PassResult out;
    Layers& layers = out.layers;
    Tracer* tracer = opt.tracer;
    PassClock clock(tracer, out);

    const workload::QueryTrace trace =
        Step(tracer, clock.root(), "workload.gen", &layers.gen_s, [&] {
          return testbed_->GenerateMix(rate_, opt.queries, opt.seed);
        });

    sim::SimResult result;
    {
      const double cpu0 = ProcessCpuSec();
      const int span = tracer ? tracer->Open("sim.simulate", clock.root()) : -1;
      std::optional<SchedProbe> probe;
      std::unique_ptr<sched::Scheduler> scheduler =
          testbed_->MakeScheduler(core::SchedulerKind::kElsa);
      if (tracer != nullptr) {
        probe.emplace(tracer, span, /*server_spans=*/true);
        scheduler =
            std::make_unique<TimedScheduler>(std::move(scheduler), *probe, 0);
      }
      result = testbed_->Run(layout_, *scheduler, trace, opt.seed);
      scheduler.reset();
      if (tracer != nullptr) {
        tracer->Close(span);
        layers.simulate_s = tracer->Duration(span);
        layers.simulate_self_s = tracer->SelfTime(span);
        layers.sim_cpu_s = ProcessCpuSec() - cpu0;
        layers.sched = probe->totals();
        layers.server_s = probe->server_seconds();
      }
    }

    const double stats_cpu0 = ProcessCpuSec();
    const sim::ServerStats stats =
        Step(tracer, clock.root(), "stats.reduce", &layers.stats_s, [&] {
          return result.Stats(testbed_->sla_target(), kWarmup);
        });
    layers.stats_cpu_s = ProcessCpuSec() - stats_cpu0;
    Step(tracer, clock.root(), "core.report", &layers.report_s,
         [&] { return WriteReport(opt.report_path, core::ToJson(stats)); });
    clock.Finish();

    if (opt.tamper) Tamper(result.records);
    const RecordView view{&result.records, {}};
    out.outcome = Evaluate(trace, {&view, 1}, testbed_->sla_target(), kWarmup,
                           nullptr);
    out.offered_qps = trace.OfferedQps();
    out.utilization = stats.mean_worker_utilization;
    out.model_swap_share =
        stats.completed > 0 ? static_cast<double>(stats.model_swaps) /
                                  static_cast<double>(stats.completed)
                            : 0.0;
    out.route_imbalance = 1.0;
    out.partitions = static_cast<int>(layout_.size());
    return out;
  }

 private:
  double rate_ = 12'000.0;
  std::unique_ptr<core::MixTestbed> testbed_;
  std::vector<int> layout_;
};

// ---- fleet-steady / fleet-chaos ----------------------------------------

struct FleetSpec {
  std::string name;
  int replicas = 8;
  double rate_per_server = 300.0;
  std::size_t queries = 0;
  std::string faults;  // empty: fault-free, SimulateSplit
};

class Fleet final : public Workload {
 public:
  explicit Fleet(FleetSpec spec)
      : spec_(std::move(spec)), rate_(spec_.rate_per_server * kServers) {}

  std::string name() const override { return spec_.name; }
  std::size_t default_queries() const override { return spec_.queries; }
  int jobs() const override { return Nproc(); }
  void set_rate_qps(double rate) override { rate_ = rate; }
  bool stationary() const override { return spec_.faults.empty(); }
  std::size_t identity_prefix() const override { return 200'000; }

  // The fleet seed (router and engine streams, fault schedule) keeps its
  // default: the workload seed varies the traffic, not which servers fail.
  std::shared_ptr<void> Build() override {
    core::FleetTestbedConfig config;
    config.mix.models = FourModelMix();
    config.num_servers = kServers;
    config.placement = fleet::PlacementKind::kSharded;
    config.replicas = spec_.replicas;
    config.policy = fleet::RouterPolicy::kPowerOfTwo;
    config.scheduler = core::SchedulerKind::kElsa;
    auto testbed = std::make_unique<core::FleetTestbed>(config);
    if (testbed_) return std::shared_ptr<void>(std::move(testbed));
    testbed_ = std::move(testbed);
    return nullptr;
  }

  // A second cluster over the same placement, zoo and configuration
  // whose factory wraps every scheduler the testbed would build in a
  // TimedScheduler.
  void PrepareTraced() override {
    const fleet::Cluster& base = testbed_->cluster();
    fleet::SchedulerFactory factory =
        [this, &base](int server, const profile::ModelRepertoire&)
        -> std::unique_ptr<sched::Scheduler> {
      return std::make_unique<TimedScheduler>(base.MakeScheduler(server),
                                              *probe_, server);
    };
    traced_ = std::make_unique<fleet::Cluster>(
        base.config(), base.placement(), testbed_->mix().repertoire(),
        std::move(factory));
  }

  PassResult Run(const PassOptions& opt) override {
    PassResult out;
    Layers& layers = out.layers;
    Tracer* tracer = opt.tracer;
    if (tracer != nullptr && !traced_) {
      throw std::logic_error("Fleet::Run: traced pass before PrepareTraced");
    }
    const fleet::Cluster& cluster =
        tracer != nullptr ? *traced_ : testbed_->cluster();
    const bool chaos = !spec_.faults.empty();
    PassClock clock(tracer, out);

    fleet::FaultPlan plan;
    const workload::QueryTrace trace =
        Step(tracer, clock.root(), "workload.gen", &layers.gen_s, [&] {
          workload::QueryTrace t =
              testbed_->GenerateFleetTrace(rate_, opt.queries, opt.seed);
          if (chaos) {
            plan = testbed_->ResolveFaults(fleet::ParseFaultRef(spec_.faults),
                                           t);
          }
          return t;
        });

    fleet::TraceSplit split;
    if (!chaos) {
      split = Step(tracer, clock.root(), "fleet.split", &layers.split_s, [&] {
        const auto router = cluster.MakeFleetRouter();
        return fleet::SplitTrace(trace, *router, cluster.placement(),
                                 opt.jobs);
      });
    }

    fleet::FleetResult result;
    {
      const double cpu0 = ProcessCpuSec();
      const double thread_cpu0 = ThreadCpuSec();
      const int span = tracer ? tracer->Open("sim.simulate", clock.root()) : -1;
      std::optional<SchedProbe> probe;
      if (tracer != nullptr) {
        // SimulateWithFaults keeps every scheduler alive for the whole
        // call, so its scheduler lifetimes say nothing per server.
        probe.emplace(tracer, span, /*server_spans=*/!chaos);
        probe_ = &*probe;
      }
      if (!chaos) {
        result = cluster.SimulateSplit(split, opt.jobs);
      } else {
        const fleet::ReplanFn base = testbed_->MakeReplanFn();
        fleet::ReplanFn replan = base;
        double replan_cpu = 0.0;
        if (tracer != nullptr) {
          // SimulateWithFaults calls the hook serially, from this thread.
          replan = [&](int server, const std::vector<int>& down) {
            const double t0 = tracer->Now();
            const double c0 = ThreadCpuSec();
            std::vector<int> layout = base(server, down);
            replan_cpu += ThreadCpuSec() - c0;
            ++layers.replans;
            tracer->Record("online.replan", t0, tracer->Now(), span);
            return layout;
          };
        }
        result = fleet::SimulateWithFaults(cluster, trace, plan, opt.jobs,
                                           plan.repartition ? replan
                                                            : fleet::ReplanFn{});
        layers.replan_s = replan_cpu;
        // SimulateWithFaults' own serial work runs on this thread while the
        // engines advance on pool threads.
        layers.failover_self_s = ThreadCpuSec() - thread_cpu0 - replan_cpu;
      }
      if (tracer != nullptr) {
        tracer->Close(span);
        layers.simulate_s = tracer->Duration(span);
        layers.simulate_self_s = tracer->SelfTime(span);
        layers.sim_cpu_s = ProcessCpuSec() - cpu0;
        layers.sched = probe->totals();
        layers.server_s = probe->server_seconds();
        probe_ = nullptr;
      }
    }
    split = fleet::TraceSplit{};  // dead once simulated

    const double stats_cpu0 = ProcessCpuSec();
    const fleet::FleetStats stats =
        Step(tracer, clock.root(), "stats.reduce", &layers.stats_s, [&] {
          return result.Stats(testbed_->sla_target(), kWarmup, opt.jobs);
        });
    layers.stats_cpu_s = ProcessCpuSec() - stats_cpu0;
    Step(tracer, clock.root(), "core.report", &layers.report_s,
         [&] { return WriteReport(opt.report_path, core::ToJson(stats)); });
    clock.Finish();

    if (opt.tamper) Tamper(result.per_server.front().records);
    std::vector<RecordView> views;
    views.reserve(result.per_server.size());
    for (std::size_t s = 0; s < result.per_server.size(); ++s) {
      views.push_back({&result.per_server[s].records,
                       result.GlobalIds(static_cast<int>(s))});
    }
    const ReportedCounts reported{result.fault.completed, result.fault.failed,
                                  result.fault.shed};
    out.outcome = Evaluate(trace, views, testbed_->sla_target(), kWarmup,
                           chaos ? &reported : nullptr);
    out.offered_qps = trace.OfferedQps();
    out.utilization = stats.aggregate.mean_worker_utilization;
    out.model_swap_share =
        stats.aggregate.completed > 0
            ? static_cast<double>(stats.aggregate.model_swaps) /
                  static_cast<double>(stats.aggregate.completed)
            : 0.0;
    std::size_t busiest = 0;
    for (std::size_t s = 0; s + 1 < result.id_offsets.size(); ++s) {
      busiest = std::max(busiest,
                         result.id_offsets[s + 1] - result.id_offsets[s]);
    }
    const double mean = static_cast<double>(result.id_offsets.back()) /
                        static_cast<double>(kServers);
    out.route_imbalance = mean > 0.0 ? static_cast<double>(busiest) / mean : 0.0;
    for (const auto& sp : testbed_->placement().servers()) {
      out.partitions += static_cast<int>(sp.partition_gpcs.size());
    }
    out.fault = result.fault;
    return out;
  }

 private:
  static constexpr int kServers = 100;
  FleetSpec spec_;
  double rate_;
  std::unique_ptr<core::FleetTestbed> testbed_;
  std::unique_ptr<fleet::Cluster> traced_;
  // The probe of the traced pass in flight; read by the traced cluster's
  // factory on pool threads, set before and cleared after the simulate
  // call that spawns them.
  SchedProbe* probe_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "server-knee") return std::make_unique<ServerKnee>();
  if (name == "fleet-steady") {
    return std::make_unique<Fleet>(
        FleetSpec{"fleet-steady", 8, 300.0, 500'000, ""});
  }
  if (name == "fleet-chaos") {
    // Two models per server; half the fleet crashes a quarter into the
    // 25 s trace and stays down for 7 s.
    return std::make_unique<Fleet>(
        FleetSpec{"fleet-chaos", 50, 400.0, 1'000'000,
                  "serverloss:count=50,down-ms=7000,deadline-ms=250"});
  }
  return nullptr;
}

}  // namespace perfbench
