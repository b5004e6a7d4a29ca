// Determinism contract of the parallel experiment engine: every fan-out
// entry point must produce bit-identical results for any SearchOptions.jobs
// value, because each probe runs a fresh scheduler + seeded RNG and shares
// no mutable state.  threads=1 is the reference serial loop.
#include "core/experiment.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace pe::core {
namespace {

const MixTestbed& MobilenetTb() {
  static const MixTestbed tb{Table1Config("mobilenet")};
  return tb;
}

SearchOptions FastSearch(int jobs) {
  SearchOptions o;
  o.num_queries = 600;
  o.iterations = 4;
  o.jobs = jobs;
  return o;
}

int HardwareJobs() {
  return static_cast<int>(ThreadPool::DefaultThreads());
}

// Bit-identical, not approximately-equal: memcmp the raw double bytes so
// even a last-ulp divergence between the serial and parallel paths fails.
void ExpectBitIdentical(const ThroughputResult& a, const ThroughputResult& b) {
  EXPECT_EQ(std::memcmp(&a.qps, &b.qps, sizeof(a.qps)), 0);
  EXPECT_EQ(std::memcmp(&a.p95_at_qps_ms, &b.p95_at_qps_ms,
                        sizeof(a.p95_at_qps_ms)),
            0);
}

TEST(ParallelExperiment, BestHomogeneousIsThreadCountInvariant) {
  const auto& tb = MobilenetTb();
  const double sla_ms = TicksToMs(tb.sla_target());
  const auto serial =
      BestHomogeneous(tb, SchedulerKind::kFifs, sla_ms, FastSearch(1));
  const auto parallel = BestHomogeneous(tb, SchedulerKind::kFifs, sla_ms,
                                        FastSearch(HardwareJobs()));
  EXPECT_EQ(serial.partition_gpcs, parallel.partition_gpcs);
  EXPECT_EQ(std::memcmp(&serial.qps, &parallel.qps, sizeof(serial.qps)), 0);
}

TEST(ParallelExperiment, TailLatencyCurveIsThreadCountInvariant) {
  const auto& tb = MobilenetTb();
  const auto plan = tb.PlanHomogeneous(7);
  const double sla_ms = TicksToMs(tb.sla_target());
  const std::vector<double> fractions = {0.5, 0.8, 1.0, 1.2};
  const auto serial = TailLatencyCurve(tb, plan, SchedulerKind::kFifs,
                                       fractions, sla_ms, FastSearch(1));
  const auto parallel =
      TailLatencyCurve(tb, plan, SchedulerKind::kFifs, fractions, sla_ms,
                       FastSearch(HardwareJobs()));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(std::memcmp(&serial[i], &parallel[i], sizeof(RatePoint)), 0)
        << "sweep point " << i << " diverged between jobs=1 and jobs="
        << HardwareJobs();
  }
}

TEST(ParallelExperiment, BatchMatchesSerialLatencyBoundedThroughput) {
  const auto& tb = MobilenetTb();
  const double sla_ms = TicksToMs(tb.sla_target());
  std::vector<ProbeSpec> specs;
  for (int size : {7, 3, 1}) {
    specs.push_back({"GPU(" + std::to_string(size) + ")",
                     tb.PlanHomogeneous(size), SchedulerKind::kFifs,
                     sched::ElsaParams{}});
  }
  specs.push_back({"PARIS+ELSA", tb.PlanMixed().plan, SchedulerKind::kElsa,
                   sched::ElsaParams{}});

  const auto batch = LatencyBoundedThroughputBatch(tb, specs, sla_ms,
                                                   FastSearch(HardwareJobs()));
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto reference =
        LatencyBoundedThroughput(tb, specs[i].plan, specs[i].kind, sla_ms,
                                 FastSearch(1), specs[i].elsa);
    ExpectBitIdentical(batch[i], reference);
  }
}

TEST(ParallelExperiment, RepeatedParallelRunsAreIdentical) {
  const auto& tb = MobilenetTb();
  const double sla_ms = TicksToMs(tb.sla_target());
  const auto plan = tb.PlanMixed().plan;
  const auto a = LatencyBoundedThroughput(tb, plan, SchedulerKind::kElsa,
                                          sla_ms, FastSearch(HardwareJobs()));
  const auto b = LatencyBoundedThroughput(tb, plan, SchedulerKind::kElsa,
                                          sla_ms, FastSearch(HardwareJobs()));
  ExpectBitIdentical(a, b);
}

}  // namespace
}  // namespace pe::core
