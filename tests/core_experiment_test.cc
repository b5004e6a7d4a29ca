#include "core/experiment.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace pe::core {
namespace {

const MixTestbed& MobilenetTb() {
  static const MixTestbed tb{Table1Config("mobilenet")};
  return tb;
}

SearchOptions FastSearch() {
  SearchOptions o;
  o.num_queries = 1500;
  o.iterations = 6;
  return o;
}

TEST(LatencyBoundedThroughput, PositiveForFeasibleDesign) {
  const auto& tb = MobilenetTb();
  const auto plan = tb.PlanHomogeneous(7);
  const auto r = LatencyBoundedThroughput(tb, plan, SchedulerKind::kFifs,
                                          TicksToMs(tb.sla_target()),
                                          FastSearch());
  EXPECT_GT(r.qps, 10.0);
  EXPECT_LE(r.p95_at_qps_ms, TicksToMs(tb.sla_target()));
}

TEST(LatencyBoundedThroughput, ZeroForImpossibleBound) {
  const auto& tb = MobilenetTb();
  const auto plan = tb.PlanHomogeneous(7);
  // A 1 us bound is unachievable even unloaded.
  const auto r = LatencyBoundedThroughput(tb, plan, SchedulerKind::kFifs,
                                          1e-3, FastSearch());
  EXPECT_EQ(r.qps, 0.0);
}

// What `fn` throws as std::invalid_argument ("" when it returns).
template <typename Fn>
std::string InvalidArgument(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// An empty probe has p95 0, so the bracket used to grow until the search
// returned max_rate_qps (1,000,000 q/s) for any design.
TEST(LatencyBoundedThroughput, RejectsZeroQueriesNamingTheField) {
  const auto& tb = MobilenetTb();
  const auto plan = tb.PlanHomogeneous(7);
  const double sla_ms = TicksToMs(tb.sla_target());
  SearchOptions empty = FastSearch();
  empty.num_queries = 0;
  EXPECT_NE(InvalidArgument([&] {
              LatencyBoundedThroughput(tb, plan, SchedulerKind::kFifs, sla_ms,
                                       empty);
            }).find("num_queries"),
            std::string::npos);
  // The fan-out entry points search through it.
  EXPECT_NE(InvalidArgument([&] {
              BestHomogeneous(tb, SchedulerKind::kFifs, sla_ms, empty);
            }).find("num_queries"),
            std::string::npos);
  EXPECT_NE(InvalidArgument([&] {
              TailLatencyCurve(tb, plan, SchedulerKind::kFifs, {0.5}, sla_ms,
                               empty);
            }).find("num_queries"),
            std::string::npos);
}

// The bound was only assert()ed, so in a release build a NaN bound (never
// exceeded) also returned the rate cap.
TEST(LatencyBoundedThroughput, RejectsNonPositiveOrNonFiniteBound) {
  const auto& tb = MobilenetTb();
  const auto plan = tb.PlanHomogeneous(7);
  for (const double bound : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    EXPECT_NE(InvalidArgument([&] {
                LatencyBoundedThroughput(tb, plan, SchedulerKind::kFifs, bound,
                                         FastSearch());
              }).find("tail_bound_ms"),
              std::string::npos)
        << bound;
  }
}

TEST(LatencyBoundedThroughput, LooserBoundGivesMoreThroughput) {
  const auto& tb = MobilenetTb();
  const auto plan = tb.PlanHomogeneous(7);
  const double sla_ms = TicksToMs(tb.sla_target());
  const auto tight = LatencyBoundedThroughput(
      tb, plan, SchedulerKind::kFifs, sla_ms, FastSearch());
  const auto loose = LatencyBoundedThroughput(
      tb, plan, SchedulerKind::kFifs, 2.0 * sla_ms, FastSearch());
  EXPECT_GE(loose.qps, tight.qps);
}

TEST(LatencyBoundedThroughput, ParisElsaBeatsGpu7Fifs) {
  // The paper's headline Figure 12 comparison, for MobileNet.
  const auto& tb = MobilenetTb();
  const double sla_ms = TicksToMs(tb.sla_target());
  const auto base = LatencyBoundedThroughput(
      tb, tb.PlanHomogeneous(7), SchedulerKind::kFifs, sla_ms, FastSearch());
  const auto ours = LatencyBoundedThroughput(
      tb, tb.PlanMixed().plan, SchedulerKind::kElsa, sla_ms, FastSearch());
  EXPECT_GT(ours.qps, base.qps);
}

TEST(TailLatencyCurve, MonotoneDegradationUnderLoad) {
  const auto& tb = MobilenetTb();
  const auto plan = tb.PlanHomogeneous(7);
  const auto curve =
      TailLatencyCurve(tb, plan, SchedulerKind::kFifs, {0.5, 0.9, 1.3},
                       TicksToMs(tb.sla_target()), FastSearch());
  ASSERT_EQ(curve.size(), 3u);
  // p95 grows with offered load.
  EXPECT_LT(curve[0].p95_ms, curve[2].p95_ms);
  // Overload point exceeds the SLA.
  EXPECT_GT(curve[2].p95_ms, TicksToMs(tb.sla_target()));
  for (const auto& p : curve) {
    EXPECT_GT(p.achieved_qps, 0.0);
    EXPECT_GE(p.utilization, 0.0);
    EXPECT_LE(p.utilization, 1.0);
  }
}

TEST(BestHomogeneous, ReturnsValidSizeWithPositiveQps) {
  const auto& tb = MobilenetTb();
  const auto best = BestHomogeneous(tb, SchedulerKind::kFifs,
                                    TicksToMs(tb.sla_target()), FastSearch());
  EXPECT_TRUE(best.partition_gpcs == 1 || best.partition_gpcs == 2 ||
              best.partition_gpcs == 3 || best.partition_gpcs == 7);
  EXPECT_GT(best.qps, 0.0);
}

TEST(BestHomogeneous, BeatsOrMatchesGpu7) {
  const auto& tb = MobilenetTb();
  const double sla_ms = TicksToMs(tb.sla_target());
  const auto best =
      BestHomogeneous(tb, SchedulerKind::kFifs, sla_ms, FastSearch());
  const auto gpu7 = LatencyBoundedThroughput(
      tb, tb.PlanHomogeneous(7), SchedulerKind::kFifs, sla_ms, FastSearch());
  EXPECT_GE(best.qps, gpu7.qps * 0.99);
}

}  // namespace
}  // namespace pe::core
