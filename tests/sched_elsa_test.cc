#include "sched/elsa.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "one_model.h"
#include "profile/model_repertoire.h"
#include "sched/baselines.h"

namespace pe::sched {
namespace {

// The ELSA and GreedyFastest cases run on testing::ToyModel(): GPU(1)
// estimates 10 ms and GPU(7) 2 ms, any batch.
workload::Query Q(int batch) {
  workload::Query q;
  q.batch = batch;
  return q;
}

WorkerState W(int index, int gpcs, SimTime wait) {
  WorkerState w;
  w.index = index;
  w.gpcs = gpcs;
  w.idle = (wait == 0);
  w.wait_ticks = wait;
  return w;
}

TEST(Elsa, DoesNotUseCentralQueue) {
  const auto rep = testing::ToyModel();
  ElsaScheduler s(rep, MsToTicks(15.0));
  EXPECT_FALSE(s.UsesCentralQueue());
  EXPECT_EQ(s.name(), "ELSA");
}

TEST(Elsa, StepAPrefersSmallestWithSlack) {
  const auto rep = testing::ToyModel();
  // SLA 15 ms; idle small partition: slack = 15 - 10 > 0 -> pick it even
  // though the large one is also idle and faster.
  ElsaScheduler s(rep, MsToTicks(15.0));
  const std::vector<WorkerState> workers = {W(0, 1, 0), W(1, 7, 0)};
  EXPECT_EQ(s.OnQueryArrival(Q(8), workers), 0);
}

TEST(Elsa, SkipsSmallWhenSlackInsufficient) {
  const auto rep = testing::ToyModel();
  // SLA 8 ms: small takes 10 ms -> violates; large takes 2 ms -> fits.
  ElsaScheduler s(rep, MsToTicks(8.0));
  const std::vector<WorkerState> workers = {W(0, 1, 0), W(1, 7, 0)};
  EXPECT_EQ(s.OnQueryArrival(Q(8), workers), 1);
}

TEST(Elsa, AccountsForQueueWait) {
  const auto rep = testing::ToyModel();
  // SLA 15 ms.  Small partition has 6 ms of queued work: 6 + 10 > 15 ->
  // overloaded; large partition with 1 ms wait: 1 + 2 < 15 -> chosen.
  ElsaScheduler s(rep, MsToTicks(15.0));
  const std::vector<WorkerState> workers = {W(0, 1, MsToTicks(6.0)),
                                            W(1, 7, MsToTicks(1.0))};
  EXPECT_EQ(s.OnQueryArrival(Q(8), workers), 1);
}

TEST(Elsa, StepBMinimizesCompletionWhenNoSlack) {
  const auto rep = testing::ToyModel();
  // SLA 1 ms: nothing fits.  Completion times: small 0+10, large 5+2 ->
  // large wins.
  ElsaScheduler s(rep, MsToTicks(1.0));
  const std::vector<WorkerState> workers = {W(0, 1, 0),
                                            W(1, 7, MsToTicks(5.0))};
  EXPECT_EQ(s.OnQueryArrival(Q(8), workers), 1);
}

TEST(Elsa, StepBPicksSmallIfItCompletesSooner) {
  const auto rep = testing::ToyModel();
  // SLA 1 ms; large is backed up by 20 ms: small 10 < large 22.
  ElsaScheduler s(rep, MsToTicks(1.0));
  const std::vector<WorkerState> workers = {W(0, 1, 0),
                                            W(1, 7, MsToTicks(20.0))};
  EXPECT_EQ(s.OnQueryArrival(Q(8), workers), 0);
}

TEST(Elsa, VisitsWorkersInSizeOrderNotIndexOrder) {
  const auto rep = testing::ToyModel();
  ElsaScheduler s(rep, MsToTicks(15.0));
  // Large partition listed first; ELSA must still prefer the small one.
  const std::vector<WorkerState> workers = {W(0, 7, 0), W(1, 1, 0)};
  EXPECT_EQ(s.OnQueryArrival(Q(8), workers), 1);
}

TEST(Elsa, AlphaScalesAggressiveness) {
  const auto rep = testing::ToyModel();
  // With alpha = 2, the small partition's effective cost doubles: 2*10 > 15
  // -> falls through to the large one.
  ElsaParams params;
  params.alpha = 2.0;
  ElsaScheduler s(rep, MsToTicks(15.0), params);
  const std::vector<WorkerState> workers = {W(0, 1, 0), W(1, 7, 0)};
  EXPECT_EQ(s.OnQueryArrival(Q(8), workers), 1);
}

TEST(Elsa, BetaWeightsNewQueryTerm) {
  const auto rep = testing::ToyModel();
  // beta = 0 ignores the query's own execution time: slack = 15 - wait.
  ElsaParams params;
  params.beta = 0.0;
  ElsaScheduler s(rep, MsToTicks(15.0), params);
  // Small has 14 ms queued: slack = 1 > 0 -> still chosen (beta=0 blind).
  const std::vector<WorkerState> workers = {W(0, 1, MsToTicks(14.0)),
                                            W(1, 7, 0)};
  EXPECT_EQ(s.OnQueryArrival(Q(8), workers), 0);
}

TEST(Elsa, SlackSecMatchesEquation2) {
  const auto rep = testing::ToyModel();
  ElsaParams params;
  params.alpha = 1.5;
  params.beta = 2.0;
  ElsaScheduler s(rep, MsToTicks(20.0), params);
  const WorkerState w = W(0, 1, MsToTicks(3.0));
  // slack = 20 - 1.5 * (3 + 2 * 10) = 20 - 34.5 = -14.5 ms.
  EXPECT_NEAR(s.SlackSec(w, 0, 8), -14.5e-3, 1e-9);
}

TEST(Elsa, SwapCostChargesOnlySwapNeedingWorkers) {
  const auto rep = testing::ToyModel();
  ElsaParams params;
  params.swap_cost_sec = 4e-3;  // 4 ms weight re-load
  ElsaScheduler s(rep, MsToTicks(20.0), params);
  // Resident model matches (or was never loaded): no charge.
  WorkerState fresh = W(0, 1, MsToTicks(3.0));
  EXPECT_NEAR(s.SlackSec(fresh, /*model_id=*/0, 8), (20.0 - 13.0) * 1e-3,
              1e-9);
  WorkerState resident = fresh;
  resident.resident_model = 0;
  EXPECT_NEAR(s.SlackSec(resident, 0, 8), (20.0 - 13.0) * 1e-3, 1e-9);
  // A different resident model pays Tswap inside the alpha term:
  // slack = 20 - (3 + 4 + 10) = 3 ms.
  WorkerState swapping = fresh;
  swapping.resident_model = 1;
  EXPECT_NEAR(s.SlackSec(swapping, 0, 8), 3e-3, 1e-9);
}

TEST(Elsa, SwapCostZeroIsBitIdenticalToLegacyPredictor) {
  const auto rep = testing::ToyModel();
  ElsaScheduler legacy(rep, MsToTicks(20.0));
  ElsaParams params;
  params.swap_cost_sec = 0.0;
  ElsaScheduler zero(rep, MsToTicks(20.0), params);
  WorkerState w = W(0, 1, MsToTicks(3.0));
  w.resident_model = 1;
  // Exact equality on purpose: 0 must restore the swap-oblivious
  // predictor bit for bit (the guarantee engine_golden_test leans on).
  EXPECT_EQ(zero.SlackSec(w, 0, 8), legacy.SlackSec(w, 0, 8));
}

TEST(Elsa, SwapCostRedirectsStepA) {
  const auto rep = testing::ToyModel();
  // SLA 14 ms.  Small idle partition with the query's model resident:
  // slack = 14 - 10 > 0.  Same-size partition holding the other model
  // pays 5 ms swap: slack = 14 - 15 < 0.  With the charge, ELSA must
  // skip the swap-needing worker it would otherwise bind (lower index).
  ElsaParams params;
  params.swap_cost_sec = 5e-3;
  ElsaScheduler s(rep, MsToTicks(14.0), params);
  WorkerState needs_swap = W(0, 1, 0);
  needs_swap.resident_model = 1;
  WorkerState warm = W(1, 1, 0);
  warm.resident_model = 0;
  const std::vector<WorkerState> workers = {needs_swap, warm};
  workload::Query q = Q(8);
  q.model_id = 0;
  EXPECT_EQ(s.OnQueryArrival(q, workers), 1);
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Constructs ELSA with `params` and returns the std::invalid_argument
// message, or "" when construction succeeds.
std::string Rejection(const ElsaParams& params, SimTime sla = MsToTicks(15.0)) {
  const auto rep = testing::ToyModel();
  try {
    ElsaScheduler s(rep, sla, params);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Elsa, RejectsNonPositiveSla) {
  EXPECT_NE(Rejection(ElsaParams{}, 0).find("sla_target"), std::string::npos);
  EXPECT_NE(Rejection(ElsaParams{}, -1).find("sla_target"), std::string::npos);
}

TEST(Elsa, RejectsNegativeOrNonFiniteAlpha) {
  for (const double bad : {-0.5, kInf, kNaN}) {
    ElsaParams params;
    params.alpha = bad;
    EXPECT_NE(Rejection(params).find("alpha"), std::string::npos) << bad;
  }
}

TEST(Elsa, RejectsNegativeOrNonFiniteBeta) {
  for (const double bad : {-1.0, kInf, kNaN}) {
    ElsaParams params;
    params.beta = bad;
    EXPECT_NE(Rejection(params).find("beta"), std::string::npos) << bad;
  }
}

TEST(Elsa, RejectsNegativeOrNonFiniteSwapCost) {
  for (const double bad : {-1e-3, kInf, kNaN}) {
    ElsaParams params;
    params.swap_cost_sec = bad;
    EXPECT_NE(Rejection(params).find("swap_cost"), std::string::npos) << bad;
  }
}

TEST(Elsa, RejectsNegativeOrNonFiniteLocalityTie) {
  for (const double bad : {-1e-3, kInf, kNaN}) {
    ElsaParams params;
    params.locality_tie_sec = bad;
    EXPECT_NE(Rejection(params).find("locality_tie"), std::string::npos) << bad;
  }
}

TEST(Elsa, RejectsEmptyRepertoire) {
  const profile::ModelRepertoire empty;
  EXPECT_THROW(ElsaScheduler(empty, MsToTicks(15.0)), std::invalid_argument);
}

TEST(Elsa, AcceptsTheBoundaryValues) {
  ElsaParams params;
  params.alpha = 0.0;
  params.beta = 0.0;
  params.swap_cost_sec = 0.0;
  params.locality_tie_sec = 0.0;
  EXPECT_EQ(Rejection(params, 1), "");
}

TEST(Elsa, StepAAgreesWithSlackSecAroundTheThreshold) {
  // SLA 15 ms, GPU(1) estimate 10 ms: the small partition has positive
  // slack up to a wait of about 5 ms.  Around that boundary, tick by tick,
  // ELSA binds to it exactly when SlackSec says its slack is positive.
  const auto rep = testing::ToyModel();
  for (const double alpha : {1.0, 0.7, 1.3}) {
    ElsaParams params;
    params.alpha = alpha;
    ElsaScheduler s(rep, MsToTicks(15.0), params);
    const SimTime edge = SecToTicks(15e-3 / alpha - 10e-3);
    for (SimTime wait = edge - 4; wait <= edge + 4; ++wait) {
      const std::vector<WorkerState> workers = {W(0, 1, wait), W(1, 7, 0)};
      const int want = s.SlackSec(workers[0], 0, 8) > 0.0 ? 0 : 1;
      EXPECT_EQ(s.OnQueryArrival(Q(8), workers), want)
          << "alpha " << alpha << " wait " << wait;
    }
  }
}

// The largest wait at which SlackSec gives `w` positive slack for
// (model_id, batch), or -1 if none: a bisection over SlackSec alone.
SimTime LastPositiveWait(const ElsaScheduler& s, WorkerState w, int model_id,
                         int batch) {
  const auto positive = [&](SimTime wait) {
    w.wait_ticks = wait;
    return s.SlackSec(w, model_id, batch) > 0.0;
  };
  SimTime lo = 0;
  SimTime hi = std::numeric_limits<SimTime>::max();
  if (!positive(lo)) return -1;
  if (positive(hi)) return hi;
  while (hi - lo > 1) {
    const SimTime mid = lo + (hi - lo) / 2;
    (positive(mid) ? lo : hi) = mid;
  }
  return lo;
}

TEST(Elsa, ThresholdTableFlipsWhereSlackSecDoesForEveryZooKey) {
  // One scheduler per swap setting, so its threshold table carries every
  // (model, size, batch) key filled before.  Worker 0 binds exactly while
  // its wait is at most T -- T(0), or T(swap) when the query would
  // displace its resident model -- and the swap-free worker 1 takes the
  // query one tick later; the first arrival at T fills the key and the
  // rest read it.
  const auto rep = profile::BuildZooRepertoire(
      {"shufflenet", "mobilenet", "resnet", "bert", "conformer"});
  int flips = 0;
  for (const double swap_sec : {0.0, 2e-3}) {
    ElsaParams params;
    params.swap_cost_sec = swap_sec;
    ElsaScheduler s(rep, MsToTicks(30.0), params);
    for (int m = 0; m < rep.size(); ++m) {
      const profile::ProfileTable& table = rep.profile(m);
      for (const int gpcs : table.partition_sizes()) {
        for (int batch = 0; batch <= table.max_batch(); ++batch) {
          WorkerState first = W(0, gpcs, 0);
          first.resident_model = swap_sec > 0.0 ? m + 1 : m;
          const SimTime t = LastPositiveWait(s, first, m, batch);
          if (t < 0 || t == std::numeric_limits<SimTime>::max()) continue;
          workload::Query q = Q(batch);
          q.model_id = m;
          for (int arrival = 0; arrival < 2; ++arrival) {
            for (const SimTime wait : {t, t + 1}) {
              first.wait_ticks = wait;
              first.idle = false;
              const std::vector<WorkerState> workers = {first, W(1, gpcs, 0)};
              EXPECT_EQ(s.OnQueryArrival(q, workers), wait == t ? 0 : 1)
                  << table.model_name() << " gpcs " << gpcs << " batch "
                  << batch << " swap " << swap_sec << " wait " << wait;
            }
          }
          ++flips;
        }
      }
    }
  }
  EXPECT_GT(flips, 1000);
}

TEST(Elsa, ThresholdTableKeysOffTheGridBehaveAsTheProfileDoes) {
  // An unprofiled size throws the profile's std::out_of_range, inside the
  // table's grid (5 GPCs) and past it (9), on every arrival; a batch past
  // the largest profiled one costs that batch's estimate, as the profile
  // lookup clamps it.
  const auto rep = profile::BuildZooRepertoire({"resnet"});
  ElsaScheduler s(rep, MsToTicks(200.0));
  for (const int gpcs : {5, 9}) {
    for (int arrival = 0; arrival < 2; ++arrival) {
      const std::vector<WorkerState> workers = {W(0, gpcs, 0)};
      EXPECT_THROW(s.OnQueryArrival(Q(8), workers), std::out_of_range)
          << "gpcs " << gpcs;
    }
  }
  const int past = rep.max_batch() + 1;
  const SimTime t = LastPositiveWait(s, W(0, 7, 0), 0, past);
  ASSERT_GT(t, 0);
  EXPECT_EQ(t, LastPositiveWait(s, W(0, 7, 0), 0, rep.max_batch()));
  for (int arrival = 0; arrival < 2; ++arrival) {
    for (const SimTime wait : {t, t + 1}) {
      const std::vector<WorkerState> workers = {W(0, 7, wait), W(1, 7, 0)};
      EXPECT_EQ(s.OnQueryArrival(Q(past), workers), wait == t ? 0 : 1)
          << "wait " << wait;
    }
  }
}

TEST(Elsa, StepBBreaksCompletionTiesTowardTheFirstWorker) {
  // Waits past 2^53 ns differ by less than one ulp of their completion
  // in seconds: both partitions complete at the same double, and the
  // first in (gpcs, index) order wins although it waits one tick longer.
  const auto rep = testing::ToyModel();
  ElsaScheduler s(rep, MsToTicks(1.0));
  const SimTime base = SimTime{1} << 60;
  const std::vector<WorkerState> workers = {W(0, 1, base + 1), W(1, 1, base)};
  EXPECT_EQ(s.OnQueryArrival(Q(8), workers), 0);
}

TEST(Elsa, SkipsFailedWorkersEvenWithUnboundedSlack) {
  const auto rep = testing::ToyModel();
  ElsaParams params;
  params.alpha = 0.0;  // every wait has slack: the threshold is unbounded
  ElsaScheduler s(rep, MsToTicks(15.0), params);
  WorkerState dead = W(0, 1, 0);
  dead.failed = true;
  dead.idle = false;
  const SimTime huge = std::numeric_limits<SimTime>::max() / 2;
  const std::vector<WorkerState> workers = {dead, W(1, 1, huge), W(2, 7, 0)};
  EXPECT_EQ(s.OnQueryArrival(Q(8), workers), 1);
  dead.index = 1;
  const std::vector<WorkerState> small_dead = {W(0, 7, 0), dead};
  EXPECT_EQ(s.OnQueryArrival(Q(8), small_dead), 0);
}

// Claims stable() -- positions in (gpcs, index) order -- but is not.
class MisorderedStableView final : public WorkerView {
 public:
  explicit MisorderedStableView(std::vector<WorkerState> states)
      : states_(std::move(states)) {}
  std::size_t size() const override { return states_.size(); }
  const WorkerState& Get(std::size_t i) const override { return states_[i]; }
  bool stable() const override { return true; }
  std::uint64_t layout_version() const override { return 1; }

 private:
  std::vector<WorkerState> states_;
};

TEST(Elsa, RejectsAStableViewOutOfOrder) {
  const auto rep = testing::ToyModel();
  ElsaScheduler s(rep, MsToTicks(15.0));
  const MisorderedStableView larger_first({W(0, 7, 0), W(1, 1, 0)});
  EXPECT_THROW(s.OnQueryArrival(Q(8), larger_first), std::logic_error);
  const MisorderedStableView renumbered({W(1, 1, 0), W(0, 7, 0)});
  EXPECT_THROW(s.OnQueryArrival(Q(8), renumbered), std::logic_error);
}

TEST(GreedyFastest, IsElsaStepBOnly) {
  const auto rep = testing::ToyModel();
  GreedyFastestScheduler s(rep);
  // Both idle: large (2 ms) beats small (10 ms) -- no utilization
  // preference, unlike ELSA Step A.
  const std::vector<WorkerState> workers = {W(0, 1, 0), W(1, 7, 0)};
  EXPECT_EQ(s.OnQueryArrival(Q(8), workers), 1);
}

TEST(GreedyFastest, CostsEachQueryWithItsOwnModel) {
  // Model 0 is the toy (10 / 2 ms); model 1 costs 1 ms on either size.
  profile::ModelRepertoire rep = testing::ToyModel();
  profile::ProfileTable flat("flat", {1, 7}, {32});
  flat.Set(1, 32, {1e-3, 0.9});
  flat.Set(7, 32, {1e-3, 0.5});
  rep.Register("flat", flat, [](int, int) { return 1e-3; });
  GreedyFastestScheduler s(rep);
  const std::vector<WorkerState> workers = {W(0, 1, 0),
                                            W(1, 7, MsToTicks(5.0))};
  workload::Query q = Q(8);
  // Model 0: 0 + 10 ms on GPU(1) vs 5 + 2 ms on GPU(7).
  EXPECT_EQ(s.OnQueryArrival(q, workers), 1);
  // Model 1: 0 + 1 ms vs 5 + 1 ms.  Costed as model 0 it would go to
  // GPU(7) too.
  q.model_id = 1;
  EXPECT_EQ(s.OnQueryArrival(q, workers), 0);
}

TEST(Jsq, PicksShortestQueue) {
  JsqScheduler s;
  const std::vector<WorkerState> workers = {W(0, 1, MsToTicks(4.0)),
                                            W(1, 7, MsToTicks(9.0))};
  EXPECT_EQ(s.OnQueryArrival(Q(8), workers), 0);
  EXPECT_FALSE(s.UsesCentralQueue());
}

TEST(Jsq, TakesTheFirstShortestAndSkipsFailedWorkers) {
  JsqScheduler s;
  WorkerState dead = W(0, 1, 0);
  dead.failed = true;
  const std::vector<WorkerState> workers = {
      dead, W(1, 7, MsToTicks(3.0)), W(2, 1, MsToTicks(2.0)),
      W(3, 2, MsToTicks(2.0))};
  EXPECT_EQ(s.OnQueryArrival(Q(8), workers), 2);
  const std::vector<WorkerState> all_dead = {dead};
  EXPECT_EQ(s.OnQueryArrival(Q(8), all_dead), kNoAssignment);
}

}  // namespace
}  // namespace pe::sched
