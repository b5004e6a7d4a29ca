// MixTestbed end-to-end tests on a multi-model mix.  The one-model case
// (a Table-I server) is pinned by core_testbed_test and by the engine
// golden digests.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/mix_runner.h"
#include "golden_digest.h"

namespace pe::core {
namespace {

TEST(MixTestbed, RejectsDegenerateConfigs) {
  EXPECT_THROW(MixTestbed{MixConfig{}}, std::invalid_argument);
  MixConfig dup;
  dup.models.push_back({"resnet", 0.5, 6.0, 0.9});
  dup.models.push_back({"resnet", 0.5, 6.0, 0.9});
  EXPECT_THROW(MixTestbed{dup}, std::invalid_argument);
  MixConfig negative;
  negative.models.push_back({"resnet", 1.0, 6.0, 0.9});
  negative.swap_cost_us = -1.0;
  EXPECT_THROW(MixTestbed{negative}, std::invalid_argument);
}

// The error a config is rejected with, or "" when it is accepted.
std::string RejectionOf(const MixConfig& config) {
  try {
    MixTestbed tb(config);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(MixTestbed, RejectsBadSharesAndDurationsNamingTheField) {
  MixConfig base;
  base.models.push_back({"resnet", 0.5, 6.0, 0.9});
  base.models.push_back({"mobilenet", 0.5, 4.0, 0.9});

  MixConfig negative_share = base;
  negative_share.models[1].share = -0.5;
  EXPECT_NE(RejectionOf(negative_share).find("negative share for mobilenet"),
            std::string::npos);
  MixConfig zero_shares = base;
  zero_shares.models[0].share = 0.0;
  zero_shares.models[1].share = 0.0;
  EXPECT_NE(RejectionOf(zero_shares).find("shares sum to zero"),
            std::string::npos);

  // Finite values past 2^63 ns used to wrap: a 1e300 us swap charge went
  // negative and shortened service, and a 1e300 x SLA became a negative
  // target that every query violated.
  MixConfig huge_swap = base;
  huge_swap.swap_cost_us = 1e300;
  EXPECT_NE(RejectionOf(huge_swap).find("swap_cost_us overflows"),
            std::string::npos);
  MixConfig huge_sla = base;
  huge_sla.sla_n = 1e300;
  EXPECT_NE(RejectionOf(huge_sla).find("sla_n 1e+300"), std::string::npos);

  // The largest swap charge that fits is accepted, in ticks.
  MixConfig big_swap = base;
  big_swap.swap_cost_us = 9.2e15;
  EXPECT_EQ(RejectionOf(big_swap), "");
  EXPECT_EQ(MixTestbed(big_swap).swap_cost(), UsToTicks(9.2e15));
}

TEST(MixTestbed, TwoModelMixServesBothWithinPlan) {
  MixConfig mc;
  mc.models.push_back({"resnet", 0.6, 6.0, 0.9});
  mc.models.push_back({"mobilenet", 0.4, 4.0, 0.9});
  mc.swap_cost_us = 500.0;
  const MixTestbed tb(mc);
  ASSERT_EQ(tb.num_models(), 2);

  const auto mixed = tb.PlanMixed();
  EXPECT_EQ(mixed.budgets.size(), 2u);
  EXPECT_LE(mixed.plan.TotalGpcs(), mc.gpc_budget);

  const auto trace = tb.GenerateMix(250.0, 2000, /*seed=*/3);
  for (const auto& q : trace.queries()) {
    ASSERT_TRUE(q.model_id == 0 || q.model_id == 1) << q.model_id;
  }
  auto scheduler = tb.MakeScheduler(SchedulerKind::kElsa);
  const auto result =
      tb.Run(mixed.plan.instance_gpcs, *scheduler, trace, /*seed=*/3);
  const auto stats = result.Stats(tb.sla_target(), /*warmup_fraction=*/0.0);

  EXPECT_EQ(stats.completed, trace.size());
  ASSERT_EQ(stats.models.size(), 2u);
  EXPECT_GT(stats.models[0].completed, 0u);
  EXPECT_GT(stats.models[1].completed, 0u);
  EXPECT_EQ(stats.models[0].completed + stats.models[1].completed,
            stats.completed);
  // Interleaved traffic on shared partitions must have displaced models.
  EXPECT_GT(stats.model_swaps, 0u);
}

TEST(MixTestbed, GenerateMixMatchesCheckedInDigest) {
  // The benchmark's four-model mix (equal shares, the paper's log-normal
  // batch defaults) at its fleet rate: the traffic every fleet pass
  // generates, pinned by a digest of 100,000 queries.
  MixConfig mc;
  for (const char* name : {"resnet", "mobilenet", "bert", "shufflenet"}) {
    MixModelConfig m;
    m.model = name;
    m.share = 0.25;
    mc.models.push_back(m);
  }
  const MixTestbed tb(mc);
  testing::ExpectDigest(
      testing::DigestTrace(tb.GenerateMix(30'000.0, 100'000, /*seed=*/1)),
      0xc1cb4f69f07585aa, "four-model GenerateMix");
}

}  // namespace
}  // namespace pe::core
