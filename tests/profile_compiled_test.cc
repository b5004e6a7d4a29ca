// CompiledProfile must be a bit-identical, drop-in compilation of the
// ModelRepertoire lookup surface: same doubles, same snap semantics, same
// error behavior outside the compiled range.
#include "profile/compiled_profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "one_model.h"
#include "profile/model_repertoire.h"
#include "profile/profile_table.h"

namespace pe::profile {
namespace {

ProfileTable MakeTable(const std::string& name, double scale) {
  ProfileTable t(name, {1, 2, 3, 7}, {1, 2, 4, 8, 16, 32});
  for (int g : t.partition_sizes()) {
    for (int b : t.batch_sizes()) {
      ProfileEntry e;
      e.latency_sec = scale * 1e-3 * (1.0 + 0.9 * b) / static_cast<double>(g);
      e.utilization = std::min(1.0, 0.1 * b);
      t.Set(g, b, e);
    }
  }
  return t;
}

ModelRepertoire MakeRepertoire() {
  ModelRepertoire rep;
  int id = 0;
  for (double scale : {1.0, 2.5}) {
    const int captured = id++;
    // Built via += (not `"m" + std::to_string(...)`): GCC-12's -Wrestrict
    // false-positives on operator+(const char*, string&&) in Release.
    std::string name = "m";
    name += std::to_string(captured);
    rep.Register(std::move(name), MakeTable("m", scale),
                 [scale](int gpcs, int batch) {
                   return scale * 1.1e-3 * (1.0 + batch) /
                          static_cast<double>(gpcs);
                 });
  }
  return rep;
}

TEST(CompiledProfile, EstimatesMatchRepertoireBitForBit) {
  const auto rep = MakeRepertoire();
  const CompiledProfile compiled(rep);
  for (int m = 0; m < rep.size(); ++m) {
    for (int g : rep.profile(m).partition_sizes()) {
      // Sweep past the profiled max to exercise snap + clamp.
      for (int b = 1; b <= 40; ++b) {
        EXPECT_EQ(compiled.EstimateSec(m, g, b), rep.EstimateSec(m, g, b))
            << "m=" << m << " g=" << g << " b=" << b;
        EXPECT_EQ(compiled.EstimateTicks(m, g, b),
                  std::max<SimTime>(1, SecToTicks(rep.EstimateSec(m, g, b))))
            << "m=" << m << " g=" << g << " b=" << b;
      }
    }
  }
}

TEST(CompiledProfile, ActualForwardsToTheRepertoireMemo) {
  // Ground truth is memoized in the repertoire, not here: a compiled
  // profile, its repertoire, and a copy of that repertoire all read one
  // memo, so each cell's LatencyFn runs once between them.
  const auto truth = [](int gpcs, int batch) {
    return 1.1e-3 * (1.0 + batch) / static_cast<double>(gpcs);
  };
  const auto calls = std::make_shared<int>(0);
  ModelRepertoire rep;
  rep.Register("m0", MakeTable("m0", 1.0), [truth, calls](int g, int b) {
    ++*calls;
    return truth(g, b);
  });
  const CompiledProfile compiled(rep);
  int cells = 0;
  for (int g = 1; g <= 7; ++g) {
    for (int b : {1, 3, 8, 32}) {
      // Twice: the first call fills the memo, the second serves from it.
      EXPECT_EQ(compiled.ActualSec(0, g, b), truth(g, b));
      EXPECT_EQ(compiled.ActualSec(0, g, b), truth(g, b));
      EXPECT_EQ(*calls, ++cells) << "g=" << g << " b=" << b;
    }
  }
  const ModelRepertoire copy = rep;
  const CompiledProfile from_copy(copy);
  EXPECT_EQ(rep.ActualSec(0, 7, 8), truth(7, 8));
  EXPECT_EQ(copy.ActualSec(0, 3, 32), truth(3, 32));
  EXPECT_EQ(from_copy.ActualSec(0, 2, 1), truth(2, 1));
  EXPECT_EQ(*calls, cells);
  // Outside the memo grid (batch past the largest profiled one) the
  // LatencyFn is called directly, every time.
  EXPECT_EQ(compiled.ActualSec(0, 1, 1000), truth(1, 1000));
  EXPECT_EQ(compiled.ActualSec(0, 1, 1000), truth(1, 1000));
  EXPECT_EQ(*calls, cells + 2);
}

TEST(CompiledProfile, FallbackPreservesErrorBehavior) {
  const auto rep = MakeRepertoire();
  const CompiledProfile compiled(rep);
  // Unprofiled partition size and unknown model throw exactly like the
  // uncompiled path.
  EXPECT_THROW(compiled.EstimateSec(0, 5, 8), std::out_of_range);
  EXPECT_THROW(compiled.EstimateSec(7, 1, 8), std::out_of_range);
  EXPECT_THROW(compiled.EstimateTicks(0, 6, 8), std::out_of_range);
}

TEST(CompiledProfile, SparseTableHolesFallBack) {
  ProfileTable t("sparse", {1, 7}, {8, 32});
  t.Set(1, 8, {2e-3, 0.5});
  t.Set(1, 32, {8e-3, 0.9});
  t.Set(7, 32, {1e-3, 0.4});  // (7, 8) is a hole
  const ModelRepertoire rep =
      testing::OneModel(t, [](int, int) { return 1e-3; });
  const CompiledProfile compiled(rep);
  EXPECT_EQ(compiled.EstimateSec(0, 1, 5), t.LatencySec(1, 5));
  EXPECT_EQ(compiled.EstimateSec(0, 7, 32), t.LatencySec(7, 32));
  // The hole throws, exactly like ProfileTable::LatencySec.
  EXPECT_THROW(compiled.EstimateSec(0, 7, 4), std::out_of_range);
  EXPECT_THROW(t.LatencySec(7, 4), std::out_of_range);
}

}  // namespace
}  // namespace pe::profile
