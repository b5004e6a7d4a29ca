#include "workload/batch_dist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

namespace pe::workload {
namespace {

// Mean batch size under `d`'s PMF.
double PmfMean(const BatchDistribution& d) {
  double mean = 0.0;
  for (int b = 1; b <= d.max_batch(); ++b) mean += b * d.Pdf(b);
  return mean;
}

TEST(LogNormalBatchDist, PmfSumsToOne) {
  LogNormalBatchDist d(6.0, 0.9, 32);
  double sum = 0.0;
  for (int b = 1; b <= 32; ++b) sum += d.Pdf(b);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(LogNormalBatchDist, ZeroOutsideRange) {
  LogNormalBatchDist d(6.0, 0.9, 32);
  EXPECT_EQ(d.Pdf(0), 0.0);
  EXPECT_EQ(d.Pdf(-3), 0.0);
  EXPECT_EQ(d.Pdf(33), 0.0);
}

TEST(LogNormalBatchDist, ModeNearMedian) {
  LogNormalBatchDist d(8.0, 0.5, 64);
  int mode = 1;
  for (int b = 1; b <= 64; ++b) {
    if (d.Pdf(b) > d.Pdf(mode)) mode = b;
  }
  EXPECT_GE(mode, 5);
  EXPECT_LE(mode, 10);
}

TEST(LogNormalBatchDist, LargerSigmaFattensTail) {
  LogNormalBatchDist narrow(6.0, 0.3, 32);
  LogNormalBatchDist wide(6.0, 1.8, 32);
  double narrow_tail = 0.0, wide_tail = 0.0;
  for (int b = 20; b <= 32; ++b) {
    narrow_tail += narrow.Pdf(b);
    wide_tail += wide.Pdf(b);
  }
  EXPECT_GT(wide_tail, 5.0 * narrow_tail);
}

TEST(LogNormalBatchDist, SamplesMatchPmf) {
  LogNormalBatchDist d(6.0, 0.9, 32);
  Rng rng(123);
  std::vector<int> counts(33, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const int b = d.Sample(rng);
    ASSERT_GE(b, 1);
    ASSERT_LE(b, 32);
    ++counts[static_cast<std::size_t>(b)];
  }
  for (int b : {1, 4, 6, 8, 16, 32}) {
    const double empirical =
        counts[static_cast<std::size_t>(b)] / static_cast<double>(n);
    EXPECT_NEAR(empirical, d.Pdf(b), 0.01) << "b=" << b;
  }
}

TEST(LogNormalBatchDist, PmfMeanMatchesSampling) {
  LogNormalBatchDist d(6.0, 0.9, 32);
  Rng rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += d.Sample(rng);
  EXPECT_NEAR(sum / n, PmfMean(d), 0.1);
}

TEST(LogNormalBatchDist, PdfVectorMatchesPdf) {
  LogNormalBatchDist d(4.0, 0.9, 16);
  const auto v = d.PdfVector();
  ASSERT_EQ(v.size(), 17u);
  EXPECT_EQ(v[0], 0.0);
  for (int b = 1; b <= 16; ++b) {
    EXPECT_DOUBLE_EQ(v[static_cast<std::size_t>(b)], d.Pdf(b));
  }
}

TEST(LogNormalBatchDist, InvalidParamsThrow) {
  EXPECT_THROW(LogNormalBatchDist(0.0, 0.9, 32), std::invalid_argument);
  EXPECT_THROW(LogNormalBatchDist(4.0, 0.0, 32), std::invalid_argument);
  EXPECT_THROW(LogNormalBatchDist(4.0, 0.9, 0), std::invalid_argument);
}

TEST(EmpiricalBatchDist, NormalizesWeights) {
  // The paper's Figure 8 example: P(1)=P(2)=0.2, P(3)=0.4, P(4)=0.2.
  EmpiricalBatchDist d({20, 20, 40, 20});
  EXPECT_DOUBLE_EQ(d.Pdf(1), 0.2);
  EXPECT_DOUBLE_EQ(d.Pdf(2), 0.2);
  EXPECT_DOUBLE_EQ(d.Pdf(3), 0.4);
  EXPECT_DOUBLE_EQ(d.Pdf(4), 0.2);
  EXPECT_EQ(d.max_batch(), 4);
}

TEST(EmpiricalBatchDist, SamplesRespectWeights) {
  EmpiricalBatchDist d({0, 100});  // only batch 2 possible
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(d.Sample(rng), 2);
}

TEST(EmpiricalBatchDist, RejectsBadWeights) {
  EXPECT_THROW(EmpiricalBatchDist({}), std::invalid_argument);
  EXPECT_THROW(EmpiricalBatchDist({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(EmpiricalBatchDist({1.0, -1.0}), std::invalid_argument);
}

// ---- Guide-table sampler vs the binary search -------------------------------

// The CDF the binary search walked: running sums of the PMF (index 0
// unused), the last entry pinned to 1.
std::vector<double> RunningCdf(const std::vector<double>& pmf) {
  std::vector<double> cdf(pmf.size(), 0.0);
  double acc = 0.0;
  for (std::size_t b = 1; b < pmf.size(); ++b) {
    acc += pmf[b];
    cdf[b] = acc;
  }
  cdf.back() = 1.0;
  return cdf;
}

// The oracle: the first batch b >= 1 with cdf[b] >= u, by std::lower_bound.
int LowerBoundBatch(const std::vector<double>& cdf, double u) {
  return static_cast<int>(
      std::lower_bound(cdf.begin() + 1, cdf.end(), u) - cdf.begin());
}

// The u values checked: a dense power-of-two grid (every guide cell edge),
// an irregular grid that lands inside cells, each CDF value and guide edge
// with its two neighbouring doubles, 0, and the largest double below 1
// (the largest Rng::NextDouble draw).
std::vector<double> ProbePoints(const std::vector<double>& cdf,
                                std::size_t guide_size) {
  constexpr double kBelowOne = 1.0 - 0x1.0p-53;
  std::vector<double> us;
  for (int i = 0; i < (1 << 16); ++i) us.push_back(i * 0x1.0p-16);
  for (int i = 0; i < 100'000; ++i) us.push_back((i + 0.37) / 100'000.0);
  std::vector<double> anchors = cdf;
  for (std::size_t g = 0; g < guide_size; ++g) {
    anchors.push_back(static_cast<double>(g) /
                      static_cast<double>(guide_size));
  }
  for (const double a : anchors) {
    for (const double u : {a, std::nextafter(a, 0.0), std::nextafter(a, 1.0)}) {
      if (u >= 0.0 && u < 1.0) us.push_back(u);
    }
  }
  us.push_back(0.0);
  us.push_back(kBelowOne);
  EXPECT_EQ(kBelowOne, std::nextafter(1.0, 0.0));
  return us;
}

// Checks the sampler built from `dist`'s PMF -- the one `dist` samples
// with -- against the binary search at every probe point; `label` names
// the distribution in failure messages.
void ExpectSamplerMatchesLowerBound(const BatchDistribution& dist,
                                    const std::string& label) {
  const std::vector<double> pmf = dist.PdfVector();
  const GuideTableSampler sampler(pmf);
  const std::vector<double> cdf = RunningCdf(pmf);
  // G a power of two: u * G and g / G are exact.
  EXPECT_TRUE(std::has_single_bit(sampler.guide_size())) << label;
  EXPECT_GE(sampler.guide_size(), pmf.size() - 1) << label;
  for (const double u : ProbePoints(cdf, sampler.guide_size())) {
    ASSERT_EQ(sampler.At(u), LowerBoundBatch(cdf, u))
        << label << " u=" << std::hexfloat << u;
  }
  // The distribution's own draw is that sampler at the next uniform.
  Rng draws(77);
  Rng samples(77);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(dist.Sample(samples), sampler.At(draws.NextDouble())) << label;
  }
}

TEST(GuideTableSampler, MatchesLowerBoundOnLogNormals) {
  ExpectSamplerMatchesLowerBound(LogNormalBatchDist(6.0, 0.9, 32),
                                 "lognormal(6, 0.9, 32)");
  ExpectSamplerMatchesLowerBound(LogNormalBatchDist(4.0, 1.8, 64),
                                 "lognormal(4, 1.8, 64)");
  ExpectSamplerMatchesLowerBound(LogNormalBatchDist(6.0, 0.9, 1),
                                 "lognormal(6, 0.9, 1)");
}

TEST(GuideTableSampler, MatchesLowerBoundWithZeroWeights) {
  // Zero mass at the front, in the middle and at the back: flat CDF runs
  // that the guide cells and the forward walk must step over exactly as
  // the binary search does.
  const std::vector<std::vector<double>> weights = {
      {0, 0, 3, 1, 2},
      {2, 0, 0, 0, 1, 0, 4},
      {1, 3, 2, 0, 0},
      {0, 5, 0, 0, 0, 0, 0, 0, 0},
  };
  for (std::size_t i = 0; i < weights.size(); ++i) {
    ExpectSamplerMatchesLowerBound(EmpiricalBatchDist(weights[i]),
                                   "weights #" + std::to_string(i));
  }
}

// Property sweep over (sigma, max_batch): the PMF always sums to 1 and the
// sample mean tracks the analytic mean.  Mirrors the Figure 13 parameter
// space.
class LogNormalSweepTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(LogNormalSweepTest, PmfNormalizedAndSamplable) {
  const auto [sigma, max_batch] = GetParam();
  LogNormalBatchDist d(6.0, sigma, max_batch);
  double sum = 0.0;
  for (int b = 1; b <= max_batch; ++b) sum += d.Pdf(b);
  EXPECT_NEAR(sum, 1.0, 1e-9);

  Rng rng(42);
  double mean = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) mean += d.Sample(rng);
  mean /= n;
  EXPECT_NEAR(mean, PmfMean(d), 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    Figure13Space, LogNormalSweepTest,
    ::testing::Combine(::testing::Values(0.3, 0.9, 1.8),
                       ::testing::Values(16, 32, 64)));

}  // namespace
}  // namespace pe::workload
