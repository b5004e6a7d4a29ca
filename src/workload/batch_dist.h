// Query (batch) size distributions.
//
// The paper (Sections II-A, V) models inference query sizes as log-normal,
// discretized to integer batch sizes in [1, max_batch] -- the default
// configuration uses max batch 32 and sweeps sigma in {0.3, 0.9, 1.8} for
// Figure 13(a) and max batch in {16, 32, 64} for Figure 13(b).
//
// PARIS consumes the distribution as a PDF over integer batch sizes
// (Algorithm 1, Dist[]); the trace generator samples from the same PDF so
// the partitioning decision and the served traffic are consistent, exactly
// as in the paper where the server estimates the PDF from recent traffic.
// Sampling is inverse-CDF through a guide table (GuideTableSampler below),
// which returns exactly the binary search's answer for every draw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace pe::workload {

// Inverse-CDF sampling over batch sizes [1, max_batch] with a guide table
// (Chen & Asau, 1974).  For a uniform u in [0, 1) the sample is the first
// batch b with cdf[b] >= u -- the std::lower_bound answer over
// cdf[1..max_batch] -- found without a binary search: the table holds,
// for each of G equal cells of [0, 1), the answer at the cell's left edge
// g/G, and a short forward walk from there finishes the search.
//
// Exactness: G is a power of two, so u * G and g / G are exact doubles;
// the cell index g = floor(u * G) therefore satisfies g / G <= u, and the
// lower bound of g / G cannot exceed that of u.  The CDF's partial sums
// of non-negative masses never decrease and its last entry is pinned to
// 1, so for any u < 1 the entries below u form a prefix: the forward
// walk stops on the same index the binary search finds.  u = 0 gives
// batch 1 (cdf[1] >= 0), as the binary search does, even when batch 1
// has zero mass.
class GuideTableSampler {
 public:
  // `pmf[b]` is P(batch == b) for b in [1, pmf.size() - 1]; index 0 is
  // unused.  Requires at least one batch size and non-negative masses
  // summing to about 1 (the last CDF entry is pinned to 1).
  explicit GuideTableSampler(const std::vector<double>& pmf);

  // The batch size for a uniform u in [0, 1).
  int At(double u) const {
    std::size_t b = guide_[static_cast<std::size_t>(u * guide_scale_)];
    while (cdf_[b] < u) ++b;
    return static_cast<int>(b);
  }

  int Sample(Rng& rng) const { return At(rng.NextDouble()); }

  // G, the number of guide cells: a power of two.
  std::size_t guide_size() const { return guide_.size(); }

 private:
  // Index = batch size, [0] = 0: the running sums of the PMF, the last
  // one pinned to exactly 1.
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // guide_[g]: first b, cdf[b] >= g / G
  double guide_scale_ = 0.0;          // G as a double
};

// Interface: a probability mass function over integer batch sizes
// [1, max_batch] plus sampling.
class BatchDistribution {
 public:
  virtual ~BatchDistribution() = default;

  virtual int max_batch() const = 0;

  // P(batch == b); zero outside [1, max_batch].  Sums to 1 over the range.
  virtual double Pdf(int b) const = 0;

  // Draws one batch size.
  virtual int Sample(Rng& rng) const = 0;

  // Full PMF as a vector indexed by batch size (index 0 unused).
  std::vector<double> PdfVector() const;
};

// Discretized log-normal: a continuous LogNormal(mu, sigma) draw is rounded
// to the nearest integer and clamped to [1, max_batch]; the PMF is the
// corresponding exact probability mass (tails folded into the endpoints).
class LogNormalBatchDist final : public BatchDistribution {
 public:
  // `median` is exp(mu): the paper's "batch sizes centered around a
  // specific value".  Default median 4, sigma 0.9 (paper default variance),
  // max batch 32.
  LogNormalBatchDist(double median = 4.0, double sigma = 0.9,
                     int max_batch = 32);

  int max_batch() const override { return max_batch_; }
  double Pdf(int b) const override;
  // Inline, so a caller holding the concrete type samples without a
  // virtual call.
  int Sample(Rng& rng) const override { return sampler_.Sample(rng); }

 private:
  static std::vector<double> BuildPmf(double median, double sigma,
                                      int max_batch);

  int max_batch_;
  std::vector<double> pmf_;  // index = batch size, [0] unused
  GuideTableSampler sampler_;
};

// Arbitrary empirical PMF (e.g. the hand-constructed PDF of the paper's
// Figure 8 example, or a PDF estimated from served traffic).
class EmpiricalBatchDist final : public BatchDistribution {
 public:
  // `pmf[b]` is the (unnormalized) weight of batch size b+1; normalized
  // internally.  Must be non-empty with a positive sum.
  explicit EmpiricalBatchDist(std::vector<double> weights);

  int max_batch() const override;
  double Pdf(int b) const override;
  int Sample(Rng& rng) const override { return sampler_.Sample(rng); }

 private:
  static std::vector<double> BuildPmf(const std::vector<double>& weights);

  std::vector<double> pmf_;  // index = batch size, [0] unused
  GuideTableSampler sampler_;
};

}  // namespace pe::workload
