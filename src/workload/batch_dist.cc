#include "workload/batch_dist.h"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace pe::workload {
namespace {

// Standard normal CDF.
double Phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

// Builds a CDF vector from a PMF vector (index 0 unused).
std::vector<double> BuildCdf(const std::vector<double>& pmf) {
  std::vector<double> cdf(pmf.size(), 0.0);
  double acc = 0.0;
  for (std::size_t i = 1; i < pmf.size(); ++i) {
    acc += pmf[i];
    cdf[i] = acc;
  }
  if (!cdf.empty()) cdf.back() = 1.0;  // guard against rounding
  return cdf;
}

}  // namespace

GuideTableSampler::GuideTableSampler(const std::vector<double>& pmf)
    : cdf_(BuildCdf(pmf)) {
  if (cdf_.size() < 2) {
    throw std::invalid_argument("GuideTableSampler: no batch sizes");
  }
  // About two cells per batch size keeps the expected walk under one
  // step (Chen & Asau); the table stays a few hundred bytes.
  const std::size_t cells = std::bit_ceil(2 * (cdf_.size() - 1));
  guide_scale_ = static_cast<double>(cells);
  guide_.resize(cells);
  std::size_t b = 1;
  for (std::size_t g = 0; g < cells; ++g) {
    const double edge = static_cast<double>(g) / guide_scale_;
    while (cdf_[b] < edge) ++b;
    guide_[g] = static_cast<std::uint32_t>(b);
  }
}

std::vector<double> BatchDistribution::PdfVector() const {
  std::vector<double> v(static_cast<std::size_t>(max_batch()) + 1, 0.0);
  for (int b = 1; b <= max_batch(); ++b) {
    v[static_cast<std::size_t>(b)] = Pdf(b);
  }
  return v;
}

LogNormalBatchDist::LogNormalBatchDist(double median, double sigma,
                                       int max_batch)
    : max_batch_(max_batch),
      pmf_(BuildPmf(median, sigma, max_batch)),
      sampler_(pmf_) {}

std::vector<double> LogNormalBatchDist::BuildPmf(double median, double sigma,
                                                 int max_batch) {
  if (median <= 0.0 || sigma <= 0.0 || max_batch < 1) {
    throw std::invalid_argument("LogNormalBatchDist: invalid parameters");
  }
  const double mu = std::log(median);
  // Exact mass of the rounded-and-clamped continuous distribution:
  //   P(b) = Phi((ln(b+0.5)-mu)/sigma) - Phi((ln(b-0.5)-mu)/sigma)
  // with the lower tail folded into b=1 and the upper tail into max_batch.
  std::vector<double> pmf(static_cast<std::size_t>(max_batch) + 1, 0.0);
  double total = 0.0;
  for (int b = 1; b <= max_batch; ++b) {
    const double hi =
        (b == max_batch) ? 1.0 : Phi((std::log(b + 0.5) - mu) / sigma);
    const double lo = (b == 1) ? 0.0 : Phi((std::log(b - 0.5) - mu) / sigma);
    pmf[static_cast<std::size_t>(b)] = hi - lo;
    total += hi - lo;
  }
  for (auto& p : pmf) p /= total;
  return pmf;
}

double LogNormalBatchDist::Pdf(int b) const {
  if (b < 1 || b > max_batch_) return 0.0;
  return pmf_[static_cast<std::size_t>(b)];
}

EmpiricalBatchDist::EmpiricalBatchDist(std::vector<double> weights)
    : pmf_(BuildPmf(weights)), sampler_(pmf_) {}

std::vector<double> EmpiricalBatchDist::BuildPmf(
    const std::vector<double>& weights) {
  if (weights.empty()) {
    throw std::invalid_argument("EmpiricalBatchDist: empty weights");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) {
      throw std::invalid_argument("EmpiricalBatchDist: negative weight");
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("EmpiricalBatchDist: zero total weight");
  }
  std::vector<double> pmf(weights.size() + 1, 0.0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    pmf[i + 1] = weights[i] / total;
  }
  return pmf;
}

int EmpiricalBatchDist::max_batch() const {
  return static_cast<int>(pmf_.size()) - 1;
}

double EmpiricalBatchDist::Pdf(int b) const {
  if (b < 1 || b >= static_cast<int>(pmf_.size())) return 0.0;
  return pmf_[static_cast<std::size_t>(b)];
}

}  // namespace pe::workload
