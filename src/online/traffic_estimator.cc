#include "online/traffic_estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace pe::online {

TrafficEstimator::TrafficEstimator(int max_batch, std::size_t window)
    : max_batch_(max_batch),
      window_(window),
      counts_(static_cast<std::size_t>(max_batch) + 1, 0) {
  if (max_batch < 1) {
    throw std::invalid_argument("TrafficEstimator: max_batch < 1");
  }
  if (window < 1) {
    throw std::invalid_argument("TrafficEstimator: window < 1");
  }
}

void TrafficEstimator::Observe(int model_id, int batch) {
  if (model_id < 0) {
    throw std::invalid_argument("TrafficEstimator: negative model id");
  }
  const int clamped = std::clamp(batch, 1, max_batch_);
  recent_.push_back(Observation{model_id, clamped});
  ++counts_[static_cast<std::size_t>(clamped)];
  if (model_counts_.size() <= static_cast<std::size_t>(model_id)) {
    model_counts_.resize(static_cast<std::size_t>(model_id) + 1,
                         std::vector<std::size_t>(counts_.size(), 0));
  }
  auto& mc = model_counts_[static_cast<std::size_t>(model_id)];
  ++mc[0];  // [0] doubles as the model's total
  ++mc[static_cast<std::size_t>(clamped)];
  if (recent_.size() > window_) {
    const Observation evicted = recent_.front();
    recent_.pop_front();
    assert(counts_[static_cast<std::size_t>(evicted.batch)] > 0);
    --counts_[static_cast<std::size_t>(evicted.batch)];
    auto& emc = model_counts_[static_cast<std::size_t>(evicted.model)];
    --emc[0];
    --emc[static_cast<std::size_t>(evicted.batch)];
  }
}

std::vector<double> TrafficEstimator::Pmf() const {
  std::vector<double> pmf(counts_.size(), 0.0);
  if (recent_.empty()) return pmf;
  const double n = static_cast<double>(recent_.size());
  for (std::size_t b = 1; b < counts_.size(); ++b) {
    pmf[b] = static_cast<double>(counts_[b]) / n;
  }
  return pmf;
}

std::vector<double> TrafficEstimator::ModelPmf(int model_id) const {
  std::vector<double> pmf(counts_.size(), 0.0);
  const std::size_t n = ModelCount(model_id);
  if (n == 0) return pmf;
  const auto& mc = model_counts_[static_cast<std::size_t>(model_id)];
  for (std::size_t b = 1; b < mc.size(); ++b) {
    pmf[b] = static_cast<double>(mc[b]) / static_cast<double>(n);
  }
  return pmf;
}

std::size_t TrafficEstimator::ModelCount(int model_id) const {
  if (model_id < 0 ||
      static_cast<std::size_t>(model_id) >= model_counts_.size()) {
    return 0;
  }
  return model_counts_[static_cast<std::size_t>(model_id)][0];
}

std::vector<double> TrafficEstimator::ModelShares(
    std::size_t min_models) const {
  std::vector<double> shares(std::max(min_models, model_counts_.size()), 0.0);
  if (recent_.empty()) return shares;
  const double n = static_cast<double>(recent_.size());
  for (std::size_t m = 0; m < model_counts_.size(); ++m) {
    shares[m] = static_cast<double>(model_counts_[m][0]) / n;
  }
  return shares;
}

workload::EmpiricalBatchDist TrafficEstimator::Snapshot() const {
  if (recent_.empty()) {
    throw std::logic_error("TrafficEstimator::Snapshot: no observations");
  }
  std::vector<double> weights(static_cast<std::size_t>(max_batch_), 0.0);
  for (std::size_t b = 1; b < counts_.size(); ++b) {
    weights[b - 1] = static_cast<double>(counts_[b]);
  }
  return workload::EmpiricalBatchDist(std::move(weights));
}

workload::EmpiricalBatchDist TrafficEstimator::ModelSnapshot(
    int model_id) const {
  if (ModelCount(model_id) == 0) {
    throw std::logic_error(
        "TrafficEstimator::ModelSnapshot: no observations for model");
  }
  const auto& mc = model_counts_[static_cast<std::size_t>(model_id)];
  std::vector<double> weights(static_cast<std::size_t>(max_batch_), 0.0);
  for (std::size_t b = 1; b < mc.size(); ++b) {
    weights[b - 1] = static_cast<double>(mc[b]);
  }
  return workload::EmpiricalBatchDist(std::move(weights));
}

double TrafficEstimator::TotalVariation(
    const std::vector<double>& other_pmf) const {
  const auto mine = Pmf();
  const std::size_t n = std::max(mine.size(), other_pmf.size());
  double tv = 0.0;
  for (std::size_t b = 1; b < n; ++b) {
    const double a = b < mine.size() ? mine[b] : 0.0;
    const double o = b < other_pmf.size() ? other_pmf[b] : 0.0;
    tv += std::abs(a - o);
  }
  return 0.5 * tv;
}

double TrafficEstimator::ShareDrift(
    const std::vector<double>& baseline_shares) const {
  const auto mine = ModelShares(baseline_shares.size());
  const std::size_t n = std::max(mine.size(), baseline_shares.size());
  double tv = 0.0;
  for (std::size_t m = 0; m < n; ++m) {
    const double a = m < mine.size() ? mine[m] : 0.0;
    const double o = m < baseline_shares.size() ? baseline_shares[m] : 0.0;
    tv += std::abs(a - o);
  }
  return 0.5 * tv;
}

void TrafficEstimator::Clear() {
  recent_.clear();
  std::fill(counts_.begin(), counts_.end(), 0);
  model_counts_.clear();
}

}  // namespace pe::online
