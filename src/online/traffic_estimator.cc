#include "online/traffic_estimator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pe::online {

double TotalVariation(const std::vector<double>& p,
                      const std::vector<double>& q) {
  const std::size_t n = std::max(p.size(), q.size());
  double tv = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = i < p.size() ? p[i] : 0.0;
    const double b = i < q.size() ? q[i] : 0.0;
    tv += std::abs(a - b);
  }
  return 0.5 * tv;
}

TrafficEstimator::TrafficEstimator(int max_batch, std::size_t window)
    : max_batch_(max_batch), window_(window) {
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
  if (model_counts_.size() <= static_cast<std::size_t>(model_id)) {
    model_counts_.resize(
        static_cast<std::size_t>(model_id) + 1,
        std::vector<std::size_t>(static_cast<std::size_t>(max_batch_) + 1, 0));
  }
  auto& mc = model_counts_[static_cast<std::size_t>(model_id)];
  ++mc[0];  // [0] doubles as the model's total
  ++mc[static_cast<std::size_t>(clamped)];
  if (recent_.size() > window_) {
    const Observation evicted = recent_.front();
    recent_.pop_front();
    auto& emc = model_counts_[static_cast<std::size_t>(evicted.model)];
    --emc[0];
    --emc[static_cast<std::size_t>(evicted.batch)];
  }
}

std::vector<double> TrafficEstimator::ModelPmf(int model_id) const {
  std::vector<double> pmf(static_cast<std::size_t>(max_batch_) + 1, 0.0);
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

}  // namespace pe::online
