#include "online/repartition_controller.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pe::online {
namespace {

// pmf indexed by batch size ([0] unused) -> EmpiricalBatchDist weights.
workload::EmpiricalBatchDist DistFromPmf(const std::vector<double>& pmf) {
  if (pmf.size() < 2) {
    throw std::invalid_argument("DistFromPmf: empty PMF");
  }
  std::vector<double> weights(pmf.size() - 1, 0.0);
  for (std::size_t b = 1; b < pmf.size(); ++b) weights[b - 1] = pmf[b];
  return workload::EmpiricalBatchDist(std::move(weights));
}

std::vector<int> SortedSizes(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

RepartitionController::RepartitionController(
    const profile::ModelRepertoire& repertoire, hw::Cluster cluster,
    int gpc_budget, const std::vector<partition::MixModelInput>& initial_mix,
    partition::ParisConfig paris, ElasticConfig config)
    : repertoire_(repertoire),
      cluster_(std::move(cluster)),
      gpc_budget_(gpc_budget),
      paris_config_(paris),
      config_(config) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("RepartitionController: " + what);
  };
  if (initial_mix.empty()) fail("empty mix");
  double total = 0.0;
  for (const auto& in : initial_mix) {
    if (!repertoire_.Has(in.model_id)) fail("mix references unknown model");
    if (in.dist == nullptr) fail("component without distribution");
    if (in.share < 0.0) fail("negative share");
    total += in.share;
  }
  if (total <= 0.0) fail("shares sum to zero");
  shares_.assign(static_cast<std::size_t>(repertoire_.size()), 0.0);
  pmfs_.assign(shares_.size(), {});
  for (const auto& in : initial_mix) {
    const auto m = static_cast<std::size_t>(in.model_id);
    if (!pmfs_[m].empty()) {
      // Two components for one model would need share-weighted PMF
      // blending to form a correct drift baseline; reject rather than
      // silently letting the last component's PMF win.
      fail("duplicate model in mix");
    }
    shares_[m] = in.share / total;
    pmfs_[m] = in.dist->PdfVector();
  }
  plan_ = PlanFor(shares_, pmfs_);
}

partition::MixedPlan RepartitionController::PlanFor(
    const std::vector<double>& shares,
    const std::vector<std::vector<double>>& pmfs) const {
  // Models with no traffic are left out of the union entirely; their ids
  // keep a zero budget in the result for index stability.
  std::vector<partition::MixModelInput> inputs;
  std::vector<workload::EmpiricalBatchDist> dists;
  dists.reserve(shares.size());
  std::vector<std::size_t> input_model(shares.size());
  for (std::size_t m = 0; m < shares.size(); ++m) {
    if (shares[m] <= 0.0) continue;
    dists.push_back(DistFromPmf(pmfs[m]));
    partition::MixModelInput in;
    in.model_id = static_cast<int>(m);
    in.share = shares[m];
    in.profile = &repertoire_.profile(static_cast<int>(m));
    in.dist = &dists.back();
    input_model[inputs.size()] = m;
    inputs.push_back(in);
  }
  if (inputs.empty()) {
    throw std::invalid_argument(
        "RepartitionController: no model has traffic");
  }
  partition::MixedPlan packed =
      partition::PlanMixedParis(inputs, cluster_, gpc_budget_, paris_config_);
  // Re-index budgets/sizes by model id (PlanMixedParis aligns to inputs).
  partition::MixedPlan result;
  result.plan = std::move(packed.plan);
  result.budgets.assign(shares.size(), 0);
  result.per_model_sizes.assign(shares.size(), {});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    result.budgets[input_model[i]] = packed.budgets[i];
    result.per_model_sizes[input_model[i]] =
        std::move(packed.per_model_sizes[i]);
  }
  return result;
}

std::vector<double> RepartitionController::LiveShares(
    const TrafficEstimator& estimator) const {
  std::vector<double> live = estimator.ModelShares(shares_.size());
  for (std::size_t m = shares_.size(); m < live.size(); ++m) {
    if (live[m] > 0.0) {
      throw std::invalid_argument("RepartitionController: traffic for model " +
                                  std::to_string(m) +
                                  ", which is not in the repertoire");
    }
  }
  live.resize(shares_.size());
  return live;
}

double RepartitionController::DriftOf(
    const TrafficEstimator& estimator) const {
  double drift = TotalVariation(LiveShares(estimator), shares_);
  for (std::size_t m = 0; m < pmfs_.size(); ++m) {
    if (estimator.ModelCount(static_cast<int>(m)) == 0) continue;
    if (pmfs_[m].empty()) {
      // A model with live traffic but no committed PMF is maximal drift.
      drift = 1.0;
      continue;
    }
    drift = std::max(
        drift,
        TotalVariation(estimator.ModelPmf(static_cast<int>(m)), pmfs_[m]));
  }
  return drift;
}

std::optional<partition::PartitionPlan>
RepartitionController::MaybeRepartition(const TrafficEstimator& estimator) {
  const double drift = DriftOf(estimator);
  if (estimator.count() < config_.min_observations ||
      drift < config_.drift_threshold) {
    return std::nullopt;
  }

  // Live mix: observed shares; observed per-model PMFs where available,
  // the committed PMF otherwise.
  std::vector<double> shares = LiveShares(estimator);
  std::vector<std::vector<double>> pmfs(pmfs_);
  for (std::size_t m = 0; m < shares.size(); ++m) {
    if (estimator.ModelCount(static_cast<int>(m)) > 0) {
      pmfs[m] = estimator.ModelPmf(static_cast<int>(m));
    }
  }
  partition::MixedPlan candidate = PlanFor(shares, pmfs);

  // Identical layouts need no reconfiguration -- but the committed state
  // is refreshed so drift is measured against what the plan now
  // represents.
  const bool same_layout = SortedSizes(candidate.plan.instance_gpcs) ==
                           SortedSizes(plan_.plan.instance_gpcs);
  shares_ = std::move(shares);
  pmfs_ = std::move(pmfs);
  if (same_layout) return std::nullopt;

  plan_ = std::move(candidate);
  return plan_.plan;
}

}  // namespace pe::online
