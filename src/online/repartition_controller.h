// Epoch-based elastic re-partitioning (extension).
//
// The paper derives one PARIS configuration offline.  In production the
// workload drifts (time of day, service popularity); the
// RepartitionController closes the loop: at every epoch boundary it
// compares the live traffic from the TrafficEstimator against what the
// current plan was built for, and if the drift exceeds a threshold it
// re-plans and -- if the resulting layout actually differs -- orders a
// reconfiguration.  MIG reconfiguration is not free (instances must drain
// and be re-created), which the elastic simulator charges as downtime.
//
// The controller serves a mix: drift is the larger of the model-share
// drift (the *mix* moving) and any model's own batch-PMF drift, both as
// total-variation distances, and re-planning re-derives per-model GPC
// budgets from the live shares (partition::PlanMixedParis).  A
// single-model server is the one-component mix: its share never drifts,
// so the rule reduces to the paper's batch-PMF drift and the plan to
// PARIS on the full budget.
#pragma once

#include <optional>
#include <vector>

#include "common/sim_time.h"
#include "hw/cluster.h"
#include "online/traffic_estimator.h"
#include "partition/mix.h"
#include "partition/paris.h"
#include "partition/partitioner.h"
#include "profile/model_repertoire.h"

namespace pe::online {

struct ElasticConfig {
  // Minimum observations before the estimator is trusted.
  std::size_t min_observations = 500;
  // Total-variation drift (vs what the current plan was built for) that
  // triggers re-partitioning.
  double drift_threshold = 0.10;
  // Downtime charged per reconfiguration (drain + MIG re-create).
  SimTime reconfig_downtime = MsToTicks(2000.0);
};

// The epoch-boundary decision interface the elastic simulator drives
// (implemented by RepartitionController; tests script it directly).
class RepartitionPolicy {
 public:
  virtual ~RepartitionPolicy() = default;

  virtual const partition::PartitionPlan& current_plan() const = 0;
  virtual const ElasticConfig& config() const = 0;

  // Epoch-boundary decision.  Returns the new plan if a reconfiguration is
  // warranted (and commits to it), nullopt to keep the current plan.
  virtual std::optional<partition::PartitionPlan> MaybeRepartition(
      const TrafficEstimator& estimator) = 0;
};

// Tracks the committed per-model shares and batch PMFs; drift in either
// re-derives per-model budgets and re-packs the union layout.
class RepartitionController : public RepartitionPolicy {
 public:
  // `repertoire` must outlive the controller.  `initial_mix` seeds the
  // first plan (e.g. yesterday's traffic or a provisioning guess, as
  // core::MixTestbed::PlannerInputs builds it): each input's model_id
  // indexes the repertoire, its share gives the traffic split and its
  // dist the batch PMF; plans always read the repertoire's profiles, so
  // an input's `profile` is not consulted.  A single-model server passes
  // one input.  Throws std::invalid_argument on an empty mix, an unknown
  // or duplicated model, a null distribution, a negative share, or shares
  // summing to zero.
  RepartitionController(
      const profile::ModelRepertoire& repertoire, hw::Cluster cluster,
      int gpc_budget, const std::vector<partition::MixModelInput>& initial_mix,
      partition::ParisConfig paris = {}, ElasticConfig config = {});

  const partition::PartitionPlan& current_plan() const override {
    return plan_.plan;
  }
  const ElasticConfig& config() const override { return config_; }
  // Per-model GPC budgets of the committed plan, indexed by model id.
  const std::vector<int>& current_budgets() const { return plan_.budgets; }

  // Throws std::invalid_argument, naming the model, when the window holds
  // traffic for a model outside the repertoire.
  std::optional<partition::PartitionPlan> MaybeRepartition(
      const TrafficEstimator& estimator) override;

  // max(share drift, max over models of batch-PMF drift).  Throws like
  // MaybeRepartition.
  double DriftOf(const TrafficEstimator& estimator) const;

 private:
  const profile::ModelRepertoire& repertoire_;
  hw::Cluster cluster_;
  int gpc_budget_;
  partition::ParisConfig paris_config_;
  ElasticConfig config_;
  partition::MixedPlan plan_;
  // Committed state, indexed by model id.
  std::vector<double> shares_;
  std::vector<std::vector<double>> pmfs_;  // index = batch size, [0] unused

  // The estimator's live shares over the repertoire's model ids.
  std::vector<double> LiveShares(const TrafficEstimator& estimator) const;

  partition::MixedPlan PlanFor(
      const std::vector<double>& shares,
      const std::vector<std::vector<double>>& pmfs) const;
};

}  // namespace pe::online
