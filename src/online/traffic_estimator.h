// Online batch-size distribution estimation.
//
// The paper notes (Section IV-B) that the batch-size PDF "can readily be
// generated in the inference server by collecting the number of input
// batch sizes serviced within a given period of time, which PARIS can
// utilize as a proxy for the batch size distribution".  This module
// implements that collector: a sliding window over the most recent
// observations, an empirical PMF snapshot for PARIS, and a total-variation
// drift metric for deciding when the live distribution has moved far
// enough from the one the server was partitioned for.
//
// Multi-model extension: each observation carries the model identity of
// the served query, so the estimator also tracks the live *mix* --
// per-model rate shares and per-model batch PMFs.  Drift in the
// mix (one model's traffic growing at another's expense) can then trigger
// a re-partition even when the aggregate batch PMF barely moves.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "workload/batch_dist.h"

namespace pe::online {

class TrafficEstimator {
 public:
  // `max_batch`: largest batch size tracked (larger observations clamp).
  // `window`: number of most recent queries retained.
  explicit TrafficEstimator(int max_batch, std::size_t window = 10000);

  int max_batch() const { return max_batch_; }
  std::size_t window() const { return window_; }
  std::size_t count() const { return recent_.size(); }
  bool empty() const { return recent_.empty(); }

  // Records one served query's (model, batch); a single-model server
  // observes model 0.  Negative model ids throw std::invalid_argument.
  void Observe(int model_id, int batch);

  // Empirical PMF over [1, max_batch] across all models; index 0 unused.
  // All zeros when no observations have been made.
  std::vector<double> Pmf() const;

  // Empirical PMF of one model's batches (same indexing).  All zeros when
  // the model has no observations in the window.
  std::vector<double> ModelPmf(int model_id) const;

  // Number of windowed observations of one model.
  std::size_t ModelCount(int model_id) const;

  // Per-model share of the windowed traffic, indexed by model id; sized
  // max(min_models, highest observed id + 1).  All zeros when empty.
  std::vector<double> ModelShares(std::size_t min_models = 0) const;

  // Snapshot usable as a PARIS input.  Requires count() > 0.
  workload::EmpiricalBatchDist Snapshot() const;

  // Per-model snapshot.  Requires ModelCount(model_id) > 0.
  workload::EmpiricalBatchDist ModelSnapshot(int model_id) const;

  // Total-variation distance between this window's PMF and another PMF
  // (same indexing convention).  Ranges over [0, 1].
  double TotalVariation(const std::vector<double>& other_pmf) const;

  // Total-variation distance between the live per-model shares and a
  // baseline share vector (indexed by model id).  Ranges over [0, 1].
  double ShareDrift(const std::vector<double>& baseline_shares) const;

  void Clear();

 private:
  struct Observation {
    int model = 0;
    int batch = 1;
  };

  int max_batch_;
  std::size_t window_;
  std::deque<Observation> recent_;
  std::vector<std::size_t> counts_;  // index = batch size, all models
  // Per model id: [0] = total observations, [b] = count of batch b.
  std::vector<std::vector<std::size_t>> model_counts_;
};

}  // namespace pe::online
