// Online traffic estimation.
//
// The paper notes (Section IV-B) that the batch-size PDF "can readily be
// generated in the inference server by collecting the number of input
// batch sizes serviced within a given period of time, which PARIS can
// utilize as a proxy for the batch size distribution".  This module
// implements that collector: a sliding window over the most recent
// observations, each tagged with the served query's model, from which the
// RepartitionController reads the live mix -- per-model traffic shares
// and per-model batch PMFs.  A single-model server observes model 0 only,
// so its one PMF is the paper's batch-size PDF and its one share is 1.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

namespace pe::online {

// Total-variation distance 0.5 * sum |p[i] - q[i]| between two
// distributions over the same index space (the shorter is zero-padded).
// PMFs indexed by batch size keep [0] at zero, so the unused slot adds
// nothing.  Ranges over [0, 1] for probability vectors.
double TotalVariation(const std::vector<double>& p,
                      const std::vector<double>& q);

class TrafficEstimator {
 public:
  // `max_batch`: largest batch size tracked (larger observations clamp).
  // `window`: number of most recent queries retained.
  explicit TrafficEstimator(int max_batch, std::size_t window = 10000);

  std::size_t count() const { return recent_.size(); }

  // Records one served query's (model, batch).  Negative model ids throw
  // std::invalid_argument.
  void Observe(int model_id, int batch);

  // Empirical PMF of one model's batches over [1, max_batch]; index 0
  // unused.  All zeros when the model has no observations in the window.
  std::vector<double> ModelPmf(int model_id) const;

  // Number of windowed observations of one model.
  std::size_t ModelCount(int model_id) const;

  // Per-model share of the windowed traffic, indexed by model id; sized
  // max(min_models, highest observed id + 1).  All zeros when empty.
  std::vector<double> ModelShares(std::size_t min_models = 0) const;

 private:
  struct Observation {
    int model = 0;
    int batch = 1;
  };

  int max_batch_;
  std::size_t window_;
  std::deque<Observation> recent_;
  // Per model id: [0] = total observations, [b] = count of batch b.
  std::vector<std::vector<std::size_t>> model_counts_;
};

}  // namespace pe::online
