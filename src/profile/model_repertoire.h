// The set of DNN models one server incarnation can serve.
//
// The paper's evaluation runs one model per server; a production MIG
// cluster is shared by a *mix* of models with different roofline knees,
// batch distributions and SLAs.  A ModelRepertoire makes that mix
// first-class: per registered model it owns the one-time ProfileTable
// (what PARIS and ELSA are allowed to see) and the ground-truth latency
// function (what the simulator charges).  Query::model_id indexes into
// the repertoire; a single-entry repertoire is the degenerate one-model
// case and reproduces the original single-table plumbing bit-for-bit.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "perf/roofline.h"
#include "profile/profile_table.h"

namespace pe::profile {

// Ground truth: actual execution latency in seconds of (partition gpcs,
// batch).  Lives here (rather than in sim/) so every layer below the
// simulator can be model-aware without depending on it.
//
// Must be a pure function of (gpcs, batch): the simulator's fast path
// memoizes it per (model, gpcs, batch) through CompiledProfile, so a
// stateful function (e.g. one drawing its own noise) would have its
// first sample frozen and replayed.  Execution-time randomness belongs
// in the simulator (ServerConfig::latency_noise_sigma), which applies
// mean-one log-normal noise on top of this deterministic ground truth.
using LatencyFn = std::function<double(int gpcs, int batch)>;

class ModelRepertoire {
 public:
  ModelRepertoire() = default;

  // Registers a model and returns its dense id (0, 1, 2, ...).  Names must
  // be unique; throws std::invalid_argument on a duplicate or a null
  // `actual`.  `actual` must be deterministic (see LatencyFn above).
  int Register(std::string name, ProfileTable profile, LatencyFn actual);

  int size() const { return static_cast<int>(entries_.size()); }
  bool empty() const { return entries_.empty(); }

  const std::string& name(int model_id) const;
  const ProfileTable& profile(int model_id) const;
  const LatencyFn& actual(int model_id) const;

  // Model id for a registered name, or -1 when unknown.
  int IdOf(const std::string& name) const;
  bool Has(int model_id) const {
    return model_id >= 0 && model_id < size();
  }

  // Profiled (estimated) latency for the scheduler's Twait/Testimated
  // lookups, routed through the model's own table.
  double EstimateSec(int model_id, int gpcs, int batch) const;

  // Ground-truth latency for the simulator's execution clock.
  double ActualSec(int model_id, int gpcs, int batch) const;

  // Largest profiled batch across all registered models (0 when empty);
  // maintained by Register, so the lookup is constant-time.
  int max_batch() const { return max_batch_; }

 private:
  struct Entry {
    std::string name;
    ProfileTable profile;
    LatencyFn actual;
  };

  const Entry& At(int model_id) const;

  std::vector<Entry> entries_;
  int max_batch_ = 0;
};

// Builds a repertoire from paper model-zoo names ("resnet", "mobilenet",
// ...), profiling each with the shared roofline engine up to `max_batch`
// (at least 64 so knee detection sees the plateau) and binding its
// ground-truth latency function to the same engine.
ModelRepertoire BuildZooRepertoire(
    const std::vector<std::string>& model_names,
    const perf::RooflineEngine& engine = perf::RooflineEngine{},
    int max_batch = 64);

}  // namespace pe::profile
