// The set of DNN models one server incarnation can serve.
//
// The paper's evaluation runs one model per server; a production MIG
// cluster is shared by a *mix* of models with different roofline knees,
// batch distributions and SLAs.  A ModelRepertoire makes that mix
// first-class: per registered model it owns the one-time ProfileTable
// (what PARIS and ELSA are allowed to see) and the ground-truth latency
// function (what the simulator charges).  Query::model_id indexes into
// the repertoire, and a single-model server serves a one-entry
// repertoire: it is the one serving input of every engine and scheduler.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perf/roofline.h"
#include "profile/profile_table.h"

namespace pe::profile {

// Ground truth: actual execution latency in seconds of (partition gpcs,
// batch).  Lives here (rather than in sim/) so every layer below the
// simulator can be model-aware without depending on it.
//
// Must be a pure function of (gpcs, batch), safe to call from several
// threads at once: each repertoire entry memoizes it per (gpcs, batch) in
// a grid shared by every copy of the entry (a copied repertoire, or one
// built by Subset), filled on first use from whichever thread asks.  A
// stateful function (e.g. one drawing its own noise) would have its first
// sample frozen and replayed.  Execution-time randomness belongs in the
// simulator (ServerConfig::latency_noise_sigma), which applies mean-one
// log-normal noise on top of this deterministic ground truth.
using LatencyFn = std::function<double(int gpcs, int batch)>;

class ModelRepertoire {
 public:
  ModelRepertoire() = default;

  // Registers a model and returns its dense id (0, 1, 2, ...).  Names must
  // be unique; throws std::invalid_argument on a duplicate, a null
  // `actual`, or a model past the 65,535th (sim::QueryRecord keeps the id
  // in 16 bits).  `actual` must be deterministic (see LatencyFn above).
  // Evaluates nothing: the ground-truth memo fills lazily.
  int Register(std::string name, ProfileTable profile, LatencyFn actual);

  // The repertoire of models `model_ids` of this one, in that order (its
  // id k is model_ids[k]).  Its entries share this repertoire's
  // ground-truth memo, so every server of a fleet built from one zoo
  // evaluates each (model, gpcs, batch) cell once between them.  Throws
  // like Register on a repeated id, std::out_of_range on an unknown one.
  ModelRepertoire Subset(const std::vector<int>& model_ids) const;

  int size() const { return static_cast<int>(entries_.size()); }
  bool empty() const { return entries_.empty(); }

  const std::string& name(int model_id) const;
  const ProfileTable& profile(int model_id) const;

  // Model id for a registered name, or -1 when unknown.
  int IdOf(const std::string& name) const;
  bool Has(int model_id) const {
    return model_id >= 0 && model_id < size();
  }

  // Profiled (estimated) latency for the scheduler's Twait/Testimated
  // lookups: the model's own table's LatencySec, inline (three array
  // reads) because every ELSA decision and engine enqueue makes one.
  double EstimateSec(int model_id, int gpcs, int batch) const {
    return At(model_id).profile.LatencySec(gpcs, batch);
  }

  // Ground-truth latency for the simulator's execution clock: the
  // model's LatencyFn, memoized over (gpcs <= largest profiled size,
  // batch <= largest profiled batch); anything outside calls it directly.
  double ActualSec(int model_id, int gpcs, int batch) const {
    const Entry& e = At(model_id);
    return e.memo->Get(e.actual, gpcs, batch);
  }

  // Largest profiled batch across all registered models (0 when empty);
  // maintained by Register, so the lookup is constant-time.
  int max_batch() const { return max_batch_; }

 private:
  // One model's lazily filled ground-truth grid.  Each cell holds the
  // double's bits, or kUnset until first use; two threads racing on a cell
  // evaluate the same pure function and store the same bits.
  class ActualMemo {
   public:
    // The grid of `profile`: gpcs up to its largest partition size, batch
    // up to its largest batch (empty when the table is).
    explicit ActualMemo(const ProfileTable& profile);

    double Get(const LatencyFn& actual, int gpcs, int batch) {
      if (gpcs < 0 || gpcs > max_gpcs_ || batch < 0 || batch > max_batch_) {
        return actual(gpcs, batch);
      }
      std::atomic<std::uint64_t>& cell =
          cells_[static_cast<std::size_t>(gpcs) *
                     (static_cast<std::size_t>(max_batch_) + 1) +
                 static_cast<std::size_t>(batch)];
      const std::uint64_t bits = cell.load();
      if (bits != kUnset) return std::bit_cast<double>(bits);
      const double sec = actual(gpcs, batch);
      cell.store(std::bit_cast<std::uint64_t>(sec));
      return sec;
    }

   private:
    // A NaN payload: a LatencyFn returning exactly these bits is merely
    // re-evaluated on every call.
    static constexpr std::uint64_t kUnset = ~std::uint64_t{0};

    int max_gpcs_ = -1;
    int max_batch_ = -1;
    std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
  };

  struct Entry {
    std::string name;
    ProfileTable profile;
    LatencyFn actual;
    // Shared by every copy of the entry.
    std::shared_ptr<ActualMemo> memo;
  };

  const Entry& At(int model_id) const {
    if (!Has(model_id)) ThrowUnknown(model_id);
    return entries_[static_cast<std::size_t>(model_id)];
  }
  [[noreturn]] static void ThrowUnknown(int model_id);
  int Add(Entry entry);

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
