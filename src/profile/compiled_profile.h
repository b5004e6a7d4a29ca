// CompiledProfile: the profile layer's hot-path compilation.
//
// ProfileTable answers every scheduler/simulator lookup through a
// std::map::find plus a lower_bound batch snap -- a cost paid once per
// latency estimate, i.e. per worker per arrival in ELSA's inner loop.
// CompiledProfile flattens a ModelRepertoire's tables once, at
// construction:
//
//  * a per-model batch-snap table (batch -> index of the smallest profiled
//    batch >= batch, clamped to the largest), replacing lower_bound;
//  * a dense (gpcs, snapped-batch-index) -> {latency_sec, latency_ticks}
//    array per model, replacing the map walk -- EstimateSec/EstimateTicks
//    become two array indexes.
//
// Ground truth is not compiled here: ActualSec forwards to the
// repertoire, whose per-model memo is shared by every engine built over
// it (see ModelRepertoire).
//
// Every value is produced by the exact code path it replaces (the table's
// LatencySec), so compiled lookups are bit-identical to the repertoire's
// -- asserted by profile_compiled_test and end-to-end by the engine
// golden determinism suite.  Lookups outside the compiled range
// (unprofiled partition size, unknown model, sparse table holes) fall back
// to ModelRepertoire::EstimateSec, preserving its exact error behavior.
//
// A CompiledProfile never changes after construction, so one may be shared
// across threads.  The repertoire is borrowed and must outlive the
// CompiledProfile.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "profile/model_repertoire.h"
#include "profile/profile_table.h"

namespace pe::profile {

class CompiledProfile {
 public:
  // Compiles every model of `repertoire` (estimates; ground truth forwards).
  explicit CompiledProfile(const ModelRepertoire& repertoire);

  // Profiled (estimated) latency; identical to ModelRepertoire::EstimateSec.
  double EstimateSec(int model_id, int gpcs, int batch) const;

  // max<SimTime>(1, SecToTicks(EstimateSec(...))): the simulator's
  // integral estimate, precomputed per grid point.
  SimTime EstimateTicks(int model_id, int gpcs, int batch) const;

  // Ground-truth latency: ModelRepertoire::ActualSec of the source
  // repertoire (memoized there).
  double ActualSec(int model_id, int gpcs, int batch) const {
    return repertoire_.ActualSec(model_id, gpcs, batch);
  }

 private:
  struct Model {
    // batch (0..max profiled batch) -> index into the batch grid of the
    // smallest profiled batch >= batch; larger batches clamp to the last
    // grid point, negative ones to the first.
    std::vector<std::uint16_t> snap;
    int num_batches = 0;
    int max_gpcs = 0;
    // gpcs -> base offset into est_sec/est_ticks, -1 when unprofiled.
    std::vector<std::int32_t> row;
    std::vector<double> est_sec;
    // kMissing for holes in a sparse table (fallback re-creates the
    // uncompiled error); valid entries are >= 1.
    std::vector<SimTime> est_ticks;
  };

  static constexpr SimTime kMissing = -1;

  void CompileModel(const ProfileTable& table, Model& model);
  // Compiled entry index for the lookup, or -1 when it must fall back.
  std::ptrdiff_t EstimateIndex(const Model& m, int gpcs, int batch) const;
  const Model* ModelFor(int model_id) const;

  const ModelRepertoire& repertoire_;
  std::vector<Model> models_;
};

}  // namespace pe::profile
