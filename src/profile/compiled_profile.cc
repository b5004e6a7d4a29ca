#include "profile/compiled_profile.h"

#include <algorithm>

namespace pe::profile {

CompiledProfile::CompiledProfile(const ModelRepertoire& repertoire)
    : repertoire_(repertoire) {
  models_.resize(static_cast<std::size_t>(repertoire.size()));
  for (int m = 0; m < repertoire.size(); ++m) {
    CompileModel(repertoire.profile(m), models_[static_cast<std::size_t>(m)]);
  }
}

void CompiledProfile::CompileModel(const ProfileTable& table, Model& model) {
  const std::vector<int>& batches = table.batch_sizes();
  const std::vector<int>& sizes = table.partition_sizes();
  if (batches.empty() || sizes.empty()) return;  // all lookups fall back

  model.num_batches = static_cast<int>(batches.size());
  model.max_gpcs = sizes.back();
  model.row.assign(static_cast<std::size_t>(model.max_gpcs) + 1, -1);

  // Batch-snap table: snap[b] is lower_bound(batches, b) as an index,
  // exactly ProfileTable's nearest-profiled-batch-above rule.
  model.snap.assign(static_cast<std::size_t>(batches.back()) + 1, 0);
  std::size_t j = 0;
  for (int b = 0; b <= batches.back(); ++b) {
    while (batches[j] < b) ++j;
    model.snap[static_cast<std::size_t>(b)] = static_cast<std::uint16_t>(j);
  }

  const std::size_t cells = sizes.size() * batches.size();
  model.est_sec.assign(cells, 0.0);
  model.est_ticks.assign(cells, kMissing);
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    const std::int32_t base = static_cast<std::int32_t>(g) *
                              static_cast<std::int32_t>(batches.size());
    model.row[static_cast<std::size_t>(sizes[g])] = base;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      if (!table.Has(sizes[g], batches[b])) continue;  // sparse hole
      const double sec = table.At(sizes[g], batches[b]).latency_sec;
      model.est_sec[static_cast<std::size_t>(base) + b] = sec;
      model.est_ticks[static_cast<std::size_t>(base) + b] =
          std::max<SimTime>(1, SecToTicks(sec));
    }
  }
}

const CompiledProfile::Model* CompiledProfile::ModelFor(int model_id) const {
  if (model_id < 0 || model_id >= static_cast<int>(models_.size())) {
    return nullptr;
  }
  return &models_[static_cast<std::size_t>(model_id)];
}

std::ptrdiff_t CompiledProfile::EstimateIndex(const Model& m, int gpcs,
                                              int batch) const {
  if (gpcs < 0 || gpcs > m.max_gpcs || m.row.empty()) return -1;
  const std::int32_t base = m.row[static_cast<std::size_t>(gpcs)];
  if (base < 0) return -1;
  std::size_t bi;
  if (batch >= static_cast<int>(m.snap.size())) {
    bi = static_cast<std::size_t>(m.num_batches) - 1;  // clamp to largest
  } else {
    bi = m.snap[static_cast<std::size_t>(batch < 0 ? 0 : batch)];
  }
  return static_cast<std::ptrdiff_t>(base) + static_cast<std::ptrdiff_t>(bi);
}

double CompiledProfile::EstimateSec(int model_id, int gpcs, int batch) const {
  if (const Model* m = ModelFor(model_id)) {
    const std::ptrdiff_t idx = EstimateIndex(*m, gpcs, batch);
    if (idx >= 0 && m->est_ticks[static_cast<std::size_t>(idx)] != kMissing) {
      return m->est_sec[static_cast<std::size_t>(idx)];
    }
  }
  return repertoire_.EstimateSec(model_id, gpcs, batch);
}

SimTime CompiledProfile::EstimateTicks(int model_id, int gpcs,
                                       int batch) const {
  if (const Model* m = ModelFor(model_id)) {
    const std::ptrdiff_t idx = EstimateIndex(*m, gpcs, batch);
    if (idx >= 0) {
      const SimTime ticks = m->est_ticks[static_cast<std::size_t>(idx)];
      if (ticks != kMissing) return ticks;
    }
  }
  return std::max<SimTime>(
      1, SecToTicks(repertoire_.EstimateSec(model_id, gpcs, batch)));
}

}  // namespace pe::profile
