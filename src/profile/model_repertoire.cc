#include "profile/model_repertoire.h"

#include <algorithm>
#include <stdexcept>

#include "perf/model_zoo.h"
#include "profile/profiler.h"

namespace pe::profile {

int ModelRepertoire::Register(std::string name, ProfileTable profile,
                              LatencyFn actual) {
  if (!actual) {
    throw std::invalid_argument("ModelRepertoire: null latency function");
  }
  if (IdOf(name) != -1) {
    throw std::invalid_argument("ModelRepertoire: duplicate model " + name);
  }
  max_batch_ = std::max(max_batch_, profile.max_batch());
  entries_.push_back(
      Entry{std::move(name), std::move(profile), std::move(actual)});
  return static_cast<int>(entries_.size()) - 1;
}

const ModelRepertoire::Entry& ModelRepertoire::At(int model_id) const {
  if (!Has(model_id)) {
    throw std::out_of_range("ModelRepertoire: unknown model id " +
                            std::to_string(model_id));
  }
  return entries_[static_cast<std::size_t>(model_id)];
}

const std::string& ModelRepertoire::name(int model_id) const {
  return At(model_id).name;
}

const ProfileTable& ModelRepertoire::profile(int model_id) const {
  return At(model_id).profile;
}

const LatencyFn& ModelRepertoire::actual(int model_id) const {
  return At(model_id).actual;
}

int ModelRepertoire::IdOf(const std::string& name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

double ModelRepertoire::EstimateSec(int model_id, int gpcs, int batch) const {
  return At(model_id).profile.LatencySec(gpcs, batch);
}

double ModelRepertoire::ActualSec(int model_id, int gpcs, int batch) const {
  return At(model_id).actual(gpcs, batch);
}

ModelRepertoire BuildZooRepertoire(
    const std::vector<std::string>& model_names,
    const perf::RooflineEngine& engine, int max_batch) {
  ModelRepertoire repertoire;
  const Profiler profiler(engine);
  const auto config = ProfilerConfig::Default(std::max(64, max_batch));
  for (const auto& name : model_names) {
    const perf::DnnModel model = perf::BuildModelByName(name);
    ProfileTable table = profiler.Profile(model, config);
    // Bind copies so the latency function outlives this builder.
    LatencyFn actual = [engine, model](int gpcs, int batch) {
      return engine.LatencySec(model, gpcs, batch);
    };
    repertoire.Register(name, std::move(table), std::move(actual));
  }
  return repertoire;
}

}  // namespace pe::profile
