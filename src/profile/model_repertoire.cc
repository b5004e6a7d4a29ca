#include "profile/model_repertoire.h"

#include <algorithm>
#include <stdexcept>

#include "perf/model_zoo.h"
#include "profile/profiler.h"

namespace pe::profile {

ModelRepertoire::ActualMemo::ActualMemo(const ProfileTable& profile) {
  // An empty table leaves the -1 bounds: every lookup calls the LatencyFn.
  if (profile.partition_sizes().empty() || profile.batch_sizes().empty()) {
    return;
  }
  max_gpcs_ = profile.partition_sizes().back();
  max_batch_ = profile.batch_sizes().back();
  const std::size_t cells = (static_cast<std::size_t>(max_gpcs_) + 1) *
                            (static_cast<std::size_t>(max_batch_) + 1);
  cells_ = std::make_unique<std::atomic<std::uint64_t>[]>(cells);
  for (std::size_t i = 0; i < cells; ++i) cells_[i].store(kUnset);
}

int ModelRepertoire::Register(std::string name, ProfileTable profile,
                              LatencyFn actual) {
  if (!actual) {
    throw std::invalid_argument("ModelRepertoire: null latency function");
  }
  auto memo = std::make_shared<ActualMemo>(profile);
  return Add(Entry{std::move(name), std::move(profile), std::move(actual),
                   std::move(memo)});
}

ModelRepertoire ModelRepertoire::Subset(
    const std::vector<int>& model_ids) const {
  ModelRepertoire subset;
  for (const int m : model_ids) subset.Add(At(m));
  return subset;
}

int ModelRepertoire::Add(Entry entry) {
  // sim::QueryRecord keeps the model id in 16 bits.
  if (entries_.size() >= 65'535) {
    throw std::invalid_argument(
        "ModelRepertoire: a model past the 65,535 QueryRecord::model can "
        "index");
  }
  if (IdOf(entry.name) != -1) {
    throw std::invalid_argument("ModelRepertoire: duplicate model " +
                                entry.name);
  }
  max_batch_ = std::max(max_batch_, entry.profile.max_batch());
  entries_.push_back(std::move(entry));
  return static_cast<int>(entries_.size()) - 1;
}

void ModelRepertoire::ThrowUnknown(int model_id) {
  throw std::out_of_range("ModelRepertoire: unknown model id " +
                          std::to_string(model_id));
}

const std::string& ModelRepertoire::name(int model_id) const {
  return At(model_id).name;
}

const ProfileTable& ModelRepertoire::profile(int model_id) const {
  return At(model_id).profile;
}

int ModelRepertoire::IdOf(const std::string& name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) return static_cast<int>(i);
  }
  return -1;
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
