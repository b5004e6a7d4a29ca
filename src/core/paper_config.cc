#include "core/paper_config.h"

#include <optional>
#include <sstream>
#include <stdexcept>

namespace pe::core {

const std::vector<ModelServerConfig>& PaperTable1() {
  static const std::vector<ModelServerConfig> kTable = {
      {"shufflenet", 4, 24, 28},
      {"mobilenet", 4, 24, 28},
      {"resnet", 8, 48, 56},
      {"bert", 6, 42, 42},
      {"conformer", 8, 48, 56},
  };
  return kTable;
}

const ModelServerConfig& Table1For(const std::string& model) {
  for (const auto& row : PaperTable1()) {
    if (row.model == model) return row;
  }
  throw std::invalid_argument("Table1For: unknown model " + model);
}

SimTime SlaTarget(const profile::ProfileTable& profile, int max_batch,
                  double sla_n) {
  const double base = profile.LatencySec(7, max_batch);
  const std::optional<SimTime> target = CheckedTicks(sla_n * base, kNsPerSec);
  if (!target) {
    std::ostringstream oss;
    oss << "SlaTarget: sla_n " << sla_n
        << " gives a target outside [0, 2^63) ns";
    throw std::invalid_argument(oss.str());
  }
  return *target;
}

}  // namespace pe::core
