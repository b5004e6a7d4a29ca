#include "perf/model.h"

namespace pe::perf {

DnnModel::DnnModel(std::string name, std::vector<Layer> layers)
    : name_(std::move(name)), layers_(std::move(layers)) {}

}  // namespace pe::perf
