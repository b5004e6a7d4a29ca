// A DNN model: a named sequence of layers.
#pragma once

#include <string>
#include <vector>

#include "perf/layer.h"

namespace pe::perf {

class DnnModel {
 public:
  DnnModel() = default;
  DnnModel(std::string name, std::vector<Layer> layers);

  const std::string& name() const { return name_; }
  const std::vector<Layer>& layers() const { return layers_; }

 private:
  std::string name_;
  std::vector<Layer> layers_;
};

}  // namespace pe::perf
