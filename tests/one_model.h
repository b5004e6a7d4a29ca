// Single-model serving input for tests.  Every engine and scheduler serves
// a profile::ModelRepertoire; a single-model one serves a one-entry
// repertoire.  They borrow it, so a test keeps the repertoire these return
// in a named variable that outlives them -- never a temporary.
#pragma once

#include <string>
#include <utility>

#include "profile/model_repertoire.h"
#include "profile/profile_table.h"

namespace pe::testing {

// `table` registered as model 0, charged `actual` as its ground truth.
inline profile::ModelRepertoire OneModel(profile::ProfileTable table,
                                         profile::LatencyFn actual) {
  profile::ModelRepertoire rep;
  std::string name = table.model_name();
  rep.Register(std::move(name), std::move(table), std::move(actual));
  return rep;
}

// The engine tests' fixed-latency toy: GPU(1) takes 10 ms and GPU(7)
// 2 ms, any batch, in the profile and in ground truth alike.
inline profile::ModelRepertoire ToyModel() {
  profile::ProfileTable t("toy", {1, 7}, {32});
  t.Set(1, 32, {10e-3, 0.9});
  t.Set(7, 32, {2e-3, 0.5});
  return OneModel(std::move(t), [](int gpcs, int batch) {
    (void)batch;
    return gpcs == 1 ? 10e-3 : 2e-3;
  });
}

}  // namespace pe::testing
