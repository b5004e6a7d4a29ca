// The profile oracle: the table lookup as first written, a std::map over
// filled (gpcs, batch) cells plus a std::lower_bound batch snap,
// independent of profile::ProfileTable's flat cell array, row table and
// snap table.  The dense table must answer every lookup with the same
// double, and throw std::out_of_range wherever this throws it.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "profile/profile_table.h"

namespace pe::testing {

class ProfileOracle {
 public:
  explicit ProfileOracle(std::vector<int> batch_sizes)
      : batch_sizes_(std::move(batch_sizes)) {}

  void Set(int gpcs, int batch, profile::ProfileEntry entry) {
    cells_[{gpcs, batch}] = entry;
  }
  bool Has(int gpcs, int batch) const {
    return cells_.count({gpcs, batch}) > 0;
  }
  const profile::ProfileEntry& At(int gpcs, int batch) const {
    const auto it = cells_.find({gpcs, batch});
    if (it == cells_.end()) throw std::out_of_range("oracle: no cell");
    return it->second;
  }

  // The smallest profiled batch >= `batch`, clamped to the largest.
  int Snap(int batch) const {
    if (batch_sizes_.empty()) throw std::out_of_range("oracle: no batches");
    const auto it =
        std::lower_bound(batch_sizes_.begin(), batch_sizes_.end(), batch);
    return it == batch_sizes_.end() ? batch_sizes_.back() : *it;
  }
  double LatencySec(int gpcs, int batch) const {
    return At(gpcs, Snap(batch)).latency_sec;
  }
  double Utilization(int gpcs, int batch) const {
    return At(gpcs, Snap(batch)).utilization;
  }
  double ThroughputQps(int gpcs, int batch) const {
    const double latency = LatencySec(gpcs, batch);
    return latency > 0.0 ? 1.0 / latency : 0.0;
  }

 private:
  std::vector<int> batch_sizes_;
  std::map<std::pair<int, int>, profile::ProfileEntry> cells_;
};

// The engine's estimate ticks for `sec`, as a double.
inline double Ticks(double sec) {
  return static_cast<double>(std::max<SimTime>(1, SecToTicks(sec)));
}

// `dense()` returns the bits `oracle()` returns, or throws
// std::out_of_range exactly when it does.
inline void ExpectSameLookup(const std::function<double()>& dense,
                             const std::function<double()>& oracle,
                             const std::string& what) {
  double want = 0.0;
  try {
    want = oracle();
  } catch (const std::out_of_range&) {
    EXPECT_THROW(dense(), std::out_of_range) << what;
    return;
  }
  double got = 0.0;
  EXPECT_NO_THROW(got = dense()) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

// Every lookup of `table` -- Has, At, LatencySec, Utilization,
// ThroughputQps and the engine's estimate ticks -- against `oracle` at
// every gpcs in [0, max_gpcs] and every batch in [min_batch, max_batch].
inline void ExpectTableMatchesOracle(const profile::ProfileTable& table,
                                     const ProfileOracle& oracle,
                                     int max_gpcs, int min_batch,
                                     int max_batch) {
  for (int g = 0; g <= max_gpcs; ++g) {
    for (int b = min_batch; b <= max_batch; ++b) {
      std::string what = "gpcs=";
      what += std::to_string(g);
      what += " batch=";
      what += std::to_string(b);
      EXPECT_EQ(table.Has(g, b), oracle.Has(g, b)) << what;
      ExpectSameLookup([&] { return table.At(g, b).latency_sec; },
                       [&] { return oracle.At(g, b).latency_sec; },
                       what + " At.latency");
      ExpectSameLookup([&] { return table.At(g, b).utilization; },
                       [&] { return oracle.At(g, b).utilization; },
                       what + " At.utilization");
      ExpectSameLookup([&] { return table.LatencySec(g, b); },
                       [&] { return oracle.LatencySec(g, b); },
                       what + " LatencySec");
      ExpectSameLookup([&] { return table.Utilization(g, b); },
                       [&] { return oracle.Utilization(g, b); },
                       what + " Utilization");
      ExpectSameLookup([&] { return table.ThroughputQps(g, b); },
                       [&] { return oracle.ThroughputQps(g, b); },
                       what + " ThroughputQps");
      ExpectSameLookup([&] { return Ticks(table.LatencySec(g, b)); },
                       [&] { return Ticks(oracle.LatencySec(g, b)); },
                       what + " ticks");
    }
  }
}

}  // namespace pe::testing
