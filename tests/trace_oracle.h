// The trace oracle: the reference draw order of generated traces as one
// plain loop, independent of workload::ScenarioTraceSource's precomputed
// thresholds, rate-curve shortcuts and checked clock.  Per query it draws
// the exponential gap (rounded to the nearest tick, at least one), then
// -- only when the mix has several components -- one uniform that picks
// the first component whose running normalized share exceeds it (the last
// one otherwise), then the batch from that component's distribution.  A
// constant-rate ScenarioSpec with the same shares and log-normal
// parameters must reproduce it draw for draw; the scenario tests compare
// the two on whole traces.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "workload/batch_dist.h"
#include "workload/trace.h"

namespace pe::testing {

struct OracleComponent {
  int model_id = 0;
  double share = 1.0;  // relative weight, normalized over the mix
  const workload::BatchDistribution* dist = nullptr;
};

// `n` queries at `rate_qps` on a fresh Rng(seed).
inline workload::QueryTrace OracleTrace(
    double rate_qps, const std::vector<OracleComponent>& components,
    std::size_t n, std::uint64_t seed) {
  double total = 0.0;
  for (const OracleComponent& c : components) total += c.share;
  std::vector<double> shares;
  for (const OracleComponent& c : components) shares.push_back(c.share / total);

  Rng rng(seed);
  std::vector<workload::Query> queries;
  SimTime now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    now += std::max<SimTime>(1, SecToTicks(rng.Exponential(rate_qps)));
    std::size_t k = 0;
    if (components.size() > 1) {
      const double u = rng.NextDouble();
      double acc = 0.0;
      for (std::size_t j = 0; j < shares.size(); ++j) {
        acc += shares[j];
        if (u < acc || j + 1 == shares.size()) {
          k = j;
          break;
        }
      }
    }
    workload::Query q;
    q.id = i;
    q.arrival = now;
    q.batch = components[k].dist->Sample(rng);
    q.model_id = components[k].model_id;
    queries.push_back(q);
  }
  return workload::QueryTrace(std::move(queries));
}

}  // namespace pe::testing
