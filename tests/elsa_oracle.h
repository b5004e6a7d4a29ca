// A literal Algorithm 2 (paper Section IV-C) over a snapshot vector: the
// test oracle for sched::ElsaScheduler.  Every worker's Eq. 2 slack and
// completion time are computed in doubles, one worker at a time, in
// ascending (gpcs, index) order, with the swap charge and the locality
// tie-break as sched/elsa.h documents them:
//
//   slack      = SLA - alpha * (Twait + Tswap + beta * Tnew)
//   completion = Twait + Tswap + Tnew
//
// Step A binds to the first non-failed worker with positive slack; if that
// worker would swap models and the locality window is on, the first
// swap-free, positive-slack worker whose completion is within the window
// wins instead.  Step B binds to the first worker of minimum completion.
// No thresholds, no index, no caching.
#pragma once

#include <algorithm>
#include <vector>

#include "common/sim_time.h"
#include "profile/model_repertoire.h"
#include "sched/elsa.h"
#include "sched/scheduler.h"
#include "workload/trace.h"

namespace pe::testing {

struct ElsaOracle {
  // Borrowed; must outlive the oracle.
  const profile::ModelRepertoire* repertoire = nullptr;
  SimTime sla_target = 0;
  sched::ElsaParams params;

  int Decide(const workload::Query& query,
             std::vector<sched::WorkerState> workers) const {
    std::sort(workers.begin(), workers.end(),
              [](const sched::WorkerState& a, const sched::WorkerState& b) {
                return a.gpcs != b.gpcs ? a.gpcs < b.gpcs : a.index < b.index;
              });
    const auto swap_free = [&](const sched::WorkerState& w) {
      return w.resident_model == query.model_id || w.resident_model == -1;
    };
    const auto t_swap = [&](const sched::WorkerState& w) {
      return params.swap_cost_sec > 0.0 && !swap_free(w) ? params.swap_cost_sec
                                                         : 0.0;
    };
    const auto t_new = [&](const sched::WorkerState& w) {
      return repertoire->EstimateSec(query.model_id, w.gpcs, query.batch);
    };
    const auto slack = [&](const sched::WorkerState& w) {
      return TicksToSec(sla_target) -
             params.alpha * (TicksToSec(w.wait_ticks) + t_swap(w) +
                             params.beta * t_new(w));
    };
    const auto completion = [&](const sched::WorkerState& w) {
      return TicksToSec(w.wait_ticks) + t_swap(w) + t_new(w);
    };

    // Step A.
    for (const sched::WorkerState& w : workers) {
      if (w.failed || !(slack(w) > 0.0)) continue;
      if (params.locality_tie_sec > 0.0 && !swap_free(w)) {
        const double bound = completion(w) + params.locality_tie_sec;
        for (const sched::WorkerState& c : workers) {
          if (!c.failed && swap_free(c) && slack(c) > 0.0 &&
              completion(c) <= bound) {
            return c.index;
          }
        }
      }
      return w.index;
    }
    // Step B.
    int best = sched::kNoAssignment;
    double t_min = 0.0;
    for (const sched::WorkerState& w : workers) {
      if (w.failed) continue;
      const double t = completion(w);
      if (best == sched::kNoAssignment || t < t_min) {
        best = w.index;
        t_min = t;
      }
    }
    return best;
  }
};

}  // namespace pe::testing
