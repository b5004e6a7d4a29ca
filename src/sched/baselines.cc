#include "sched/baselines.h"

#include <cassert>
#include <limits>

namespace pe::sched {

int JsqScheduler::OnQueryArrival(const workload::Query& query,
                                 const WorkerView& workers) {
  (void)query;
  const std::size_t n = workers.size();
  assert(n > 0);
  const SimTime shortest = workers.MinWait(0, n);
  if (shortest == WorkerView::kNoWait) return kNoAssignment;
  // The first worker at the shortest wait: the winner of the strict `<`
  // scan in position order.
  const int pos = workers.FirstWaitAtMost(0, n, shortest);
  return workers.Get(static_cast<std::size_t>(pos)).index;
}

GreedyFastestScheduler::GreedyFastestScheduler(
    const profile::ModelRepertoire& repertoire)
    : repertoire_(repertoire) {}

int GreedyFastestScheduler::OnQueryArrival(const workload::Query& query,
                                           const WorkerView& workers) {
  const std::size_t n = workers.size();
  assert(n > 0);
  double t_min = std::numeric_limits<double>::infinity();
  int best = kNoAssignment;
  for (std::size_t i = 0; i < n; ++i) {
    const WorkerState& w = workers.Get(i);
    if (w.failed) continue;
    const double t =
        TicksToSec(w.wait_ticks) +
        repertoire_.EstimateSec(query.model_id, w.gpcs, query.batch);
    if (best == kNoAssignment || t < t_min) {
      t_min = t;
      best = w.index;
    }
  }
  return best;
}

}  // namespace pe::sched
