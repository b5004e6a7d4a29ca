#include "sched/fifs.h"

namespace pe::sched {

int FifsScheduler::OnQueryArrival(const workload::Query& query,
                                  const WorkerView& workers) {
  (void)query;
  // The server's live view maintains the (max gpcs, lowest index) idle
  // worker incrementally, so the per-arrival cost is O(log W) instead of
  // an O(W) scan.  Ad-hoc views fall back to the scan below, which selects
  // the same worker (the shadow-view test checks the two agree at every
  // consultation).
  const int fast = workers.MaxGpcsIdleWorker();
  if (fast != WorkerView::kIdleScanUnsupported) return fast;

  // Ties among several idle GPUs are broken toward the largest partition --
  // the most charitable reading of FIFS on a heterogeneous server.  The
  // Figure 5(b) pathology still occurs whenever the only idle GPUs are
  // small ones, which is exactly the loaded regime the paper targets.
  int best = kNoAssignment;
  int best_gpcs = -1;
  const std::size_t n = workers.size();
  for (std::size_t i = 0; i < n; ++i) {
    const WorkerState& w = workers.Get(i);
    if (w.idle && w.gpcs > best_gpcs) {
      best = w.index;
      best_gpcs = w.gpcs;
    }
  }
  return best;
}

}  // namespace pe::sched
