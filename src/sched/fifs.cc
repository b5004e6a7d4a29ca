#include "sched/fifs.h"

namespace pe::sched {

int FifsScheduler::OnQueryArrival(const workload::Query& query,
                                  const WorkerView& workers) {
  (void)query;
  // Ties among several idle GPUs are broken toward the largest partition --
  // the most charitable reading of FIFS on a heterogeneous server.  The
  // Figure 5(b) pathology still occurs whenever the only idle GPUs are
  // small ones, which is exactly the loaded regime the paper targets.
  return workers.MaxGpcsIdleWorker();
}

}  // namespace pe::sched
