// A GPU partition worker: one MIG instance executing queries from its
// local FIFO queue (Figure 9: "all GPU partitions have [a] local scheduling
// queue").
//
// The worker tracks two clocks per query:
//  * the *actual* execution time, drawn from the ground-truth latency
//    function (roofline model, optionally with multiplicative noise);
//  * the *estimated* execution time from the profiled lookup table, used
//    to expose Twait (Eq. 1) to the scheduler -- including
//    Tremaining,current = Testimated,current - Telapsed,current via the
//    start timestamp, exactly as the paper implements it.
//
// The local queue is a power-of-two ring buffer that doubles when full and
// never shrinks, so a worker's steady enqueue/start cycle allocates
// nothing (a std::deque allocates and frees a block every dozen queries).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/sim_time.h"
#include "sched/scheduler.h"
#include "workload/trace.h"

namespace pe::sim {

class PartitionWorker {
 public:
  PartitionWorker(int index, int gpcs);

  int index() const { return index_; }
  int gpcs() const { return gpcs_; }

  // Model whose weights are loaded on this partition: the model of the
  // most recently started query, -1 until the first start.  Persists
  // across idle periods (the model stays resident until displaced).
  int resident_model() const { return resident_model_; }

  bool busy() const { return current_.has_value(); }
  bool idle() const { return !failed_ && !busy() && size_ == 0; }

  // Fault state: a failed partition (lost MIG slice) executes nothing and
  // never reports idle; the scheduler skips it until recovery.
  bool failed() const { return failed_; }
  void SetFailed(bool failed) { failed_ = failed; }

  // Appends a query to the local queue with its estimated execution time.
  void Enqueue(const workload::Query& query, SimTime estimated);

  // True if a query is ready to start (worker not busy, queue non-empty).
  bool CanStart() const { return !busy() && size_ != 0; }

  // The query at the head of the local queue; requires a non-empty queue.
  const workload::Query& Head() const;

  // Pops the head query and marks the worker busy from `now` until
  // `finish` (> now).  Returns the started query.
  workload::Query Start(SimTime now, SimTime finish);

  // Completes the in-flight query; the worker becomes free.
  workload::Query Finish();

  // Kills the in-flight query mid-execution (partition failure); the
  // worker becomes free immediately and the victim is returned so the
  // caller can record/retry it.  Requires busy().
  workload::Query Abort();

  // Pops the head query without starting it (deadline shed); requires a
  // non-empty queue.
  workload::Query PopHead();

  // Removes and returns every not-yet-started local-queue entry in FIFO
  // order, leaving the queue empty.  The in-flight query (if any) is
  // unaffected.  Used when a reconfiguration retires this partition and
  // its queued work must be carried over to the new layout.
  std::vector<workload::Query> TakeQueue();

  SimTime busy_until() const { return busy_until_; }

  // Estimated time of all queued queries.
  SimTime queued_estimate() const { return queued_estimated_; }
  // When the in-flight query's estimated time runs out (start + its
  // estimate); meaningful while busy().  Actual execution may run past it.
  SimTime estimated_end() const {
    return current_started_ + current_estimated_;
  }

  // Twait per Eq. 1 at time `now`: estimated time of all queued queries
  // plus the estimated remainder of the in-flight one,
  // queued_estimate() + max(0, estimated_end() - now) while busy.
  SimTime EstimatedWait(SimTime now) const;

  // Snapshot for the scheduler.
  sched::WorkerState Snapshot(SimTime now) const;

 private:
  struct Pending {
    workload::Query query;
    SimTime estimated;
  };

  // Removes and returns the head entry; requires a non-empty queue.
  Pending PopFront();

  int index_;
  int gpcs_;
  int resident_model_ = -1;
  bool failed_ = false;
  // The local queue: size_ entries from ring_[head_] on, wrapping; the
  // capacity is zero or a power of two.
  std::vector<Pending> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  SimTime queued_estimated_ = 0;  // running sum over the queue

  std::optional<workload::Query> current_;
  SimTime current_estimated_ = 0;
  SimTime current_started_ = 0;
  SimTime busy_until_ = 0;
};

}  // namespace pe::sim
