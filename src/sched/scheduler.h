// Scheduler interface.
//
// The inference server calls the scheduler at three points:
//  * when a query arrives: the scheduler may bind it to a partition's local
//    queue immediately (ELSA-style) or leave it in the server's central
//    FIFO (FIFS-style) by returning kNoAssignment;
//  * when a partition goes idle with a non-empty central queue: servers
//    with central-queue schedulers hand the head query to that partition
//    ("first idle, first serve");
//  * when the server swaps partition layouts mid-run (a live MIG
//    reconfiguration): OnReconfigure announces the new worker set, and
//    RequeueOrphan re-places every query that was queued on a partition
//    that no longer exists.
//
// Schedulers see workers through WorkerState snapshots; `wait_ticks` is the
// paper's Twait (Eq. 1): the estimated execution time of everything queued
// locally plus the estimated remainder of the in-flight query, both derived
// from the profiled lookup table.
//
// Snapshots are delivered through a WorkerView -- an indexed, read-only
// window onto the worker set that also answers two wait queries over a
// position range (FirstWaitAtMost, MinWait).  The server's live view
// answers those from a flat wait index it keeps exact at every worker
// mutation, so a scheduler that decides by wait thresholds never
// materializes a snapshot per candidate; VectorWorkerView wraps a plain
// snapshot vector for tests and ad-hoc callers.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "workload/trace.h"

namespace pe::sched {

struct WorkerState {
  int index = 0;
  int gpcs = 0;
  bool idle = true;             // not executing and local queue empty
  SimTime wait_ticks = 0;       // Twait per Eq. 1; never negative
  std::size_t queue_length = 0;
  // Model most recently started on this partition (the one its weights
  // are loaded for); -1 until the first query starts.  Model-locality-
  // aware schedulers prefer partitions whose resident model matches the
  // arriving query so the server avoids a model-swap penalty.
  int resident_model = -1;
  // True while the partition is failed (fault injection): it executes
  // nothing and must not receive work.  Schedulers skip failed workers;
  // when every worker is failed they return kNoAssignment and the server
  // holds arrivals centrally until recovery.  `idle` is always false for
  // a failed worker.
  bool failed = false;
};

// Sentinel: leave the query in the central queue.
inline constexpr int kNoAssignment = -1;

// Read-only, indexed access to the current worker set.  Get(i) returns the
// state of the worker at position i, current as of the consultation; the
// reference stays valid until the next Get(i) or simulation event.
class WorkerView {
 public:
  // MinWait() of a range that holds no non-failed worker.
  static constexpr SimTime kNoWait = std::numeric_limits<SimTime>::max();

  virtual ~WorkerView() = default;

  virtual std::size_t size() const = 0;
  virtual const WorkerState& Get(std::size_t i) const = 0;

  // The worker FIFS's arrival rule picks: idle, maximum gpcs, first
  // position among ties -- the winner of this strict `>` scan in position
  // order.  kNoAssignment when no worker is idle.  The server's live view
  // answers from its idle bitmap in O(W/64).
  virtual int MaxGpcsIdleWorker() const {
    int best = kNoAssignment;
    int best_gpcs = -1;
    for (std::size_t i = 0; i < size(); ++i) {
      const WorkerState& w = Get(i);
      if (w.idle && w.gpcs > best_gpcs) {
        best = w.index;
        best_gpcs = w.gpcs;
      }
    }
    return best;
  }

  // The leftmost non-failed position in [begin, end) whose Twait is at
  // most `max_wait`, or -1.  Any `max_wait` is valid: a failed worker
  // never matches, not even at std::numeric_limits<SimTime>::max().
  virtual int FirstWaitAtMost(std::size_t begin, std::size_t end,
                              SimTime max_wait) const {
    assert(end <= size());
    for (std::size_t i = begin; i < end; ++i) {
      const WorkerState& w = Get(i);
      if (!w.failed && w.wait_ticks <= max_wait) return static_cast<int>(i);
    }
    return -1;
  }

  // The minimum Twait over the non-failed positions in [begin, end), or
  // kNoWait when there are none.
  virtual SimTime MinWait(std::size_t begin, std::size_t end) const {
    assert(end <= size());
    SimTime shortest = kNoWait;
    for (std::size_t i = begin; i < end; ++i) {
      const WorkerState& w = Get(i);
      if (!w.failed) shortest = std::min(shortest, w.wait_ticks);
    }
    return shortest;
  }

  // True for a long-lived, server-owned view that promises two things:
  //  * its positions are in ascending (gpcs, index) order with
  //    Get(i).index == i, fixed within one layout;
  //  * layout_version() identifies the worker set process-wide.
  // Schedulers may then treat positions as worker indices and cache
  // layout-derived state (e.g. ELSA's equal-size runs) keyed on the
  // version.  Ad-hoc wrappers (VectorWorkerView) return false: their
  // contents and order can differ call to call, so nothing about them may
  // be cached.
  virtual bool stable() const { return false; }
  virtual std::uint64_t layout_version() const { return 0; }
};

// Wraps a snapshot vector as a WorkerView (tests and the vector
// convenience overloads below).  Borrows the vector.
class VectorWorkerView final : public WorkerView {
 public:
  explicit VectorWorkerView(const std::vector<WorkerState>& states)
      : states_(states) {}

  std::size_t size() const override { return states_.size(); }
  const WorkerState& Get(std::size_t i) const override {
    assert(i < states_.size());
    return states_[i];
  }

 private:
  const std::vector<WorkerState>& states_;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Decide where an arriving query goes: a worker index, or kNoAssignment
  // to hold it centrally.
  virtual int OnQueryArrival(const workload::Query& query,
                             const WorkerView& workers) = 0;

  // Convenience overload for callers holding a snapshot vector.  Derived
  // classes re-expose it with `using Scheduler::OnQueryArrival;`.
  int OnQueryArrival(const workload::Query& query,
                     const std::vector<WorkerState>& workers) {
    const VectorWorkerView view(workers);
    return OnQueryArrival(query, view);
  }

  // True if unassigned queries wait in a central FIFO that idle workers
  // pull from.  Schedulers returning kNoAssignment must return true here.
  virtual bool UsesCentralQueue() const = 0;

  // Lifecycle hook: the server finished a live reconfiguration and the
  // worker set changed from `old_workers` to `new_workers` (worker indices
  // are NOT stable across the swap).  Schedulers that cache per-worker
  // state must invalidate it here; per-layout caches keyed on a stable
  // view's layout_version() self-invalidate and need no action.
  virtual void OnReconfigure(const std::vector<WorkerState>& old_workers,
                             const std::vector<WorkerState>& new_workers) {
    (void)old_workers;
    (void)new_workers;
  }

  // Re-places a query orphaned by a reconfiguration (it was sitting in a
  // removed partition's local queue, never started).  Returns a new worker
  // index or kNoAssignment to move it to the central FIFO (central-queue
  // schedulers only).  Default: treat the orphan like a fresh arrival.
  virtual int RequeueOrphan(const workload::Query& query,
                            const WorkerView& workers) {
    return OnQueryArrival(query, workers);
  }

  int RequeueOrphan(const workload::Query& query,
                    const std::vector<WorkerState>& workers) {
    const VectorWorkerView view(workers);
    return RequeueOrphan(query, view);
  }

  virtual std::string name() const = 0;
};

}  // namespace pe::sched
