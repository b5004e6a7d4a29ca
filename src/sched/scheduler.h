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
// window onto the worker set.  The server's live view materializes a
// worker's state lazily and only when it actually changed, so consulting
// the scheduler no longer copies (or re-sorts) all W workers per arrival;
// VectorWorkerView wraps a plain snapshot vector for tests and ad-hoc
// callers.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "workload/trace.h"

namespace pe::sched {

struct WorkerState {
  int index = 0;
  int gpcs = 0;
  bool idle = true;             // not executing and local queue empty
  SimTime wait_ticks = 0;       // Twait per Eq. 1
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
// reference stays valid until the next simulation event mutates that
// worker.
class WorkerView {
 public:
  // Sentinel for MaxGpcsIdleWorker(): this view keeps no incremental idle
  // index; the caller must scan the workers itself.
  static constexpr int kIdleScanUnsupported = -2;

  virtual ~WorkerView() = default;

  virtual std::size_t size() const = 0;
  virtual const WorkerState& Get(std::size_t i) const = 0;

  // The worker FIFS's arrival rule picks: idle, maximum gpcs, lowest
  // index among ties -- exactly the winner of the ascending-index strict
  // `>` scan.  kNoAssignment when no worker is idle; the default
  // kIdleScanUnsupported means the view maintains no idle index (ad-hoc
  // wrappers), telling the scheduler to fall back to the O(W) scan.  The
  // server's live view answers from an incrementally maintained ordered
  // set in O(log W).
  virtual int MaxGpcsIdleWorker() const { return kIdleScanUnsupported; }

  // Twait of worker i alone (== Get(i).wait_ticks).  The one
  // time-dependent field; a live view can answer it without
  // re-materializing the whole snapshot, which is what ELSA's inner scan
  // is bound by at large W.  Time dependence is tracked by a view-global
  // epoch the engine advances once per distinct simulated instant, so a
  // burst of same-timestamp consultations shares one refresh per worker.
  virtual SimTime WaitTicks(std::size_t i) const { return Get(i).wait_ticks; }

  // True for a long-lived, server-owned view whose Get() positions are
  // stable within one layout and whose layout_version() uniquely
  // identifies the worker set process-wide.  Schedulers may then cache
  // layout-derived state (e.g. ELSA's size-ascending candidate order)
  // keyed on the version.  Ad-hoc wrappers (VectorWorkerView) return
  // false: their contents can differ call to call, so nothing about them
  // may be cached.
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
