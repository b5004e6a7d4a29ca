// The multi-GPU inference server simulator.
//
// A discrete-event simulation of the paper's serving system (Figure 6):
// queries arrive from a trace, optionally pass through a finite-capacity
// frontend (the query-supply stage whose saturation the paper observed for
// MobileNet at 48 GPCs), are placed by the scheduler, and execute on
// heterogeneous GPU partition workers.
//
// Execution times are sampled from a ground-truth latency function
// (the roofline model, optionally with log-normal noise); the scheduler
// only ever sees the profiled estimates, so estimate/actual divergence is
// faithfully represented when noise is enabled.
//
// The engine can be driven two ways:
//  * batch: Run(trace) replays a whole trace to completion;
//  * incremental: InjectQuery/InjectTrace feed arrivals, AdvanceTo(T)
//    simulates up to (but not including) instant T, BeginReconfigure swaps
//    the partition layout live, and Finish() drains everything left.
//
// Hot-path design (the fast engine, on by default):
//  * EstimateTicks reads the model's dense ProfileTable through
//    ModelRepertoire::EstimateSec (three array reads, no search), and
//    ActualTicks reads the repertoire's ground-truth memo, which every
//    engine over the same repertoire (or a Subset of it) shares, so a
//    cell's LatencyFn runs once per zoo rather than once per engine;
//  * per query, the engine keeps its 48-byte QueryRecord and nothing
//    else: an arrival or frontend-done event carries the record's index,
//    and dispatch rebuilds the Query from the record;
//  * the scheduler consults a server-owned live WorkerView instead of an
//    O(W) snapshot-vector rebuild per consultation -- draining a long
//    central queue after a reconfiguration is no longer O(Q*W).  The view
//    keeps a flat wait index, two parallel integer arrays rewritten at
//    every worker mutation, from which "Twait <= X" and the minimum Twait
//    of a position range are exact at any instant, with no refresh as
//    time moves; the "Twait <= X" scan reads one key per worker;
//  * each worker's local queue is a power-of-two ring buffer, so the
//    steady enqueue/start cycle allocates nothing;
//  * injected arrivals are (typically) already time-sorted, so they stay
//    in the record array, read by a cursor merged on the fly with the
//    pending-event calendar; a million-query trace never sits in the
//    priority structure at all.  Records [0, k) are the cursor while
//    every seq drawn so far went to one of them, so record i has seq i,
//    below every calendar entry's: a cursor arrival wins every tie, which
//    is the (time, seq) order.  The first injection that would break this
//    -- an arrival out of time order, or any injection once an event has
//    been pushed -- freezes the cursor, and it and every later injection
//    ride the calendar;
//  * worker/frontend/reconfiguration events (and the arrival injections
//    the cursor does not take) live in a two-level
//    bucketed EventCalendar -- a near-future bucket wheel plus a sorted
//    overflow spill -- so the dominant completion -> dispatch ->
//    completion cycle is O(1) amortized instead of the binary heap's
//    O(log E) (see sim/event_calendar.h);
//  * nothing the scheduler reads needs refreshing when time moves (the
//    wait index is exact at any instant), so a burst of events at one
//    timestamp costs each consultation the same as an isolated one;
//  * FIFS's largest-idle-partition query reads an idle bitmap, one bit
//    per worker position, sized by BuildWorkers and never allocating
//    after it.
// Behaviour is pinned by checked-in record-stream digests
// (tests/engine_golden_test.cc), and a shadow check re-derives every
// scheduler consultation from fresh worker snapshots
// (tests/sched_shadow_view_test.cc).
//
// A live reconfiguration models a MIG layout change as a first-class
// simulation event: in-flight queries drain on the old layout, queued work
// (central FIFO and the retired partitions' local queues) is carried over
// to the new workers through the scheduler's requeue hook, and dispatch is
// held for the drain + downtime window.  Queries delayed this way are
// marked in their QueryRecord (reconfig_stalls), so the queue-build-up
// transient a reconfiguration causes is measurable.  One RNG stream spans
// the whole run regardless of how many reconfigurations occur.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/event_calendar.h"
#include "profile/model_repertoire.h"
#include "sched/scheduler.h"
#include "sim/metrics.h"
#include "sim/worker.h"
#include "workload/trace.h"

namespace pe::sim {

// Ground truth: actual execution latency of (partition gpcs, batch).
// Alias of the repertoire's per-model function type.
using LatencyFn = profile::LatencyFn;

struct FrontendConfig {
  bool enabled = false;
  // Parallel preprocessing lanes (the paper's host has 96 vCPUs).
  int lanes = 96;
  // Deterministic per-query preprocessing cost.
  SimTime cost_per_query = UsToTicks(500.0);
};

struct ServerConfig {
  // One worker per element; the multiset of GPU partition sizes.
  std::vector<int> partition_gpcs;
  // SLA target for bookkeeping (violation rate in stats).
  SimTime sla_target = 0;
  // Log-normal multiplicative execution-time noise (sigma in log space);
  // 0 disables noise and makes runs fully deterministic.
  double latency_noise_sigma = 0.0;
  std::uint64_t seed = 0x5EED;
  FrontendConfig frontend;
  // Charged on top of a query's execution time when its start displaces a
  // different resident model on the partition (weight re-load / context
  // switch).  0 (the default) models free swaps; single-model runs never
  // swap, so the knob cannot perturb them either way.
  SimTime model_swap_cost = 0;
  // Per-query start deadline, relative to the query's (local) arrival; a
  // query whose head-of-queue turn comes more than `deadline` ticks after
  // it arrived is dropped (QueryRecord::shed) instead of started.  0 (the
  // default) disables shedding entirely -- no code path changes, so
  // deadline-free runs are bit-identical to the pre-fault engine.
  SimTime deadline = 0;
};

struct SimResult {
  std::vector<QueryRecord> records;
  ServerStats Stats(SimTime sla_target, double warmup_fraction = 0.1) const {
    return ComputeStats(records, sla_target, warmup_fraction);
  }
};

class InferenceServer {
 public:
  // Every injected query's model_id must be a valid id of `repertoire`,
  // whose per-model tables provide the scheduler estimates and whose
  // latency functions provide the ground truth; a single-model server
  // serves a one-entry repertoire.  `repertoire` must be non-empty, and it
  // and `scheduler` must outlive the server.  Every layout, this one or a
  // BeginReconfigure target, must fit a QueryRecord: at most 32,767
  // partitions of at most 255 GPCs, or std::invalid_argument.
  InferenceServer(ServerConfig config,
                  const profile::ModelRepertoire& repertoire,
                  sched::Scheduler& scheduler);

  // Batch driving: resets incremental state, replays the whole trace to
  // completion, and returns per-query records.  Equivalent to a fresh
  // InjectTrace(trace) + Finish().
  SimResult Run(const workload::QueryTrace& trace);

  // Span form: same semantics over a borrowed query sequence, which need
  // not be a QueryTrace.
  SimResult Run(std::span<const workload::Query> queries);

  // --- Incremental driving API ---------------------------------------
  // Feeds one arrival.  Ids must stay dense (query.id == number of queries
  // injected so far), arrivals must not predate the current time, and the
  // batch must lie in [0, 65,535] (QueryRecord::batch), or
  // std::invalid_argument.
  // Until the engine schedules its first event, injections that keep time
  // order cost one QueryRecord each; any other (out of time order, or
  // later -- a fault driver's retries) also costs one calendar event.
  void InjectQuery(const workload::Query& query);

  // Feeds every query of `trace` (ids continuing the dense sequence),
  // reserving record capacity for the whole trace up front.
  void InjectTrace(const workload::QueryTrace& trace);

  // Span form of InjectTrace (same dense-id and ordering requirements).
  void InjectSpan(std::span<const workload::Query> queries);

  // Reserves record capacity for `queries` injections in all, as
  // std::vector::reserve does: a driver that will inject more than one
  // span (a fault driver's retries) sizes the records once, up front.
  // Injections past it still grow the records.
  void ReserveRecords(std::size_t queries) { records_.reserve(queries); }

  // Processes every pending event strictly before `when`, then sets the
  // current time to `when` (no-op when `when` is in the past).  Events at
  // exactly `when` stay pending: AdvanceTo leaves the simulation in the
  // state at the *start* of that instant.
  void AdvanceTo(SimTime when);

  // Begins a live reconfiguration to `new_layout` at the current time:
  // dispatch is held from now on, in-flight queries drain on the old
  // workers, and the new layout comes up `downtime` ticks after the drain
  // completes.  Queued work is carried over (nothing is lost or re-run).
  // Calling again before the window closes supersedes the pending target
  // layout and extends the window -- it never shortens.
  void BeginReconfigure(std::vector<int> new_layout, SimTime downtime);

  // Drains every remaining event (including a pending reconfiguration)
  // and returns the per-query records.  Queries still parked by a total
  // outage (every worker failed, no recovery) are marked failed rather
  // than left dangling, so every record ends terminal: completed, failed,
  // or shed.
  SimResult Finish();

  // --- Fault injection -------------------------------------------------
  // Fails worker `index` at the current time (a lost MIG slice).  The
  // in-flight query, if any, is killed -- its record marked failed, its
  // pending completion event cancelled -- and returned.  Queued-but-
  // unstarted entries are, with `requeue_orphans`, re-placed through the
  // scheduler's orphan hook onto surviving workers (parked centrally when
  // every worker is down); without it they are marked failed and returned
  // too (the whole-server-crash path, where the caller re-routes them
  // across the fleet, re-injecting each as a new query).  A failed worker
  // reports failed in its WorkerState, never reports idle (its idle bit
  // stays clear), and receives no work until RecoverWorker.  Note: a live
  // reconfiguration replaces the worker set, so failure marks do not
  // survive BeginReconfigure.  No-op (empty return) if already failed.
  std::vector<workload::Query> FailWorker(int index,
                                          bool requeue_orphans = true);

  // Heals worker `index`; parked/central work is re-offered immediately.
  void RecoverWorker(int index);

  // Removes every centrally held query (awaiting dispatch or parked by an
  // outage), marking each record failed at the current time, and returns
  // them -- the whole-server-crash path, where the fleet driver re-routes
  // them to surviving replicas.
  std::vector<workload::Query> FailCentralQueue();

  // Multiplies every subsequent query's *actual* execution time by
  // `factor` (a degraded replica / brownout).  Scheduler estimates are
  // deliberately unchanged: the scheduler plans against the profile while
  // the hardware underdelivers, exactly the estimate/actual divergence a
  // real slowdown causes.  1.0 restores nominal speed; factor must be > 0.
  void SetSlowdownFactor(double factor);

  int num_failed_workers() const { return num_failed_; }
  // Current worker count -- the *live* layout's size, which tracks
  // BeginReconfigure swaps (callers iterating workers to fail a whole
  // server must use this, not the configured layout).
  int num_workers() const { return static_cast<int>(workers_.size()); }

  SimTime now() const { return now_; }
  bool reconfiguring() const { return reconfiguring_; }

  const std::vector<PartitionWorker>& workers() const { return workers_; }

 private:
  // The Event record and EventType live in sim/event_calendar.h beside
  // the structure that orders them.

  // Server-owned scheduler view.  Positions are worker indices, in the
  // ascending (gpcs, index) order BuildWorkers lays out, and
  // layout_version() is process-unique per BuildWorkers, so the view is
  // stable() and schedulers can cache per-layout derived state against
  // it.  Get(i) materializes worker i's snapshot on each call; the wait
  // and idle queries read flat indexes instead.  The wait index is two
  // parallel arrays, by position,
  //   queued      = the queued estimate;
  //   backlog_end = estimated_end() + queued while busy, kNotBusy
  //                 otherwise;
  // both kFailed for a failed worker, rewritten by Sync at every worker
  // mutation.  Twait is queued + max(0, estimated_end() - now) ==
  // max(queued, backlog_end - now), so Twait <= X  <=>  backlog_end <=
  // X + now && queued <= X holds exactly at every instant, estimate
  // overruns included, with no per-instant refresh.  FirstWaitAtMost
  // scans backlog_end alone and tests queued only on a hit: a busy
  // worker whose estimate has not run out has queued <= backlog_end -
  // now, so a hit fails its queued test only after an overrun, for a
  // worker that holds a queue while not busy, or for a failed worker
  // under a saturated bound -- and the scan moves on past it.  The idle
  // index is one bit per position, set while the worker is idle, plus
  // the first position of each position's equal-size run: the highest
  // set bit is the largest idle partition, and the first set bit of its
  // run the lowest index among equals.
  class LiveWorkerView final : public sched::WorkerView {
   public:
    explicit LiveWorkerView(const InferenceServer& server)
        : server_(server) {}

    std::size_t size() const override;
    const sched::WorkerState& Get(std::size_t i) const override;
    // Answered from the idle bitmap in O(W/64).
    int MaxGpcsIdleWorker() const override;
    int FirstWaitAtMost(std::size_t begin, std::size_t end,
                        SimTime max_wait) const override;
    SimTime MinWait(std::size_t begin, std::size_t end) const override;
    bool stable() const override { return true; }
    std::uint64_t layout_version() const override { return version_; }

    // A fresh layout of idle `workers` (in position order).
    void OnLayoutChange(const std::vector<PartitionWorker>& workers);
    // Re-keys `worker` and its idle bit after a mutation.
    void Sync(const PartitionWorker& worker);

   private:
    // Both keys of a failed worker: its queued key reads as kNoWait in
    // MinWait, so it never lowers it, and fails every queued test.
    static constexpr SimTime kFailed = kNoWait;
    static constexpr SimTime kNotBusy = std::numeric_limits<SimTime>::min();

    const InferenceServer& server_;
    std::uint64_t version_ = 0;
    std::vector<SimTime> queued_;
    std::vector<SimTime> backlog_end_;
    std::vector<std::uint64_t> idle_bits_;
    std::vector<int> run_start_;
    mutable std::vector<sched::WorkerState> slots_;
  };

  void Reset();
  void Push(SimTime time, EventType type, std::uint32_t payload);
  void PushWithSeq(SimTime time, std::uint64_t seq, EventType type,
                   std::uint32_t payload);
  // Pops the earliest pending event (merging the calendar with the
  // arrival cursor by (time, seq)) into `ev`.  With `bounded`, events at
  // or after `bound` stay pending.  Returns false when nothing qualifies.
  // A cursor arrival's payload is its record index and its seq.
  bool PopNextEvent(SimTime bound, bool bounded, Event& ev);
  // The shared event loop of AdvanceTo/Finish: pops events in (time, seq)
  // order and drains every event at the same timestamp in one sweep --
  // the current time is written once per distinct instant.
  void DrainEvents(SimTime bound, bool bounded);
  void ProcessEvent(const Event& ev);
  // The query record `index` was injected as.
  workload::Query QueryOf(std::uint32_t index) const;
  // Scheduler consultation for an arrival or an orphan, through the live
  // view (which reads wait times at the current time).
  int ConsultScheduler(const workload::Query& query, bool orphan);
  void Dispatch(const workload::Query& query, SimTime now);
  // Binds `query` to worker `index` -- a scheduler's answer, or the
  // worker pulling the central queue's head: stamps it dispatched,
  // enqueues it with its estimate and starts the worker if it is free.
  // Throws std::out_of_range for a bad index and std::logic_error for a
  // failed worker, in every build.  The one place a query is enqueued.
  void Bind(const workload::Query& query, int index, SimTime now);
  void CompleteReconfigure(SimTime now);
  // Re-offers central-queue heads to the scheduler (central-queue
  // schedulers only), stopping at the first it declines; used after a
  // reconfiguration brings the new (all-idle) workers up.
  void ReofferCentralQueue(SimTime now);
  // Refills and returns the member scratch vector (the OnReconfigure
  // lifecycle hook).  The reference is invalidated by the next call.
  const std::vector<sched::WorkerState>& Snapshots(SimTime now) const;
  void BuildWorkers(const std::vector<int>& partition_gpcs);
  // Starts the worker's head query if the worker is free, recording start
  // metadata (including any model-swap charge) and scheduling the
  // completion event.  Throws std::overflow_error, naming the swap cost,
  // when the finish instant passes 2^63 ns.
  void StartHead(PartitionWorker& worker, SimTime now);
  // Ground truth x slowdown x noise, at least one tick.  Throws
  // std::overflow_error, naming the slowdown factor and the noise sigma,
  // when the product passes 2^63 ns.
  SimTime ActualTicks(int model_id, int gpcs, int batch);
  SimTime EstimateTicks(int model_id, int gpcs, int batch) const;

  ServerConfig config_;
  const profile::ModelRepertoire& repertoire_;
  sched::Scheduler& scheduler_;
  Rng rng_;

  // Worker/frontend/reconfig events plus the arrival injections the
  // cursor does not take, in the two-level bucketed calendar (O(1)
  // amortized).
  EventCalendar calendar_;
  // The arrival cursor: records [arrival_cursor_, cursor_end_) are
  // pending cursor arrivals, record i with seq i.  While next_seq_ ==
  // cursor_end_, every seq drawn so far went to the cursor and it takes
  // the next in-order injection; otherwise it is frozen.
  std::size_t arrival_cursor_ = 0;
  std::size_t cursor_end_ = 0;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0;

  std::vector<PartitionWorker> workers_;
  LiveWorkerView view_{*this};
  // Unassigned queries.  For central-queue schedulers this is the ordinary
  // central FIFO; during a reconfiguration window it additionally holds
  // every arrival (any scheduler) until the new layout is up.
  std::deque<workload::Query> central_queue_;
  std::vector<SimTime> frontend_free_at_;  // per lane
  // One per injected query, by id: the engine's only per-query state.
  std::vector<QueryRecord> records_;
  // Scratch for Snapshots(): reserved once per layout, reused per event.
  mutable std::vector<sched::WorkerState> snapshots_;

  // Live-reconfiguration state: while `reconfiguring_`, no query starts
  // and arrivals are held.  `reconfig_gen_` stamps the kReconfigDone event
  // so a superseded window's completion is ignored.
  bool reconfiguring_ = false;
  SimTime reconfig_ready_ = 0;
  std::vector<int> pending_layout_;
  std::uint32_t reconfig_gen_ = 0;

  // Fault-injection state.  `done_seq_[i]` is the event seq of worker i's
  // pending completion (written at every start), so FailWorker can cancel
  // it through `stale_done_`; the kWorkerDone handler drops cancelled
  // seqs.  All empty/neutral without fault injection: the clean-run cost
  // is one empty() check per completion.
  std::vector<std::uint64_t> done_seq_;
  std::set<std::uint64_t> stale_done_;
  int num_failed_ = 0;
  double slowdown_ = 1.0;
};

}  // namespace pe::sim
