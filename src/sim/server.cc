#include "sim/server.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace pe::sim {

namespace {

// Process-unique layout stamp: every BuildWorkers gets a fresh value, so a
// scheduler's per-layout cache can never alias two different worker sets
// (even across servers sharing one scheduler object).
std::uint64_t NextLayoutVersion() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

// Throws std::overflow_error: an execution time of `sec` seconds does not
// fit the tick clock.
[[noreturn]] void ThrowExecutionOverflow(double sec, double slowdown,
                                         double noise_sigma) {
  std::ostringstream oss;
  oss << "InferenceServer: an execution time of " << sec
      << " s overflows the tick clock (2^63 ns) at slowdown factor "
      << slowdown << " and noise sigma " << noise_sigma;
  throw std::overflow_error(oss.str());
}

[[noreturn]] void ThrowFinishOverflow(SimTime now, SimTime actual,
                                      SimTime swap_cost) {
  std::ostringstream oss;
  oss << "InferenceServer: a query started at " << now << " ns for "
      << actual << " ns of execution plus a model_swap_cost of " << swap_cost
      << " ns finishes past the tick clock (2^63 ns)";
  throw std::overflow_error(oss.str());
}

// Throws std::invalid_argument unless a QueryRecord can name every worker
// of `layout`: worker indices are int16 and partition sizes uint8.
void CheckLayoutFitsRecords(const std::vector<int>& layout) {
  if (layout.size() > 32'767) {
    throw std::invalid_argument(
        "InferenceServer: a layout of " + std::to_string(layout.size()) +
        " partitions passes the 32,767 QueryRecord::worker can index");
  }
  for (const int gpcs : layout) {
    if (gpcs > 255) {
      throw std::invalid_argument(
          "InferenceServer: a partition of " + std::to_string(gpcs) +
          " GPCs passes the 255 QueryRecord::worker_gpcs can hold");
    }
  }
}

// Adds one to a record's 16-bit counter `field`, which must not wrap.
void CountUp(std::uint16_t& counter, const char* field) {
  if (counter == std::numeric_limits<std::uint16_t>::max()) {
    std::string message = "InferenceServer: QueryRecord::";
    message += field;
    message += " would pass 65,535";
    throw std::overflow_error(message);
  }
  ++counter;
}

}  // namespace

std::size_t InferenceServer::LiveWorkerView::size() const {
  return server_.workers_.size();
}

const sched::WorkerState& InferenceServer::LiveWorkerView::Get(
    std::size_t i) const {
  assert(i < server_.workers_.size());
  slots_[i] = server_.workers_[i].Snapshot(server_.now_);
  return slots_[i];
}

int InferenceServer::LiveWorkerView::MaxGpcsIdleWorker() const {
  // Positions ascend by (gpcs, index): the highest idle bit is the largest
  // idle partition, and the first idle bit of its equal-size run the
  // lowest index among equals -- the FIFS scan winner.
  std::size_t word = idle_bits_.size();
  while (word > 0 && idle_bits_[word - 1] == 0) --word;
  if (word == 0) return sched::kNoAssignment;
  const std::size_t top =
      word * 64 - 1 -
      static_cast<std::size_t>(std::countl_zero(idle_bits_[word - 1]));
  const auto start = static_cast<std::size_t>(run_start_[top]);
  word = start / 64;
  // Bits below `start` in its word belong to smaller partitions.
  std::uint64_t bits = idle_bits_[word] & (~std::uint64_t{0} << (start % 64));
  while (bits == 0) bits = idle_bits_[++word];  // stops at `top` at the latest
  return static_cast<int>(word * 64 +
                          static_cast<std::size_t>(std::countr_zero(bits)));
}

int InferenceServer::LiveWorkerView::FirstWaitAtMost(std::size_t begin,
                                                     std::size_t end,
                                                     SimTime max_wait) const {
  assert(end <= backlog_end_.size());
  // Capped below kFailed, so failed workers never match; the backlog
  // bound saturates instead of overflowing.
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  const SimTime queued_max = std::min(max_wait, kFailed - 1);
  const SimTime now = server_.now_;
  const SimTime end_max = max_wait > kMax - now ? kMax : max_wait + now;
  const SimTime* ends = backlog_end_.data();
  const SimTime* queued = queued_.data();
  const auto hit = [&](std::size_t k) -> bool { return ends[k] <= end_max; };
  std::size_t i = begin;
  for (;;) {
    // Non-short-circuit tests, four keys per branch: the scan usually
    // passes over dozens of loaded workers before the first hit.
    for (; i + 4 <= end; i += 4) {
      if (hit(i) | hit(i + 1) | hit(i + 2) | hit(i + 3)) break;
    }
    const std::size_t stop = std::min(i + 4, end);
    for (; i < stop; ++i) {
      if (hit(i) && queued[i] <= queued_max) return static_cast<int>(i);
    }
    if (i == end) return -1;
  }
}

SimTime InferenceServer::LiveWorkerView::MinWait(std::size_t begin,
                                                 std::size_t end) const {
  assert(end <= backlog_end_.size());
  const SimTime now = server_.now_;
  SimTime shortest = kNoWait;
  for (std::size_t i = begin; i < end; ++i) {
    // max(queued, backlog_end - now), with the difference formed only
    // when it is positive (kNotBusy would overflow it).
    SimTime wait = queued_[i];
    if (backlog_end_[i] > now) wait = std::max(wait, backlog_end_[i] - now);
    shortest = std::min(shortest, wait);
  }
  return shortest;
}

void InferenceServer::LiveWorkerView::OnLayoutChange(
    const std::vector<PartitionWorker>& workers) {
  const std::size_t n = workers.size();
  // assign/resize keep capacity across layouts.
  queued_.assign(n, 0);
  backlog_end_.assign(n, kNotBusy);
  slots_.resize(n);
  // Every worker of a fresh layout is idle.
  idle_bits_.assign((n + 63) / 64, ~std::uint64_t{0});
  if (n % 64 != 0) idle_bits_.back() = (std::uint64_t{1} << (n % 64)) - 1;
  run_start_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool same = i > 0 && workers[i].gpcs() == workers[i - 1].gpcs();
    run_start_[i] = same ? run_start_[i - 1] : static_cast<int>(i);
  }
  version_ = NextLayoutVersion();
}

void InferenceServer::LiveWorkerView::Sync(const PartitionWorker& worker) {
  const auto i = static_cast<std::size_t>(worker.index());
  if (worker.failed()) {
    queued_[i] = kFailed;
    backlog_end_[i] = kFailed;
  } else {
    queued_[i] = worker.queued_estimate();
    backlog_end_[i] =
        worker.busy() ? worker.estimated_end() + worker.queued_estimate()
                      : kNotBusy;
  }
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (worker.idle()) {
    idle_bits_[i / 64] |= bit;
  } else {
    idle_bits_[i / 64] &= ~bit;
  }
}

InferenceServer::InferenceServer(ServerConfig config,
                                 const profile::ModelRepertoire& repertoire,
                                 sched::Scheduler& scheduler)
    : config_(std::move(config)),
      repertoire_(repertoire),
      scheduler_(scheduler),
      rng_(config_.seed) {
  if (config_.partition_gpcs.empty()) {
    throw std::invalid_argument("InferenceServer: no partitions configured");
  }
  if (repertoire.empty()) {
    throw std::invalid_argument("InferenceServer: empty model repertoire");
  }
  Reset();
}

void InferenceServer::Reset() {
  // clear() everywhere (never a fresh container): a server re-used across
  // incarnations -- Run after Run, or the experiment engine replaying
  // probes -- keeps its event and record capacity instead of
  // reallocating it each time.
  calendar_.Clear();
  arrival_cursor_ = 0;
  cursor_end_ = 0;
  next_seq_ = 0;
  now_ = 0;
  central_queue_.clear();
  records_.clear();
  frontend_free_at_.assign(
      static_cast<std::size_t>(std::max(1, config_.frontend.lanes)), 0);
  reconfiguring_ = false;
  reconfig_ready_ = 0;
  pending_layout_.clear();
  reconfig_gen_ = 0;
  stale_done_.clear();
  slowdown_ = 1.0;
  BuildWorkers(config_.partition_gpcs);
}

void InferenceServer::BuildWorkers(const std::vector<int>& partition_gpcs) {
  CheckLayoutFitsRecords(partition_gpcs);
  // Workers ordered by ascending partition size (then creation order);
  // FIFS's "first idle" scan and ELSA's Step A both rely on this order
  // being stable and size-ascending.
  std::vector<int> sizes = partition_gpcs;
  std::sort(sizes.begin(), sizes.end());
  workers_.clear();
  workers_.reserve(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    workers_.emplace_back(static_cast<int>(i), sizes[i]);
  }
  snapshots_.reserve(workers_.size());
  done_seq_.assign(workers_.size(), 0);
  num_failed_ = 0;
  view_.OnLayoutChange(workers_);
}

void InferenceServer::PushWithSeq(SimTime time, std::uint64_t seq,
                                  EventType type, std::uint32_t payload) {
  calendar_.Push(Event{time, seq, payload, type});
}

void InferenceServer::Push(SimTime time, EventType type,
                           std::uint32_t payload) {
  PushWithSeq(time, next_seq_++, type, payload);
}

bool InferenceServer::PopNextEvent(SimTime bound, bool bounded, Event& ev) {
  // Peek is null when the calendar is empty and caches the located
  // minimum, so the Pop below re-scans nothing.
  const Event* head = calendar_.Peek();
  const bool have_arrival = arrival_cursor_ < cursor_end_;
  if (head == nullptr && !have_arrival) return false;
  // A cursor arrival's seq is its index, below every calendar seq, so it
  // wins ties.
  if (have_arrival &&
      (head == nullptr || records_[arrival_cursor_].arrival <= head->time)) {
    const SimTime time = records_[arrival_cursor_].arrival;
    if (bounded && time >= bound) return false;
    ev = Event{time, arrival_cursor_,
               static_cast<std::uint32_t>(arrival_cursor_),
               EventType::kArrival};
    ++arrival_cursor_;
  } else {
    if (bounded && head->time >= bound) return false;
    ev = calendar_.Pop();
  }
  return true;
}

SimTime InferenceServer::ActualTicks(int model_id, int gpcs, int batch) {
  double sec = repertoire_.ActualSec(model_id, gpcs, batch);
  // Degraded-replica multiplier (fault injection); exactly 1.0 -- the
  // clean-run value -- takes no branch into the multiply.
  if (slowdown_ != 1.0) sec *= slowdown_;
  if (config_.latency_noise_sigma > 0.0) {
    const double sigma = config_.latency_noise_sigma;
    // Mean-one log-normal multiplier so noise does not shift mean latency.
    sec *= std::exp(rng_.Normal(0.0, sigma) - 0.5 * sigma * sigma);
  }
  // Rounds as SecToTicks does; a product past 2^63 ns has no tick value.
  const std::optional<SimTime> ticks = CheckedTicks(sec, kNsPerSec);
  if (!ticks) {
    ThrowExecutionOverflow(sec, slowdown_, config_.latency_noise_sigma);
  }
  return std::max<SimTime>(1, *ticks);
}

SimTime InferenceServer::EstimateTicks(int model_id, int gpcs,
                                       int batch) const {
  return std::max<SimTime>(
      1, SecToTicks(repertoire_.EstimateSec(model_id, gpcs, batch)));
}

const std::vector<sched::WorkerState>& InferenceServer::Snapshots(
    SimTime now) const {
  snapshots_.clear();
  for (const auto& w : workers_) snapshots_.push_back(w.Snapshot(now));
  return snapshots_;
}

int InferenceServer::ConsultScheduler(const workload::Query& query,
                                      bool orphan) {
  return orphan ? scheduler_.RequeueOrphan(query, view_)
                : scheduler_.OnQueryArrival(query, view_);
}

void InferenceServer::StartHead(PartitionWorker& worker, SimTime now) {
  if (reconfiguring_) return;  // dispatch held until the new layout is up
  if (config_.deadline > 0) {
    // Every start passes through here with the query at head position, so
    // this is the one shed point: heads whose start deadline has lapsed
    // are dropped before they can occupy the partition.
    while (worker.CanStart() &&
           now > records_[worker.Head().id].arrival + config_.deadline) {
      const workload::Query dropped = worker.PopHead();
      QueryRecord& rec = records_[dropped.id];
      rec.shed = true;
      rec.finished = now;
      view_.Sync(worker);
    }
  }
  if (!worker.CanStart()) return;
  const workload::Query& head = worker.Head();
  const SimTime actual = ActualTicks(head.model_id, worker.gpcs(), head.batch);
  // Displacing a different resident model re-loads weights; the charge
  // extends this query's occupancy of the partition.
  const bool swap = worker.resident_model() != -1 &&
                    worker.resident_model() != head.model_id;
  // Each charge fits SimTime on its own, but their sum with the start
  // instant need not.
  const std::optional<SimTime> occupancy =
      swap ? CheckedAdd(actual, config_.model_swap_cost) : actual;
  const std::optional<SimTime> finish =
      occupancy ? CheckedAdd(now, *occupancy) : std::nullopt;
  if (!finish) ThrowFinishOverflow(now, actual, config_.model_swap_cost);
  const workload::Query q = worker.Start(now, *finish);
  view_.Sync(worker);
  QueryRecord& rec = records_[q.id];
  rec.started = now;
  // BuildWorkers bounds both narrowings.
  rec.worker = static_cast<std::int16_t>(worker.index());
  rec.worker_gpcs = static_cast<std::uint8_t>(worker.gpcs());
  rec.model_swap = swap;
  // The completion's seq is remembered per worker so a mid-flight failure
  // can cancel it (see FailWorker / stale_done_).
  const std::uint64_t seq = next_seq_++;
  done_seq_[static_cast<std::size_t>(worker.index())] = seq;
  PushWithSeq(*finish, seq, EventType::kWorkerDone,
              static_cast<std::uint32_t>(worker.index()));
}

void InferenceServer::Dispatch(const workload::Query& query, SimTime now) {
  if (reconfiguring_) {
    // Held for the drain + downtime window; re-dispatched (in order,
    // behind carried-over orphans) when the new layout comes up.
    CountUp(records_[query.id].reconfig_stalls, "reconfig_stalls");
    central_queue_.push_back(query);
    return;
  }
  const int idx = ConsultScheduler(query, /*orphan=*/false);
  if (idx == sched::kNoAssignment) {
    if (!scheduler_.UsesCentralQueue()) {
      if (num_failed_ > 0) {
        // Total outage: even bind-immediately schedulers have nowhere to
        // put this; park it until RecoverWorker replays the queue.
        central_queue_.push_back(query);
        return;
      }
      throw std::logic_error(
          "scheduler returned kNoAssignment but has no central queue");
    }
    central_queue_.push_back(query);
    return;
  }
  Bind(query, idx, now);
}

void InferenceServer::Bind(const workload::Query& query, int index,
                           SimTime now) {
  if (index < 0 || index >= static_cast<int>(workers_.size())) {
    throw std::out_of_range("scheduler returned invalid worker index");
  }
  PartitionWorker& worker = workers_[static_cast<std::size_t>(index)];
  if (worker.failed()) {
    std::string message = "scheduler bound a query to failed worker ";
    message += std::to_string(index);
    throw std::logic_error(message);
  }
  records_[query.id].dispatched = now;
  worker.Enqueue(query,
                 EstimateTicks(query.model_id, worker.gpcs(), query.batch));
  view_.Sync(worker);
  StartHead(worker, now);
}

void InferenceServer::ReofferCentralQueue(SimTime now) {
  if (!scheduler_.UsesCentralQueue()) return;
  while (!central_queue_.empty()) {
    // The scheduler decides the placement (preserving e.g. FIFS's
    // largest-idle-partition tie-break); kNoAssignment means it prefers
    // to keep the head queued, which ends the re-offer.  The live view
    // tracks the enqueues this loop itself causes, so draining a queue of
    // Q entries costs O(Q), not O(Q*W).
    const workload::Query head = central_queue_.front();
    const int idx = ConsultScheduler(head, /*orphan=*/false);
    if (idx == sched::kNoAssignment) break;
    central_queue_.pop_front();
    Bind(head, idx, now);
  }
}

void InferenceServer::InjectQuery(const workload::Query& query) {
  if (query.id != records_.size()) {
    throw std::invalid_argument("trace query ids must be dense 0..n-1");
  }
  if (query.arrival < now_) {
    throw std::invalid_argument(
        "InferenceServer: arrival predates the current simulation time");
  }
  if (!repertoire_.Has(query.model_id)) {
    throw std::invalid_argument(
        "InferenceServer: query model_id " + std::to_string(query.model_id) +
        " is not in the repertoire");
  }
  if (records_.size() >
      static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
    throw std::invalid_argument(
        "InferenceServer: too many queries for one run");
  }
  if (query.batch < 0 ||
      query.batch > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument(
        "InferenceServer: query batch " + std::to_string(query.batch) +
        " is outside QueryRecord::batch's [0, 65535]");
  }
  const auto index = static_cast<std::uint32_t>(records_.size());
  QueryRecord rec;
  rec.id = index;
  rec.batch = static_cast<std::uint16_t>(query.batch);
  // The repertoire holds at most 65,535 models (ModelRepertoire::Register).
  rec.model = static_cast<std::uint16_t>(query.model_id);
  rec.arrival = query.arrival;
  records_.push_back(rec);
  const std::uint64_t seq = next_seq_++;
  if (seq == cursor_end_ &&
      (cursor_end_ == 0 || query.arrival >= records_[cursor_end_ - 1].arrival)) {
    // The common case, a whole trace injected up front in time order: the
    // record itself is the pending arrival (and no calendar ever holds
    // every arrival at once).
    ++cursor_end_;
  } else {
    // Out of time order, or a seq has gone to an event: the calendar
    // keeps the global (time, seq) order, and the cursor stays frozen.
    PushWithSeq(query.arrival, seq, EventType::kArrival, index);
  }
}

void InferenceServer::InjectTrace(const workload::QueryTrace& trace) {
  InjectSpan(trace.queries());
}

void InferenceServer::InjectSpan(std::span<const workload::Query> queries) {
  records_.reserve(records_.size() + queries.size());
  for (const workload::Query& q : queries) InjectQuery(q);
}

void InferenceServer::BeginReconfigure(std::vector<int> new_layout,
                                       SimTime downtime) {
  if (new_layout.empty()) {
    throw std::invalid_argument("BeginReconfigure: empty layout");
  }
  for (int gpcs : new_layout) {
    if (gpcs < 1) {
      throw std::invalid_argument(
          "BeginReconfigure: partition sizes must be >= 1 GPC");
    }
  }
  CheckLayoutFitsRecords(new_layout);
  if (downtime < 0) {
    throw std::invalid_argument("BeginReconfigure: negative downtime");
  }
  // In-flight queries drain on the old layout; the swap lands after the
  // last of them completes plus the downtime charge.
  SimTime drain_end = now_;
  for (const auto& w : workers_) {
    if (w.busy()) drain_end = std::max(drain_end, w.busy_until());
  }
  SimTime ready = drain_end + downtime;
  if (reconfiguring_) {
    // Superseding an open window: retarget the layout, never shorten.
    ready = std::max(ready, reconfig_ready_);
  } else {
    // Queries already waiting centrally are now additionally delayed by
    // this window; arrivals during the window are marked as they land.
    for (const auto& q : central_queue_) {
      CountUp(records_[q.id].reconfig_stalls, "reconfig_stalls");
    }
  }
  reconfiguring_ = true;
  reconfig_ready_ = ready;
  pending_layout_ = std::move(new_layout);
  Push(ready, EventType::kReconfigDone, ++reconfig_gen_);
}

void InferenceServer::CompleteReconfigure(SimTime now) {
  // Carry over queued-but-unstarted work from the retiring partitions, in
  // global dispatch order (then id, for same-instant determinism).
  std::vector<workload::Query> orphans;
  // Snapshots() returns the reusable scratch; the old layout's states must
  // survive BuildWorkers, so copy them out.
  const std::vector<sched::WorkerState> old_states = Snapshots(now);
  for (auto& worker : workers_) {
    assert(!worker.busy());  // drain window covered every in-flight query
    auto q = worker.TakeQueue();
    orphans.insert(orphans.end(), q.begin(), q.end());
  }
  std::stable_sort(orphans.begin(), orphans.end(),
                   [this](const workload::Query& a, const workload::Query& b) {
                     const SimTime da = records_[a.id].dispatched;
                     const SimTime db = records_[b.id].dispatched;
                     if (da != db) return da < db;
                     return a.id < b.id;
                   });

  BuildWorkers(pending_layout_);
  reconfiguring_ = false;
  reconfig_ready_ = 0;
  pending_layout_.clear();
  scheduler_.OnReconfigure(old_states, Snapshots(now));

  // Orphans are re-placed first (they were dispatched before anything the
  // window held), then the held arrivals in their original order.  The
  // live view makes this loop O(orphans), not O(orphans * W).
  std::deque<workload::Query> held = std::move(central_queue_);
  central_queue_.clear();
  for (const workload::Query& q : orphans) {
    CountUp(records_[q.id].reconfig_stalls, "reconfig_stalls");
    const int idx = ConsultScheduler(q, /*orphan=*/true);
    if (idx == sched::kNoAssignment) {
      if (!scheduler_.UsesCentralQueue()) {
        throw std::logic_error(
            "scheduler returned kNoAssignment but has no central queue");
      }
      central_queue_.push_back(q);
      continue;
    }
    Bind(q, idx, now);
  }
  ReofferCentralQueue(now);
  for (const workload::Query& q : held) Dispatch(q, now);
}

void InferenceServer::ProcessEvent(const Event& ev) {
  const SimTime now = ev.time;
  switch (ev.type) {
    case EventType::kArrival: {
      if (config_.frontend.enabled) {
        // G/D/c preprocessing stage: earliest-free lane serves FIFO.  The
        // host-side frontend keeps working through a reconfiguration; only
        // dispatch to the GPU partitions is held.
        auto lane = std::min_element(frontend_free_at_.begin(),
                                     frontend_free_at_.end());
        const SimTime start = std::max(now, *lane);
        const SimTime done = start + config_.frontend.cost_per_query;
        *lane = done;
        Push(done, EventType::kFrontendDone, ev.payload);
      } else {
        Dispatch(QueryOf(ev.payload), now);
      }
      break;
    }
    case EventType::kFrontendDone: {
      Dispatch(QueryOf(ev.payload), now);
      break;
    }
    case EventType::kWorkerDone: {
      // A completion cancelled by a worker failure (the query was aborted
      // mid-flight); the seq was filed stale by FailWorker.
      if (!stale_done_.empty() && stale_done_.erase(ev.seq) > 0) break;
      PartitionWorker& worker = workers_[ev.payload];
      const workload::Query done = worker.Finish();
      records_[done.id].finished = now;
      view_.Sync(worker);  // may have gone idle (empty local queue)
      if (reconfiguring_) break;  // draining: nothing new starts
      // Start next local query, then pull from the central queue for as
      // long as the worker stays unoccupied -- deadline sheds can burn
      // through several expired entries before one actually starts (a
      // clean run pulls at most one, exactly the pre-fault behavior).
      if (worker.CanStart()) StartHead(worker, now);
      while (!worker.busy() && scheduler_.UsesCentralQueue() &&
             !central_queue_.empty()) {
        const workload::Query next = central_queue_.front();
        central_queue_.pop_front();
        Bind(next, worker.index(), now);
      }
      break;
    }
    case EventType::kReconfigDone: {
      // A superseded window's completion carries a stale generation.
      if (reconfiguring_ && ev.payload == reconfig_gen_) {
        CompleteReconfigure(now);
      }
      break;
    }
  }
}

workload::Query InferenceServer::QueryOf(std::uint32_t index) const {
  const QueryRecord& rec = records_[index];
  workload::Query q;
  q.id = rec.id;
  q.arrival = rec.arrival;
  q.batch = rec.batch;
  q.model_id = rec.model;
  return q;
}

void InferenceServer::DrainEvents(SimTime bound, bool bounded) {
  Event ev;
  while (PopNextEvent(bound, bounded, ev)) {
    now_ = ev.time;
    ProcessEvent(ev);
  }
}

void InferenceServer::AdvanceTo(SimTime when) {
  DrainEvents(when, /*bounded=*/true);
  if (when > now_) now_ = when;
}

SimResult InferenceServer::Finish() {
  DrainEvents(0, /*bounded=*/false);
  if (!central_queue_.empty()) {
    // Only reachable under fault injection: a total outage (every worker
    // failed) parked these arrivals and no recovery came.  They die with
    // the outage so every record ends terminal.
    for (const workload::Query& q : central_queue_) {
      QueryRecord& rec = records_[q.id];
      rec.failed = true;
      rec.finished = now_;
    }
    central_queue_.clear();
  }
  return SimResult{std::move(records_)};
}

std::vector<workload::Query> InferenceServer::FailWorker(int index,
                                                         bool requeue_orphans) {
  if (index < 0 || index >= static_cast<int>(workers_.size())) {
    throw std::out_of_range("FailWorker: no such worker");
  }
  PartitionWorker& worker = workers_[static_cast<std::size_t>(index)];
  std::vector<workload::Query> removed;
  if (worker.failed()) return removed;
  if (worker.busy()) {
    // Cancel the in-flight completion and kill its query.
    stale_done_.insert(done_seq_[static_cast<std::size_t>(index)]);
    const workload::Query victim = worker.Abort();
    QueryRecord& rec = records_[victim.id];
    rec.failed = true;
    rec.finished = now_;
    removed.push_back(victim);
  }
  std::vector<workload::Query> orphans = worker.TakeQueue();
  worker.SetFailed(true);
  ++num_failed_;
  view_.Sync(worker);
  if (requeue_orphans) {
    for (const workload::Query& q : orphans) {
      QueryRecord& rec = records_[q.id];
      CountUp(rec.retries, "retries");
      if (reconfiguring_) {
        CountUp(rec.reconfig_stalls, "reconfig_stalls");
        central_queue_.push_back(q);
        continue;
      }
      const int idx = ConsultScheduler(q, /*orphan=*/true);
      if (idx == sched::kNoAssignment) {
        // Central-queue scheduler preference, or a total outage: park
        // until a pull or a recovery.
        central_queue_.push_back(q);
        continue;
      }
      Bind(q, idx, now_);
    }
  } else {
    for (const workload::Query& q : orphans) {
      QueryRecord& rec = records_[q.id];
      rec.failed = true;
      rec.finished = now_;
      removed.push_back(q);
    }
  }
  return removed;
}

void InferenceServer::RecoverWorker(int index) {
  if (index < 0 || index >= static_cast<int>(workers_.size())) {
    throw std::out_of_range("RecoverWorker: no such worker");
  }
  PartitionWorker& worker = workers_[static_cast<std::size_t>(index)];
  if (!worker.failed()) return;
  worker.SetFailed(false);
  --num_failed_;
  view_.Sync(worker);
  if (reconfiguring_) return;  // held work re-dispatches at window close
  if (scheduler_.UsesCentralQueue()) {
    ReofferCentralQueue(now_);
  } else if (!central_queue_.empty()) {
    // Arrivals parked by a total outage: replay through the scheduler now
    // that capacity is back.
    std::deque<workload::Query> parked = std::move(central_queue_);
    central_queue_.clear();
    for (const workload::Query& q : parked) Dispatch(q, now_);
  }
}

std::vector<workload::Query> InferenceServer::FailCentralQueue() {
  std::vector<workload::Query> removed(central_queue_.begin(),
                                       central_queue_.end());
  central_queue_.clear();
  for (const workload::Query& q : removed) {
    QueryRecord& rec = records_[q.id];
    rec.failed = true;
    rec.finished = now_;
  }
  return removed;
}

void InferenceServer::SetSlowdownFactor(double factor) {
  if (!(factor > 0.0)) {
    throw std::invalid_argument("SetSlowdownFactor: factor must be > 0");
  }
  slowdown_ = factor;
}

SimResult InferenceServer::Run(const workload::QueryTrace& trace) {
  return Run(std::span<const workload::Query>(trace.queries()));
}

SimResult InferenceServer::Run(std::span<const workload::Query> queries) {
  Reset();
  InjectSpan(queries);
  return Finish();
}

}  // namespace pe::sim
