#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>

namespace perfbench {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void FnvMix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

double TimespecSec(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double TimevalSec(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

// ---- Clocks and process counters --------------------------------------

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSec() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return TimevalSec(ru.ru_utime) + TimevalSec(ru.ru_stime);
}

double ThreadCpuSec() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return TimespecSec(ts);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// ---- Statistics --------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(lo),
                   values.end());
  const double low = values[lo];
  if (frac == 0.0 || lo + 1 >= values.size()) return low;
  const double high =
      *std::min_element(values.begin() + static_cast<long>(lo) + 1, values.end());
  return low + frac * (high - low);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::size_t NsHistogram::Bucket(std::uint64_t v) {
  if (v < 64) return static_cast<std::size_t>(v);
  const int e = std::bit_width(v) - 1;  // 2^e <= v < 2^(e+1), e >= 6
  const std::uint64_t sub = (v >> (e - 5)) & 31;
  return 64 + static_cast<std::size_t>(e - 6) * 32 + static_cast<std::size_t>(sub);
}

std::uint64_t NsHistogram::UpperEdge(std::size_t bucket) {
  if (bucket < 64) return bucket;
  const std::size_t e = 6 + (bucket - 64) / 32;
  const std::uint64_t sub = (bucket - 64) % 32;
  const std::uint64_t width = std::uint64_t{1} << (e - 5);
  return (32 + sub) * width + width - 1;
}

void NsHistogram::Add(std::uint64_t v) {
  const std::size_t b = Bucket(v);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++count_;
}

void NsHistogram::Merge(const NsHistogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t b = 0; b < other.buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
}

double NsHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Nearest rank: the smallest sample with at least q of all at or below.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank) return static_cast<double>(UpperEdge(b));
  }
  return static_cast<double>(UpperEdge(buckets_.size() - 1));
}

// ---- Output checks -----------------------------------------------------

std::uint64_t HashRecords(const std::vector<pe::sim::QueryRecord>& records) {
  std::uint64_t h = kFnvBasis;
  for (const auto& r : records) {
    FnvMix(h, r.id);
    FnvMix(h, static_cast<std::uint64_t>(r.batch));
    FnvMix(h, static_cast<std::uint64_t>(r.model));
    FnvMix(h, static_cast<std::uint64_t>(r.arrival));
    FnvMix(h, static_cast<std::uint64_t>(r.dispatched));
    FnvMix(h, static_cast<std::uint64_t>(r.started));
    FnvMix(h, static_cast<std::uint64_t>(r.finished));
    FnvMix(h, static_cast<std::uint64_t>(r.worker));
    FnvMix(h, static_cast<std::uint64_t>(r.worker_gpcs));
    FnvMix(h, static_cast<std::uint64_t>(r.reconfig_stalls));
    FnvMix(h, static_cast<std::uint64_t>(r.retries));
    FnvMix(h, (r.model_swap ? 1u : 0u) | (r.failed ? 2u : 0u) |
                  (r.shed ? 4u : 0u));
  }
  return h;
}

std::uint64_t Outcome::Hash() const {
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t s : server_hashes) FnvMix(h, s);
  return h;
}

Outcome Evaluate(const pe::workload::QueryTrace& trace,
                 std::span<const RecordView> servers, pe::SimTime sla,
                 double warmup, const ReportedCounts* reported) {
  Outcome o;
  std::uint64_t problems = 0;
  const auto violate = [&](std::string message) {
    if (++problems <= 8) o.violations.push_back(std::move(message));
  };

  const std::vector<pe::workload::Query>& queries = trace.queries();
  const std::size_t n = queries.size();
  o.injected = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (queries[i].id != i) {
      violate("trace ids are not the arrival order");
      break;
    }
  }

  constexpr std::uint8_t kCompleted = 1, kFailed = 2, kShed = 4;
  std::vector<std::uint8_t> state(n, 0);
  const auto cut = static_cast<std::uint64_t>(warmup * static_cast<double>(n));
  const std::uint64_t mid_begin = n * 45 / 100, mid_end = n * 55 / 100;
  const std::uint64_t last_begin = n * 90 / 100;
  double mid_sum = 0.0, last_sum = 0.0;
  std::uint64_t mid_count = 0, last_count = 0;
  o.latency_ms.reserve(n - std::min<std::uint64_t>(cut, n));

  for (const RecordView& view : servers) {
    const std::vector<pe::sim::QueryRecord>& records = *view.records;
    o.server_hashes.push_back(HashRecords(records));
    for (const pe::sim::QueryRecord& r : records) {
      std::uint64_t gid = r.id;
      if (!view.gids.empty()) {
        if (r.id >= view.gids.size()) {
          violate("record with an unmapped local id");
          continue;
        }
        gid = view.gids[r.id];
      }
      if (gid >= n) {
        violate("record of a query not in the trace");
        continue;
      }
      const pe::workload::Query& q = queries[gid];
      if (r.arrival < q.arrival) {
        violate("query " + std::to_string(gid) +
                " entered a server before its scheduled arrival");
      }
      if (r.failed || r.shed) {
        state[gid] |= r.failed ? kFailed : kShed;
        if (r.finished < r.arrival) {
          violate("casualty " + std::to_string(gid) + " ends before it arrived");
        }
        continue;
      }
      if (!(r.arrival <= r.started && r.started <= r.finished)) {
        violate("query " + std::to_string(gid) +
                " has non-causal timestamps (arrival <= start <= finish)");
      }
      if (state[gid] & kCompleted) {
        violate("query " + std::to_string(gid) + " completed twice");
      }
      state[gid] |= kCompleted;
      const pe::SimTime latency = r.finished - q.arrival;
      if (gid >= cut) {
        o.latency_ms.push_back(pe::TicksToMs(latency));
        if (latency <= sla) ++o.within_sla;
      }
      const double queued = pe::TicksToMs(r.started - q.arrival);
      if (gid >= mid_begin && gid < mid_end) {
        mid_sum += queued;
        ++mid_count;
      } else if (gid >= last_begin) {
        last_sum += queued;
        ++last_count;
      }
    }
  }

  std::uint64_t lost = 0;
  for (const std::uint8_t s : state) {
    if (s & kCompleted) {
      ++o.completed;
    } else if (s & kFailed) {
      ++o.failed;
    } else if (s & kShed) {
      ++o.shed;
    } else {
      ++lost;
    }
  }
  if (reported != nullptr) {
    // Queries shed before reaching any server leave no record; the
    // library's own counts carry them.
    if (reported->completed != o.completed) {
      violate("reported completions (" + std::to_string(reported->completed) +
              ") differ from the records (" + std::to_string(o.completed) + ")");
    }
    o.failed = reported->failed;
    o.shed = reported->shed;
  } else if (lost > 0) {
    violate(std::to_string(lost) + " queries left no record");
  }
  if (o.completed + o.failed + o.shed != o.injected) {
    violate("conservation: completed + failed + shed != injected");
  }
  o.post_warmup = n - std::min<std::uint64_t>(cut, n);
  o.queue_mid_ms = mid_count > 0 ? mid_sum / static_cast<double>(mid_count) : 0.0;
  o.queue_last_ms =
      last_count > 0 ? last_sum / static_cast<double>(last_count) : 0.0;
  if (problems > 8) {
    o.violations.push_back("... " + std::to_string(problems - 8) + " more");
  }
  return o;
}

void CheckStationary(Outcome& outcome, double tolerance, double slack_ms) {
  const double limit = outcome.queue_mid_ms * (1.0 + tolerance) + slack_ms;
  if (outcome.queue_last_ms > limit) {
    outcome.violations.push_back(
        "backlog grows: mean queue delay " + Number(outcome.queue_last_ms) +
        " ms over the last tenth vs " + Number(outcome.queue_mid_ms) +
        " ms over the middle tenth");
  }
}

// ---- Result line -------------------------------------------------------

std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

// ---- Spans -------------------------------------------------------------

Tracer::Tracer() : epoch_(WallNow()) {}

double Tracer::Now() const { return WallNow() - epoch_; }

int Tracer::ThreadIndex() {
  const std::thread::id self = std::this_thread::get_id();
  const auto it = std::find(threads_.begin(), threads_.end(), self);
  if (it != threads_.end()) return static_cast<int>(it - threads_.begin());
  threads_.push_back(self);
  return static_cast<int>(threads_.size() - 1);
}

int Tracer::Open(std::string name, int parent) {
  const double now = Now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), now, now, parent, ThreadIndex()});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::Close(int id) {
  const double now = Now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

int Tracer::Record(std::string name, double start, double end, int parent) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start, end, parent, ThreadIndex()});
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::Duration(int id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end - s.start;
}

double Tracer::SelfTime(int id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const Span& span = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<double, double>> covered;
  for (const Span& c : spans_) {
    if (c.parent != id) continue;
    const double begin = std::max(c.start, span.start);
    const double end = std::min(c.end, span.end);
    if (end > begin) covered.push_back({begin, end});
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0.0, reach = span.start;
  for (const auto& [begin, end] : covered) {
    const double from = std::max(begin, reach);
    if (end > from) busy += end - from;
    reach = std::max(reach, end);
  }
  return (span.end - span.start) - busy;
}

std::string Tracer::ChromeJson() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\": \"" + s.name +
           "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(s.tid) + ", \"ts\": " + Number(s.start * 1e6) +
           ", \"dur\": " + Number((s.end - s.start) * 1e6) +
           ", \"args\": {\"id\": " + std::to_string(i) +
           ", \"parent\": " + std::to_string(s.parent) + "}}";
  }
  out += "\n]}\n";
  return out;
}

// ---- Scheduler decorator -----------------------------------------------

void SchedCounters::Merge(const SchedCounters& other) {
  arrivals += other.arrivals;
  held += other.held;
  orphans += other.orphans;
  reconfigures += other.reconfigures;
  decide_ns += other.decide_ns;
  hist.Merge(other.hist);
}

void SchedProbe::Flush(int server, const SchedCounters& counters,
                       double start, double end) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    totals_.Merge(counters);
    if (server_spans_) server_seconds_.push_back(end - start);
  }
  if (server_spans_) {
    tracer_->Record("server." + std::to_string(server), start, end, parent_);
  }
}

SchedCounters SchedProbe::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

std::vector<double> SchedProbe::server_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return server_seconds_;
}

TimedScheduler::TimedScheduler(std::unique_ptr<pe::sched::Scheduler> inner,
                               SchedProbe& probe, int server)
    : inner_(std::move(inner)),
      probe_(probe),
      server_(server),
      start_(probe.Now()) {}

TimedScheduler::~TimedScheduler() {
  try {
    probe_.Flush(server_, counters_, start_, probe_.Now());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: lost scheduler counters of server %d: %s\n",
                 server_, e.what());
  }
}

int TimedScheduler::OnQueryArrival(const pe::workload::Query& query,
                                   const pe::sched::WorkerView& workers) {
  const auto t0 = std::chrono::steady_clock::now();
  const int decision = inner_->OnQueryArrival(query, workers);
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  ++counters_.arrivals;
  if (decision == pe::sched::kNoAssignment) ++counters_.held;
  counters_.decide_ns += ns;
  counters_.hist.Add(ns);
  return decision;
}

bool TimedScheduler::UsesCentralQueue() const {
  return inner_->UsesCentralQueue();
}

void TimedScheduler::OnReconfigure(
    const std::vector<pe::sched::WorkerState>& old_workers,
    const std::vector<pe::sched::WorkerState>& new_workers) {
  ++counters_.reconfigures;
  inner_->OnReconfigure(old_workers, new_workers);
}

int TimedScheduler::RequeueOrphan(const pe::workload::Query& query,
                                  const pe::sched::WorkerView& workers) {
  const auto t0 = std::chrono::steady_clock::now();
  const int decision = inner_->RequeueOrphan(query, workers);
  counters_.decide_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  ++counters_.orphans;
  return decision;
}

std::string TimedScheduler::name() const { return inner_->name(); }

}  // namespace perfbench
