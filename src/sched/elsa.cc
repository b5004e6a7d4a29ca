#include "sched/elsa.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace pe::sched {

namespace {

constexpr SimTime kMaxWait = std::numeric_limits<SimTime>::max();

// The largest wait in [0, kMaxWait] at which `holds` is true, or -1 if it
// is false at 0.  `holds` must be true up to some wait and false after
// it.  Gallops outward from `guess` to bracket that boundary, then
// bisects, so a guess that is off by a tick costs a few evaluations.
template <typename Holds>
SimTime LastWaitWhere(double guess, Holds holds) {
  SimTime start = 0;
  if (guess >= 0x1p63) {
    start = kMaxWait;
  } else if (guess > 0.0) {
    start = static_cast<SimTime>(guess);
  }
  SimTime lo = 0;  // holds(lo)
  SimTime hi = 0;  // !holds(hi)
  SimTime step = 1;
  if (holds(start)) {
    lo = start;
    for (;; step *= 2) {
      if (kMaxWait - lo <= step) {
        if (holds(kMaxWait)) return kMaxWait;
        hi = kMaxWait;
        break;
      }
      hi = lo + step;
      if (!holds(hi)) break;
      lo = hi;
    }
  } else {
    hi = start;
    for (;; step *= 2) {
      if (hi <= step) {
        if (!holds(0)) return -1;
        lo = 0;
        break;
      }
      lo = hi - step;
      if (holds(lo)) break;
      hi = lo;
    }
  }
  while (hi - lo > 1) {
    const SimTime mid = lo + (hi - lo) / 2;
    (holds(mid) ? lo : hi) = mid;
  }
  return lo;
}

// Its resident model already matches `model_id`, or it has never loaded
// one (-1): starting the query there displaces nothing.
bool SwapFree(const WorkerState& w, int model_id) {
  return w.resident_model == model_id || w.resident_model == -1;
}

}  // namespace

ElsaScheduler::ElsaScheduler(const profile::ModelRepertoire& repertoire,
                             SimTime sla_target, ElsaParams params)
    : repertoire_(repertoire),
      sla_target_(sla_target),
      sla_sec_(TicksToSec(sla_target)),
      params_(params) {
  if (repertoire.empty()) {
    throw std::invalid_argument("ElsaScheduler: empty model repertoire");
  }
  Validate();
  // One table row per partition size some model profiles, numbered in
  // ascending size order.
  table_models_ = repertoire.size();
  for (int m = 0; m < table_models_; ++m) {
    for (const int gpcs : repertoire.profile(m).partition_sizes()) {
      const auto g = static_cast<std::size_t>(gpcs);
      if (g >= size_row_.size()) size_row_.resize(g + 1, -1);
      size_row_[g] = 0;  // profiled; numbered below
    }
  }
  for (int& row : size_row_) {
    if (row == 0) row = table_sizes_++;
  }
  table_batches_ = repertoire.max_batch() + 1;
  rows_.resize(static_cast<std::size_t>(table_models_) *
               static_cast<std::size_t>(table_sizes_));
}

void ElsaScheduler::Validate() const {
  if (sla_target_ <= 0) {
    throw std::invalid_argument("ElsaScheduler: sla_target must be > 0");
  }
  // The threshold derivation needs slack to be non-increasing in Twait,
  // i.e. alpha >= 0; the other knobs are durations or a weight.
  const std::pair<const char*, double> fields[] = {
      {"alpha", params_.alpha},
      {"beta", params_.beta},
      {"swap_cost_sec", params_.swap_cost_sec},
      {"locality_tie_sec", params_.locality_tie_sec},
  };
  for (const auto& [name, value] : fields) {
    if (!std::isfinite(value) || value < 0.0) {
      std::string message = "ElsaScheduler: ";
      message += name;
      message += " must be finite and >= 0";
      throw std::invalid_argument(message);
    }
  }
}

double ElsaScheduler::SlackSec(const WorkerState& worker, int model_id,
                               int batch) const {
  // Pending-swap charge: 0.0 when disabled or swap-free, so the legacy
  // predictor is reproduced exactly (x + 0.0 == x).
  const double t_swap =
      SwapFree(worker, model_id) ? 0.0 : params_.swap_cost_sec;
  const double t_new = repertoire_.EstimateSec(model_id, worker.gpcs, batch);
  return Slack(worker.wait_ticks, t_swap, t_new);
}

double ElsaScheduler::Slack(SimTime wait, double swap, double tnew) const {
  const double t_wait = TicksToSec(wait);
  return sla_sec_ - params_.alpha * (t_wait + swap + params_.beta * tnew);
}

double ElsaScheduler::Completion(SimTime wait, double swap, double tnew) {
  return TicksToSec(wait) + swap + tnew;
}

SimTime ElsaScheduler::SlackThreshold(double tnew, double swap) const {
  // slack > 0  <=>  wait < (SLA / alpha - Tswap - beta * Tnew) seconds,
  // up to rounding, which the exact evaluations settle.  alpha == 0 makes
  // the guess +inf: every wait has slack SLA > 0.
  const double guess =
      (sla_sec_ / params_.alpha - swap - params_.beta * tnew) * 1e9;
  return LastWaitWhere(
      guess, [&](SimTime wait) { return Slack(wait, swap, tnew) > 0.0; });
}

SimTime ElsaScheduler::CompletionThreshold(double tnew, double bound) {
  return LastWaitWhere((bound - tnew) * 1e9, [&](SimTime wait) {
    return Completion(wait, 0.0, tnew) <= bound;
  });
}

ElsaScheduler::Thresholds ElsaScheduler::Derive(int model_id, int gpcs,
                                                int batch) const {
  Thresholds t;
  t.tnew = repertoire_.EstimateSec(model_id, gpcs, batch);
  t.free_limit = SlackThreshold(t.tnew, 0.0);
  t.swap_limit = params_.swap_cost_sec > 0.0
                     ? SlackThreshold(t.tnew, params_.swap_cost_sec)
                     : t.free_limit;
  return t;
}

ElsaScheduler::Thresholds ElsaScheduler::ThresholdsAt(int model_id,
                                                      const SizeRun& run,
                                                      int batch) {
  if (model_id < 0 || model_id >= table_models_ || run.size_row < 0 ||
      batch < 0 || batch >= table_batches_) {
    return Derive(model_id, run.gpcs, batch);
  }
  std::unique_ptr<Thresholds[]>& row =
      rows_[static_cast<std::size_t>(model_id) *
                static_cast<std::size_t>(table_sizes_) +
            static_cast<std::size_t>(run.size_row)];
  if (!row) {
    row = std::make_unique<Thresholds[]>(
        static_cast<std::size_t>(table_batches_));
  }
  Thresholds& entry = row[static_cast<std::size_t>(batch)];
  if (entry.free_limit == Thresholds::kUnfilled) {
    entry = Derive(model_id, run.gpcs, batch);
  }
  return entry;
}

void ElsaScheduler::BuildRuns(const WorkerView& view) {
  runs_.clear();
  const std::size_t n = view.size();
  for (std::size_t k = 0; k < n;) {
    const int gpcs = view.Get(k).gpcs;
    std::size_t e = k + 1;
    while (e < n && view.Get(e).gpcs == gpcs) ++e;
    const int size_row =
        gpcs >= 0 && static_cast<std::size_t>(gpcs) < size_row_.size()
            ? size_row_[static_cast<std::size_t>(gpcs)]
            : -1;
    runs_.push_back(SizeRun{gpcs, size_row, static_cast<std::uint32_t>(k),
                            static_cast<std::uint32_t>(e)});
    k = e;
  }
}

int ElsaScheduler::OnQueryArrival(const workload::Query& query,
                                  const WorkerView& workers) {
  assert(workers.size() > 0);
  if (workers.stable()) {
    if (!runs_cached_ || runs_version_ != workers.layout_version()) {
      // The ordering promise of a stable view, checked once per layout.
      for (std::size_t i = 0; i < workers.size(); ++i) {
        const WorkerState& w = workers.Get(i);
        if (w.index != static_cast<int>(i) ||
            (i > 0 && w.gpcs < workers.Get(i - 1).gpcs)) {
          throw std::logic_error(
              "ElsaScheduler: stable view is not in (gpcs, index) order");
        }
      }
      BuildRuns(workers);
      runs_cached_ = true;
      runs_version_ = workers.layout_version();
    }
    const int pos = Decide(query, workers);
    return pos < 0 ? kNoAssignment : pos;
  }
  // An ad-hoc view: decide over a (gpcs, index)-sorted copy.
  sorted_.clear();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    sorted_.push_back(workers.Get(i));
  }
  std::sort(sorted_.begin(), sorted_.end(),
            [](const WorkerState& a, const WorkerState& b) {
              return a.gpcs != b.gpcs ? a.gpcs < b.gpcs : a.index < b.index;
            });
  const VectorWorkerView view(sorted_);
  BuildRuns(view);
  runs_cached_ = false;
  const int pos = Decide(query, view);
  if (pos < 0) return kNoAssignment;
  return sorted_[static_cast<std::size_t>(pos)].index;
}

int ElsaScheduler::Decide(const workload::Query& query,
                          const WorkerView& view) {
  const double swap_charge = params_.swap_cost_sec;
  const bool charge_swaps = swap_charge > 0.0;
  const bool locality = params_.locality_tie_sec > 0.0;

  // Step A: the smallest partition with positive slack.  A swap-free
  // worker qualifies at wait <= T(0); one whose resident model would be
  // displaced pays Tswap inside Twait and qualifies at wait <= T(Tswap).
  for (const SizeRun& run : runs_) {
    const Thresholds t = ThresholdsAt(query.model_id, run, query.batch);
    if (t.free_limit < 0) continue;
    for (std::size_t from = run.begin; from < run.end;) {
      const int p = view.FirstWaitAtMost(from, run.end, t.free_limit);
      if (p < 0) break;
      from = static_cast<std::size_t>(p) + 1;
      if (!charge_swaps && !locality) return p;
      const WorkerState& w = view.Get(static_cast<std::size_t>(p));
      if (SwapFree(w, query.model_id)) return p;
      if (w.wait_ticks > t.swap_limit) continue;
      // Among positive-slack candidates, a swap-free partition wins over
      // this one when its predicted completion ties within the locality
      // window: the query avoids a model-swap penalty at no predicted SLA
      // cost.
      if (locality) {
        const double completion =
            Completion(w.wait_ticks, swap_charge, t.tnew);
        const int local = FirstLocalWorker(
            query, view, completion + params_.locality_tie_sec);
        if (local >= 0) return local;
      }
      return p;
    }
  }

  // Step B: no partition satisfies the SLA; pick the minimum completion
  // time, the first such worker on ties.  Within a run Tnew is fixed, so
  // no worker completes sooner than the least-loaded one would swap-free
  // (`floor`), and the run's minimum is at most that worker's own
  // completion, swap included (`ceiling`): every worker that can attain
  // it has a swap-free completion within `ceiling`.  Failed partitions
  // are excluded; if every partition is failed the arrival is declined
  // and the server parks it until recovery.
  int best = -1;
  double t_min = 0.0;
  for (const SizeRun& run : runs_) {
    const SimTime min_wait = view.MinWait(run.begin, run.end);
    if (min_wait == WorkerView::kNoWait) continue;
    const double tnew = ThresholdsAt(query.model_id, run, query.batch).tnew;
    const double floor = Completion(min_wait, 0.0, tnew);
    if (best >= 0 && !(floor < t_min)) continue;
    const double ceiling = Completion(min_wait, swap_charge, tnew);
    const SimTime limit = CompletionThreshold(tnew, ceiling);
    int run_best = -1;
    double run_min = 0.0;
    for (std::size_t from = run.begin; from < run.end;) {
      const int p = view.FirstWaitAtMost(from, run.end, limit);
      if (p < 0) break;
      from = static_cast<std::size_t>(p) + 1;
      double t = floor;  // without swap charges every candidate ties it
      if (charge_swaps) {
        const WorkerState& w = view.Get(static_cast<std::size_t>(p));
        const double swap = SwapFree(w, query.model_id) ? 0.0 : swap_charge;
        t = Completion(w.wait_ticks, swap, tnew);
      }
      if (run_best < 0 || t < run_min) {
        run_best = p;
        run_min = t;
      }
      if (run_min == floor) break;
    }
    assert(run_best >= 0);  // the least-loaded worker is always a candidate
    if (best < 0 || run_min < t_min) {
      best = run_best;
      t_min = run_min;
    }
  }
  return best;
}

int ElsaScheduler::FirstLocalWorker(const workload::Query& query,
                                    const WorkerView& view, double bound) {
  for (const SizeRun& run : runs_) {
    const Thresholds t = ThresholdsAt(query.model_id, run, query.batch);
    const SimTime limit =
        std::min(t.free_limit, CompletionThreshold(t.tnew, bound));
    for (std::size_t from = run.begin; from < run.end;) {
      const int p = view.FirstWaitAtMost(from, run.end, limit);
      if (p < 0) break;
      from = static_cast<std::size_t>(p) + 1;
      const WorkerState& w = view.Get(static_cast<std::size_t>(p));
      if (SwapFree(w, query.model_id)) return p;
    }
  }
  return -1;
}

}  // namespace pe::sched
