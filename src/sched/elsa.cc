#include "sched/elsa.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace pe::sched {

ElsaScheduler::ElsaScheduler(const profile::ProfileTable& profile,
                             SimTime sla_target, ElsaParams params)
    : compiled_(profile),
      sla_target_(sla_target),
      params_(params) {
  assert(sla_target_ > 0);
}

ElsaScheduler::ElsaScheduler(const profile::ModelRepertoire& repertoire,
                             SimTime sla_target, ElsaParams params)
    : compiled_(repertoire),
      sla_target_(sla_target),
      params_(params) {
  assert(sla_target_ > 0);
  assert(!repertoire.empty());
}

double ElsaScheduler::SlackSec(const WorkerState& worker, int batch) const {
  return SlackSec(worker, /*model_id=*/0, batch);
}

double ElsaScheduler::SlackSec(const WorkerState& worker, int model_id,
                               int batch) const {
  const double t_wait = TicksToSec(worker.wait_ticks);
  const double t_new = compiled_.EstimateSec(model_id, worker.gpcs, batch);
  // Pending-swap charge: 0.0 when disabled or swap-free, so the legacy
  // predictor is reproduced exactly (x + 0.0 == x).
  const double t_swap =
      (params_.swap_cost_sec > 0.0 && worker.resident_model != model_id &&
       worker.resident_model != -1)
          ? params_.swap_cost_sec
          : 0.0;
  return TicksToSec(sla_target_) -
         params_.alpha * (t_wait + t_swap + params_.beta * t_new);
}

void ElsaScheduler::RefreshCandidates(const WorkerView& workers) {
  const std::size_t n = workers.size();
  const bool cacheable = workers.stable();
  if (cacheable && order_cached_ && order_.size() == n &&
      order_version_ == workers.layout_version()) {
    return;
  }
  // Workers are visited in ascending (gpcs, index) order regardless of
  // their position order in the view.  The server's live view keeps its
  // positions fixed within one layout, so the sort runs once per layout
  // there; ad-hoc vector views re-sort per call as before.
  order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    order_[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(order_.begin(), order_.end(),
            [&workers](std::uint32_t a, std::uint32_t b) {
              const WorkerState& wa = workers.Get(a);
              const WorkerState& wb = workers.Get(b);
              if (wa.gpcs != wb.gpcs) return wa.gpcs < wb.gpcs;
              return wa.index < wb.index;
            });
  // Contiguous equal-gpcs runs of the sorted order, for the size-class
  // skips below.
  runs_.clear();
  for (std::size_t k = 0; k < n;) {
    const int gpcs = workers.Get(order_[k]).gpcs;
    std::size_t e = k + 1;
    while (e < n && workers.Get(order_[e]).gpcs == gpcs) ++e;
    runs_.push_back(SizeRun{gpcs, static_cast<std::uint32_t>(k),
                            static_cast<std::uint32_t>(e)});
    k = e;
  }
  order_cached_ = cacheable;
  order_version_ = workers.layout_version();
  if (slack_memo_.size() != n) {
    slack_memo_.assign(n, 0.0);
    completion_memo_.assign(n, 0.0);
    twait_memo_.assign(n, 0.0);
    slack_stamp_.assign(n, 0);
    completion_stamp_.assign(n, 0);
    twait_stamp_.assign(n, 0);
  }
}

int ElsaScheduler::OnQueryArrival(const workload::Query& query,
                                  const WorkerView& workers) {
  assert(workers.size() > 0);
  RefreshCandidates(workers);
  ++arrival_stamp_;

  const double sla_sec = TicksToSec(sla_target_);

  // Testimated,new depends only on (model, batch, gpcs); model and batch
  // are fixed within one arrival, so one lookup per distinct partition
  // size covers every candidate.
  const auto tnew_sec = [&](int gpcs) {
    const auto estimate = [&] {
      return compiled_.EstimateSec(query.model_id, gpcs, query.batch);
    };
    if (gpcs < 0) return estimate();
    const auto g = static_cast<std::size_t>(gpcs);
    if (g >= tnew_memo_.size()) {
      tnew_memo_.resize(g + 1, 0.0);
      tnew_stamp_.resize(g + 1, 0);
    }
    if (tnew_stamp_[g] != arrival_stamp_) {
      tnew_memo_[g] = estimate();
      tnew_stamp_[g] = arrival_stamp_;
    }
    return tnew_memo_[g];
  };
  // Step A, the locality tie-break, and Step B consult the same predictor
  // terms; each is computed at most once per arrival (keyed by view
  // position via the arrival stamp).  The expressions are exactly
  // SlackSec / Twait + Testimated,new, so memoized values are the same
  // doubles the unmemoized path produces.  The scans read the wait
  // through WaitTicks(i) (== Get(i).wait_ticks) so a live view skips
  // whole-snapshot maintenance; gpcs comes from the candidate's size run.
  const auto twait_sec = [&](std::uint32_t i) {
    if (twait_stamp_[i] != arrival_stamp_) {
      twait_memo_[i] = TicksToSec(workers.WaitTicks(i));
      twait_stamp_[i] = arrival_stamp_;
    }
    return twait_memo_[i];
  };
  // A swap-free partition: its resident model already matches the query,
  // or it has never loaded a model (-1).
  const auto swap_free = [&](const WorkerState& w) {
    return w.resident_model == query.model_id || w.resident_model == -1;
  };
  // Pending-swap charge of candidate i (Tswap): the configured cost when
  // starting this query there would displace a different resident model,
  // else exactly 0.0 -- which makes the disabled-knob predictor the same
  // doubles as the legacy swap-oblivious one (x + 0.0 == x).
  const auto swap_sec = [&](std::uint32_t i) {
    return (params_.swap_cost_sec > 0.0 && !swap_free(workers.Get(i)))
               ? params_.swap_cost_sec
               : 0.0;
  };
  const auto slack_sec = [&](std::uint32_t i, int gpcs) {
    if (slack_stamp_[i] != arrival_stamp_) {
      slack_memo_[i] =
          sla_sec - params_.alpha * (twait_sec(i) + swap_sec(i) +
                                     params_.beta * tnew_sec(gpcs));
      slack_stamp_[i] = arrival_stamp_;
    }
    return slack_memo_[i];
  };
  const auto completion_sec = [&](std::uint32_t i, int gpcs) {
    if (completion_stamp_[i] != arrival_stamp_) {
      completion_memo_[i] = twait_sec(i) + swap_sec(i) + tnew_sec(gpcs);
      completion_stamp_[i] = arrival_stamp_;
    }
    return completion_memo_[i];
  };

  // Size-class skips, valid only when every wait is known non-negative
  // (the server's live view guarantees it; ad-hoc vector views scan in
  // full).  Slack is monotone non-increasing in Twait + Tswap under IEEE
  // rounding when alpha >= 0 (Tswap >= 0 by construction), so a class
  // whose *zero-wait, swap-free* slack is already non-positive cannot
  // contain a Step A (or locality) candidate; and completion >=
  // Testimated,new, so a class whose floor cannot beat the running Step B
  // minimum cannot improve it.  Skipping therefore changes no comparison
  // outcome -- decisions are bit-identical to the full scan.
  const bool skip_a = workers.stable() && params_.alpha >= 0.0;
  const bool skip_b = workers.stable();
  const auto zero_wait_slack = [&](int gpcs) {
    // SlackSec with Twait = 0 (0.0 + x == x exactly, so this is the same
    // double the per-candidate expression yields at zero wait).
    return sla_sec - params_.alpha * (params_.beta * tnew_sec(gpcs));
  };

  // Step A: smallest partition whose predicted slack is positive.
  for (const SizeRun& run : runs_) {
    if (skip_a && zero_wait_slack(run.gpcs) <= 0.0) continue;
    for (std::uint32_t k = run.begin; k < run.end; ++k) {
      const std::uint32_t i = order_[k];
      if (slack_sec(i, run.gpcs) <= 0.0) continue;
      const WorkerState& w = workers.Get(i);
      if (w.failed) continue;
      // Among positive-slack candidates, a swap-free partition wins over
      // the default choice when its predicted completion ties within the
      // locality window: the query avoids a model-swap penalty at no
      // predicted SLA cost.
      if (params_.locality_tie_sec > 0.0 && !swap_free(w)) {
        const double bound =
            completion_sec(i, run.gpcs) + params_.locality_tie_sec;
        for (const SizeRun& local : runs_) {
          if (skip_a && zero_wait_slack(local.gpcs) <= 0.0) continue;
          for (std::uint32_t k2 = local.begin; k2 < local.end; ++k2) {
            const std::uint32_t j = order_[k2];
            // Pure predicates conjoined, so evaluation order is free;
            // the memoized slack goes first to keep Get off the miss
            // path.
            if (slack_sec(j, local.gpcs) <= 0.0) continue;
            const WorkerState& c = workers.Get(j);
            if (c.failed) continue;
            if (!swap_free(c)) continue;
            if (completion_sec(j, local.gpcs) <= bound) return c.index;
          }
        }
      }
      return w.index;
    }
  }

  // Step B: no partition satisfies the SLA; pick minimum completion time.
  // Failed partitions are excluded here too; if every partition is failed
  // the arrival is declined (kNoAssignment) and the server parks it until
  // recovery.
  double t_min = std::numeric_limits<double>::infinity();
  int best = kNoAssignment;
  for (const SizeRun& run : runs_) {
    if (skip_b && best != kNoAssignment && !(tnew_sec(run.gpcs) < t_min)) {
      continue;
    }
    for (std::uint32_t k = run.begin; k < run.end; ++k) {
      const std::uint32_t i = order_[k];
      const WorkerState& w = workers.Get(i);
      if (w.failed) continue;
      const double t = completion_sec(i, run.gpcs);
      if (best == kNoAssignment || t < t_min) {
        t_min = t;
        best = w.index;
      }
    }
  }
  return best;
}

}  // namespace pe::sched
