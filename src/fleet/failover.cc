#include "fleet/failover.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "sched/scheduler.h"
#include "sim/metrics.h"
#include "sim/server.h"

namespace pe::fleet {

namespace {

// Salt for the failover replica pick: distinct from the fault-schedule,
// server, and router stream domains.  The attempt number folds in so
// consecutive retries of one query spread over the healthy set instead
// of hammering a single replica.
constexpr std::uint64_t kFailoverSalt = 0xFA11BACCULL;

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

// Trace rows per parallel chunk of the per-query passes (the health patch
// and the outcome count).  Bounds depend only on the row count, never on
// `jobs`.
constexpr std::size_t kChunkRows = 65536;

// One byte of outcome bits per query: what the driver decided for it, and
// which terminal kinds its attempts' records reached.
enum : std::uint8_t {
  kDriverShed = 1 << 0,
  kDriverFailed = 1 << 1,
  kAnyCompleted = 1 << 2,
  kAnyFailed = 1 << 3,
  kAnyShed = 1 << 4,
};

// The outcome bit a record sets for its query.
std::uint8_t RecordOutcome(const sim::QueryRecord& r) {
  if (r.failed) return kAnyFailed;
  return r.shed ? kAnyShed : kAnyCompleted;
}

// Merges possibly-overlapping [begin, end) windows into a disjoint
// ascending list.
std::vector<std::pair<SimTime, SimTime>> MergeWindows(
    std::vector<std::pair<SimTime, SimTime>> windows) {
  std::sort(windows.begin(), windows.end());
  std::vector<std::pair<SimTime, SimTime>> merged;
  for (const auto& w : windows) {
    if (w.second <= w.first) continue;
    if (!merged.empty() && w.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, w.second);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

}  // namespace

std::optional<SimTime> RetryInstant(SimTime t, SimTime backoff, int attempt) {
  if (t < 0 || backoff < 0 || attempt < 1) {
    throw std::invalid_argument(
        "RetryInstant: negative time or backoff, or attempt below 1");
  }
  if (backoff == 0) return t;
  // backoff >= 1 here, so 2^63 and beyond never fit.
  if (attempt - 1 >= 63) return std::nullopt;
  const SimTime factor = SimTime{1} << (attempt - 1);
  if (backoff > (std::numeric_limits<SimTime>::max() - t) / factor) {
    return std::nullopt;
  }
  return t + backoff * factor;
}

HealthView::HealthView(const FaultPlan& plan, const PlacementMap& placement)
    : num_servers_(static_cast<std::size_t>(placement.num_servers())),
      num_models_(static_cast<std::size_t>(placement.num_models())) {
  std::vector<std::pair<SimTime, SimTime>> incident_windows;
  // Open crash windows per server, open worker windows per (server,
  // worker), open slowdown windows per server -- closed by the matching
  // recover/end event, or at +inf (never healed).
  std::vector<SimTime> open_crash(num_servers_, -1);
  std::map<std::pair<int, int>, SimTime> open_worker;
  std::vector<SimTime> open_slow(num_servers_, -1);
  // Epoch 0: everyone up.  An instant with crash or recover events opens
  // a new epoch once all of its events are applied.
  up_.assign(num_servers_, 1);
  const auto open_epoch = [&](SimTime instant) {
    instants_.push_back(instant);
    for (std::size_t s = 0; s < num_servers_; ++s) {
      up_.push_back(open_crash[s] < 0 ? 1 : 0);
    }
  };
  bool instant_open = false;  // crash/recover events at `instant` so far
  SimTime instant = 0;
  SimTime last = std::numeric_limits<SimTime>::min();
  for (const FaultEvent& ev : plan.events) {
    if (ev.time < last) {
      throw std::invalid_argument("HealthView: fault events not sorted");
    }
    last = ev.time;
    if (ev.server < 0 || static_cast<std::size_t>(ev.server) >= num_servers_) {
      throw std::invalid_argument("HealthView: server " +
                                  std::to_string(ev.server) + " out of range");
    }
    if (instant_open && ev.time != instant) {
      open_epoch(instant);
      instant_open = false;
    }
    const auto s = static_cast<std::size_t>(ev.server);
    switch (ev.kind) {
      case FaultKind::kServerCrash:
        if (open_crash[s] < 0) open_crash[s] = ev.time;
        instant_open = true;
        instant = ev.time;
        break;
      case FaultKind::kServerRecover:
        if (open_crash[s] >= 0) {
          incident_windows.push_back({open_crash[s], ev.time});
          open_crash[s] = -1;
        }
        instant_open = true;
        instant = ev.time;
        break;
      case FaultKind::kWorkerFail: {
        const auto key = std::make_pair(ev.server, ev.worker);
        if (open_worker.find(key) == open_worker.end()) {
          open_worker[key] = ev.time;
        }
        break;
      }
      case FaultKind::kWorkerRecover: {
        const auto it = open_worker.find({ev.server, ev.worker});
        if (it != open_worker.end()) {
          incident_windows.push_back({it->second, ev.time});
          open_worker.erase(it);
        }
        break;
      }
      case FaultKind::kSlowdownBegin:
        if (open_slow[s] < 0) open_slow[s] = ev.time;
        break;
      case FaultKind::kSlowdownEnd:
        if (open_slow[s] >= 0) {
          incident_windows.push_back({open_slow[s], ev.time});
          open_slow[s] = -1;
        }
        break;
    }
  }
  if (instant_open) open_epoch(instant);
  for (std::size_t s = 0; s < num_servers_; ++s) {
    if (open_crash[s] >= 0) {
      incident_windows.push_back({open_crash[s], kForever});
    }
    if (open_slow[s] >= 0) {
      incident_windows.push_back({open_slow[s], kForever});
    }
  }
  for (const auto& [key, begin] : open_worker) {
    incident_windows.push_back({begin, kForever});
  }
  incidents_ = MergeWindows(std::move(incident_windows));

  // Per epoch and model, the up replicas in Replicas() order.
  const std::size_t epochs = instants_.size() + 1;
  healthy_offsets_.reserve(epochs * num_models_ + 1);
  healthy_offsets_.push_back(0);
  for (std::size_t e = 0; e < epochs; ++e) {
    const std::uint8_t* up = up_.data() + e * num_servers_;
    for (std::size_t m = 0; m < num_models_; ++m) {
      for (const int r : placement.Replicas(static_cast<int>(m))) {
        if (up[static_cast<std::size_t>(r)] != 0) healthy_.push_back(r);
      }
      healthy_offsets_.push_back(healthy_.size());
    }
  }
}

std::size_t HealthView::Epoch(SimTime t) const {
  return static_cast<std::size_t>(
      std::upper_bound(instants_.begin(), instants_.end(), t) -
      instants_.begin());
}

SimTime HealthView::DownTicks(int server, SimTime horizon) const {
  const auto s = static_cast<std::size_t>(server);
  SimTime ticks = 0;
  // Epoch 0 is all-up; epoch k >= 1 spans [instants_[k-1], instants_[k]).
  for (std::size_t k = 1; k <= instants_.size(); ++k) {
    if (up_[k * num_servers_ + s] != 0) continue;
    const SimTime end = k < instants_.size() ? instants_[k] : kForever;
    ticks += std::min(end, horizon) - std::min(instants_[k - 1], horizon);
  }
  return ticks;
}

bool HealthView::InIncident(SimTime t) const {
  auto it = std::upper_bound(
      incidents_.begin(), incidents_.end(), t,
      [](SimTime v, const std::pair<SimTime, SimTime>& w) {
        return v < w.first;
      });
  if (it == incidents_.begin()) return false;
  --it;
  return t < it->second;
}

FleetResult SimulateWithFaults(const Cluster& cluster,
                               const workload::QueryTrace& trace,
                               const FaultPlan& plan, int jobs,
                               const ReplanFn& replan) {
  // The identity contract: no faults, no driver -- the batch path runs
  // unchanged, record for record.
  if (plan.empty()) return cluster.Simulate(trace, jobs);

  const PlacementMap& placement = cluster.placement();
  plan.Validate(placement);
  const int n = placement.num_servers();
  const auto nn = static_cast<std::size_t>(n);
  const std::size_t total = trace.size();
  const HealthView health(plan, placement);

  FaultSummary fault;
  fault.faulted = true;
  fault.injected = total;

  // ---- Stage 1: route, then patch around planned downtime. -------------
  std::vector<int> assignment =
      cluster.MakeFleetRouter()->RouteAll(trace, jobs);
  std::vector<std::uint8_t> outcome(total, 0);
  const std::vector<workload::Query>& queries = trace.queries();
  const std::size_t chunks = (total + kChunkRows - 1) / kChunkRows;
  const auto chunk_end = [&](std::size_t c) {
    return std::min(total, (c + 1) * kChunkRows);
  };
  // A row's patch reads and writes only that row, so chunks write
  // disjoint slots; each counts its own reroutes.
  const std::vector<std::uint64_t> chunk_rerouted =
      ParallelMap(chunks, jobs, [&](std::size_t c) {
        std::uint64_t rerouted = 0;
        for (std::size_t i = c * kChunkRows; i < chunk_end(c); ++i) {
          const workload::Query& q = queries[i];
          if (health.IsUp(assignment[i], q.arrival)) continue;
          const std::span<const int> healthy =
              health.Healthy(q.model_id, q.arrival);
          if (healthy.empty()) {
            assignment[i] = -1;  // pre-shed: nobody can take it
            outcome[i] = kDriverShed;
            continue;
          }
          const std::uint64_t h = Mix64(q.id ^ Mix64(kFailoverSalt));
          assignment[i] =
              healthy[static_cast<std::size_t>(h % healthy.size())];
          ++rerouted;
        }
        return rerouted;
      });
  for (const std::uint64_t rerouted : chunk_rerouted) {
    fault.rerouted += rerouted;
  }

  // ---- Stage 2: build the engines (incremental mode), one task each. ---
  // The split's id list is the one copy of each routed query's global id;
  // a server keeps only its retries' ids, and stage 4 joins the two.
  TraceSplit split = SplitByAssignment(trace, assignment, placement, jobs);
  std::vector<int>().swap(assignment);  // split: no longer needed
  struct Server {
    std::unique_ptr<sched::Scheduler> scheduler;
    std::unique_ptr<sim::InferenceServer> engine;
    // Local query id past the split's rows -> global id, one per retry
    // injected here.
    std::vector<std::uint64_t> retry_gids;
  };
  std::vector<Server> servers = ParallelMap(nn, jobs, [&](std::size_t i) {
    const int s = static_cast<int>(i);
    sim::ServerConfig sc = cluster.MakeServerConfig(s);
    sc.deadline = plan.deadline;  // per-attempt queue-staleness shed
    Server server;
    server.scheduler = cluster.MakeScheduler(s);
    server.engine = std::make_unique<sim::InferenceServer>(
        sc, cluster.server_repertoire(s), *server.scheduler);
    const std::vector<workload::Query> local =
        LocalQueries(split, placement, s);
    // 1/64 of headroom for the retries a survivor takes: past an exact
    // fit, its first retry would double the records' capacity.
    server.engine->ReserveRecords(local.size() + local.size() / 64);
    server.engine->InjectSpan(local);
    return server;
  });
  const auto global_id = [&](int s, std::uint64_t local) {
    const std::span<const std::uint64_t> routed = split.GlobalIds(s);
    if (local < routed.size()) return routed[local];
    const Server& server = servers[static_cast<std::size_t>(s)];
    return server.retry_gids[local - routed.size()];
  };

  // ---- Stage 3: the epoch loop. ----------------------------------------
  // Advance every engine (parallel, one task per engine -- disjoint
  // state, so --jobs cannot change anything) to the next fault or retry
  // instant, apply that instant's faults serially in schedule order, then
  // inject its retries, one task per target server.
  std::vector<int> retries_done(total, 0);
  std::vector<bool> crashed(nn, false);
  std::vector<std::vector<int>> layouts(nn);
  for (int s = 0; s < n; ++s) {
    layouts[static_cast<std::size_t>(s)] = placement.server(s).partition_gpcs;
  }

  struct Retry {
    int server;
    std::uint64_t gid;
  };
  std::map<SimTime, std::vector<Retry>> pending;

  // A lost attempt comes home: retry on a healthy replica, or classify.
  const auto lose = [&](int from_server, SimTime t,
                        const std::vector<workload::Query>& removed) {
    for (const workload::Query& q : removed) {
      const std::uint64_t gid = global_id(from_server, q.id);
      const int attempt = retries_done[gid] + 1;
      const std::optional<SimTime> instant =
          attempt > plan.max_retries
              ? std::nullopt
              : RetryInstant(t, plan.retry_backoff, attempt);
      if (!instant) {
        // An exhausted budget, or a backoff past the end of time.
        outcome[gid] |= kDriverFailed;
        continue;
      }
      retries_done[gid] = attempt;
      const SimTime retry_time = *instant;
      const workload::Query& orig = queries[gid];
      if (plan.deadline > 0 && retry_time - orig.arrival > plan.deadline) {
        // Cannot finish in time; drop, don't churn.
        outcome[gid] |= kDriverShed;
        continue;
      }
      const std::span<const int> healthy =
          health.Healthy(orig.model_id, retry_time);
      if (healthy.empty()) {
        outcome[gid] |= kDriverShed;
        continue;
      }
      const std::uint64_t h = Mix64(
          gid ^ Mix64(kFailoverSalt + static_cast<std::uint64_t>(attempt)));
      const int pick = healthy[static_cast<std::size_t>(h % healthy.size())];
      if (pick != from_server) ++fault.rerouted;
      ++fault.retried;
      pending[retry_time].push_back({pick, gid});
    }
  };

  const auto crash_server = [&](int s, SimTime t) {
    auto& engine = *servers[static_cast<std::size_t>(s)].engine;
    std::vector<workload::Query> removed;
    for (int w = 0; w < engine.num_workers(); ++w) {
      auto r = engine.FailWorker(w, /*requeue_orphans=*/false);
      removed.insert(removed.end(), r.begin(), r.end());
    }
    auto parked = engine.FailCentralQueue();
    removed.insert(removed.end(), parked.begin(), parked.end());
    lose(s, t, removed);
  };

  const auto do_repartition = [&] {
    if (!plan.repartition || !replan) return;
    std::vector<int> down;
    std::vector<bool> impacted_model(
        static_cast<std::size_t>(placement.num_models()), false);
    for (int s = 0; s < n; ++s) {
      if (!crashed[static_cast<std::size_t>(s)]) continue;
      down.push_back(s);
      for (const int m : placement.server(s).model_ids) {
        impacted_model[static_cast<std::size_t>(m)] = true;
      }
    }
    for (int v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (crashed[vi]) continue;
      const ServerPlacement& sp = placement.server(v);
      const auto impacted = [&](int m) {
        return impacted_model[static_cast<std::size_t>(m)];
      };
      const bool shares =
          std::any_of(sp.model_ids.begin(), sp.model_ids.end(), impacted);
      // Re-plan when the server absorbs a dead peer's traffic, or when a
      // recovery lets a previously-degraded layout relax back.
      if (!shares && layouts[vi] == sp.partition_gpcs) continue;
      std::vector<int> layout = replan(v, down);
      if (layout.empty() || layout == layouts[vi]) continue;
      servers[vi].engine->BeginReconfigure(layout, plan.reconfig_downtime);
      layouts[vi] = std::move(layout);
      ++fault.repartitions;
    }
  };

  // A live reconfiguration rebuilds the worker set and wipes failure
  // marks (BuildWorkers); a crashed server whose pre-crash repartition
  // completes mid-epoch would silently resurrect.  Re-assert the crash
  // after every advance: abort whatever restarted and keep the marks.
  const auto enforce_crashes = [&](SimTime t) {
    for (int s = 0; s < n; ++s) {
      const auto si = static_cast<std::size_t>(s);
      if (!crashed[si]) continue;
      const auto& engine = *servers[si].engine;
      if (engine.num_failed_workers() < engine.num_workers()) {
        crash_server(s, t);
      }
    }
  };

  // Injects the retries due at `t`: grouped by target server in schedule
  // order, each server's group on its own task.
  const auto inject_retries = [&](SimTime t, std::vector<Retry>& due) {
    std::stable_sort(due.begin(), due.end(),
                     [](const Retry& a, const Retry& b) {
                       return a.server < b.server;
                     });
    std::vector<std::size_t> group_begin;
    for (std::size_t k = 0; k < due.size(); ++k) {
      if (k == 0 || due[k].server != due[k - 1].server) {
        group_begin.push_back(k);
      }
    }
    group_begin.push_back(due.size());
    ParallelMap(group_begin.size() - 1, jobs, [&](std::size_t g) {
      const int s = due[group_begin[g]].server;
      Server& server = servers[static_cast<std::size_t>(s)];
      const std::size_t routed = split.GlobalIds(s).size();
      for (std::size_t k = group_begin[g]; k < group_begin[g + 1]; ++k) {
        const workload::Query& orig = queries[due[k].gid];
        workload::Query q;
        q.id = routed + server.retry_gids.size();
        q.arrival = t;
        q.batch = orig.batch;
        q.model_id = placement.LocalModel(s, orig.model_id);
        assert(q.model_id >= 0);
        server.engine->InjectQuery(q);
        server.retry_gids.push_back(due[k].gid);
      }
      return 0;
    });
  };

  std::size_t fe = 0;
  SimTime last_applied = 0;
  while (fe < plan.events.size() || !pending.empty()) {
    SimTime t = kForever;
    if (fe < plan.events.size()) t = plan.events[fe].time;
    if (!pending.empty()) t = std::min(t, pending.begin()->first);
    ParallelMap(nn, jobs, [&](std::size_t s) {
      servers[s].engine->AdvanceTo(t);
      return 0;
    });
    enforce_crashes(t);
    while (fe < plan.events.size() && plan.events[fe].time == t) {
      const FaultEvent& ev = plan.events[fe++];
      const auto si = static_cast<std::size_t>(ev.server);
      auto& engine = *servers[si].engine;
      ++fault.incidents;
      switch (ev.kind) {
        case FaultKind::kServerCrash:
          if (crashed[si]) break;
          crashed[si] = true;
          crash_server(ev.server, t);
          do_repartition();
          break;
        case FaultKind::kServerRecover:
          if (!crashed[si]) break;
          crashed[si] = false;
          for (int w = 0; w < engine.num_workers(); ++w) {
            engine.RecoverWorker(w);
          }
          do_repartition();
          break;
        case FaultKind::kWorkerFail: {
          if (crashed[si]) break;  // the crash already owns every worker
          if (ev.worker >= engine.num_workers()) break;  // layout shrank
          lose(ev.server, t, engine.FailWorker(ev.worker,
                                               /*requeue_orphans=*/true));
          break;
        }
        case FaultKind::kWorkerRecover:
          if (crashed[si]) break;
          if (ev.worker >= engine.num_workers()) break;
          engine.RecoverWorker(ev.worker);
          break;
        case FaultKind::kSlowdownBegin:
          engine.SetSlowdownFactor(ev.factor);
          break;
        case FaultKind::kSlowdownEnd:
          engine.SetSlowdownFactor(1.0);
          break;
      }
    }
    const auto due = pending.find(t);
    if (due != pending.end()) {
      inject_retries(t, due->second);
      pending.erase(due);
    }
    last_applied = t;
  }

  // ---- Stage 4: drain and assemble. ------------------------------------
  auto results = ParallelMap(nn, jobs, [&](std::size_t s) {
    return servers[s].engine->Finish();
  });
  std::vector<int>().swap(retries_done);  // no more retries: free it

  // Each server's ids: its split rows, then its retries, copied into its
  // own slice of one flat list.
  FleetResult result;
  result.per_server = std::move(results);
  result.id_offsets.assign(nn + 1, 0);
  std::vector<std::size_t> routed(nn);
  for (std::size_t s = 0; s < nn; ++s) {
    routed[s] = split.offsets[s + 1] - split.offsets[s];
    result.id_offsets[s + 1] =
        result.id_offsets[s] + routed[s] + servers[s].retry_gids.size();
  }
  result.global_ids.resize(result.id_offsets.back());
  ParallelMap(nn, jobs, [&](std::size_t s) {
    const std::span<const std::uint64_t> gids =
        split.GlobalIds(static_cast<int>(s));
    const std::vector<std::uint64_t>& retried = servers[s].retry_gids;
    std::uint64_t* out = result.global_ids.data() + result.id_offsets[s];
    out = std::copy(gids.begin(), gids.end(), out);
    std::copy(retried.begin(), retried.end(), out);
    return 0;
  });
  split = TraceSplit{};
  cluster.FillGlobalTables(result);

  // ---- Stage 5: terminal classification + incident metrics. ------------
  // Each server marks its routed attempts' outcomes (the split partitions
  // the trace rows, so no two servers mark one query) and gathers its
  // makespan and incident latencies.
  struct Scan {
    SimTime makespan = 0;
    std::vector<SimTime> incident_latency;
  };
  std::vector<Scan> scans = ParallelMap(nn, jobs, [&](std::size_t s) {
    Scan scan;
    const std::span<const std::uint64_t> gids =
        result.GlobalIds(static_cast<int>(s));
    for (const sim::QueryRecord& r : result.per_server[s].records) {
      scan.makespan = std::max(scan.makespan, r.finished);
      const std::uint8_t bit = RecordOutcome(r);
      if (bit == kAnyCompleted && health.InIncident(r.finished)) {
        scan.incident_latency.push_back(r.Latency());
      }
      if (r.id < routed[s]) outcome[gids[r.id]] |= bit;
    }
    return scan;
  });
  // A query's retries may land on any server, so their marks go serially.
  SimTime makespan = last_applied == kForever ? 0 : last_applied;
  std::vector<std::span<const SimTime>> incident_latency;
  for (std::size_t s = 0; s < nn; ++s) {
    const std::span<const std::uint64_t> gids =
        result.GlobalIds(static_cast<int>(s));
    const std::vector<sim::QueryRecord>& records =
        result.per_server[s].records;
    for (std::size_t k = routed[s]; k < records.size(); ++k) {
      outcome[gids[records[k].id]] |= RecordOutcome(records[k]);
    }
    makespan = std::max(makespan, scans[s].makespan);
    incident_latency.emplace_back(scans[s].incident_latency);
    fault.incident_completions += scans[s].incident_latency.size();
  }
  // Every query lands in exactly one class; a query with no record that
  // the driver never shed was lost, which is a driver bug.
  struct Tally {
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;
    std::optional<std::size_t> lost;  // the chunk's first lost query
  };
  const std::vector<Tally> tallies =
      ParallelMap(chunks, jobs, [&](std::size_t c) {
        Tally tally;
        for (std::size_t gid = c * kChunkRows; gid < chunk_end(c); ++gid) {
          const std::uint8_t o = outcome[gid];
          if ((o & kAnyCompleted) != 0) {
            ++tally.completed;
          } else if ((o & kDriverFailed) != 0) {
            ++tally.failed;
          } else if ((o & (kDriverShed | kAnyShed)) != 0) {
            ++tally.shed;
          } else if ((o & kAnyFailed) != 0) {
            // No retry path saw it (e.g. parked work that died at Finish).
            ++tally.failed;
          } else {
            tally.lost = gid;
            break;
          }
        }
        return tally;
      });
  for (const Tally& tally : tallies) {
    if (tally.lost) {
      throw std::logic_error("SimulateWithFaults: query " +
                             std::to_string(*tally.lost) +
                             " was lost: no record, never shed");
    }
    fault.completed += tally.completed;
    fault.failed += tally.failed;
    fault.shed += tally.shed;
  }
  fault.makespan = makespan;
  fault.availability.reserve(nn);
  for (int s = 0; s < n; ++s) {
    if (makespan > 0) {
      const double down_frac =
          static_cast<double>(health.DownTicks(s, makespan)) /
          static_cast<double>(makespan);
      fault.availability.push_back(1.0 - down_frac);
    } else {
      fault.availability.push_back(1.0);
    }
  }
  if (fault.incident_completions > 0) {
    fault.p99_incident_ms = sim::TickPercentileMs(incident_latency, 99.0);
  }
  result.fault = fault;
  return result;
}

}  // namespace pe::fleet
