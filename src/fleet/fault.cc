#include "fleet/fault.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/rng.h"

namespace pe::fleet {

namespace {

// Disjoint stream tag for fault-schedule draws (servers hash their ids
// through ServerSeed, the router through RouterSeed; this one is ours).
constexpr std::uint64_t kFaultStreamSalt = 0xFA17ULL;

// One override value: a finite number >= 0 (`nan`, `inf` and negatives
// are rejected, naming the key).
double ParseNumber(const std::string& key, const std::string& val) {
  std::size_t pos = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(val, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != val.size()) {
    throw std::invalid_argument("faults: bad value for '" + key + "': '" +
                                val + "'");
  }
  if (!std::isfinite(parsed) || parsed < 0.0) {
    throw std::invalid_argument("faults: '" + key +
                                "' must be a finite number >= 0, got '" + val +
                                "'");
  }
  return parsed;
}

// `count` and `retries`: truncated to an int, which they must fit.
int ParseInt(const std::string& key, const std::string& val) {
  const double v = ParseNumber(key, val);
  if (v >= static_cast<double>(std::numeric_limits<int>::max()) + 1.0) {
    throw std::invalid_argument("faults: '" + key + "' does not fit an int: '" +
                                val + "'");
  }
  return static_cast<int>(v);
}

// The `-ms` keys: a duration whose tick count must fit SimTime.
SimTime ParseMs(const std::string& key, const std::string& val) {
  const std::optional<SimTime> ticks =
      CheckedTicks(ParseNumber(key, val), kNsPerMs);
  if (!ticks) {
    throw std::invalid_argument("faults: '" + key +
                                "' overflows the tick clock: '" + val + "'");
  }
  return *ticks;
}

// The overrides shared by every preset; unset keys keep each preset's
// default (an explicit 0 is a value: down-ms=0 means permanent).
struct Overrides {
  std::optional<int> count;
  std::optional<SimTime> at;
  std::optional<SimTime> down;
  std::optional<double> factor;
  std::optional<SimTime> stagger;
  std::optional<int> retries;
  std::optional<SimTime> backoff;
  std::optional<SimTime> deadline;
  std::optional<bool> repartition;
  std::optional<SimTime> downtime;
};

Overrides CollectOverrides(const FaultOptions& opts) {
  Overrides o;
  for (const auto& [key, val] : opts.overrides) {
    if (key == "count") {
      o.count = ParseInt(key, val);
    } else if (key == "at-ms") {
      o.at = ParseMs(key, val);
    } else if (key == "down-ms") {
      o.down = ParseMs(key, val);
    } else if (key == "factor") {
      o.factor = ParseNumber(key, val);
      if (!(*o.factor > 0.0)) {
        throw std::invalid_argument("faults: 'factor' must be > 0, got '" +
                                    val + "'");
      }
    } else if (key == "stagger-ms") {
      o.stagger = ParseMs(key, val);
    } else if (key == "retries") {
      o.retries = ParseInt(key, val);
    } else if (key == "backoff-ms") {
      o.backoff = ParseMs(key, val);
    } else if (key == "deadline-ms") {
      o.deadline = ParseMs(key, val);
    } else if (key == "repartition") {
      o.repartition = ParseNumber(key, val) != 0.0;
    } else if (key == "downtime-ms") {
      o.downtime = ParseMs(key, val);
    } else {
      throw std::invalid_argument("faults: unknown key '" + key + "'");
    }
  }
  return o;
}

// `at + delay` for a preset's event times; throws instead of overflowing.
SimTime Later(SimTime at, SimTime delay) {
  const std::optional<SimTime> t = CheckedAdd(at, delay);
  if (!t) {
    throw std::invalid_argument("faults: event time overflows the tick clock");
  }
  return *t;
}

// `count` distinct server ids, ascending, drawn without replacement.
// Partial Fisher-Yates over the dense id range: O(num_servers) setup,
// deterministic in the rng stream.
std::vector<int> DrawServers(int count, int num_servers, Rng& rng) {
  std::vector<int> ids(static_cast<std::size_t>(num_servers));
  for (int s = 0; s < num_servers; ++s) ids[static_cast<std::size_t>(s)] = s;
  for (int k = 0; k < count; ++k) {
    const auto j = static_cast<std::size_t>(rng.UniformInt(k, num_servers - 1));
    std::swap(ids[static_cast<std::size_t>(k)], ids[j]);
  }
  ids.resize(static_cast<std::size_t>(count));
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kServerCrash:
      return "server_crash";
    case FaultKind::kServerRecover:
      return "server_recover";
    case FaultKind::kWorkerFail:
      return "worker_fail";
    case FaultKind::kWorkerRecover:
      return "worker_recover";
    case FaultKind::kSlowdownBegin:
      return "slowdown_begin";
    case FaultKind::kSlowdownEnd:
      return "slowdown_end";
  }
  return "unknown";
}

void FaultPlan::Validate(const PlacementMap& placement) const {
  for (const auto& ev : events) {
    if (ev.time < 0) {
      throw std::invalid_argument("faults: negative event time");
    }
    if (ev.server < 0 || ev.server >= placement.num_servers()) {
      throw std::invalid_argument("faults: server " + std::to_string(ev.server) +
                                  " out of range");
    }
    if (ev.kind == FaultKind::kWorkerFail ||
        ev.kind == FaultKind::kWorkerRecover) {
      const auto& layout = placement.server(ev.server).partition_gpcs;
      // An unfilled layout (no planner pass yet) counts as one lane: the
      // layout is decided later and the driver re-checks at apply time.
      const int lanes = layout.empty() ? 1 : static_cast<int>(layout.size());
      if (ev.worker < 0 || ev.worker >= lanes) {
        throw std::invalid_argument(
            "faults: worker " + std::to_string(ev.worker) +
            " out of range for server " + std::to_string(ev.server));
      }
    }
    if (ev.kind == FaultKind::kSlowdownBegin && !(ev.factor > 0.0)) {
      throw std::invalid_argument("faults: slowdown factor must be > 0");
    }
  }
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].time < events[i - 1].time) {
      throw std::invalid_argument("faults: events not sorted by time");
    }
  }
  if (max_retries < 0) {
    throw std::invalid_argument("faults: max_retries must be >= 0");
  }
  if (retry_backoff < 0 || deadline < 0 || reconfig_downtime < 0) {
    throw std::invalid_argument("faults: negative duration knob");
  }
}

FaultPlan ResolveFaultPlan(const FaultOptions& opts,
                           const PlacementMap& placement, SimTime span,
                           std::uint64_t seed) {
  if (span <= 0) {
    throw std::invalid_argument("faults: non-positive trace span");
  }
  const Overrides o = CollectOverrides(opts);

  FaultPlan plan;
  plan.name = opts.name;
  plan.max_retries = o.retries.value_or(plan.max_retries);
  plan.retry_backoff = o.backoff.value_or(plan.retry_backoff);
  plan.deadline = o.deadline.value_or(plan.deadline);
  plan.repartition = o.repartition.value_or(plan.repartition);
  plan.reconfig_downtime = o.downtime.value_or(plan.reconfig_downtime);

  if (opts.name == "none") {
    if (!opts.overrides.empty()) {
      throw std::invalid_argument("faults: 'none' takes no overrides");
    }
    return plan;
  }

  const int num_servers = placement.num_servers();
  Rng rng(Mix64(seed ^ Mix64(kFaultStreamSalt)));
  const double span_d = static_cast<double>(span);

  if (opts.name == "serverloss") {
    const int count = std::min(o.count.value_or(1), num_servers);
    const SimTime at = o.at.value_or(static_cast<SimTime>(0.25 * span_d));
    const SimTime down = o.down.value_or(0);
    for (const int s : DrawServers(count, num_servers, rng)) {
      plan.events.push_back({at, FaultKind::kServerCrash, s, -1, 1.0});
      if (down > 0) {
        plan.events.push_back({Later(at, down), FaultKind::kServerRecover, s,
                               -1, 1.0});
      }
    }
  } else if (opts.name == "flaky") {
    const int count =
        std::min(o.count.value_or(4), 64 * std::max(1, num_servers));
    const SimTime down = o.down.value_or(static_cast<SimTime>(0.05 * span_d));
    for (int k = 0; k < count; ++k) {
      const int s = static_cast<int>(rng.UniformInt(0, num_servers - 1));
      const auto lanes = std::max<int>(
          1, static_cast<int>(placement.server(s).partition_gpcs.size()));
      const int w = static_cast<int>(rng.UniformInt(0, lanes - 1));
      const auto at =
          static_cast<SimTime>(rng.Uniform(0.1 * span_d, 0.9 * span_d));
      plan.events.push_back({at, FaultKind::kWorkerFail, s, w, 1.0});
      if (down > 0) {
        plan.events.push_back({Later(at, down), FaultKind::kWorkerRecover, s,
                               w, 1.0});
      }
    }
  } else if (opts.name == "brownout") {
    const int count = std::min(o.count.value_or(2), num_servers);
    const double factor = o.factor.value_or(2.0);
    const SimTime at = o.at.value_or(static_cast<SimTime>(0.3 * span_d));
    const SimTime down = o.down.value_or(static_cast<SimTime>(0.4 * span_d));
    for (const int s : DrawServers(count, num_servers, rng)) {
      plan.events.push_back({at, FaultKind::kSlowdownBegin, s, -1, factor});
      if (down > 0) {
        plan.events.push_back({Later(at, down), FaultKind::kSlowdownEnd, s,
                               -1, 1.0});
      }
    }
  } else if (opts.name == "cascade") {
    const int count = std::min(o.count.value_or(3), num_servers);
    const SimTime stagger =
        o.stagger.value_or(static_cast<SimTime>(0.1 * span_d));
    const SimTime down = o.down.value_or(static_cast<SimTime>(0.25 * span_d));
    SimTime at = o.at.value_or(static_cast<SimTime>(0.25 * span_d));
    const std::vector<int> victims = DrawServers(count, num_servers, rng);
    for (std::size_t k = 0; k < victims.size(); ++k) {
      if (k > 0) at = Later(at, stagger);
      plan.events.push_back({at, FaultKind::kServerCrash, victims[k], -1, 1.0});
      if (down > 0) {
        plan.events.push_back({Later(at, down), FaultKind::kServerRecover,
                               victims[k], -1, 1.0});
      }
    }
  } else {
    throw std::invalid_argument("faults: unknown preset '" + opts.name + "'");
  }

  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  plan.Validate(placement);
  return plan;
}

}  // namespace pe::fleet
