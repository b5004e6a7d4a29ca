#include "workload/scenario.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pe::workload {

namespace {

constexpr double kPi = 3.14159265358979323846;

// Strict numeric parse for override values: the whole token must be
// consumed, so "0.6x" is an error, not 0.6.
double ParseValue(const std::string& key, const std::string& value) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != value.size()) {
    throw std::invalid_argument("scenario: bad value for " + key + ": '" +
                                value + "'");
  }
  return v;
}

}  // namespace

// ---- Rate curves ------------------------------------------------------------

double RateCurve::QpsAt(double t_sec) const {
  switch (shape) {
    case RateShape::kConstant:
      return base_qps;
    case RateShape::kDiurnal:
      return base_qps *
             (1.0 + amplitude * std::sin(2.0 * kPi * t_sec / period_sec));
    case RateShape::kFlash: {
      if (t_sec < flash_at_sec) return base_qps;
      const double decay = std::exp(-(t_sec - flash_at_sec) / flash_decay_sec);
      return base_qps * (1.0 + (flash_mult - 1.0) * decay);
    }
  }
  return base_qps;
}

// ---- ScenarioSpec ------------------------------------------------------------

void ScenarioSpec::Validate() const {
  const auto fail = [this](const std::string& what) {
    throw std::invalid_argument("ScenarioSpec '" + name + "': " + what);
  };
  // Every real field must be finite: +inf passes the sign checks below,
  // and an infinite rate would emit arrivals 1 ns apart.
  const auto finite = [&fail](double v, const std::string& field) {
    if (!std::isfinite(v)) fail(field + " must be finite");
  };
  if (components.empty()) fail("no components");
  finite(rate.base_qps, "rate");
  finite(rate.amplitude, "diurnal amplitude");
  finite(rate.period_sec, "diurnal period");
  finite(rate.flash_at_sec, "flash time");
  finite(rate.flash_mult, "flash multiplier");
  finite(rate.flash_decay_sec, "flash decay");
  finite(drift_window_sec, "drift window");
  for (const auto& c : components) {
    finite(c.weight, "component weight");
    finite(c.end_weight, "drifted component weight");
    finite(c.median, "component median");
    finite(c.sigma, "component sigma");
    finite(c.end_sigma, "drifted sigma");
  }
  finite(burst.rate_per_sec, "burst rate");
  finite(burst.duration_sec, "burst duration");
  finite(burst.share, "burst share");
  if (!(rate.base_qps > 0.0)) fail("rate must be positive");
  if (rate.shape == RateShape::kDiurnal) {
    if (rate.amplitude < 0.0 || rate.amplitude >= 1.0) {
      fail("diurnal amplitude must be in [0, 1)");
    }
    if (!(rate.period_sec > 0.0)) fail("diurnal period must be positive");
  }
  if (rate.shape == RateShape::kFlash) {
    if (rate.flash_at_sec < 0.0) fail("flash time must be >= 0");
    if (rate.flash_mult < 1.0) fail("flash multiplier must be >= 1");
    if (!(rate.flash_decay_sec > 0.0)) fail("flash decay must be positive");
  }
  if (max_batch < 1) fail("max_batch must be >= 1");
  if (!(drift_window_sec > 0.0)) fail("drift window must be positive");
  if (sigma_steps < 2) fail("sigma_steps must be >= 2");
  double start_total = 0.0;
  double end_total = 0.0;
  for (const auto& c : components) {
    if (c.weight < 0.0) fail("negative component weight");
    if (!(c.median > 0.0)) fail("component median must be positive");
    if (!(c.sigma > 0.0)) fail("component sigma must be positive");
    if (c.end_sigma >= 0.0 && !(c.end_sigma > 0.0)) {
      fail("drifted sigma must be positive");
    }
    start_total += c.weight;
    end_total += c.end_weight < 0.0 ? c.weight : c.end_weight;
  }
  if (!(start_total > 0.0)) fail("component weights sum to zero");
  if (!(end_total > 0.0)) fail("drifted weights sum to zero");
  if (burst.rate_per_sec < 0.0) fail("burst rate must be >= 0");
  if (burst.rate_per_sec > 0.0) {
    if (!(burst.duration_sec > 0.0)) fail("burst duration must be positive");
    if (!CheckedTicks(burst.duration_sec, kNsPerSec)) {
      fail("burst duration overflows the tick clock");
    }
    if (!(burst.share > 0.0 && burst.share <= 1.0)) {
      fail("burst share must be in (0, 1]");
    }
  }
}

// ---- ScenarioTraceSource -------------------------------------------------------

ScenarioTraceSource::ScenarioTraceSource(ScenarioSpec spec)
    : spec_(std::move(spec)) {
  spec_.Validate();
  dists_.reserve(spec_.components.size());
  for (const auto& c : spec_.components) {
    std::vector<LogNormalBatchDist> steps;
    if (c.end_sigma < 0.0) {
      steps.emplace_back(c.median, c.sigma, spec_.max_batch);
    } else {
      // Discretized sigma drift: step s covers frac in [s/N, (s+1)/N).
      clock_sec_ = true;
      for (int s = 0; s < spec_.sigma_steps; ++s) {
        const double frac =
            static_cast<double>(s) / static_cast<double>(spec_.sigma_steps - 1);
        const double sigma = c.sigma + frac * (c.end_sigma - c.sigma);
        steps.emplace_back(c.median, sigma, spec_.max_batch);
      }
    }
    dists_.push_back(std::move(steps));
    if (c.end_weight >= 0.0 && c.end_weight != c.weight) static_mix_ = false;
  }
  constant_rate_ = spec_.rate.shape == RateShape::kConstant;
  bursts_ = spec_.burst.rate_per_sec > 0.0 && spec_.components.size() > 1;
  if (bursts_) static_mix_ = false;
  if (!static_mix_) clock_sec_ = true;
  // Static mixes pay the normalization once: each weight over the in-order
  // sum, the reference draw order's arithmetic (the model pick, and so
  // every seeded trace, depends on it bit for bit).
  weights_.resize(spec_.components.size(), 0.0);
  thresholds_.resize(spec_.components.size(), 0.0);
  if (static_mix_) EffectiveWeights(0.0, /*in_burst=*/false, 0);
}

int ScenarioTraceSource::SigmaStep(double frac) const {
  const int step = static_cast<int>(frac * spec_.sigma_steps);
  return std::min(step, spec_.sigma_steps - 1);
}

void ScenarioTraceSource::EffectiveWeights(double t_sec, bool in_burst,
                                           int burst_model) {
  const double frac =
      std::min(1.0, std::max(0.0, t_sec / spec_.drift_window_sec));
  double total = 0.0;
  for (std::size_t j = 0; j < spec_.components.size(); ++j) {
    const auto& c = spec_.components[j];
    weights_[j] = c.end_weight < 0.0
                      ? c.weight
                      : c.weight + frac * (c.end_weight - c.weight);
    total += weights_[j];
  }
  for (double& w : weights_) w /= total;
  if (in_burst) {
    for (std::size_t j = 0; j < weights_.size(); ++j) {
      weights_[j] *= 1.0 - spec_.burst.share;
      if (static_cast<int>(j) == burst_model) weights_[j] += spec_.burst.share;
    }
  }
  double acc = 0.0;
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    acc += weights_[j];
    thresholds_[j] = acc;
  }
}

std::size_t ScenarioTraceSource::PickModel(double u) const {
  // The first component whose running weight exceeds u, else the last.
  // The running sums of non-negative weights never decrease, so that is
  // the number of thresholds at or below u (the last one not counted).
  std::size_t k = 0;
  for (std::size_t j = 0; j + 1 < thresholds_.size(); ++j) {
    k += thresholds_[j] <= u ? 1 : 0;
  }
  return k;
}

void ScenarioTraceSource::AdvanceBursts(Rng& rng) {
  const double rate = spec_.burst.rate_per_sec;
  if (!burst_clock_started_) {
    burst_clock_started_ = true;
    next_burst_at_ = ExponentialGap(rng, rate, "burst clock");
  }
  while (now_ >= next_burst_at_) {
    burst_model_ = static_cast<int>(rng.UniformInt(
        0, static_cast<std::int64_t>(spec_.components.size()) - 1));
    // Validate() checked that the duration converts.
    burst_until_ = AdvanceClock(next_burst_at_,
                                SecToTicks(spec_.burst.duration_sec), rate,
                                "burst clock");
    next_burst_at_ = AdvanceClock(
        burst_until_, ExponentialGap(rng, rate, "burst clock"), rate,
        "burst clock");
  }
}

Query ScenarioTraceSource::Pull(Rng& rng) {
  // Gap at the rate in effect at the previous arrival; a constant curve
  // reduces to PoissonArrivals::NextGap draw for draw.
  const double qps = constant_rate_ ? spec_.rate.base_qps
                                    : spec_.rate.QpsAt(TicksToSec(now_));
  now_ = AdvanceClock(now_, ExponentialGap(rng, qps, "scenario"), qps,
                      "scenario");
  const double t_sec = clock_sec_ ? TicksToSec(now_) : 0.0;

  // Burst state machine (only consulted when bursts can matter).
  bool in_burst = false;
  if (bursts_) {
    AdvanceBursts(rng);
    in_burst = now_ < burst_until_;
  }

  // Model pick: one uniform draw against the running weights, in the
  // canonical mixed order (gap, model, batch); single-component scenarios
  // skip the draw entirely.
  std::size_t k = 0;
  if (spec_.components.size() > 1) {
    if (!static_mix_) EffectiveWeights(t_sec, in_burst, burst_model_);
    k = PickModel(rng.NextDouble());
  }

  const std::vector<LogNormalBatchDist>& steps = dists_[k];
  const LogNormalBatchDist* dist = &steps.front();
  if (steps.size() > 1) {
    const double frac =
        std::min(1.0, std::max(0.0, t_sec / spec_.drift_window_sec));
    dist = &steps[static_cast<std::size_t>(SigmaStep(frac))];
  }

  Query q;
  q.id = id_++;
  q.arrival = now_;
  q.batch = dist->Sample(rng);
  q.model_id = spec_.components[k].model_id;
  return q;
}

QueryTrace GenerateScenarioTrace(const ScenarioSpec& spec,
                                 std::size_t num_queries,
                                 std::uint64_t seed) {
  Rng rng(seed);
  ScenarioTraceSource source(spec);
  std::vector<Query> queries;
  queries.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    queries.push_back(source.Pull(rng));
  }
  return QueryTrace(std::move(queries));
}

QueryTrace GeneratePhasedTrace(double rate_qps,
                               const std::vector<WorkloadPhase>& phases,
                               std::size_t num_queries, std::uint64_t seed) {
  PoissonArrivals arrivals(rate_qps);
  if (phases.empty()) {
    throw std::invalid_argument("GeneratePhasedTrace: no phases");
  }
  for (const auto& phase : phases) {
    if (phase.dist == nullptr) {
      throw std::invalid_argument(
          "GeneratePhasedTrace: null phase distribution");
    }
  }
  Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(num_queries);
  std::size_t phase = 0;
  std::size_t in_phase = 0;
  SimTime now = 0;
  for (std::size_t i = 0; i < num_queries; ++i) {
    while (phase + 1 < phases.size() &&
           in_phase >= phases[phase].num_queries) {
      ++phase;
      in_phase = 0;
    }
    ++in_phase;
    now = arrivals.Advance(now, rng);
    Query q;
    q.id = i;
    q.arrival = now;
    q.batch = phases[phase].dist->Sample(rng);
    queries.push_back(q);
  }
  return QueryTrace(std::move(queries));
}

// ---- Preset registry -----------------------------------------------------------

const std::vector<std::string>& ScenarioNames() {
  static const std::vector<std::string> names = {
      "steady", "diurnal", "flashcrowd", "mixdrift", "heavytail"};
  return names;
}

void ApplyScenario(ScenarioSpec& spec, const ScenarioOptions& opts) {
  spec.name = opts.name;
  if (opts.name == "steady") {
    spec.rate.shape = RateShape::kConstant;
  } else if (opts.name == "diurnal") {
    spec.rate.shape = RateShape::kDiurnal;
    spec.rate.amplitude = 0.6;
    spec.rate.period_sec = 60.0;
  } else if (opts.name == "flashcrowd") {
    spec.rate.shape = RateShape::kFlash;
    spec.rate.flash_at_sec = 10.0;
    spec.rate.flash_mult = 8.0;
    spec.rate.flash_decay_sec = 5.0;
  } else if (opts.name == "mixdrift") {
    // The mix inverts over the drift window: component j drifts to the
    // start weight of component K-1-j.  The adversarial shape the online
    // RepartitionController's share drift exists to chase; a no-op on one
    // model.
    spec.rate.shape = RateShape::kConstant;
    const std::size_t k = spec.components.size();
    for (std::size_t j = 0; j < k; ++j) {
      spec.components[j].end_weight = spec.components[k - 1 - j].weight;
    }
  } else if (opts.name == "heavytail") {
    spec.rate.shape = RateShape::kConstant;
    for (auto& c : spec.components) c.sigma = 1.8;
  } else {
    std::string known;
    for (const auto& n : ScenarioNames()) {
      if (!known.empty()) known += "|";
      known += n;
    }
    throw std::invalid_argument("scenario: unknown preset '" + opts.name +
                                "' (expected " + known + ")");
  }

  for (const auto& [key, value] : opts.overrides) {
    const double v = ParseValue(key, value);
    if (key == "rate") {
      spec.rate.base_qps = v;
    } else if (key == "amplitude") {
      spec.rate.amplitude = v;
    } else if (key == "period") {
      spec.rate.period_sec = v;
    } else if (key == "at") {
      spec.rate.flash_at_sec = v;
    } else if (key == "mult") {
      spec.rate.flash_mult = v;
    } else if (key == "decay") {
      spec.rate.flash_decay_sec = v;
    } else if (key == "window") {
      spec.drift_window_sec = v;
    } else if (key == "sigma") {
      for (auto& c : spec.components) c.sigma = v;
    } else if (key == "burst-rate") {
      spec.burst.rate_per_sec = v;
    } else if (key == "burst-dur") {
      spec.burst.duration_sec = v;
    } else if (key == "burst-share") {
      spec.burst.share = v;
    } else {
      throw std::invalid_argument(
          "scenario: unknown key '" + key +
          "' (expected rate|amplitude|period|at|mult|decay|window|sigma|"
          "burst-rate|burst-dur|burst-share)");
    }
  }
  spec.Validate();
}

}  // namespace pe::workload
