// Scenario-first workload API.
//
// A declarative ScenarioSpec describes the traffic: a rate curve
// (constant / diurnal sinusoid / flash-crowd step+decay), per-model batch
// distributions (optionally drifting sigma), and a model-mix schedule
// (static weights, linear drift, correlated bursts).  ScenarioTraceSource
// is the one generator behind every spec: a pull-based, unbounded stream
// of (time, model, batch) events, cut to length by GenerateScenarioTrace.
// A named preset registry (`steady`, `diurnal`, `flashcrowd`, `mixdrift`,
// `heavytail`) applies adversarial shapes to any spec, so every CLI
// subcommand and bench exercises new policies against the same suite
// (`--scenario NAME[:key=val,...]`).  A captured trace needs no
// generator: callers replay the TraceDocument's QueryTrace directly.
// GeneratePhasedTrace covers the one shape a spec does not: the elastic
// day cycle, whose batch distribution switches after fixed query counts.
//
// Determinism contract: a generated trace is a pure function of its spec
// and the Rng stream it is pulled with.  Each query draws its gap, then
// its model (only when the scenario has several components), then its
// batch, so a single-component constant-rate scenario consumes draws in
// the canonical single-model order (gap, batch) and a static
// multi-component one in the mixed order (gap, model, batch).  That order
// is what every seeded result depends on; tests/trace_oracle.h keeps an
// independent loop in it, and the scenario tests compare against it draw
// for draw.
//
// Arrival clocks are checked: a gap or an instant past 2^63 - 1 ns (a
// rate so low that the trace outlives the tick clock) throws
// std::overflow_error naming the rate instead of wrapping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/args.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "workload/arrival.h"
#include "workload/batch_dist.h"
#include "workload/trace.h"

namespace pe::workload {

// ---- Declarative scenarios ------------------------------------------------

enum class RateShape { kConstant, kDiurnal, kFlash };

// Offered-load curve lambda(t).  The generator samples each inter-arrival
// gap at the rate in effect at the previous arrival (piecewise-constant
// approximation of the non-homogeneous Poisson process); a constant curve
// therefore consumes exactly one Exponential(base_qps) draw per arrival,
// matching PoissonArrivals bit for bit.
struct RateCurve {
  RateShape shape = RateShape::kConstant;
  double base_qps = 100.0;

  // Diurnal sinusoid: qps(t) = base * (1 + amplitude * sin(2*pi*t/period)).
  // amplitude must stay in [0, 1) so the rate never hits zero.
  double amplitude = 0.6;
  double period_sec = 60.0;

  // Flash crowd: baseline until `flash_at_sec`, then an instantaneous jump
  // to base * flash_mult decaying exponentially back to baseline with time
  // constant `flash_decay_sec`.
  double flash_at_sec = 10.0;
  double flash_mult = 8.0;
  double flash_decay_sec = 5.0;

  double QpsAt(double t_sec) const;
};

// One model's slice of a scenario: its mix weight and batch distribution
// parameters, each optionally drifting over the spec's drift window.
struct ComponentSpec {
  int model_id = 0;
  std::string model_name;  // symbolic; carried into trace capture

  double weight = 1.0;      // relative mix weight at t = 0
  double end_weight = -1.0; // weight at t >= drift_window_sec; < 0 = static

  double median = 6.0;   // log-normal batch median
  double sigma = 0.9;    // log-normal batch sigma at t = 0
  double end_sigma = -1.0;  // sigma at t >= drift_window_sec; < 0 = static
};

// Correlated model bursts: at exponentially distributed intervals one
// uniformly drawn model captures `share` of the traffic for
// `duration_sec`.  Disabled when rate_per_sec == 0 or the scenario has a
// single component (no draws are consumed either way).
struct BurstSpec {
  double rate_per_sec = 0.0;
  double duration_sec = 2.0;
  double share = 0.9;
};

struct ScenarioSpec {
  std::string name = "steady";
  RateCurve rate;
  std::vector<ComponentSpec> components;
  BurstSpec burst;
  // Window over which weight/sigma drift interpolates linearly from the
  // start to the end value (clamped afterwards).
  double drift_window_sec = 60.0;
  // Discretization of a drifting sigma: the window is cut into this many
  // equal steps, each with its own precomputed distribution.
  int sigma_steps = 8;
  int max_batch = 32;

  // Throws std::invalid_argument naming the offending field; every real
  // field must be finite.
  void Validate() const;
};

// The composable generator behind every scenario.  Owns its batch
// distributions (built from the spec), so it has no borrowed-lifetime
// hazards; copy the spec in and pull.
//
// The per-query path does only what the spec needs: a constant rate skips
// the rate curve and the clock's seconds conversion, a static mix picks
// its model by counting precomputed cumulative thresholds at or below the
// uniform draw (the first threshold above it, as a walk over the weights
// finds), and batches come from the concrete LogNormalBatchDist's guide
// table without a virtual call.
class ScenarioTraceSource {
 public:
  // Validates the spec (throws std::invalid_argument on a bad one).
  explicit ScenarioTraceSource(ScenarioSpec spec);

  // The next event; the stream never ends.  Throws std::overflow_error
  // when the arrival clock would pass 2^63 - 1 ns.
  Query Pull(Rng& rng);

 private:
  int SigmaStep(double frac) const;
  void EffectiveWeights(double t_sec, bool in_burst, int burst_model);
  std::size_t PickModel(double u) const;
  void AdvanceBursts(Rng& rng);

  ScenarioSpec spec_;
  // Per component: one distribution when sigma is static, `sigma_steps`
  // interpolated ones when it drifts.
  std::vector<std::vector<LogNormalBatchDist>> dists_;
  bool constant_rate_ = true;  // the rate curve is flat
  bool static_mix_ = true;     // no weight drift and no bursts
  bool bursts_ = false;        // bursts enabled over several components
  bool clock_sec_ = false;     // a weight or sigma reads the clock
  // Normalized weights and their running sums; fixed for a static mix,
  // rebuilt per pull otherwise.
  std::vector<double> weights_;
  std::vector<double> thresholds_;
  // Burst state machine (lazily seeded on the first pull).
  bool burst_clock_started_ = false;
  SimTime next_burst_at_ = 0;
  SimTime burst_until_ = 0;
  int burst_model_ = 0;
  SimTime now_ = 0;
  std::uint64_t id_ = 0;
};

// Convenience: seed an Rng, build the source, and drain `num_queries`
// through Pull.
QueryTrace GenerateScenarioTrace(const ScenarioSpec& spec,
                                 std::size_t num_queries, std::uint64_t seed);

// One phase of a drifting workload: `num_queries` drawn from `dist`
// (borrowed for the GeneratePhasedTrace call).
struct WorkloadPhase {
  const BatchDistribution* dist = nullptr;
  std::size_t num_queries = 0;
};

// The drifting single-model shape: Poisson arrivals at `rate_qps` on a
// fresh Rng(seed), each query drawing its gap and then its batch from the
// current phase's distribution.  A phase ends once it has served its
// `num_queries`; queries past the last phase's budget keep its
// distribution.  Throws std::invalid_argument on a rate PoissonArrivals
// rejects, an empty phase list or a null phase distribution, and
// std::overflow_error when the arrival clock would pass 2^63 - 1 ns.
QueryTrace GeneratePhasedTrace(double rate_qps,
                               const std::vector<WorkloadPhase>& phases,
                               std::size_t num_queries, std::uint64_t seed);

// ---- Named preset registry ------------------------------------------------

// A parsed `--scenario NAME[:key=val,...]` reference.
using ScenarioOptions = NamedRef;

// Splits "flashcrowd:rate=500,mult=10" into name + key/value overrides.
// Throws std::invalid_argument on an empty name or a malformed pair.
inline ScenarioOptions ParseScenarioRef(const std::string& ref) {
  return ParseNamedRef(ref, "scenario");
}

// The registered preset names: steady, diurnal, flashcrowd, mixdrift,
// heavytail.
const std::vector<std::string>& ScenarioNames();

// Applies the named preset, then the key=val overrides, onto `spec` (whose
// components -- model names, weights, medians -- the caller has already
// filled in from its serving config).  Presets reshape the load:
//   steady      constant rate (the legacy Poisson baseline)
//   diurnal     sinusoidal day curve        [rate, amplitude, period]
//   flashcrowd  step + exponential decay    [rate, at, mult, decay]
//   mixdrift    mix weights drift to the reversed vector over the window
//               (the online RepartitionController's chase target)
//               [rate, window]
//   heavytail   batch sigma forced to 1.8 on every component     [rate,
//               sigma]
// Shared override keys valid for every preset: rate, window, sigma,
// burst-rate, burst-dur, burst-share.  Throws std::invalid_argument on an
// unknown preset or key, or a bad value; the final spec is Validate()d.
void ApplyScenario(ScenarioSpec& spec, const ScenarioOptions& opts);

inline void ApplyScenario(ScenarioSpec& spec, const std::string& ref) {
  ApplyScenario(spec, ParseScenarioRef(ref));
}

}  // namespace pe::workload
