// The scenario-first workload API: draw-for-draw parity with the
// reference order in trace_oracle.h, checked-in digests of generated
// traces, rate-curve shapes, mix drift, bursts, arrival clocks that refuse
// to overflow, the preset registry, and spec validation.
#include "workload/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden_digest.h"
#include "trace_oracle.h"
#include "workload/trace.h"

namespace pe::workload {
namespace {

void ExpectIdenticalTraces(const QueryTrace& a, const QueryTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Query& qa = a.queries()[i];
    const Query& qb = b.queries()[i];
    EXPECT_EQ(qa.id, qb.id) << "query " << i;
    EXPECT_EQ(qa.arrival, qb.arrival) << "query " << i;
    EXPECT_EQ(qa.batch, qb.batch) << "query " << i;
    EXPECT_EQ(qa.model_id, qb.model_id) << "query " << i;
  }
}

// ---- Scenario parity with the reference draw order -------------------------

// Every seeded trace (and every result derived from one) depends on the
// canonical draw order: one gap draw then one batch draw per query for a
// single model, arrivals cumulative from time zero, ids dense.
TEST(ScenarioTrace, SteadyOneModelMatchesOracleDrawForDraw) {
  ScenarioSpec spec;
  spec.rate.base_qps = 300.0;
  spec.max_batch = 32;
  ComponentSpec c;
  c.median = 6.0;
  c.sigma = 0.9;
  spec.components.push_back(c);
  const auto scenario = GenerateScenarioTrace(spec, 5000, 42);

  LogNormalBatchDist dist(6.0, 0.9, 32);
  const auto oracle = testing::OracleTrace(300.0, {{0, 1.0, &dist}}, 5000, 42);
  ExpectIdenticalTraces(oracle, scenario);
}

// The mixed order: gap, then the model pick, then the batch.
TEST(ScenarioTrace, SteadyStaticMixMatchesOracleDrawForDraw) {
  ScenarioSpec spec;
  spec.rate.base_qps = 500.0;
  spec.max_batch = 32;
  ComponentSpec c0;
  c0.model_id = 0;
  c0.weight = 0.7;
  c0.median = 4.0;
  c0.sigma = 0.8;
  ComponentSpec c1;
  c1.model_id = 1;
  c1.weight = 0.3;
  c1.median = 12.0;
  c1.sigma = 1.1;
  spec.components = {c0, c1};
  const auto scenario = GenerateScenarioTrace(spec, 5000, 77);

  LogNormalBatchDist d0(4.0, 0.8, 32);
  LogNormalBatchDist d1(12.0, 1.1, 32);
  const auto oracle = testing::OracleTrace(
      500.0, {{0, 0.7, &d0}, {1, 0.3, &d1}}, 5000, 77);
  ExpectIdenticalTraces(oracle, scenario);
}

// A one-phase day cycle is the one-model draw order too.
TEST(PhasedTrace, OnePhaseMatchesOracleDrawForDraw) {
  LogNormalBatchDist dist(5.0, 1.1, 64);
  ExpectIdenticalTraces(
      testing::OracleTrace(700.0, {{0, 1.0, &dist}}, 5000, 13),
      GeneratePhasedTrace(700.0, {{&dist, 5000}}, 5000, 13));
}

TEST(PhasedTrace, KeepsLastPhasePastBudget) {
  const EmpiricalBatchDist always1({1.0});
  const EmpiricalBatchDist always8({0, 0, 0, 0, 0, 0, 0, 1.0});
  const auto trace =
      GeneratePhasedTrace(100.0, {{&always1, 5}, {&always8, 5}}, 20, 3);
  ASSERT_EQ(trace.size(), 20u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(trace.queries()[i].batch, 1);
  }
  for (std::size_t i = 5; i < 20; ++i) {
    EXPECT_EQ(trace.queries()[i].batch, 8);
  }
}

// An unequal four-model mix: distinct weights, medians and sigmas, so a
// model pick or a batch draw off by one boundary moves the digest.
ScenarioSpec UnequalFourModelSpec() {
  ScenarioSpec spec;
  spec.rate.base_qps = 2000.0;
  spec.max_batch = 32;
  const double weights[] = {0.4, 0.3, 0.2, 0.1};
  const double medians[] = {4.0, 6.0, 9.0, 14.0};
  const double sigmas[] = {0.7, 0.9, 1.2, 1.5};
  for (int m = 0; m < 4; ++m) {
    ComponentSpec c;
    c.model_id = m;
    c.weight = weights[m];
    c.median = medians[m];
    c.sigma = sigmas[m];
    spec.components.push_back(c);
  }
  return spec;
}

TEST(ScenarioTrace, GeneratedTracesMatchCheckedInDigests) {
  // Every generator path -- constant and shaped rate curves, weight
  // drift, sigma drift, bursts, and the one-model draw order -- pinned by
  // a digest of 20,000 generated queries.
  struct Case {
    const char* label;
    const char* preset;
    std::uint64_t digest;
  };
  const Case kPresets[] = {
      {"steady", "steady", 0x8fddd0d77a478962},
      {"diurnal", "diurnal:period=4", 0x42a7d001abf13650},
      {"flashcrowd", "flashcrowd:at=3,decay=2", 0x86058094f227425d},
      {"mixdrift", "mixdrift:window=6", 0x9ce4093a317dfaa6},
      {"heavytail", "heavytail", 0x1e007126726dc9dc},
      {"bursts", "steady:burst-rate=1.5,burst-dur=0.8,burst-share=0.85",
       0x656fdc5e1af01a2a},
  };
  for (const Case& c : kPresets) {
    ScenarioSpec spec = UnequalFourModelSpec();
    ApplyScenario(spec, c.preset);
    testing::ExpectDigest(
        testing::DigestTrace(GenerateScenarioTrace(spec, 20'000, 19)),
        c.digest, c.label);
  }

  ScenarioSpec sigma_drift = UnequalFourModelSpec();
  sigma_drift.drift_window_sec = 6.0;
  sigma_drift.components[1].end_sigma = 1.7;
  sigma_drift.components[3].end_sigma = 0.4;
  testing::ExpectDigest(
      testing::DigestTrace(GenerateScenarioTrace(sigma_drift, 20'000, 19)),
      0xa08104eec837b0d7, "sigma drift");

  ScenarioSpec one_model;
  one_model.rate.base_qps = 700.0;
  one_model.max_batch = 64;
  ComponentSpec c;
  c.median = 5.0;
  c.sigma = 1.1;
  one_model.components.push_back(c);
  testing::ExpectDigest(
      testing::DigestTrace(GenerateScenarioTrace(one_model, 20'000, 19)),
      0xebf6b9e059067ba0, "one model");
}

TEST(ScenarioTrace, TinyRatesThrowNamingTheRateInsteadOfWrapping) {
  const auto one_model = [](double rate) {
    ScenarioSpec spec;
    spec.rate.base_qps = rate;
    spec.components.push_back(ComponentSpec{});
    return spec;
  };
  const auto message = [](const ScenarioSpec& spec, std::size_t n) {
    try {
      GenerateScenarioTrace(spec, n, 1);
    } catch (const std::overflow_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  // The gap conversion: 1e-12 q/s used to emit arrivals 1, 2, 3, ... ns.
  EXPECT_NE(message(one_model(1e-12), 5).find("gap overflows"),
            std::string::npos);
  EXPECT_NE(message(one_model(1e-12), 5).find("rate 1e-12"),
            std::string::npos);
  // The accumulation: 1e-6 q/s used to wrap 9,311 of 20,000 arrivals
  // negative.
  EXPECT_NE(message(one_model(1e-6), 20'000).find("arrival time overflows"),
            std::string::npos);
  // Short traces at the same rates that do fit are unaffected.
  const QueryTrace fits = GenerateScenarioTrace(one_model(1e-6), 100, 1);
  for (std::size_t i = 1; i < fits.size(); ++i) {
    EXPECT_GT(fits.queries()[i].arrival, fits.queries()[i - 1].arrival);
  }

  // The burst clock: a 1e-12/s burst rate cannot place its first burst.
  ScenarioSpec bursty = UnequalFourModelSpec();
  bursty.burst.rate_per_sec = 1e-12;
  EXPECT_NE(message(bursty, 10).find("burst clock: gap overflows"),
            std::string::npos);
  // A burst longer than the tick clock is rejected up front.
  bursty.burst.rate_per_sec = 1.0;
  bursty.burst.duration_sec = 1e12;
  EXPECT_THROW(bursty.Validate(), std::invalid_argument);

  // The phased generator checks its clock the same way.
  LogNormalBatchDist dist(6.0, 0.9, 32);
  EXPECT_THROW(GeneratePhasedTrace(1e-6, {{&dist, 10}}, 20'000, 1),
               std::overflow_error);
}

TEST(ScenarioTrace, DeterministicForSameSeed) {
  ScenarioSpec spec;
  spec.components.push_back(ComponentSpec{});
  ApplyScenario(spec, "flashcrowd:rate=400");
  const auto a = GenerateScenarioTrace(spec, 2000, 11);
  const auto b = GenerateScenarioTrace(spec, 2000, 11);
  ExpectIdenticalTraces(a, b);
}

// ---- Rate curves ------------------------------------------------------------

TEST(RateCurve, DiurnalOscillatesAroundBase) {
  RateCurve curve;
  curve.shape = RateShape::kDiurnal;
  curve.base_qps = 100.0;
  curve.amplitude = 0.6;
  curve.period_sec = 60.0;
  EXPECT_DOUBLE_EQ(curve.QpsAt(0.0), 100.0);
  EXPECT_NEAR(curve.QpsAt(15.0), 160.0, 1e-9);  // peak at quarter period
  EXPECT_NEAR(curve.QpsAt(45.0), 40.0, 1e-9);   // trough at three quarters
}

TEST(RateCurve, FlashJumpsThenDecays) {
  RateCurve curve;
  curve.shape = RateShape::kFlash;
  curve.base_qps = 100.0;
  curve.flash_at_sec = 10.0;
  curve.flash_mult = 8.0;
  curve.flash_decay_sec = 5.0;
  EXPECT_DOUBLE_EQ(curve.QpsAt(9.999), 100.0);
  EXPECT_NEAR(curve.QpsAt(10.0), 800.0, 1e-9);
  EXPECT_GT(curve.QpsAt(12.0), curve.QpsAt(20.0));
  EXPECT_NEAR(curve.QpsAt(200.0), 100.0, 1.0);  // decayed back to baseline
}

TEST(ScenarioTrace, FlashCrowdCompressesGapsAfterOnset) {
  ScenarioSpec spec;
  spec.components.push_back(ComponentSpec{});
  ApplyScenario(spec, "flashcrowd:rate=100,at=5,mult=10,decay=4");
  const auto trace = GenerateScenarioTrace(spec, 4000, 13);

  // Mean inter-arrival gap right after the flash must be far smaller than
  // the pre-flash gap.
  const SimTime onset = SecToTicks(5.0);
  const SimTime post_end = SecToTicks(7.0);
  double pre_gaps = 0.0, post_gaps = 0.0;
  int pre_n = 0, post_n = 0;
  SimTime prev = 0;
  for (const auto& q : trace.queries()) {
    const double gap = static_cast<double>(q.arrival - prev);
    if (q.arrival < onset) {
      pre_gaps += gap;
      ++pre_n;
    } else if (q.arrival < post_end) {
      post_gaps += gap;
      ++post_n;
    }
    prev = q.arrival;
  }
  ASSERT_GT(pre_n, 50);
  ASSERT_GT(post_n, 50);
  EXPECT_LT(post_gaps / post_n, 0.3 * (pre_gaps / pre_n));
}

// ---- Mix drift and bursts ----------------------------------------------------

TEST(ScenarioTrace, MixDriftShiftsModelSharesOverWindow) {
  ScenarioSpec spec;
  spec.rate.base_qps = 1000.0;
  spec.drift_window_sec = 10.0;
  ComponentSpec c0;
  c0.model_id = 0;
  c0.weight = 0.9;
  c0.end_weight = 0.1;
  ComponentSpec c1;
  c1.model_id = 1;
  c1.weight = 0.1;
  c1.end_weight = 0.9;
  spec.components = {c0, c1};
  const auto trace = GenerateScenarioTrace(spec, 20000, 21);

  const SimTime window = SecToTicks(10.0);
  int early0 = 0, early_n = 0, late0 = 0, late_n = 0;
  for (const auto& q : trace.queries()) {
    if (q.arrival < window / 5) {
      early0 += q.model_id == 0 ? 1 : 0;
      ++early_n;
    } else if (q.arrival > window) {
      late0 += q.model_id == 0 ? 1 : 0;
      ++late_n;
    }
  }
  ASSERT_GT(early_n, 200);
  ASSERT_GT(late_n, 200);
  EXPECT_GT(static_cast<double>(early0) / early_n, 0.75);
  EXPECT_LT(static_cast<double>(late0) / late_n, 0.25);
}

TEST(ScenarioTrace, SigmaDriftWidensBatchSpread) {
  ScenarioSpec spec;
  spec.rate.base_qps = 1000.0;
  spec.drift_window_sec = 10.0;
  spec.max_batch = 256;
  ComponentSpec c;
  c.median = 8.0;
  c.sigma = 0.1;
  c.end_sigma = 1.6;
  spec.components = {c};
  const auto trace = GenerateScenarioTrace(spec, 20000, 31);

  const SimTime window = SecToTicks(10.0);
  double early_var = 0.0, late_var = 0.0;
  int early_n = 0, late_n = 0;
  for (const auto& q : trace.queries()) {
    const double d = std::log(static_cast<double>(q.batch)) - std::log(8.0);
    if (q.arrival < window / 5) {
      early_var += d * d;
      ++early_n;
    } else if (q.arrival > window) {
      late_var += d * d;
      ++late_n;
    }
  }
  ASSERT_GT(early_n, 200);
  ASSERT_GT(late_n, 200);
  EXPECT_GT(late_var / late_n, 4.0 * (early_var / early_n));
}

TEST(ScenarioTrace, BurstsConcentrateTraffic) {
  ScenarioSpec spec;
  spec.rate.base_qps = 2000.0;
  ComponentSpec c0, c1, c2, c3;
  c0.model_id = 0;
  c1.model_id = 1;
  c2.model_id = 2;
  c3.model_id = 3;
  spec.components = {c0, c1, c2, c3};
  spec.burst.rate_per_sec = 0.5;
  spec.burst.duration_sec = 1.0;
  spec.burst.share = 0.95;
  const auto trace = GenerateScenarioTrace(spec, 20000, 17);

  // In 100ms slices, bursty slices should be dominated by one model far
  // beyond the uniform 25% baseline.
  std::map<SimTime, std::map<int, int>> slices;
  for (const auto& q : trace.queries()) {
    slices[q.arrival / SecToTicks(0.1)][q.model_id]++;
  }
  int dominated = 0;
  for (const auto& [slice, counts] : slices) {
    int total = 0, peak = 0;
    for (const auto& [model, n] : counts) {
      total += n;
      peak = std::max(peak, n);
    }
    if (total >= 50 && peak > 0.8 * total) ++dominated;
  }
  EXPECT_GT(dominated, 3);
}

TEST(ScenarioTrace, DisabledBurstsConsumeNoDraws) {
  ScenarioSpec with_burst_field;
  ComponentSpec c0, c1;
  c0.model_id = 0;
  c1.model_id = 1;
  with_burst_field.components = {c0, c1};
  with_burst_field.burst.rate_per_sec = 0.0;  // disabled

  ScenarioSpec plain = with_burst_field;
  plain.burst = BurstSpec{};
  ExpectIdenticalTraces(GenerateScenarioTrace(plain, 2000, 5),
                        GenerateScenarioTrace(with_burst_field, 2000, 5));
}

// ---- Preset registry and parsing ---------------------------------------------

TEST(ScenarioRegistry, ParseRefSplitsNameAndOverrides) {
  const auto opts = ParseScenarioRef("flashcrowd:rate=500,mult=10");
  EXPECT_EQ(opts.name, "flashcrowd");
  ASSERT_EQ(opts.overrides.size(), 2u);
  EXPECT_EQ(opts.overrides[0].first, "rate");
  EXPECT_EQ(opts.overrides[0].second, "500");
  EXPECT_EQ(opts.overrides[1].first, "mult");
  EXPECT_EQ(opts.overrides[1].second, "10");
}

TEST(ScenarioRegistry, ParseRefRejectsMalformedPairs) {
  EXPECT_THROW(ParseScenarioRef(""), std::invalid_argument);
  EXPECT_THROW(ParseScenarioRef("steady:rate"), std::invalid_argument);
  EXPECT_THROW(ParseScenarioRef("steady:rate="), std::invalid_argument);
  EXPECT_THROW(ParseScenarioRef("steady:=5"), std::invalid_argument);
}

TEST(ScenarioRegistry, EveryPresetProducesAValidSpec) {
  for (const auto& name : ScenarioNames()) {
    ScenarioSpec spec;
    ComponentSpec c0, c1;
    c0.model_id = 0;
    c0.weight = 0.8;
    c1.model_id = 1;
    c1.weight = 0.2;
    spec.components = {c0, c1};
    ApplyScenario(spec, name);
    EXPECT_EQ(spec.name, name);
    const auto trace = GenerateScenarioTrace(spec, 500, 3);
    EXPECT_EQ(trace.size(), 500u) << name;
  }
}

TEST(ScenarioRegistry, MixdriftReversesWeights) {
  ScenarioSpec spec;
  ComponentSpec c0, c1;
  c0.weight = 0.8;
  c1.weight = 0.2;
  spec.components = {c0, c1};
  ApplyScenario(spec, "mixdrift");
  EXPECT_DOUBLE_EQ(spec.components[0].end_weight, 0.2);
  EXPECT_DOUBLE_EQ(spec.components[1].end_weight, 0.8);
}

TEST(ScenarioRegistry, UnknownPresetAndKeyRejected) {
  ScenarioSpec spec;
  spec.components.push_back(ComponentSpec{});
  EXPECT_THROW(ApplyScenario(spec, "tsunami"), std::invalid_argument);
  EXPECT_THROW(ApplyScenario(spec, "steady:bogus=1"), std::invalid_argument);
  EXPECT_THROW(ApplyScenario(spec, "steady:rate=0.6x"),
               std::invalid_argument);
}

// ---- Validation ---------------------------------------------------------------

TEST(ScenarioSpec, ValidateRejectsBadFields) {
  ScenarioSpec ok;
  ok.components.push_back(ComponentSpec{});
  EXPECT_NO_THROW(ok.Validate());

  ScenarioSpec empty;
  EXPECT_THROW(empty.Validate(), std::invalid_argument);

  ScenarioSpec bad_rate = ok;
  bad_rate.rate.base_qps = 0.0;
  EXPECT_THROW(bad_rate.Validate(), std::invalid_argument);

  ScenarioSpec bad_amp = ok;
  bad_amp.rate.shape = RateShape::kDiurnal;
  bad_amp.rate.amplitude = 1.0;
  EXPECT_THROW(bad_amp.Validate(), std::invalid_argument);

  ScenarioSpec bad_sigma = ok;
  bad_sigma.components[0].sigma = 0.0;
  EXPECT_THROW(bad_sigma.Validate(), std::invalid_argument);

  ScenarioSpec bad_burst = ok;
  bad_burst.burst.rate_per_sec = 1.0;
  bad_burst.burst.share = 1.5;
  EXPECT_THROW(bad_burst.Validate(), std::invalid_argument);
}

// +inf passes every sign check, so each real field is checked for
// finiteness on its own -- whatever the rate shape, drift or bursts.
TEST(ScenarioSpec, ValidateRejectsNonFiniteFields) {
  ScenarioSpec ok;
  ok.components.push_back(ComponentSpec{});
  const std::vector<std::function<void(ScenarioSpec&, double)>> fields = {
      [](ScenarioSpec& s, double v) { s.rate.base_qps = v; },
      [](ScenarioSpec& s, double v) { s.rate.amplitude = v; },
      [](ScenarioSpec& s, double v) { s.rate.period_sec = v; },
      [](ScenarioSpec& s, double v) { s.rate.flash_at_sec = v; },
      [](ScenarioSpec& s, double v) { s.rate.flash_mult = v; },
      [](ScenarioSpec& s, double v) { s.rate.flash_decay_sec = v; },
      [](ScenarioSpec& s, double v) { s.drift_window_sec = v; },
      [](ScenarioSpec& s, double v) { s.components[0].weight = v; },
      [](ScenarioSpec& s, double v) { s.components[0].end_weight = v; },
      [](ScenarioSpec& s, double v) { s.components[0].median = v; },
      [](ScenarioSpec& s, double v) { s.components[0].sigma = v; },
      [](ScenarioSpec& s, double v) { s.components[0].end_sigma = v; },
      [](ScenarioSpec& s, double v) { s.burst.rate_per_sec = v; },
      [](ScenarioSpec& s, double v) { s.burst.duration_sec = v; },
      [](ScenarioSpec& s, double v) { s.burst.share = v; },
  };
  const double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    for (const double v : {kInf, -kInf, std::nan("")}) {
      ScenarioSpec bad = ok;
      fields[i](bad, v);
      EXPECT_THROW(bad.Validate(), std::invalid_argument) << i << ' ' << v;
    }
  }
  ScenarioSpec spec = ok;
  EXPECT_THROW(ApplyScenario(spec, "diurnal:rate=inf"), std::invalid_argument);
}

}  // namespace
}  // namespace pe::workload
