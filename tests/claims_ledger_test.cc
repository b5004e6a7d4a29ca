// The claims ledger (bench/claims.h) at a small fixed size: 3 seeds x
// 1,000 queries per probe.  Like a digest, it pins the set of claim
// names, every claim's verdict, and every claim's median ratio within the
// interquartile range recorded when the pins were taken; and the ledger's
// tables and JSON document must be identical at 1 and 4 threads.  A change
// that flips a verdict or moves a median out of its interval fails here,
// printing the whole pin table to paste back -- and names the move in
// CHANGES.md.  A failing claim stays pinned as failing.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/claims.h"

namespace pe::bench {
namespace {

constexpr LedgerSize kSize{3, 1000};
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Pin {
  const char* name;
  Verdict verdict;
  double q1;  // the median's pinned interval
  double q3;
};

// Recorded at kSize; regenerate from a failing run's output.
// clang-format off
constexpr Pin kPins[] = {
    {"fig03.utilization_falls.mobilenet", Verdict::kNotReproduced, 0.963688, 0.963688},
    {"fig03.latency_rises.mobilenet", Verdict::kReproduced, 1.02405, 1.02405},
    {"fig03.utilization_falls.resnet", Verdict::kReproduced, 1.03985, 1.03985},
    {"fig03.latency_rises.resnet", Verdict::kReproduced, 1.04353, 1.04353},
    {"fig03.utilization_falls.bert", Verdict::kReproduced, 1.05848, 1.05848},
    {"fig03.latency_rises.bert", Verdict::kReproduced, 1.15944, 1.15944},
    {"fig03.slowdown_order", Verdict::kReproduced, 1.18338, 1.18338},
    {"fig07.segments_ascend.shufflenet", Verdict::kNotReproduced, 0.8, 0.8},
    {"fig07.segments_ascend.mobilenet", Verdict::kNotReproduced, 0.8, 0.8},
    {"fig07.segments_ascend.resnet", Verdict::kNotReproduced, 0.6, 0.6},
    {"fig07.segments_ascend.bert", Verdict::kNotReproduced, 0.8, 0.8},
    {"fig07.segments_ascend.conformer", Verdict::kNotReproduced, 0.8, 0.8},
    {"fig08.demand_small", Verdict::kReproduced, 1.5, 1.5},
    {"fig08.demand_large", Verdict::kReproduced, 2.33333, 2.33333},
    {"fig12.no_universal_gpu.shufflenet", Verdict::kReproduced, 0, 0},
    {"fig12.no_universal_gpu.mobilenet", Verdict::kReproduced, 0, 0},
    {"fig12.no_universal_gpu.resnet", Verdict::kReproduced, 0, 0},
    {"fig12.no_universal_gpu.bert", Verdict::kReproduced, 0.249961, 0.305442},
    {"fig12.no_universal_gpu.conformer", Verdict::kReproduced, 0.249961, 0.305442},
    {"fig12.paris_elsa_best.shufflenet", Verdict::kNotReproduced, 0.736723, 0.897716},
    {"fig12.paris_elsa_best.mobilenet", Verdict::kReproduced, 1.05473, 1.07608},
    {"fig12.paris_elsa_best.resnet", Verdict::kMixed, 0.917929, 0.955359},
    {"fig12.paris_elsa_best.bert", Verdict::kNotReproduced, 0.935207, 0.952916},
    {"fig12.paris_elsa_best.conformer", Verdict::kReproduced, 1.09036, 1.10737},
    {"fig12.elsa_lifts_random.shufflenet", Verdict::kNotReproduced, 0.86908, 0.911165},
    {"fig12.elsa_lifts_random.mobilenet", Verdict::kNotReproduced, 0.924955, 0.976878},
    {"fig12.elsa_lifts_random.resnet", Verdict::kReproduced, 1.02286, 1.03038},
    {"fig12.elsa_lifts_random.bert", Verdict::kReproduced, 1.5714, 1.64243},
    {"fig12.elsa_lifts_random.conformer", Verdict::kReproduced, 1.19749, 1.21948},
    {"fig12.elsa_lifts_paris.shufflenet", Verdict::kMixed, 1.00445, 1.03213},
    {"fig12.elsa_lifts_paris.mobilenet", Verdict::kReproduced, 2.21821, 2.46667},
    {"fig12.elsa_lifts_paris.resnet", Verdict::kReproduced, 3.31573, 3.38352},
    {"fig12.elsa_lifts_paris.bert", Verdict::kReproduced, 1.56311, 1.59934},
    {"fig12.elsa_lifts_paris.conformer", Verdict::kReproduced, 2.05792, 2.12779},
    {"fig12.favors_small.shufflenet", Verdict::kReproduced, 1, 1},
    {"fig12.favors_small.mobilenet", Verdict::kReproduced, 1, 1},
    {"fig12.favors_large.bert", Verdict::kReproduced, 1, 1},
    {"fig13a.homogeneous_closes_gap", Verdict::kReproduced, 1.12785, 1.13964},
    {"fig13a.lead_grows_with_sigma", Verdict::kReproduced, 1.0372, 1.08351},
    {"fig13b.paris_elsa_robust.shufflenet.max16", Verdict::kNotReproduced, 0.42485, 0.450362},
    {"fig13b.paris_elsa_robust.shufflenet.max32", Verdict::kNotReproduced, 0.736723, 0.897716},
    {"fig13b.paris_elsa_robust.shufflenet.max64", Verdict::kNotReproduced, 0.563133, 0.598321},
    {"fig13b.paris_elsa_robust.mobilenet.max16", Verdict::kNotReproduced, 0.664006, 0.712004},
    {"fig13b.paris_elsa_robust.mobilenet.max32", Verdict::kReproduced, 1.05473, 1.07608},
    {"fig13b.paris_elsa_robust.mobilenet.max64", Verdict::kNotReproduced, 0.63459, 0.670881},
    {"fig13b.paris_elsa_robust.resnet.max16", Verdict::kNotReproduced, 0.500275, 0.528874},
    {"fig13b.paris_elsa_robust.resnet.max32", Verdict::kMixed, 0.917929, 0.955359},
    {"fig13b.paris_elsa_robust.resnet.max64", Verdict::kReproduced, 1.05069, 1.07812},
    {"fig13b.paris_elsa_robust.bert.max16", Verdict::kMixed, 0.957025, 1.03091},
    {"fig13b.paris_elsa_robust.bert.max32", Verdict::kReproduced, 1.10545, 1.1237},
    {"fig13b.paris_elsa_robust.bert.max64", Verdict::kMixed, 0.979394, 1.0169},
    {"fig13b.paris_elsa_robust.conformer.max16", Verdict::kNotReproduced, 0.827008, 0.886316},
    {"fig13b.paris_elsa_robust.conformer.max32", Verdict::kReproduced, 1.17647, 1.18744},
    {"fig13b.paris_elsa_robust.conformer.max64", Verdict::kNotReproduced, 0.912906, 0.940599},
    {"sla.n2_vs_gpu7", Verdict::kReproduced, 1.66385, 1.68638},
    {"sla.n2_vs_gpumax", Verdict::kNotReproduced, 0.841306, 0.868592},
    {"frontend.scaling_unconstrained", Verdict::kNotReproduced, 2.22408, 2.22761},
    {"frontend.scaling_capped", Verdict::kReproduced, 1.02018, 1.03307},
    {"online.static_initial_degrades", Verdict::kReproduced, 2.40411, 2.47179},
    {"online.elastic_tracks_phases", Verdict::kNotReproduced, 0.00960093, 0.00971384},
    {"online.elastic_approaches_oracle", Verdict::kNotReproduced, 0.00756114, 0.00761574},
};
// clang-format on

struct LedgerRun {
  Ledger ledger;
  std::string tables;
  std::string json;
};

LedgerRun MakeRun(int jobs) {
  std::ostringstream tables;
  LedgerRun run{RunLedger(kSize, jobs, tables), "", ""};
  PrintVerdicts(run.ledger, tables);
  run.tables = tables.str();
  run.json = ToJson(run.ledger).Dump();
  return run;
}

// Each thread count runs once per test binary.
const LedgerRun& LedgerAt(int jobs) {
  if (jobs == 1) {
    static const LedgerRun serial = MakeRun(1);
    return serial;
  }
  static const LedgerRun parallel = MakeRun(4);
  return parallel;
}

std::string Literal(double v) {
  if (std::isinf(v)) return v > 0 ? "kInf" : "-kInf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// The pin table of `ledger`, ready to paste over kPins.
std::string PinTable(const Ledger& ledger) {
  std::string out = "constexpr Pin kPins[] = {\n";
  for (const Claim& c : ledger.claims) {
    const Verdict v = c.Judge();
    out += "    {\"" + c.name + "\", Verdict::" +
           (v == Verdict::kReproduced ? "kReproduced"
            : v == Verdict::kMixed    ? "kMixed"
                                      : "kNotReproduced") +
           ", " + Literal(Quantile(c.ratios, 0.25)) + ", " +
           Literal(Quantile(c.ratios, 0.75)) + "},\n";
  }
  return out + "};\n";
}

TEST(ClaimsLedger, IdenticalAtOneAndFourThreads) {
  const LedgerRun& serial = LedgerAt(1);
  const LedgerRun& parallel = LedgerAt(4);
  EXPECT_EQ(serial.json, parallel.json);
  EXPECT_EQ(serial.tables, parallel.tables);
}

TEST(ClaimsLedger, ClaimSetIsPinned) {
  const Ledger& ledger = LedgerAt(4).ledger;
  std::vector<std::string> names;
  for (const Claim& c : ledger.claims) names.push_back(c.name);
  std::vector<std::string> pinned;
  for (const Pin& p : kPins) pinned.push_back(p.name);
  EXPECT_EQ(names, pinned) << PinTable(ledger);
}

TEST(ClaimsLedger, VerdictsAndMediansArePinned) {
  const Ledger& ledger = LedgerAt(4).ledger;
  ASSERT_EQ(ledger.claims.size(), std::size(kPins)) << PinTable(ledger);
  bool moved = false;
  for (std::size_t i = 0; i < ledger.claims.size(); ++i) {
    const Claim& c = ledger.claims[i];
    const Pin& pin = kPins[i];
    ASSERT_EQ(c.name, pin.name);
    EXPECT_EQ(c.ratios.size(), static_cast<std::size_t>(kSize.seeds));
    EXPECT_EQ(c.Judge(), pin.verdict)
        << c.name << " is " << ToString(c.Judge()) << ", pinned "
        << ToString(pin.verdict);
    // The pins print six significant digits.
    const double median = Quantile(c.ratios, 0.5);
    const double slack = 1e-5 * std::max(1.0, std::abs(median));
    const bool inside = (std::isinf(median) && median == pin.q3) ||
                        (median >= pin.q1 - slack && median <= pin.q3 + slack);
    EXPECT_TRUE(inside) << c.name << ": median " << median
                        << " left its pinned interval [" << pin.q1 << ", "
                        << pin.q3 << "]";
    moved = moved || !inside || c.Judge() != pin.verdict;
  }
  if (moved) std::cout << PinTable(ledger);
}

TEST(ClaimsLedger, JsonCarriesEveryVerdict) {
  const Ledger& ledger = LedgerAt(4).ledger;
  const std::string& json = LedgerAt(4).json;
  EXPECT_NE(json.find("\"schema\": \"paris-elsa-claims-v1\""),
            std::string::npos);
  std::size_t verdicts = 0;
  for (std::size_t at = json.find("\"verdict\": "); at != std::string::npos;
       at = json.find("\"verdict\": ", at + 1)) {
    ++verdicts;
  }
  EXPECT_EQ(verdicts, ledger.claims.size());
}

// The judging rules themselves, on hand-made ratios.
TEST(ClaimJudging, VerdictThresholdsAndRules) {
  Claim c{"x", "", Predicate::kAtLeast, 0.0, {}};
  for (int wins : {0, 1, 2, 8, 9, 10}) {
    c.ratios.assign(10, 0.5);
    for (int i = 0; i < wins; ++i) c.ratios[static_cast<std::size_t>(i)] = 1.0;
    EXPECT_EQ(c.Wins(), wins);
    const Verdict expected = wins >= 9   ? Verdict::kReproduced
                             : wins <= 1 ? Verdict::kNotReproduced
                                         : Verdict::kMixed;
    EXPECT_EQ(c.Judge(), expected) << wins;
  }
  // Ties are within 1%, cited numbers within 10%.
  EXPECT_TRUE(c.Holds(0.991));
  EXPECT_FALSE(c.Holds(0.989));
  c.predicate = Predicate::kAbove;
  EXPECT_FALSE(c.Holds(1.009));
  EXPECT_TRUE(c.Holds(1.011));
  EXPECT_TRUE(c.Holds(kInf));
  c.predicate = Predicate::kBelow;
  EXPECT_TRUE(c.Holds(0.989));
  EXPECT_FALSE(c.Holds(0.991));
  c.predicate = Predicate::kMatches;
  c.cited = 1.7;
  EXPECT_TRUE(c.Holds(1.54));
  EXPECT_TRUE(c.Holds(1.86));
  EXPECT_FALSE(c.Holds(1.52));
  EXPECT_FALSE(c.Holds(1.88));
  EXPECT_EQ(c.Rule(), "1.70 +/- 10%");
  EXPECT_FALSE(c.Holds(std::nan("")));
}

TEST(ClaimJudging, QuantileInterpolatesBetweenClosestRanks) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_EQ(Quantile({3.0, 1.0, 2.0}, 0.25), 1.5);
  EXPECT_EQ(Quantile({4.0, 1.0, 2.0, 3.0}, 0.5), 2.5);
  EXPECT_EQ(Quantile({1.0, kInf, kInf}, 0.5), kInf);
}

}  // namespace
}  // namespace pe::bench
