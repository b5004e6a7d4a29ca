// The claims ledger: every expectation the paper's evaluation states, as a
// predicate over one ratio per seed (say, PARIS+ELSA's latency-bounded
// throughput over the best other design).  The experiments are models x
// designs x one knob axis, run through core::LatencyBoundedThroughput,
// BestHomogeneous and TailLatencyCurve, plus the profile and planner reads
// behind Figures 3, 7 and 8.  A claim is reproduced when its predicate holds
// on at least 9 of 10 seeds, not reproduced on at most 1, and mixed in
// between; a failing claim is a result and stays in the ledger as failing.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "core/result_io.h"

namespace pe::bench {

inline constexpr int kSeeds = 10;              // R: seeds 1..R
inline constexpr double kTie = 0.01;           // within 1% is a tie
inline constexpr double kCiteTolerance = 0.1;  // a cited number, within 10%

enum class Predicate {
  kAtLeast,  // ratio >= 1 - kTie: best or tied-best
  kAbove,    // ratio > 1 + kTie: ahead by more than a tie
  kBelow,    // ratio < 1 - kTie: behind by more than a tie
  kMatches,  // |ratio / cited - 1| <= kCiteTolerance
};

enum class Verdict { kReproduced, kMixed, kNotReproduced };
const char* ToString(Verdict verdict);

struct Claim {
  std::string name;       // "fig12.paris_elsa_best.resnet"
  std::string statement;  // the expectation, as the paper states it
  Predicate predicate = Predicate::kAtLeast;
  double cited = 0.0;          // the paper's number, for kMatches
  std::vector<double> ratios;  // the judged ratio at each seed

  bool Holds(double ratio) const;
  int Wins() const;
  Verdict Judge() const;
  std::string Rule() const;  // ">= 0.99", "1.70 +/- 10%", ...
};

// Seeds, and queries per capacity probe (the fixed-rate ablations scale
// theirs from it).  The CTest ledger runs a smaller fixed size.
struct LedgerSize {
  int seeds = kSeeds;
  std::size_t queries = 4000;
};

struct Ledger {
  LedgerSize size;
  std::vector<Claim> claims;
};

// Runs every experiment on `jobs` threads, prints each figure's tables
// (medians over the seeds where a number varies with the seed) to `out`,
// and judges every claim.  Output and result are identical at any `jobs`.
Ledger RunLedger(const LedgerSize& size, int jobs, std::ostream& out);

// The verdict table: one row per claim, then the totals.
void PrintVerdicts(const Ledger& ledger, std::ostream& out);

// {"schema": "paris-elsa-claims-v1", "seeds", "queries", "tie",
//  "cite_tolerance", "claims": [{"name", "statement", "rule", "cited"?,
//  "wins", "seeds", "median", "q1", "q3", "verdict", "ratios"}]}.
core::Json ToJson(const Ledger& ledger);

// The q-quantile of `values`, interpolated between closest ranks; 0 if empty.
double Quantile(std::vector<double> values, double q);

}  // namespace pe::bench
