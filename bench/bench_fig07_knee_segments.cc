// Figure 7: how PARIS splits the batch-size distribution into contiguous
// segments at the MaxBatch_knee boundaries, assigning the n-th smallest
// segment to the n-th smallest partition size.
#include "bench/bench_util.h"

#include "partition/paris.h"

int main() {
  using namespace pe;
  bench::PrintHeader(
      "Figure 7: knee-derived batch segments over the batch-size PDF",
      "default workload: log-normal(median 6, sigma 0.9), max batch 32");

  for (const std::string& model : bench::PaperModels()) {
    const core::MixTestbed tb(core::Table1Config(model));
    const auto& profile = tb.repertoire().profile(0);
    const auto& dist = tb.batch_dist(0);
    partition::ParisPartitioner paris(profile, dist, tb.config().paris);
    const auto d = paris.Derive(tb.config().gpc_budget);

    Table t({"partition", "MaxBatch_knee", "segment", "PDF mass %",
             "demand R_k"});
    int prev = 0;
    const int dist_max = dist.max_batch();
    for (std::size_t k = 0; k < d.partition_sizes.size(); ++k) {
      int hi = std::min(d.knees[k], dist_max);
      if (k + 1 == d.partition_sizes.size()) hi = dist_max;
      double mass = 0.0;
      for (int b = prev + 1; b <= hi; ++b) mass += dist.Pdf(b);
      // Built with append rather than chained operator+ to dodge the GCC 12
      // -Wrestrict false positive on temporary-string concatenation (PR105329).
      std::string segment = "(empty)";
      if (prev + 1 <= hi) {
        segment = "[";
        segment += std::to_string(prev + 1);
        segment += "..";
        segment += std::to_string(hi);
        segment += "]";
      }
      t.AddRow({"GPU(" + std::to_string(d.partition_sizes[k]) + ")",
                Table::Int(d.knees[k]), segment, Table::Num(100 * mass, 1),
                Table::Num(d.ratios[k] * 1e3, 3) + "e-3"});
      prev = std::max(prev, hi);
    }
    std::cout << "--- " << model << " ---\n";
    t.Print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
