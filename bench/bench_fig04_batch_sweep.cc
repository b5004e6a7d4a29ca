// Figure 4: effect of batch size (1..64) on (a) GPU utilization and
// (b) average latency, per partition size, for MobileNet / ResNet / BERT.
// The MaxBatch_knee of GPU(1) (the paper's blue diamond) is marked with *.
#include "bench/bench_util.h"

#include "profile/profile_table.h"

int main() {
  using namespace pe;
  bench::PrintHeader("Figure 4: utilization (a) and latency (b) vs batch size",
                     "rows: batch; columns: partition size; knee of GPU(1) "
                     "marked with *");

  for (const std::string model : {"mobilenet", "resnet", "bert"}) {
    const core::MixTestbed tb(core::Table1Config(model));
    const auto& profile = tb.repertoire().profile(0);
    const int knee1 =
        profile.MaxBatchKnee(1, tb.config().paris.knee_threshold,
                             tb.config().paris.knee_mode);

    Table util({"batch", "GPU(1) %", "GPU(2) %", "GPU(3) %", "GPU(4) %",
                "GPU(7) %"});
    Table lat({"batch", "GPU(1) ms", "GPU(2) ms", "GPU(3) ms", "GPU(4) ms",
               "GPU(7) ms"});
    for (int b : {1, 2, 4, 8, 16, 32, 64}) {
      const std::string mark = (b == knee1) ? "*" : "";
      std::vector<std::string> urow = {Table::Int(b) + mark};
      std::vector<std::string> lrow = {Table::Int(b) + mark};
      for (int g : {1, 2, 3, 4, 7}) {
        urow.push_back(Table::Num(100.0 * profile.Utilization(g, b), 1));
        lrow.push_back(Table::Num(1e3 * profile.LatencySec(g, b), 2));
      }
      util.AddRow(urow);
      lat.AddRow(lrow);
    }
    std::cout << "--- " << model << " (a) GPU utilization ---\n";
    util.Print(std::cout);
    std::cout << "--- " << model << " (b) latency ---\n";
    lat.Print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
