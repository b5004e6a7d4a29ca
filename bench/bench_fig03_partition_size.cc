// Figure 3: effect of GPU partition size (GPU(1)..GPU(7)) on compute
// utilization and latency at batch size 8, for MobileNet / ResNet / BERT.
//
// Paper expectation: utilization falls monotonically with partition size;
// latency rises as partitions shrink, mildly for MobileNet and most
// steeply for BERT (latency is reported normalized to GPU(7), as in the
// paper's right axis).
#include "bench/bench_util.h"

int main() {
  using namespace pe;
  bench::PrintHeader(
      "Figure 3: utilization & latency vs partition size (batch 8)",
      "latency normalized to GPU(7); utilization in percent");

  constexpr int kBatch = 8;
  core::Json models = core::Json::Array();
  for (const std::string model : {"mobilenet", "resnet", "bert"}) {
    const core::MixTestbed tb(core::Table1Config(model));
    const auto& profile = tb.repertoire().profile(0);

    Table t({"partition", "utilization %", "latency (norm)", "latency (ms)"});
    core::Json points = core::Json::Array();
    const double base = profile.LatencySec(7, kBatch);
    for (int gpcs : {1, 2, 3, 4, 7}) {
      const double util = profile.Utilization(gpcs, kBatch);
      const double latency_sec = profile.LatencySec(gpcs, kBatch);
      t.AddRow({"GPU(" + std::to_string(gpcs) + ")",
                Table::Num(100.0 * util, 1),
                Table::Num(latency_sec / base, 2),
                Table::Num(1e3 * latency_sec, 2)});
      core::Json p = core::Json::Object();
      p.Set("partition_gpcs", gpcs);
      p.Set("utilization", util);
      p.Set("latency_normalized", latency_sec / base);
      p.Set("latency_ms", 1e3 * latency_sec);
      points.Add(std::move(p));
    }
    std::cout << "--- " << model << " ---\n";
    t.Print(std::cout);
    std::cout << '\n';

    core::Json m = core::Json::Object();
    m.Set("model", model);
    m.Set("batch", kBatch);
    m.Set("points", std::move(points));
    models.Add(std::move(m));
  }

  core::Json data = core::Json::Object();
  data.Set("models", std::move(models));
  bench::WriteReport("fig03_partition_size", std::move(data));
  return 0;
}
