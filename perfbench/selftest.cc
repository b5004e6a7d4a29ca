// Self-tests of the benchmark harness: the quantile helpers, the result
// line, the span arithmetic, and the record checks -- including a
// tampered record on a real simulation making the checks fail.  Exits 0
// when every check holds; perfbench/run.py runs it before each benchmark.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/mix_runner.h"
#include "harness.h"

namespace {

using namespace perfbench;  // NOLINT: test-local convenience

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
}

bool Near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

// Sort-based reference for Quantile.
double SortedQuantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void TestQuantile() {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  std::mt19937_64 rng(7);
  std::shuffle(v.begin(), v.end(), rng);
  Expect(Near(Quantile(v, 0.5), 50.5), "median of 1..100 is 50.5");
  Expect(Near(Quantile(v, 0.99), 99.01), "p99 of 1..100 is 99.01");
  Expect(Near(Quantile(v, 0.0), 1.0), "q=0 is the minimum");
  Expect(Near(Quantile(v, 1.0), 100.0), "q=1 is the maximum");
  Expect(Quantile({}, 0.5) == 0.0, "empty sample gives 0");
  Expect(Near(Median({3.0}), 3.0), "single sample is its own median");
  std::uniform_real_distribution<double> u(0.0, 1000.0);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> w(1 + static_cast<std::size_t>(trial) * 37);
    for (double& x : w) x = u(rng);
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      Expect(Near(Quantile(w, q), SortedQuantile(w, q)),
             "selection matches sorting at q=" + std::to_string(q));
    }
  }
}

void TestHistogram() {
  NsHistogram h;
  for (std::uint64_t v = 0; v < 64; ++v) h.Add(v);
  Expect(h.Quantile(0.5) == 31.0, "small values are exact");
  NsHistogram big;
  for (std::uint64_t v = 1; v <= 100000; ++v) big.Add(v);
  const double p99 = big.Quantile(0.99);
  Expect(p99 >= 99000.0 && p99 <= 99000.0 * 1.032,
         "p99 within one bucket: " + std::to_string(p99));
  NsHistogram merged;
  merged.Merge(h);
  merged.Merge(big);
  Expect(merged.count() == 64 + 100000, "merge adds counts");
}

void TestResultLine() {
  const std::string line = ResultLine(
      true, 12, 0,
      {{"latency_ms", 1.2034, "ms"}, {"setup_s", 0.1, "s"}});
  Expect(line ==
             "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
             "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
             "\"ms\"}, \"setup_s\": {\"value\": 0.10000000000000001, "
             "\"unit\": \"s\"}}}",
         "result line shape and digits: " + line);
  const std::string bad = ResultLine(false, 1, 1, {{"x", NAN, "s"}});
  Expect(bad.find("\"value\": null") != std::string::npos,
         "non-finite values print as null");
  Expect(bad.rfind("{\"correct\": false, \"attempted\": 1, \"failed\": 1", 0) ==
             0,
         "failed runs are reported");
}

void TestSelfTime() {
  Tracer t;
  const int root = t.Record("root", 0.0, 10.0, -1);
  t.Record("a", 1.0, 3.0, root);
  t.Record("b", 2.0, 5.0, root);
  t.Record("c", 8.0, 12.0, root);  // clipped to the parent
  t.Record("grandchild", 0.0, 10.0, root + 1);
  Expect(Near(t.SelfTime(root), 4.0), "self time subtracts the child union");
  Expect(t.ChromeJson().find("\"ph\": \"X\"") != std::string::npos,
         "chrome trace has complete events");
}

pe::sim::QueryRecord Rec(std::uint64_t id, pe::SimTime arrival,
                         pe::SimTime started, pe::SimTime finished) {
  pe::sim::QueryRecord r;
  r.id = id;
  r.arrival = arrival;
  r.dispatched = arrival;
  r.started = started;
  r.finished = finished;
  return r;
}

// A synthetic three-query stream with one retry on a second server.
void TestEvaluateSynthetic() {
  std::vector<pe::workload::Query> qs(3);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    qs[i].id = i;
    qs[i].arrival = static_cast<pe::SimTime>(i) * 100;
  }
  const pe::workload::QueryTrace trace(qs);
  std::vector<pe::sim::QueryRecord> a(2), b(1);
  a[0] = Rec(0, 0, 10, 50);
  a[1] = Rec(1, 100, 100, 130);
  a[1].failed = true;
  b[0] = Rec(0, 200, 210, 260);  // retry of query 1
  const std::vector<std::uint64_t> gids_a = {0, 1}, gids_b = {1};
  std::vector<RecordView> views = {{&a, gids_a}, {&b, gids_b}};
  const ReportedCounts reported{2, 0, 1};  // query 2 shed before routing
  Outcome o = Evaluate(trace, views, /*sla=*/100, 0.0, &reported);
  Expect(o.ok(), "valid stream passes");
  Expect(o.completed == 2 && o.shed == 1, "terminal counts");
  Expect(o.latency_ms.size() == 2 &&
             Near(o.latency_ms[1], pe::TicksToMs(260 - 100)),
         "latency counts from the scheduled arrival");
  Expect(o.within_sla == 1 && o.post_warmup == 3,
         "shed queries miss the SLA");

  auto bad = a;
  bad[0].started = 60;  // start after finish
  views[0].records = &bad;
  Expect(!Evaluate(trace, views, 100, 0.0, &reported).ok(),
         "non-causal record fails");
  views[0].records = &a;

  const ReportedCounts wrong{3, 0, 0};
  Expect(!Evaluate(trace, views, 100, 0.0, &wrong).ok(),
         "reported completions must match the records");
  Expect(!Evaluate(trace, views, 100, 0.0, nullptr).ok(),
         "a query without a record fails conservation");

  auto twice = b;
  twice.push_back(b[0]);
  const std::vector<std::uint64_t> gids_twice = {1, 1};
  views[1] = {&twice, gids_twice};
  Expect(!Evaluate(trace, views, 100, 0.0, &reported).ok(),
         "a query completed twice fails");

  Outcome growing;
  growing.queue_mid_ms = 1.0;
  growing.queue_last_ms = 3.0;
  CheckStationary(growing, 0.25, 0.5);
  Expect(!growing.ok(), "a growing backlog fails");
}

// A real simulation: untampered records pass; one tampered record fails;
// the timing decorator leaves the records bit-identical.
void TestEvaluateSimulated() {
  pe::core::MixConfig config;
  config.models.resize(2);
  config.models[0].model = "resnet";
  config.models[1].model = "mobilenet";
  config.num_gpus = 2;
  config.gpc_budget = 14;
  const pe::core::MixTestbed tb(config);
  const std::vector<int> layout = tb.PlanMixed().plan.instance_gpcs;
  const auto trace = tb.GenerateMix(400.0, 5000, 3);

  auto plain = tb.MakeScheduler(pe::core::SchedulerKind::kElsa);
  auto result = tb.Run(layout, *plain, trace, 3);

  Tracer tracer;
  pe::sim::SimResult timed_result;
  {
    SchedProbe probe(&tracer, -1, true);
    TimedScheduler timed(tb.MakeScheduler(pe::core::SchedulerKind::kElsa),
                         probe, 0);
    Expect(timed.name() == plain->name(), "decorator forwards name()");
    timed_result = tb.Run(layout, timed, trace, 3);
  }
  Expect(HashRecords(result.records) == HashRecords(timed_result.records),
         "decorated scheduler gives identical records");

  const RecordView view{&result.records, {}};
  const Outcome ok = Evaluate(trace, {&view, 1}, tb.sla_target(), 0.1, nullptr);
  Expect(ok.ok(), "simulated records pass the checks");
  Expect(ok.completed == trace.size(), "every query completes");

  result.records[42].started = result.records[42].finished + 1;
  const Outcome tampered =
      Evaluate(trace, {&view, 1}, tb.sla_target(), 0.1, nullptr);
  Expect(!tampered.ok(), "a tampered record fails the checks");
}

}  // namespace

int main() {
  try {
    TestQuantile();
    TestHistogram();
    TestResultLine();
    TestSelfTime();
    TestEvaluateSynthetic();
    TestEvaluateSimulated();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selftest FAILED: exception %s\n", e.what());
    return 1;
  }
  if (g_failures > 0) return 1;
  std::fprintf(stderr, "perfbench selftest: all checks passed\n");
  return 0;
}
