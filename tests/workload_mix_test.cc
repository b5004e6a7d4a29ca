// Tests for mixed-model workload generation: a static scenario mix keeps
// its shares and dense ids, and the CSV export carries the model column
// only when the trace has more than one model.
#include <gtest/gtest.h>

#include <sstream>

#include "workload/scenario.h"
#include "workload/trace.h"

namespace pe::workload {
namespace {

TEST(ScenarioMix, SharesRespectedAndIdsDense) {
  ScenarioSpec spec;
  spec.rate.base_qps = 500.0;
  spec.max_batch = 16;
  spec.components.resize(2);
  spec.components[0].weight = 0.7;
  spec.components[0].median = 3.0;
  spec.components[1].model_id = 1;
  spec.components[1].weight = 0.3;
  spec.components[1].median = 12.0;
  for (auto& c : spec.components) c.sigma = 0.5;
  const auto trace = GenerateScenarioTrace(spec, 6000, 5);

  ASSERT_EQ(trace.size(), 6000u);
  std::size_t model1 = 0;
  SimTime prev = -1;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Query& q = trace.queries()[i];
    EXPECT_EQ(q.id, i);
    EXPECT_GT(q.arrival, prev);
    prev = q.arrival;
    ASSERT_GE(q.model_id, 0);
    ASSERT_LT(q.model_id, 2);
    if (q.model_id == 1) ++model1;
  }
  const double share1 = static_cast<double>(model1) / 6000.0;
  EXPECT_NEAR(share1, 0.3, 0.03);
}

TEST(QueryTrace, CsvWritesModelColumn) {
  std::vector<Query> queries;
  for (std::uint64_t i = 0; i < 6; ++i) {
    Query q;
    q.id = i;
    q.arrival = static_cast<SimTime>(10 * (i + 1));
    q.batch = 2;
    q.model_id = static_cast<int>(i % 3);
    queries.push_back(q);
  }
  const QueryTrace trace(std::move(queries));
  std::stringstream ss;
  trace.SaveCsv(ss);
  EXPECT_EQ(ss.str(),
            "id,arrival_ns,batch,model\n"
            "0,10,2,0\n1,20,2,1\n2,30,2,2\n3,40,2,0\n4,50,2,1\n5,60,2,2\n");
}

// Single-model traces keep the three-column format byte-for-byte.
TEST(QueryTrace, CsvStaysThreeColumnsForSingleModel) {
  std::vector<Query> queries;
  Query q;
  q.id = 0;
  q.arrival = 42;
  q.batch = 3;
  queries.push_back(q);
  const QueryTrace trace(std::move(queries));
  std::stringstream ss;
  trace.SaveCsv(ss);
  EXPECT_EQ(ss.str(), "id,arrival_ns,batch\n0,42,3\n");
}

}  // namespace
}  // namespace pe::workload
