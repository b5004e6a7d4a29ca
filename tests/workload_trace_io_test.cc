// Versioned trace capture/replay: round-trip bit-fidelity, strict
// line-numbered diagnostics, forward-compatible unknown-key skipping.
#include "workload/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "workload/scenario.h"

namespace pe::workload {
namespace {

TraceDocument MakeDoc(std::size_t n = 200) {
  ScenarioSpec spec;
  spec.rate.base_qps = 500.0;
  ComponentSpec c0;
  c0.model_id = 0;
  c0.model_name = "resnet";
  c0.weight = 0.7;
  ComponentSpec c1;
  c1.model_id = 1;
  c1.model_name = "mobilenet";
  c1.weight = 0.3;
  spec.components = {c0, c1};

  TraceDocument doc;
  doc.scenario = "steady:rate=500";
  doc.models = {"resnet", "mobilenet"};
  doc.trace = GenerateScenarioTrace(spec, n, 42);
  return doc;
}

TraceDocument RoundTrip(const TraceDocument& doc) {
  std::stringstream ss;
  SaveTrace(ss, doc);
  return LoadTrace(ss);
}

TEST(TraceIo, RoundTripIsBitFaithful) {
  const auto doc = MakeDoc();
  const auto loaded = RoundTrip(doc);
  EXPECT_EQ(loaded.scenario, doc.scenario);
  EXPECT_EQ(loaded.models, doc.models);
  ASSERT_EQ(loaded.trace.size(), doc.trace.size());
  for (std::size_t i = 0; i < doc.trace.size(); ++i) {
    const Query& a = doc.trace.queries()[i];
    const Query& b = loaded.trace.queries()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.model_id, b.model_id);
  }
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  TraceDocument doc;
  doc.models = {"resnet"};
  const auto loaded = RoundTrip(doc);
  EXPECT_TRUE(loaded.trace.empty());
  EXPECT_EQ(loaded.models, doc.models);
  EXPECT_EQ(loaded.scenario, "");
}

TEST(TraceIo, ModelNamesWithSpecialCharactersSurvive) {
  TraceDocument doc;
  doc.scenario = "custom \"quoted\"\nnewline\tand\\slash";
  doc.models = {"model \"a\"", "b\\c"};
  std::vector<Query> qs = {{0, 10, 1, 0}, {1, 20, 2, 1}};
  doc.trace = QueryTrace(std::move(qs));
  const auto loaded = RoundTrip(doc);
  EXPECT_EQ(loaded.scenario, doc.scenario);
  EXPECT_EQ(loaded.models, doc.models);
}

// \b and \f are valid JSON escapes (Python's json.dumps writes them); the
// loader used to reject them while accepting \u0008 and \u000c.
TEST(TraceIo, BackspaceAndFormFeedRoundTrip) {
  TraceDocument doc;
  doc.scenario = "label\bwith\fcontrols";
  doc.models = {"m\b\f"};
  doc.trace = QueryTrace(std::vector<Query>{{0, 10, 1, 0}});
  const auto loaded = RoundTrip(doc);
  EXPECT_EQ(loaded.scenario, doc.scenario);
  EXPECT_EQ(loaded.models, doc.models);

  std::stringstream python_written(
      "{\"schema\": \"paris-elsa-trace-v1\", \"time_unit\": \"ns\", "
      "\"scenario\": \"a\\bb\\fc\", \"models\": [\"m\"], "
      "\"queries\": [[0, 10, 1, 0]]}");
  EXPECT_EQ(LoadTrace(python_written).scenario, "a\bb\fc");
}

TEST(TraceIo, SaveRejectsInvalidDocument) {
  TraceDocument no_models;
  std::vector<Query> qs = {{0, 10, 1, 0}};
  no_models.trace = QueryTrace(std::move(qs));
  std::stringstream ss;
  EXPECT_THROW(SaveTrace(ss, no_models), std::invalid_argument);

  TraceDocument uncovered;
  uncovered.models = {"resnet"};
  std::vector<Query> q2 = {{0, 10, 1, 1}};  // references model 1
  uncovered.trace = QueryTrace(std::move(q2));
  EXPECT_THROW(SaveTrace(ss, uncovered), std::invalid_argument);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = "trace_io_test_roundtrip.json";
  const auto doc = MakeDoc(50);
  SaveTraceFile(path, doc);
  const auto loaded = LoadTraceFile(path);
  EXPECT_EQ(loaded.models, doc.models);
  EXPECT_EQ(loaded.trace.size(), doc.trace.size());
  std::remove(path.c_str());
}

TEST(TraceIo, LoadMissingFileFailsWithPath) {
  try {
    LoadTraceFile("no/such/trace.json");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no/such/trace.json"),
              std::string::npos);
  }
}

// Malformed documents must name the offending line.
std::string LoadError(const std::string& text) {
  std::stringstream ss(text);
  try {
    LoadTrace(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::string ValidHeader() {
  return "{\n\"schema\": \"paris-elsa-trace-v1\",\n\"time_unit\": \"ns\",\n"
         "\"models\": [\"resnet\"],\n";
}

TEST(TraceIoErrors, WrongSchemaNamed) {
  const auto what = LoadError(
      "{\n\"schema\": \"paris-elsa-trace-v9\",\n\"models\": [\"m\"],\n"
      "\"queries\": []\n}\n");
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  EXPECT_NE(what.find("schema"), std::string::npos) << what;
}

TEST(TraceIoErrors, MissingRequiredKeys) {
  EXPECT_NE(LoadError("{\n\"queries\": []\n}\n").find("schema"),
            std::string::npos);
  EXPECT_NE(LoadError("{\n\"schema\": \"paris-elsa-trace-v1\",\n"
                      "\"queries\": []\n}\n")
                .find("models"),
            std::string::npos);
  EXPECT_NE(LoadError("{\n\"schema\": \"paris-elsa-trace-v1\",\n"
                      "\"models\": [\"m\"]\n}\n")
                .find("queries"),
            std::string::npos);
}

TEST(TraceIoErrors, EmptyModelsRejected) {
  const auto what =
      LoadError("{\n\"schema\": \"paris-elsa-trace-v1\",\n\"models\": [],\n"
                "\"queries\": []\n}\n");
  EXPECT_NE(what.find("models"), std::string::npos) << what;
}

TEST(TraceIoErrors, IdOutOfOrderNamedWithLine) {
  const auto what = LoadError(ValidHeader() +
                              "\"queries\": [\n[0, 10, 1, 0],\n"
                              "[7, 20, 1, 0]\n]\n}\n");
  EXPECT_NE(what.find("line 7"), std::string::npos) << what;
  EXPECT_NE(what.find("id"), std::string::npos) << what;
}

TEST(TraceIoErrors, DecreasingArrivalRejected) {
  const auto what = LoadError(ValidHeader() +
                              "\"queries\": [\n[0, 50, 1, 0],\n"
                              "[1, 20, 1, 0]\n]\n}\n");
  EXPECT_NE(what.find("line 7"), std::string::npos) << what;
  EXPECT_NE(what.find("arrival"), std::string::npos) << what;
}

TEST(TraceIoErrors, BadBatchRejected) {
  const auto what =
      LoadError(ValidHeader() + "\"queries\": [\n[0, 10, 0, 0]\n]\n}\n");
  EXPECT_NE(what.find("line 6"), std::string::npos) << what;
  EXPECT_NE(what.find("batch"), std::string::npos) << what;
}

TEST(TraceIoErrors, ModelOutOfRangeRejected) {
  const auto what =
      LoadError(ValidHeader() + "\"queries\": [\n[0, 10, 1, 3]\n]\n}\n");
  EXPECT_NE(what.find("model"), std::string::npos) << what;
}

TEST(TraceIoErrors, MalformedJsonNamedWithLine) {
  const auto what =
      LoadError(ValidHeader() + "\"queries\": [\n[0, 10, 1\n]\n}\n");
  EXPECT_NE(what.find("line"), std::string::npos) << what;
}

TEST(TraceIoErrors, UnterminatedStringRejected) {
  EXPECT_NE(LoadError("{\n\"schema\": \"paris-elsa").find("line 2"),
            std::string::npos);
}

TEST(TraceIoErrors, TrailingContentRejected) {
  const auto what =
      LoadError(ValidHeader() + "\"queries\": []\n}\nextra\n");
  EXPECT_NE(what.find("line 7"), std::string::npos) << what;
  EXPECT_NE(what.find("trailing"), std::string::npos) << what;
}

TEST(TraceIoErrors, FractionalNumberRejected) {
  const auto what =
      LoadError(ValidHeader() + "\"queries\": [\n[0, 10.5, 1, 0]\n]\n}\n");
  EXPECT_NE(what.find("line 6"), std::string::npos) << what;
}

TEST(TraceIo, UnknownTopLevelKeysSkippedForForwardCompat) {
  const auto text =
      "{\n\"schema\": \"paris-elsa-trace-v1\",\n"
      "\"generator\": {\"tool\": \"future\", \"nested\": [1, 2, {}]},\n"
      "\"time_unit\": \"ns\",\n"
      "\"models\": [\"resnet\"],\n"
      "\"queries\": [[0, 10, 2, 0]],\n"
      "\"checksum\": 12345\n}\n";
  std::stringstream ss(text);
  const auto doc = LoadTrace(ss);
  ASSERT_EQ(doc.trace.size(), 1u);
  EXPECT_EQ(doc.trace.queries()[0].batch, 2);
}

TEST(TraceIo, DuplicateKeysRejected) {
  const auto what = LoadError(
      "{\n\"schema\": \"paris-elsa-trace-v1\",\n"
      "\"models\": [\"a\"],\n\"models\": [\"b\"],\n\"queries\": []\n}\n");
  EXPECT_NE(what.find("models"), std::string::npos) << what;
}

}  // namespace
}  // namespace pe::workload
