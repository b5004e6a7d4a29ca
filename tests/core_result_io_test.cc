#include "core/result_io.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json_escape.h"

namespace pe::core {
namespace {

TEST(Json, ScalarsDumpCompactly) {
  EXPECT_EQ(Json().Dump(0), "null");
  EXPECT_EQ(Json(true).Dump(0), "true");
  EXPECT_EQ(Json(false).Dump(0), "false");
  EXPECT_EQ(Json(42).Dump(0), "42");
  EXPECT_EQ(Json(-7).Dump(0), "-7");
  EXPECT_EQ(Json("hi").Dump(0), "\"hi\"");
}

TEST(Json, DoublesRoundTripAndKeepTheDecimalPoint) {
  EXPECT_EQ(Json(0.5).Dump(0), "0.5");
  // Integral doubles keep a ".0" so the token stays a double.
  EXPECT_EQ(Json(60.0).Dump(0), "60.0");
  // Shortest round-trip form, not fixed precision.
  EXPECT_EQ(Json(0.1).Dump(0), "0.1");
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).Dump(0), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(0), "null");
}

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape("\b\f"), "\\b\\f");
}

TEST(Json, ObjectsPreserveInsertionOrderAndOverwriteInPlace) {
  Json obj = Json::Object();
  obj.Set("b", 1);
  obj.Set("a", 2);
  obj.Set("b", 3);  // overwrite keeps position
  EXPECT_EQ(obj.Dump(0), "{\"b\":3,\"a\":2}");
}

TEST(Json, NestedPrettyPrintIsStable) {
  Json obj = Json::Object();
  Json arr = Json::Array();
  arr.Add(1);
  arr.Add("x");
  obj.Set("items", std::move(arr));
  EXPECT_EQ(obj.Dump(2),
            "{\n  \"items\": [\n    1,\n    \"x\"\n  ]\n}");
  EXPECT_EQ(Json::Array().Dump(2), "[]");
  EXPECT_EQ(Json::Object().Dump(2), "{}");
}

TEST(ResultIo, ThroughputResultFields) {
  ThroughputResult r;
  r.qps = 123.5;
  r.p95_at_qps_ms = 9.25;
  EXPECT_EQ(ToJson(r).Dump(0), "{\"qps\":123.5,\"p95_at_qps_ms\":9.25}");
}

TEST(ResultIo, BenchReportSkeletonCarriesTheSchemaTag) {
  auto report = MakeBenchReport("fig99_example", /*smoke=*/true, /*jobs=*/4);
  const std::string dumped = report.Dump(0);
  EXPECT_NE(dumped.find("\"schema\":\"paris-elsa-bench-v1\""),
            std::string::npos);
  EXPECT_NE(dumped.find("\"bench\":\"fig99_example\""), std::string::npos);
  EXPECT_NE(dumped.find("\"smoke\":true"), std::string::npos);
  EXPECT_NE(dumped.find("\"jobs\":4"), std::string::npos);
}

TEST(ResultIo, WriteJsonFileRoundTrips) {
  const std::string path =
      testing::TempDir() + "/result_io_roundtrip.json";
  Json doc = Json::Object();
  doc.Set("x", 1);
  WriteJsonFile(path, doc);
  std::ifstream is(path);
  std::stringstream buf;
  buf << is.rdbuf();
  EXPECT_EQ(buf.str(), "{\n  \"x\": 1\n}\n");
  std::remove(path.c_str());
}

TEST(ResultIo, WriteJsonFileThrowsOnUnopenablePath) {
  EXPECT_THROW(WriteJsonFile("/nonexistent-dir/x/y.json", Json::Object()),
               std::runtime_error);
}

}  // namespace
}  // namespace pe::core
