// Machine-readable experiment results.
//
// What the experiment layer measures serializes to a small dependency-free
// JSON document, so the CLI, the engine bench and CI exchange results
// without scraping tables.
//
// Schema (stable; bump kResultSchema on breaking changes):
//
//   {
//     "schema": "paris-elsa-bench-v1",
//     "bench": "<bench or subcommand name>",
//     "smoke": false,          // true for bench_engine_throughput's
//                              //   reduced-work smoke run
//     "jobs": 4,               // threads used by the experiment engine
//     "data": { ... }          // producer-specific payload built from the
//   }                          //   ToJson() helpers below
//
// The claims ledger (bench/claims.h) writes its own paris-elsa-claims-v1
// document with the same Json tree.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "fleet/cluster.h"
#include "online/elastic_server.h"
#include "sim/metrics.h"

namespace pe::core {

inline constexpr const char* kResultSchema = "paris-elsa-bench-v1";

// A minimal JSON document tree: objects keep insertion order so emitted
// documents are deterministic, doubles print with shortest round-trip
// formatting, and non-finite doubles serialize as null (JSON has no NaN).
class Json {
 public:
  Json() : kind_(Kind::kNull) {}
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}                // NOLINT
  Json(double v) : kind_(Kind::kDouble), double_(v) {}          // NOLINT
  Json(int v) : kind_(Kind::kInt), int_(v) {}                   // NOLINT
  Json(std::uint64_t v)                                         // NOLINT
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  Json(std::string v)                                           // NOLINT
      : kind_(Kind::kString), string_(std::move(v)) {}
  Json(const char* v) : kind_(Kind::kString), string_(v) {}     // NOLINT

  static Json Object();
  static Json Array();

  // Object member set (insertion-ordered; setting an existing key
  // overwrites in place).  Dies via assert if this is not an object.
  Json& Set(const std::string& key, Json value);

  // Array append.  Dies via assert if this is not an array.
  Json& Add(Json value);

  // Serializes the tree.  indent > 0 pretty-prints; indent == 0 emits the
  // compact single-line form.
  std::string Dump(int indent = 2) const;

 private:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  void DumpTo(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

// --- Experiment-type serializers --------------------------------------

Json ToJson(const ThroughputResult& r);

// Simulation / elastic-serving serializers.  ToJson(ServerStats) omits the
// per-worker breakdown (aggregate metrics only) and adds the per-model
// breakdown only for mixed-traffic runs (more than one model, or any
// model swap), keeping single-model documents in the legacy shape;
// ToJson(ElasticResult) nests the per-epoch stats and the whole-run
// totals, including the reconfiguration stall counts.
Json ToJson(const sim::ServerStats& s);
Json ToJson(const sim::ModelStats& m);
Json ToJson(const online::EpochStats& e);
Json ToJson(const online::ElasticResult& r);

// Fleet serializer: the aggregate ServerStats document plus a "servers"
// array of {server, routed, <per-server ServerStats>} entries, so fleet
// documents compose out of the established single-server shape.
Json ToJson(const fleet::FleetStats& f);

// Report skeleton: {"schema", "bench", "smoke", "jobs"}.  Producers build
// their payload separately and attach it with report.Set("data", ...).
Json MakeBenchReport(const std::string& bench_name, bool smoke, int jobs);

// Writes `doc.Dump()` (plus trailing newline) to `path`; throws
// std::runtime_error when the file cannot be opened or written.
void WriteJsonFile(const std::string& path, const Json& doc);

}  // namespace pe::core
