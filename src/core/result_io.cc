#include "core/result_io.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "common/json_escape.h"

namespace pe::core {

Json Json::Object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::Array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json& Json::Set(const std::string& key, Json value) {
  assert(kind_ == Kind::kObject);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::Add(Json value) {
  assert(kind_ == Kind::kArray);
  array_.push_back(std::move(value));
  return *this;
}

namespace {

// Shortest round-trip decimal form; integral values get a ".0" suffix so
// the emitted token stays unambiguously a double.
void AppendDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  assert(ec == std::errc());
  out.append(buf, end);
  if (out.find_first_of(".eE", out.size() - (end - buf)) == std::string::npos) {
    out += ".0";
  }
}

void AppendIndent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::DumpTo(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: out += std::to_string(int_); break;
    case Kind::kDouble: AppendDouble(out, double_); break;
    case Kind::kString:
      out += '"';
      out += JsonEscape(string_);
      out += '"';
      break;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        if (indent > 0) AppendIndent(out, indent, depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      if (indent > 0) AppendIndent(out, indent, depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        if (indent > 0) AppendIndent(out, indent, depth + 1);
        out += '"';
        out += JsonEscape(object_[i].first);
        out += "\":";
        if (indent > 0) out += ' ';
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (indent > 0) AppendIndent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

Json ToJson(const ThroughputResult& r) {
  Json j = Json::Object();
  j.Set("qps", r.qps);
  j.Set("p95_at_qps_ms", r.p95_at_qps_ms);
  return j;
}

Json ToJson(const sim::ServerStats& s) {
  Json j = Json::Object();
  j.Set("completed", static_cast<std::uint64_t>(s.completed));
  j.Set("mean_ms", s.mean_latency_ms);
  j.Set("p50_ms", s.p50_latency_ms);
  j.Set("p95_ms", s.p95_latency_ms);
  j.Set("p99_ms", s.p99_latency_ms);
  j.Set("max_ms", s.max_latency_ms);
  j.Set("mean_queue_delay_ms", s.mean_queue_delay_ms);
  j.Set("sla_violation_rate", s.sla_violation_rate);
  j.Set("achieved_qps", s.achieved_qps);
  j.Set("utilization", s.mean_worker_utilization);
  j.Set("reconfig_stalled", static_cast<std::uint64_t>(s.reconfig_stalled));
  if (s.failed > 0 || s.shed > 0) {
    // Fault casualties (excluded from every latency figure above); only
    // fault-injected runs emit these, keeping the legacy document shape.
    j.Set("failed", static_cast<std::uint64_t>(s.failed));
    j.Set("shed", static_cast<std::uint64_t>(s.shed));
  }
  if (s.model_swaps > 0 || s.models.size() > 1) {
    // Mixed-traffic runs carry the per-model breakdown; single-model runs
    // keep the legacy document shape.
    j.Set("model_swaps", static_cast<std::uint64_t>(s.model_swaps));
    Json models = Json::Array();
    for (const auto& m : s.models) models.Add(ToJson(m));
    j.Set("models", std::move(models));
  }
  return j;
}

Json ToJson(const sim::ModelStats& m) {
  Json j = Json::Object();
  j.Set("model", m.model);
  j.Set("completed", static_cast<std::uint64_t>(m.completed));
  j.Set("mean_ms", m.mean_latency_ms);
  j.Set("p95_ms", m.p95_latency_ms);
  j.Set("p99_ms", m.p99_latency_ms);
  j.Set("sla_violation_rate", m.sla_violation_rate);
  j.Set("swaps", static_cast<std::uint64_t>(m.swaps));
  return j;
}

Json ToJson(const online::EpochStats& e) {
  Json j = Json::Object();
  j.Set("queries", static_cast<std::uint64_t>(e.queries));
  j.Set("p95_ms", e.p95_ms);
  j.Set("violation_rate", e.violation_rate);
  j.Set("stalled", static_cast<std::uint64_t>(e.stalled));
  j.Set("reconfigured", e.reconfigured);
  Json layout = Json::Array();
  for (const int gpcs : e.layout) layout.Add(gpcs);
  j.Set("layout", std::move(layout));
  return j;
}

Json ToJson(const online::ElasticResult& r) {
  Json j = Json::Object();
  j.Set("reconfigurations", r.reconfigurations);
  j.Set("total", ToJson(r.total));
  Json epochs = Json::Array();
  for (const auto& e : r.epochs) epochs.Add(ToJson(e));
  j.Set("epochs", std::move(epochs));
  return j;
}

Json ToJson(const fleet::FleetStats& f) {
  Json j = Json::Object();
  j.Set("num_servers", f.num_servers);
  j.Set("routed_queries", f.routed_queries);
  j.Set("aggregate", ToJson(f.aggregate));
  Json servers = Json::Array();
  for (std::size_t s = 0; s < f.per_server.size(); ++s) {
    Json entry = ToJson(f.per_server[s]);
    entry.Set("server", static_cast<std::uint64_t>(s));
    entry.Set("routed", f.routed_per_server[s]);
    servers.Add(std::move(entry));
  }
  j.Set("servers", std::move(servers));
  if (f.fault.faulted) {
    // Fault-tolerance block (docs/FAULTS.md documents the keys).  The
    // terminal counts satisfy completed + failed + shed == injected; the
    // CI chaos smoke gates on exactly that identity.
    const fleet::FaultSummary& ft = f.fault;
    Json fault = Json::Object();
    fault.Set("injected", ft.injected);
    fault.Set("completed", ft.completed);
    fault.Set("failed", ft.failed);
    fault.Set("shed", ft.shed);
    fault.Set("retried", ft.retried);
    fault.Set("rerouted", ft.rerouted);
    fault.Set("incidents", ft.incidents);
    fault.Set("repartitions", ft.repartitions);
    fault.Set("makespan_ms", TicksToMs(ft.makespan));
    double min_availability = 1.0;
    Json availability = Json::Array();
    for (const double a : ft.availability) {
      availability.Add(a);
      min_availability = std::min(min_availability, a);
    }
    fault.Set("availability", std::move(availability));
    fault.Set("min_availability", min_availability);
    fault.Set("p99_incident_ms", ft.p99_incident_ms);
    fault.Set("incident_completions", ft.incident_completions);
    j.Set("fault", std::move(fault));
  }
  return j;
}

Json MakeBenchReport(const std::string& bench_name, bool smoke, int jobs) {
  Json j = Json::Object();
  j.Set("schema", kResultSchema);
  j.Set("bench", bench_name);
  j.Set("smoke", smoke);
  j.Set("jobs", jobs);
  return j;
}

void WriteJsonFile(const std::string& path, const Json& doc) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("WriteJsonFile: cannot open " + path);
  }
  os << doc.Dump() << '\n';
  if (!os) {
    throw std::runtime_error("WriteJsonFile: write failed for " + path);
  }
}

}  // namespace pe::core
