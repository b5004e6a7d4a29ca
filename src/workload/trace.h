// Query traces: the concrete (arrival time, batch size, model) sequence
// the simulated inference server replays.  Generated by the scenario layer
// (workload/scenario.h), or read back from a captured paris-elsa-trace-v1
// document (workload/trace_io.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/sim_time.h"

namespace pe::workload {

struct Query {
  std::uint64_t id = 0;
  SimTime arrival = 0;
  int batch = 1;
  // Identity of the DNN model this query targets; an index into the
  // serving repertoire (profile::ModelRepertoire).  Single-model servers
  // leave it at 0, the degenerate one-model case.
  int model_id = 0;
};

class QueryTrace {
 public:
  QueryTrace() = default;
  explicit QueryTrace(std::vector<Query> queries);

  const std::vector<Query>& queries() const { return queries_; }
  std::size_t size() const { return queries_.size(); }
  bool empty() const { return queries_.empty(); }

  // Duration from time zero to the last arrival.
  SimTime Span() const;

  // Offered load over the trace span, queries/sec.
  double OfferedQps() const;

  // CSV export: columns id,arrival_ns,batch[,model].  The model column is
  // written only when some query has model_id != 0, so single-model
  // traces keep the three-column format.  Nothing reads it back; a trace
  // meant for replay is captured as JSON (workload/trace_io.h).
  void SaveCsv(std::ostream& os) const;

 private:
  std::vector<Query> queries_;  // sorted by arrival time
};

}  // namespace pe::workload
