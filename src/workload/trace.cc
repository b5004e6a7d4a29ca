#include "workload/trace.h"

#include <algorithm>
#include <ostream>
#include <utility>

namespace pe::workload {

QueryTrace::QueryTrace(std::vector<Query> queries)
    : queries_(std::move(queries)) {
  if (!std::is_sorted(queries_.begin(), queries_.end(),
                      [](const Query& a, const Query& b) {
                        return a.arrival < b.arrival;
                      })) {
    std::sort(queries_.begin(), queries_.end(),
              [](const Query& a, const Query& b) {
                return a.arrival < b.arrival;
              });
  }
}

SimTime QueryTrace::Span() const {
  return queries_.empty() ? 0 : queries_.back().arrival;
}

double QueryTrace::OfferedQps() const {
  const SimTime span = Span();
  if (span <= 0 || queries_.size() < 2) return 0.0;
  return static_cast<double>(queries_.size() - 1) / TicksToSec(span);
}

void QueryTrace::SaveCsv(std::ostream& os) const {
  const bool multi =
      std::any_of(queries_.begin(), queries_.end(),
                  [](const Query& q) { return q.model_id != 0; });
  os << (multi ? "id,arrival_ns,batch,model\n" : "id,arrival_ns,batch\n");
  for (const auto& q : queries_) {
    os << q.id << ',' << q.arrival << ',' << q.batch;
    if (multi) os << ',' << q.model_id;
    os << '\n';
  }
}

}  // namespace pe::workload
