// FNV-1a digests for golden tests: a record stream, a generated trace, a
// routing assignment, or a trace split folds into one 64-bit value that a
// test compares to a checked-in constant.  Every field that defines the
// stream takes part, so any behaviour change -- a different worker, a tick
// later, one more retry -- moves the digest.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/router.h"
#include "sim/metrics.h"
#include "workload/trace.h"

namespace pe::testing {

class Fnv1a {
 public:
  void Add(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  void AddSigned(std::int64_t v) { Add(static_cast<std::uint64_t>(v)); }
  void AddDouble(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

inline void AddRecord(Fnv1a& h, const sim::QueryRecord& r) {
  h.Add(r.id);
  h.AddSigned(r.batch);
  h.AddSigned(r.model);
  h.AddSigned(r.arrival);
  h.AddSigned(r.dispatched);
  h.AddSigned(r.started);
  h.AddSigned(r.finished);
  h.AddSigned(r.worker);
  h.AddSigned(r.worker_gpcs);
  h.Add(r.model_swap ? 1 : 0);
  h.AddSigned(r.reconfig_stalls);
  h.Add(r.failed ? 1 : 0);
  h.Add(r.shed ? 1 : 0);
  h.AddSigned(r.retries);
}

inline std::uint64_t DigestRecords(std::span<const sim::QueryRecord> records) {
  Fnv1a h;
  for (const sim::QueryRecord& r : records) AddRecord(h, r);
  return h.value();
}

inline std::uint64_t DigestTrace(const workload::QueryTrace& trace) {
  Fnv1a h;
  for (const workload::Query& q : trace.queries()) {
    h.Add(q.id);
    h.AddSigned(q.arrival);
    h.AddSigned(q.batch);
    h.AddSigned(q.model_id);
  }
  return h.value();
}

inline std::uint64_t DigestAssignment(const std::vector<int>& assignment) {
  Fnv1a h;
  for (const int s : assignment) h.AddSigned(s);
  return h.value();
}

// The offsets, the global ids, then every server's rows as its engine
// sees them (fleet::LocalQueries), server by server.
inline std::uint64_t DigestSplit(const fleet::TraceSplit& split,
                                 const fleet::PlacementMap& placement) {
  Fnv1a h;
  for (const std::size_t o : split.offsets) h.Add(o);
  for (const std::uint64_t g : split.global_ids) h.Add(g);
  for (int s = 0; s < split.num_servers(); ++s) {
    for (const workload::Query& q : fleet::LocalQueries(split, placement, s)) {
      h.Add(q.id);
      h.AddSigned(q.arrival);
      h.AddSigned(q.batch);
      h.AddSigned(q.model_id);
    }
  }
  return h.value();
}

inline std::string Hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

// Compares a digest with its checked-in value; a mismatch prints the
// actual digest so an intended behaviour change can be re-recorded.
inline void ExpectDigest(std::uint64_t actual, std::uint64_t expected,
                         const std::string& label) {
  EXPECT_EQ(Hex(actual), Hex(expected)) << label;
}

}  // namespace pe::testing
