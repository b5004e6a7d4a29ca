// A two-level bucketed event calendar: the fast engine's pending-event
// queue, replacing the binary heap over every worker/frontend/reconfig
// event.
//
// Level 1 is a near-future bucket wheel: `num_buckets` contiguous windows
// of `width` ticks each starting at `base`, one unsorted vector of events
// per window.  Pushing an event whose time falls inside the wheel horizon
// is an O(1) append; popping scans the cursor bucket (the first that can
// still hold the minimum) for the smallest `(time, seq)` key.  With the
// width adapted so buckets hold O(1) events, the dominant completion ->
// dispatch -> completion cycle costs O(1) amortized per event instead of
// the heap's O(log E).
//
// Level 2 is the overflow spill: events beyond the wheel horizon -- far
// future completions, reconfiguration deadlines, and out-of-order arrival
// injections that fell off the server's sorted cursor -- append to a spill
// vector that is sorted (descending, so promotion pops from the back) only
// when the wheel next exhausts.  Re-anchoring then moves the wheel to the
// earliest spilled event, re-derives the bucket width from the spill's
// span, and promotes every event inside the new horizon.
//
// Determinism: Pop() always removes the exact `(time, seq)` minimum of the
// whole structure -- the bucket geometry (width, count, anchor) only
// affects *where* events wait, never the order they leave in.  The pop
// sequence is therefore the same total order a single binary heap
// produces, which is what lets the engine swap the heap for the calendar
// without perturbing a single simulation result (engine_golden_test and
// event_calendar_test pin this).
//
// Geometry adapts in two deterministic ways, both pure functions of the
// queue's content history:
//  * re-anchor (wheel exhausted): width := spill span / spill size, so a
//    clustered spill gets fine buckets and a sparse one coarse buckets;
//  * scan pressure (steady state): when the average cursor-bucket scan
//    length over a sampling window exceeds a threshold, the calendar
//    rebuilds itself around the live events' span -- this catches a width
//    that started too coarse for the event density.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sim_time.h"

namespace pe::sim {

// The engine's event record.  24 bytes: time + the shared seq tie-breaker
// + a packed payload; small enough that bucket vectors stay cache-friendly.
enum class EventType : std::uint8_t {
  kArrival,
  kFrontendDone,
  kWorkerDone,
  kReconfigDone
};

struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;      // tie-breaker: deterministic FIFO order
  std::uint32_t payload = 0;  // query index, worker index, or reconfig gen
  EventType type = EventType::kArrival;

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

class EventCalendar {
 public:
  EventCalendar();

  // Removes every event but keeps bucket/spill capacity and the adapted
  // geometry: a server re-used across incarnations re-learns nothing.
  // (Geometry carry-over cannot perturb results -- see the determinism
  // note above.)
  void Clear();

  // O(1) amortized.  `ev.time` may be arbitrarily far in the future (the
  // spill absorbs it) and may precede the wheel cursor's window (the event
  // is clamped into the cursor bucket, which keeps the pop order exact for
  // the engine's pushes-at-or-after-now contract).
  void Push(const Event& ev);

  // The (time, seq)-minimum pending event, or nullptr when empty.  May
  // advance the cursor, re-anchor the wheel, or rebuild geometry -- all
  // deterministic -- and caches the located minimum for the Pop() that
  // typically follows.
  const Event* Peek();

  // Removes and returns the minimum.  Requires a pending event.
  Event Pop();

 private:
  void Locate();        // positions cached_* on the current minimum
  void ReAnchor();      // wheel exhausted: promote from the sorted spill
  void Rebuild();       // scan pressure: re-derive geometry from content
  void Place(const Event& ev);  // wheel/spill placement (no size_ change)
  // True iff `time` is at or past the wheel's horizon, base_ +
  // num_buckets_ * width_.  Compared as an unsigned offset from base_, so
  // a wheel anchored within its span of 2^63 -- an event at INT64_MAX is
  // legal -- never forms the overflowing sum.
  bool PastHorizon(SimTime time) const {
    if (time < base_) return false;
    const std::uint64_t offset =
        static_cast<std::uint64_t>(time) - static_cast<std::uint64_t>(base_);
    return offset >= static_cast<std::uint64_t>(width_) * num_buckets_;
  }

  std::vector<std::vector<Event>> buckets_;  // the wheel, one per window
  std::size_t num_buckets_ = 0;              // power of two
  SimTime width_ = 0;                        // window ticks per bucket
  SimTime base_ = 0;      // lower time bound of bucket 0's window
  std::size_t cursor_ = 0;  // first bucket that can hold the minimum
  std::size_t wheel_count_ = 0;

  std::vector<Event> overflow_;  // the spill; sorted descending on demand
  bool overflow_sorted_ = true;

  std::size_t size_ = 0;

  // Cached position of the located minimum (valid until the next push or
  // pop), so Peek-then-Pop scans the cursor bucket once.
  bool cached_ = false;
  std::size_t cached_pos_ = 0;

  // Scan-pressure sampling: rebuild when pops keep scanning long buckets.
  std::uint32_t sampled_pops_ = 0;
  std::uint64_t sampled_scans_ = 0;
};

}  // namespace pe::sim
