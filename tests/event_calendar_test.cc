// Unit tests for the two-level bucketed event calendar: pop order must be
// the exact global (time, seq) order a binary heap produces, regardless of
// bucket geometry, re-anchoring, spill promotion, or reuse after Clear().
#include "sim/event_calendar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"

namespace pe::sim {
namespace {

Event Ev(SimTime time, std::uint64_t seq) {
  Event e;
  e.time = time;
  e.seq = seq;
  e.payload = static_cast<std::uint32_t>(seq);
  e.type = EventType::kWorkerDone;
  return e;
}

// Drains the calendar and checks the stream equals `expected` (which is
// sorted by (time, seq) in here, so callers pass the push population).
void ExpectDrainsSorted(EventCalendar& calendar, std::vector<Event> expected) {
  std::sort(expected.begin(), expected.end(),
            [](const Event& a, const Event& b) { return b > a; });
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NE(calendar.Peek(), nullptr) << "event " << i;
    const Event* head = calendar.Peek();
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->time, expected[i].time) << "event " << i;
    EXPECT_EQ(head->seq, expected[i].seq) << "event " << i;
    const Event popped = calendar.Pop();
    EXPECT_EQ(popped.time, expected[i].time) << "event " << i;
    EXPECT_EQ(popped.seq, expected[i].seq) << "event " << i;
    EXPECT_EQ(popped.payload, expected[i].payload) << "event " << i;
  }
  EXPECT_EQ(calendar.Peek(), nullptr);
}

TEST(EventCalendar, EmptyBehaviour) {
  EventCalendar calendar;
  EXPECT_EQ(calendar.Peek(), nullptr);
}

TEST(EventCalendar, SameTimestampPopsInSeqOrderAcrossBuckets) {
  EventCalendar calendar;
  std::vector<Event> events;
  // Ties pushed in scrambled seq order, interleaved with events in other
  // buckets so the tie group does not sit alone in the cursor bucket.
  const SimTime t = MsToTicks(3.0);
  for (const std::uint64_t seq : {9ull, 2ull, 7ull, 0ull, 5ull}) {
    events.push_back(Ev(t, seq));
  }
  events.push_back(Ev(MsToTicks(1.0), 3));
  events.push_back(Ev(MsToTicks(90.0), 4));  // separate window
  events.push_back(Ev(t, 1));
  for (const Event& e : events) calendar.Push(e);
  ExpectDrainsSorted(calendar, events);
}

TEST(EventCalendar, FarFutureSpillPromotedInOrder) {
  EventCalendar calendar;
  std::vector<Event> events;
  // Initial horizon is 64 buckets x ~1 ms; everything near 10 s lives in
  // the spill until re-anchoring promotes it, across several geometries.
  std::uint64_t seq = 0;
  for (int i = 0; i < 30; ++i) {
    events.push_back(Ev(MsToTicks(1.0 * i), seq++));
    events.push_back(Ev(SecToTicks(10.0) + MsToTicks(35.0 * i), seq++));
    events.push_back(Ev(SecToTicks(200.0) - MsToTicks(4.0 * i), seq++));
  }
  for (const Event& e : events) calendar.Push(e);
  ExpectDrainsSorted(calendar, events);
}

TEST(EventCalendar, InterleavedPushPopKeepsGlobalOrder) {
  // The engine's real usage: pops interleaved with pushes at or after the
  // popped time (completion events scheduled from the current instant).
  EventCalendar calendar;
  Rng rng(123);
  std::uint64_t seq = 0;
  SimTime now = 0;
  std::vector<SimTime> popped;
  for (int i = 0; i < 64; ++i) {
    calendar.Push(Ev(now + UsToTicks(50.0 * static_cast<double>(
                               rng.UniformInt(1, 2000))),
                     seq++));
  }
  while (calendar.Peek() != nullptr) {
    const Event e = calendar.Pop();
    EXPECT_GE(e.time, now);
    now = e.time;
    popped.push_back(e.time);
    if (seq < 600) {
      // Push just after the current instant and far ahead, both legal:
      // completions are always scheduled at or after the event being
      // processed.
      calendar.Push(Ev(now + UsToTicks(5.0), seq++));
      if (seq % 3 == 0) {
        calendar.Push(Ev(now + SecToTicks(2.0), seq++));
      }
    }
  }
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
  EXPECT_EQ(popped.size(), seq);  // every push eventually popped
}

TEST(EventCalendar, RandomizedStreamMatchesSortReference) {
  EventCalendar calendar;
  Rng rng(7);
  std::vector<Event> events;
  for (std::uint64_t seq = 0; seq < 5000; ++seq) {
    // Heavy-tailed spread: mostly near-future, occasional far spikes, and
    // deliberate timestamp collisions (coarse 10 us quantization).
    const std::int64_t coarse = rng.UniformInt(0, 400);
    const SimTime spike =
        rng.UniformInt(0, 19) == 0 ? SecToTicks(5.0) : SimTime{0};
    events.push_back(Ev(spike + UsToTicks(10.0 * coarse), seq));
  }
  for (const Event& e : events) calendar.Push(e);
  ExpectDrainsSorted(calendar, events);
}

// A completion may legally finish at INT64_MAX, so the wheel can anchor
// within its own span of 2^63; its horizon must never be formed as an
// overflowing sum, and the event there must still pop.
TEST(EventCalendar, EventAtTheEndOfTimePops) {
  EventCalendar calendar;
  const std::vector<Event> events = {
      Ev(std::numeric_limits<SimTime>::max(), 0), Ev(5, 1)};
  for (const Event& e : events) calendar.Push(e);
  ExpectDrainsSorted(calendar, events);
}

TEST(EventCalendar, WheelAnchoredNearTheEndOfTimeDrainsInOrder) {
  // Forty events 1 s apart, ending 1,000 ticks short of INT64_MAX: the
  // re-anchored wheel (128 buckets of about 1 s) spans past 2^63.
  EventCalendar calendar;
  std::vector<Event> events;
  const SimTime last = std::numeric_limits<SimTime>::max() - 1000;
  for (std::uint64_t seq = 0; seq < 40; ++seq) {
    const SimTime t = last - static_cast<SimTime>(39 - seq) * kNsPerSec;
    events.push_back(Ev(t, seq));
  }
  for (const Event& e : events) calendar.Push(e);
  ExpectDrainsSorted(calendar, events);
}

TEST(EventCalendar, ClearResetsForReuseAtTimeZero) {
  EventCalendar calendar;
  // First incarnation ends far from zero, adapting the geometry.
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    calendar.Push(Ev(SecToTicks(100.0) + MsToTicks(1.0 * seq), seq));
  }
  while (calendar.Peek() != nullptr) calendar.Pop();
  calendar.Clear();
  EXPECT_EQ(calendar.Peek(), nullptr);
  // Second incarnation restarts at time zero; the carried-over geometry
  // must not strand its events.
  std::vector<Event> events;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    events.push_back(Ev(MsToTicks(0.5 * seq), seq));
  }
  for (const Event& e : events) calendar.Push(e);
  ExpectDrainsSorted(calendar, events);
}

}  // namespace
}  // namespace pe::sim
