#include "sim/worker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace pe::sim {
namespace {

workload::Query Q(std::uint64_t id, int batch = 4) {
  workload::Query q;
  q.id = id;
  q.batch = batch;
  return q;
}

TEST(PartitionWorker, StartsIdle) {
  PartitionWorker w(0, 3);
  EXPECT_TRUE(w.idle());
  EXPECT_FALSE(w.busy());
  EXPECT_FALSE(w.CanStart());
  EXPECT_EQ(w.EstimatedWait(0), 0);
  EXPECT_EQ(w.gpcs(), 3);
}

TEST(PartitionWorker, EnqueueMakesStartable) {
  PartitionWorker w(0, 1);
  w.Enqueue(Q(1), MsToTicks(5.0));
  EXPECT_FALSE(w.idle());
  EXPECT_TRUE(w.CanStart());
  EXPECT_EQ(w.Snapshot(0).queue_length, 1u);
  EXPECT_EQ(w.Head().id, 1u);
}

TEST(PartitionWorker, StartPopsHeadFifo) {
  PartitionWorker w(0, 1);
  w.Enqueue(Q(1), MsToTicks(5.0));
  w.Enqueue(Q(2), MsToTicks(5.0));
  const auto started = w.Start(100, 100 + MsToTicks(6.0));
  EXPECT_EQ(started.id, 1u);
  EXPECT_TRUE(w.busy());
  EXPECT_EQ(w.Snapshot(100).queue_length, 1u);
  EXPECT_EQ(w.busy_until(), 100 + MsToTicks(6.0));
  // Started at 100 with a 5 ms estimate: 1 ms later, 4 ms remain ahead
  // of the queued 5 ms.
  EXPECT_EQ(w.EstimatedWait(100 + MsToTicks(1.0)), MsToTicks(9.0));
}

TEST(PartitionWorker, FinishFreesWorker) {
  PartitionWorker w(0, 1);
  w.Enqueue(Q(7), MsToTicks(5.0));
  w.Start(0, MsToTicks(5.0));
  const auto done = w.Finish();
  EXPECT_EQ(done.id, 7u);
  EXPECT_FALSE(w.busy());
  EXPECT_TRUE(w.idle());
}

TEST(PartitionWorker, EstimatedWaitSumsQueue) {
  PartitionWorker w(0, 1);
  w.Enqueue(Q(1), MsToTicks(5.0));
  w.Enqueue(Q(2), MsToTicks(3.0));
  EXPECT_EQ(w.EstimatedWait(0), MsToTicks(8.0));
}

TEST(PartitionWorker, EstimatedWaitUsesElapsedTimestamp) {
  // Eq. 1: Tremaining,current = Testimated,current - Telapsed,current.
  PartitionWorker w(0, 1);
  w.Enqueue(Q(1), MsToTicks(10.0));
  w.Start(0, MsToTicks(10.0));
  w.Enqueue(Q(2), MsToTicks(4.0));
  // 6 ms into the 10 ms query: remaining 4 + queued 4 = 8 ms.
  EXPECT_EQ(w.EstimatedWait(MsToTicks(6.0)), MsToTicks(8.0));
}

TEST(PartitionWorker, EstimatedRemainderNeverNegative) {
  // The actual execution can run longer than the estimate; the estimated
  // remainder clamps at zero rather than going negative.
  PartitionWorker w(0, 1);
  w.Enqueue(Q(1), MsToTicks(10.0));
  w.Start(0, MsToTicks(20.0));  // actual is twice the estimate
  EXPECT_EQ(w.EstimatedWait(MsToTicks(15.0)), 0);
}

TEST(PartitionWorker, SnapshotReflectsState) {
  PartitionWorker w(3, 2);
  auto s = w.Snapshot(0);
  EXPECT_EQ(s.index, 3);
  EXPECT_EQ(s.gpcs, 2);
  EXPECT_TRUE(s.idle);
  EXPECT_EQ(s.queue_length, 0u);

  w.Enqueue(Q(1), MsToTicks(2.0));
  w.Start(0, MsToTicks(2.0));
  w.Enqueue(Q(2), MsToTicks(2.0));
  s = w.Snapshot(MsToTicks(1.0));
  EXPECT_FALSE(s.idle);
  EXPECT_EQ(s.queue_length, 1u);
  EXPECT_EQ(s.wait_ticks, MsToTicks(3.0));  // 1 remaining + 2 queued
}

TEST(PartitionWorker, QueueAccountingAcrossManyQueries) {
  PartitionWorker w(0, 1);
  SimTime now = 0;
  for (int i = 0; i < 100; ++i) w.Enqueue(Q(i), MsToTicks(1.0));
  EXPECT_EQ(w.EstimatedWait(0), MsToTicks(100.0));
  for (int i = 0; i < 100; ++i) {
    w.Start(now, now + MsToTicks(1.0));
    now += MsToTicks(1.0);
    w.Finish();
  }
  EXPECT_TRUE(w.idle());
  EXPECT_EQ(w.EstimatedWait(now), 0);
}

TEST(PartitionWorker, QueueStaysFifoAcrossRingWrapAndGrowth) {
  // The head moves off the ring's front, the tail wraps past its end, and
  // the ring doubles with the queue wrapped, then twice more: every exit
  // path (Start, PopHead, TakeQueue) still sees arrival order, and the
  // queued estimate stays the sum of what is queued.
  PartitionWorker w(0, 1);
  std::uint64_t next = 0;
  std::uint64_t expect = 0;
  SimTime queued = 0;
  const auto enqueue = [&](int n) {
    for (int k = 0; k < n; ++k) {
      const SimTime estimate = static_cast<SimTime>(1 + next % 7);
      w.Enqueue(Q(next++), estimate);
      queued += estimate;
    }
  };
  const auto pop = [&](bool start) {
    const SimTime estimate = static_cast<SimTime>(1 + expect % 7);
    const workload::Query q = start ? w.Start(0, 1) : w.PopHead();
    EXPECT_EQ(q.id, expect++);
    queued -= estimate;
    if (start) w.Finish();
  };
  enqueue(6);
  for (int k = 0; k < 5; ++k) pop(k % 2 == 0);
  enqueue(5);  // wraps the 8-entry ring
  EXPECT_EQ(w.queued_estimate(), queued);
  enqueue(30);  // 8 -> 16 -> 32 -> 64 entries
  EXPECT_EQ(w.Snapshot(0).queue_length, 36u);
  EXPECT_EQ(w.queued_estimate(), queued);
  for (int k = 0; k < 11; ++k) pop(k % 3 != 0);
  const std::vector<workload::Query> rest = w.TakeQueue();
  ASSERT_EQ(rest.size(), 25u);
  for (const workload::Query& q : rest) EXPECT_EQ(q.id, expect++);
  EXPECT_EQ(w.queued_estimate(), 0);
  EXPECT_TRUE(w.idle());
}

}  // namespace
}  // namespace pe::sim
