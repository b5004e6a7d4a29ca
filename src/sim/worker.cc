#include "sim/worker.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pe::sim {

PartitionWorker::PartitionWorker(int index, int gpcs)
    : index_(index), gpcs_(gpcs) {
  assert(index >= 0);
  assert(gpcs >= 1);
}

void PartitionWorker::Enqueue(const workload::Query& query,
                              SimTime estimated) {
  assert(estimated >= 0);
  if (size_ == ring_.size()) {
    // Full: double, unwrapping the queue to the front of the new ring.
    std::vector<Pending> grown(std::max<std::size_t>(8, 2 * ring_.size()));
    for (std::size_t k = 0; k < size_; ++k) {
      grown[k] = ring_[(head_ + k) & (ring_.size() - 1)];
    }
    ring_ = std::move(grown);
    head_ = 0;
  }
  ring_[(head_ + size_) & (ring_.size() - 1)] = Pending{query, estimated};
  ++size_;
  queued_estimated_ += estimated;
}

const workload::Query& PartitionWorker::Head() const {
  assert(size_ != 0);
  return ring_[head_].query;
}

PartitionWorker::Pending PartitionWorker::PopFront() {
  assert(size_ != 0);
  const Pending head = ring_[head_];
  head_ = (head_ + 1) & (ring_.size() - 1);
  --size_;
  queued_estimated_ -= head.estimated;
  return head;
}

workload::Query PartitionWorker::Start(SimTime now, SimTime finish) {
  assert(CanStart());
  assert(finish > now);
  const Pending head = PopFront();
  current_ = head.query;
  current_estimated_ = head.estimated;
  current_started_ = now;
  busy_until_ = finish;
  resident_model_ = head.query.model_id;
  return head.query;
}

workload::Query PartitionWorker::Finish() {
  assert(busy());
  workload::Query done = *current_;
  current_.reset();
  current_estimated_ = 0;
  return done;
}

workload::Query PartitionWorker::Abort() {
  assert(busy());
  workload::Query victim = *current_;
  current_.reset();
  current_estimated_ = 0;
  busy_until_ = 0;
  return victim;
}

workload::Query PartitionWorker::PopHead() { return PopFront().query; }

std::vector<workload::Query> PartitionWorker::TakeQueue() {
  std::vector<workload::Query> orphans;
  orphans.reserve(size_);
  while (size_ != 0) orphans.push_back(PopFront().query);
  return orphans;
}

SimTime PartitionWorker::EstimatedWait(SimTime now) const {
  SimTime wait = queued_estimated_;
  if (busy()) wait += std::max<SimTime>(0, estimated_end() - now);
  return wait;
}

sched::WorkerState PartitionWorker::Snapshot(SimTime now) const {
  sched::WorkerState s;
  s.index = index_;
  s.gpcs = gpcs_;
  s.idle = idle();
  s.wait_ticks = EstimatedWait(now);
  s.queue_length = size_;
  s.resident_model = resident_model_;
  s.failed = failed_;
  return s;
}

}  // namespace pe::sim
