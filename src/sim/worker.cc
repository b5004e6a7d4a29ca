#include "sim/worker.h"

#include <algorithm>
#include <cassert>

namespace pe::sim {

PartitionWorker::PartitionWorker(int index, int gpcs)
    : index_(index), gpcs_(gpcs) {
  assert(index >= 0);
  assert(gpcs >= 1);
}

void PartitionWorker::Enqueue(const workload::Query& query,
                              SimTime estimated) {
  assert(estimated >= 0);
  queue_.push_back(Pending{query, estimated});
  queued_estimated_ += estimated;
}

const workload::Query& PartitionWorker::Head() const {
  assert(!queue_.empty());
  return queue_.front().query;
}

workload::Query PartitionWorker::Start(SimTime now, SimTime finish) {
  assert(CanStart());
  assert(finish > now);
  Pending head = queue_.front();
  queue_.pop_front();
  queued_estimated_ -= head.estimated;
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

workload::Query PartitionWorker::PopHead() {
  assert(!queue_.empty());
  Pending head = queue_.front();
  queue_.pop_front();
  queued_estimated_ -= head.estimated;
  return head.query;
}

std::vector<workload::Query> PartitionWorker::TakeQueue() {
  std::vector<workload::Query> orphans;
  orphans.reserve(queue_.size());
  for (const Pending& p : queue_) orphans.push_back(p.query);
  queue_.clear();
  queued_estimated_ = 0;
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
  s.queue_length = queue_.size();
  s.resident_model = resident_model_;
  s.failed = failed_;
  return s;
}

}  // namespace pe::sim
