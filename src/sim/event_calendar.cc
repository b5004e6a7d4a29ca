#include "sim/event_calendar.h"

#include <algorithm>
#include <cassert>

namespace pe::sim {

namespace {

// Starting window: ~1 ms of simulated time per bucket.  Only a warm-up
// value -- the first re-anchor or scan-pressure rebuild replaces it with a
// width derived from the actual event density.
constexpr SimTime kInitialWidth = SimTime{1} << 20;

// Width cap so the wheel's span (num_buckets * width) stays within 2^56:
// 2^16 buckets * 2^40 ticks.  Events farther out than the capped horizon
// simply wait in the spill across several re-anchors.
constexpr SimTime kMaxWidth = SimTime{1} << 40;

constexpr std::size_t kMinBuckets = 64;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;

// Scan-pressure rebuild: every kSampleWindow pops, rebuild if the average
// cursor-bucket scan exceeded kScanThreshold events (and the queue is big
// enough for geometry to matter).
constexpr std::uint32_t kSampleWindow = 64;
constexpr std::uint64_t kScanThreshold = 8;
constexpr std::size_t kRebuildMinSize = 32;

// Bucket count ~2x the live event count keeps expected occupancy below
// one event per bucket.
std::size_t BucketTarget(std::size_t events) {
  std::size_t target = kMinBuckets;
  while (target < 2 * events && target < kMaxBuckets) target <<= 1;
  return target;
}

}  // namespace

EventCalendar::EventCalendar() {
  num_buckets_ = kMinBuckets;
  buckets_.resize(num_buckets_);
  width_ = kInitialWidth;
}

void EventCalendar::Clear() {
  for (auto& bucket : buckets_) bucket.clear();
  overflow_.clear();
  overflow_sorted_ = true;
  wheel_count_ = 0;
  size_ = 0;
  cursor_ = 0;
  base_ = 0;  // incarnations restart at time zero; re-anchor re-aligns
  cached_ = false;
  sampled_pops_ = 0;
  sampled_scans_ = 0;
  // width_/num_buckets_ deliberately survive: the next incarnation starts
  // with the adapted geometry (pop order is geometry-independent, so this
  // is purely a warm-up saving).
}

void EventCalendar::Place(const Event& ev) {
  if (PastHorizon(ev.time)) {
    // Far future: the spill absorbs it until a re-anchor promotes it.
    overflow_.push_back(ev);
    overflow_sorted_ = overflow_sorted_ && overflow_.size() == 1;
    return;
  }
  std::size_t idx = cursor_;
  if (ev.time >= base_) {
    const auto raw =
        static_cast<std::size_t>((ev.time - base_) / width_);
    // Events at or before the cursor's window (the engine pushes at times
    // >= now, which can still precede the *window* lower bound) clamp into
    // the cursor bucket; the min-scan there keeps them correctly ordered.
    if (raw > cursor_) idx = raw;
  }
  buckets_[idx].push_back(ev);
  ++wheel_count_;
}

void EventCalendar::Push(const Event& ev) {
  Place(ev);
  ++size_;
  cached_ = false;
}

void EventCalendar::ReAnchor() {
  assert(wheel_count_ == 0 && !overflow_.empty());
  if (!overflow_sorted_) {
    std::sort(overflow_.begin(), overflow_.end(),
              [](const Event& a, const Event& b) { return a > b; });
    overflow_sorted_ = true;
  }
  const SimTime min_time = overflow_.back().time;
  const SimTime max_time = overflow_.front().time;
  // Width from the spill's own density: a clustered spill gets fine
  // buckets, a sparse one coarse buckets.
  width_ = std::clamp<SimTime>(
      (max_time - min_time) / static_cast<SimTime>(overflow_.size()), 1,
      kMaxWidth);
  const std::size_t target = BucketTarget(overflow_.size());
  if (target != num_buckets_) {
    buckets_.resize(target);
    num_buckets_ = target;
  }
  base_ = min_time - (min_time % width_);
  cursor_ = 0;
  // Promote everything inside the new horizon (at least the minimum --
  // base_ <= min_time < base_ + width_ -- so re-anchoring always makes
  // progress even against a wider-than-horizon spill).
  while (!overflow_.empty() && !PastHorizon(overflow_.back().time)) {
    const Event& ev = overflow_.back();
    buckets_[static_cast<std::size_t>((ev.time - base_) / width_)].push_back(
        ev);
    ++wheel_count_;
    overflow_.pop_back();
  }
}

void EventCalendar::Rebuild() {
  // Pull every live event out, re-derive the geometry from their span,
  // and re-place them.  O(n + buckets), amortized across the sampling
  // window that triggered it.
  std::vector<Event> scratch;
  scratch.reserve(size_);
  for (auto& bucket : buckets_) {
    scratch.insert(scratch.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  scratch.insert(scratch.end(), overflow_.begin(), overflow_.end());
  overflow_.clear();
  overflow_sorted_ = true;
  wheel_count_ = 0;
  assert(scratch.size() == size_);

  SimTime min_time = scratch.front().time;
  SimTime max_time = min_time;
  for (const Event& ev : scratch) {
    min_time = std::min(min_time, ev.time);
    max_time = std::max(max_time, ev.time);
  }
  width_ = std::clamp<SimTime>(
      (max_time - min_time) / static_cast<SimTime>(scratch.size()), 1,
      kMaxWidth);
  const std::size_t target = BucketTarget(scratch.size());
  if (target != num_buckets_) {
    buckets_.resize(target);
    num_buckets_ = target;
  }
  base_ = min_time - (min_time % width_);
  cursor_ = 0;
  for (const Event& ev : scratch) Place(ev);
  cached_ = false;
}

void EventCalendar::Locate() {
  assert(size_ > 0);
  for (;;) {
    if (wheel_count_ == 0) {
      ReAnchor();
      continue;
    }
    // Invariant: every wheel event lives at or after cursor_, so the walk
    // cannot run off the end while wheel_count_ > 0.
    while (buckets_[cursor_].empty()) {
      ++cursor_;
      assert(cursor_ < num_buckets_);
    }
    const std::vector<Event>& bucket = buckets_[cursor_];
    // The first non-empty bucket holds the global minimum: later buckets
    // cover strictly later windows and the spill lies beyond the horizon.
    std::size_t best = 0;
    for (std::size_t i = 1; i < bucket.size(); ++i) {
      if (bucket[best] > bucket[i]) best = i;
    }
    sampled_scans_ += bucket.size();
    cached_ = true;
    cached_pos_ = best;
    return;
  }
}

const Event* EventCalendar::Peek() {
  if (size_ == 0) return nullptr;
  if (!cached_) Locate();
  return &buckets_[cursor_][cached_pos_];
}

Event EventCalendar::Pop() {
  assert(size_ > 0);
  if (!cached_) Locate();
  std::vector<Event>& bucket = buckets_[cursor_];
  const Event ev = bucket[cached_pos_];
  bucket[cached_pos_] = bucket.back();
  bucket.pop_back();
  --wheel_count_;
  --size_;
  cached_ = false;
  if (++sampled_pops_ >= kSampleWindow) {
    // Scan pressure: the width is too coarse for the event density (many
    // events per cursor bucket); re-derive geometry from the live span.
    if (sampled_scans_ > kSampleWindow * kScanThreshold &&
        size_ > kRebuildMinSize) {
      Rebuild();
    }
    sampled_pops_ = 0;
    sampled_scans_ = 0;
  }
  return ev;
}

}  // namespace pe::sim
