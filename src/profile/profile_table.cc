#include "profile/profile_table.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <stdexcept>

namespace pe::profile {

namespace {

// Throws unless `grid` is strictly ascending and positive.
void CheckGrid(const std::vector<int>& grid, const char* what) {
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid[i] <= 0 || (i > 0 && grid[i] <= grid[i - 1])) {
      std::string message = "ProfileTable: ";
      message += what;
      message += " must be positive and strictly ascending";
      throw std::invalid_argument(message);
    }
  }
}

}  // namespace

ProfileTable::ProfileTable(std::string model_name,
                           std::vector<int> partition_sizes,
                           std::vector<int> batch_sizes)
    : model_name_(std::move(model_name)),
      partition_sizes_(std::move(partition_sizes)),
      batch_sizes_(std::move(batch_sizes)) {
  CheckGrid(partition_sizes_, "partition sizes");
  CheckGrid(batch_sizes_, "batch sizes");
  if (partition_sizes_.empty() || batch_sizes_.empty()) return;
  row_.assign(static_cast<std::size_t>(partition_sizes_.back()) + 1, -1);
  for (std::size_t r = 0; r < partition_sizes_.size(); ++r) {
    row_[static_cast<std::size_t>(partition_sizes_[r])] =
        static_cast<std::ptrdiff_t>(r * batch_sizes_.size());
  }
  // snap_[b] is lower_bound(batch_sizes_, b) as a column.
  snap_.resize(static_cast<std::size_t>(batch_sizes_.back()) + 1);
  std::uint32_t column = 0;
  for (std::size_t b = 0; b < snap_.size(); ++b) {
    while (batch_sizes_[column] < static_cast<int>(b)) ++column;
    snap_[b] = column;
  }
  cells_.resize(partition_sizes_.size() * batch_sizes_.size());
}

int ProfileTable::max_batch() const {
  return batch_sizes_.empty() ? 0 : batch_sizes_.back();
}

const ProfileTable::Cell* ProfileTable::Find(int gpcs,
                                             std::size_t column) const {
  const std::ptrdiff_t start = RowStart(gpcs);
  if (start < 0) return nullptr;
  const Cell& cell = cells_[static_cast<std::size_t>(start) + column];
  return cell.set ? &cell : nullptr;
}

void ProfileTable::ThrowMissing(int gpcs, int batch) {
  throw std::out_of_range("ProfileTable: no entry for gpcs=" +
                          std::to_string(gpcs) +
                          " batch=" + std::to_string(batch));
}

void ProfileTable::Set(int gpcs, int batch, ProfileEntry entry) {
  // A profiled row implies a non-empty batch grid.
  const std::ptrdiff_t start = RowStart(gpcs);
  const std::size_t column = start < 0 ? 0 : SnapColumn(batch);
  if (start < 0 || batch_sizes_[column] != batch) {
    std::string message = "ProfileTable: gpcs=";
    message += std::to_string(gpcs);
    message += " batch=";
    message += std::to_string(batch);
    message += " is off the profiled grid";
    throw std::out_of_range(message);
  }
  Cell& cell = cells_[static_cast<std::size_t>(start) + column];
  cell.entry = entry;
  cell.set = true;
}

bool ProfileTable::Has(int gpcs, int batch) const {
  if (RowStart(gpcs) < 0) return false;
  const std::size_t column = SnapColumn(batch);
  return batch_sizes_[column] == batch && Find(gpcs, column) != nullptr;
}

const ProfileEntry& ProfileTable::At(int gpcs, int batch) const {
  if (!Has(gpcs, batch)) ThrowMissing(gpcs, batch);
  return Find(gpcs, SnapColumn(batch))->entry;
}

void ProfileTable::ThrowSnappedMissing(int gpcs, int batch) const {
  ThrowMissing(gpcs, batch_sizes_.empty() ? batch
                                          : batch_sizes_[SnapColumn(batch)]);
}

double ProfileTable::Utilization(int gpcs, int batch) const {
  return Snapped(gpcs, batch).utilization;
}

double ProfileTable::ThroughputQps(int gpcs, int batch) const {
  return Snapped(gpcs, batch).throughput_qps();
}

int ProfileTable::MaxBatchKnee(int gpcs, double threshold, KneeMode mode,
                               int reference_batch) const {
  assert(!batch_sizes_.empty());
  double target = threshold;
  if (mode == KneeMode::kRelative) {
    const int ref = reference_batch > 0
                        ? batch_sizes_[SnapColumn(reference_batch)]
                        : batch_sizes_.back();
    target = threshold * At(gpcs, ref).utilization;
  }
  for (int b : batch_sizes_) {
    if (At(gpcs, b).utilization >= target) return b;
  }
  return batch_sizes_.back();
}

std::vector<int> ProfileTable::AllKnees(double threshold, KneeMode mode,
                                        int reference_batch) const {
  std::vector<int> knees;
  knees.reserve(partition_sizes_.size());
  for (int g : partition_sizes_) {
    knees.push_back(MaxBatchKnee(g, threshold, mode, reference_batch));
  }
  // Enforce monotonicity in partition size.
  for (std::size_t i = 1; i < knees.size(); ++i) {
    knees[i] = std::max(knees[i], knees[i - 1]);
  }
  if (!knees.empty()) knees.back() = max_batch();
  return knees;
}

void ProfileTable::SaveCsv(std::ostream& os) const {
  os << "model,gpcs,batch,latency_sec,utilization\n";
  for (const int gpcs : partition_sizes_) {
    for (std::size_t column = 0; column < batch_sizes_.size(); ++column) {
      const Cell* cell = Find(gpcs, column);
      if (cell == nullptr) continue;
      os << model_name_ << ',' << gpcs << ',' << batch_sizes_[column] << ','
         << cell->entry.latency_sec << ',' << cell->entry.utilization << '\n';
    }
  }
}

}  // namespace pe::profile
