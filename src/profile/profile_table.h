// The paper's one-time profiling lookup table (Section IV-C):
// (GPU partition size, batch size) -> {latency, utilization, throughput}.
//
// Both PARIS (Algorithm 1 inputs Util[], Throughput[]) and ELSA
// (T_estimated lookups, Eq. 1-2) consume this table, never the performance
// model directly -- mirroring the deployment flow on real hardware where the
// table is measured once (~5 minutes per the paper) and then reused.
//
// The table is dense: one flat array of cells, a row per profiled
// partition size and a column per profiled batch size, with a mark on the
// cells never Set (a sparse table's holes).  Two index tables, built once
// by the constructor, replace searching: gpcs -> row, and batch -> the
// column of the smallest profiled batch >= batch (the snap).  So a
// scheduler's latency estimate is three array reads, and the engines and
// ELSA read this table directly.  A table never changes after its last
// Set, so one may be read from several threads at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pe::profile {

struct ProfileEntry {
  double latency_sec = 0.0;
  double utilization = 0.0;  // SM-busy fraction in [0, 1]

  // Effective inference throughput in queries/sec: a query is one batch, so
  // this is 1 / latency (cf. the paper's Figure 8 example where batch-1
  // latency 25 ms -> 40 queries/sec).
  double throughput_qps() const {
    return latency_sec > 0.0 ? 1.0 / latency_sec : 0.0;
  }
};

// MaxBatch_knee derivation mode (see docs/PARIS.md):
//  * kAbsolute: first batch with util >= threshold (Algorithm 1, line 8).
//  * kRelative: first batch with util >= threshold * util(max batch); total
//    even when a partition's plateau sits below the absolute threshold.
enum class KneeMode { kAbsolute, kRelative };

class ProfileTable {
 public:
  ProfileTable() = default;
  // Both grids must be strictly ascending and positive; throws
  // std::invalid_argument otherwise.  Every cell starts as a hole.
  ProfileTable(std::string model_name, std::vector<int> partition_sizes,
               std::vector<int> batch_sizes);

  const std::string& model_name() const { return model_name_; }
  const std::vector<int>& partition_sizes() const { return partition_sizes_; }
  const std::vector<int>& batch_sizes() const { return batch_sizes_; }
  int max_batch() const;

  // Fills a grid cell; throws std::out_of_range when (gpcs, batch) is off
  // the declared grid.
  void Set(int gpcs, int batch, ProfileEntry entry);
  bool Has(int gpcs, int batch) const;

  // Returns the profiled entry; exact match required (throws
  // std::out_of_range otherwise).
  const ProfileEntry& At(int gpcs, int batch) const;

  // Latency with lookup semantics used by the scheduler: exact batch match
  // if profiled, otherwise the nearest profiled batch >= `batch` (a batch
  // between grid points costs as much as the next grid point), clamping to
  // the largest profiled batch.  Inline: it is every scheduler's and
  // engine's estimate.
  double LatencySec(int gpcs, int batch) const {
    return Snapped(gpcs, batch).latency_sec;
  }
  double Utilization(int gpcs, int batch) const;
  double ThroughputQps(int gpcs, int batch) const;

  // MaxBatch_knee for a partition size (Algorithm 1 Step A): the first
  // profiled batch whose utilization crosses the threshold; falls back to
  // the largest profiled batch if never crossed.  In kRelative mode the
  // plateau is the utilization at `reference_batch` (<= 0 means the largest
  // profiled batch); callers serving a capped distribution pass its max
  // batch so knees are meaningful within the served range.
  int MaxBatchKnee(int gpcs, double threshold = 0.8,
                   KneeMode mode = KneeMode::kRelative,
                   int reference_batch = 0) const;

  // Knees for every partition size, ascending by size, made non-decreasing
  // (a larger partition never gets a smaller knee than a smaller one, which
  // Algorithm 1 implicitly assumes when segmenting), with the largest
  // partition's knee clamped up to the max profiled batch so the segments
  // cover the whole distribution.
  std::vector<int> AllKnees(double threshold = 0.8,
                            KneeMode mode = KneeMode::kRelative,
                            int reference_batch = 0) const;

  // CSV export, columns model,gpcs,batch,latency_sec,utilization: every
  // filled cell in (gpcs, batch) order.
  void SaveCsv(std::ostream& os) const;

 private:
  struct Cell {
    ProfileEntry entry;
    bool set = false;  // false: a hole
  };

  // Column of the smallest profiled batch >= `batch`, clamped to the
  // largest; the batch grid must be non-empty.
  std::size_t SnapColumn(int batch) const {
    if (batch < 0) return 0;
    if (batch >= static_cast<int>(snap_.size())) return batch_sizes_.size() - 1;
    return snap_[static_cast<std::size_t>(batch)];
  }
  // The first cell of `gpcs`'s row, or -1 when it is not a profiled size.
  std::ptrdiff_t RowStart(int gpcs) const {
    if (gpcs < 0 || gpcs >= static_cast<int>(row_.size())) return -1;
    return row_[static_cast<std::size_t>(gpcs)];
  }
  // The filled cell at (gpcs, column), or null for an unprofiled size or
  // a hole.
  const Cell* Find(int gpcs, std::size_t column) const;
  // The filled cell at (gpcs, batch snapped to the grid); throws
  // std::out_of_range, naming the snapped batch, when there is none.
  const ProfileEntry& Snapped(int gpcs, int batch) const {
    // A profiled row implies a non-empty batch grid.
    const std::ptrdiff_t start = RowStart(gpcs);
    if (start >= 0) {
      const Cell& cell =
          cells_[static_cast<std::size_t>(start) + SnapColumn(batch)];
      if (cell.set) return cell.entry;
    }
    ThrowSnappedMissing(gpcs, batch);
  }
  [[noreturn]] void ThrowSnappedMissing(int gpcs, int batch) const;
  [[noreturn]] static void ThrowMissing(int gpcs, int batch);

  std::string model_name_;
  std::vector<int> partition_sizes_;  // ascending
  std::vector<int> batch_sizes_;      // ascending
  // gpcs (0..largest size) -> first cell of its row, -1 when unprofiled.
  std::vector<std::ptrdiff_t> row_;
  // batch (0..largest batch) -> SnapColumn(batch).
  std::vector<std::uint32_t> snap_;
  // partition_sizes_.size() rows x batch_sizes_.size() columns.
  std::vector<Cell> cells_;
};

}  // namespace pe::profile
