// The (process × time) normalized-performance heat map of §3.5 and the
// region-growing variance locator.
//
// Each normalized fragment deposits its performance into the time bins it
// overlaps, weighted by overlap duration.  Cells without data are "quiet"
// (no fixed-workload fragment executed there) and never count as variance.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vapro::util {
class WorkerPool;
}

namespace vapro::core {

class Heatmap {
 public:
  // `bin_seconds` — time resolution; rows are ranks.
  Heatmap(int ranks, double bin_seconds);

  // Fragment times must be finite and non-negative, and end before bin
  // kMaxBins (checked: a bad time would index outside the map).
  void deposit(int rank, double start, double end, double perf);
  // Bounded so the doubling row stride cannot overflow an int.
  static constexpr double kMaxBins = 1 << 30;

  // Accumulates another map's cells (same ranks and bin size) in columns
  // [from, other.bins()), stamping column `from` — used by the
  // multi-server aggregation root.
  void merge(const Heatmap& other, int from = 0);
  // Zeroes every cell in columns [from, bins()), stamping column `from`;
  // the map keeps its bins.  With merge(other, from) this re-merges a
  // column suffix: each cell then receives the same adds, in the same
  // order, as in a map built by merging from empty.
  void clear_from(int from);

  int ranks() const { return ranks_; }
  int bins() const { return bins_; }
  double bin_seconds() const { return bin_seconds_; }
  // Cells held in memory: ranks × the row stride, which doubles as the
  // map grows, so it stays below 2 × ranks × bins.
  std::size_t allocated_cells() const { return weights_.size(); }

  // Write stamps, so a RegionCache can find what changed since it last
  // looked: writes() counts deposit/merge/clear_from calls that wrote a
  // column, and each stamps the lowest column it writes with its writes()
  // value.
  std::uint64_t writes() const { return writes_; }
  // Lowest column written after `writes` was current; bins() when none.
  int first_column_written_after(std::uint64_t writes) const;

  bool has_data(int rank, int bin) const;
  // Mean normalized performance in a cell; NaN when no data.
  double cell(int rank, int bin) const;
  // Total fragment-seconds deposited in a cell.
  double weight(int rank, int bin) const;

  // Mean performance over a whole row/column (ignoring empty cells).
  double row_mean(int rank) const;
  // Weighted mean over the entire map; NaN when empty.
  double overall_mean() const;

  // ASCII rendering: rows capped at `max_rows` by subsampling, bins at
  // `max_cols` by aggregation.  '#'..' ' ramp, low performance = dark.
  std::string render_ascii(int max_rows = 32, int max_cols = 100) const;

  // CSV dump: header row of bin times, one row per rank.  False when the
  // file could not be written.
  bool write_csv(const std::string& path) const;

 private:
  void ensure_bins(int bin);
  std::size_t index(int rank, int bin) const {
    return static_cast<std::size_t>(rank) * stride_ + bin;
  }
  int ranks_;
  double bin_seconds_;
  int bins_ = 0;
  // Row length in memory.  It doubles when a deposit outgrows it, so the
  // map is re-laid out O(log bins) times; cells in [bins_, stride_) stay
  // zero until the map grows into them.
  int stride_ = 0;
  // Row-major [rank][bin] with row stride `stride_`; parallel arrays of
  // Σ perf·w and Σ w.
  std::vector<double> weighted_;
  std::vector<double> weights_;
  std::uint64_t writes_ = 0;
  // Per bin, see writes().  A column's stamp can be older than its last
  // write, but every column a call writes is at or above the one it
  // stamped, so first_column_written_after() never misses a write.
  std::vector<std::uint64_t> column_stamp_;
};

// A contiguous low-performance region found by region growing (§3.5:
// threshold 0.85, 4-connectivity on cells below threshold).
struct VarianceRegion {
  int rank_lo = 0, rank_hi = 0;  // inclusive bounding box
  int bin_lo = 0, bin_hi = 0;
  std::size_t cells = 0;
  double mean_perf = 1.0;
  // Quantified performance loss: Σ over cells of (1 - perf) · fragment
  // seconds in the cell — the paper's "impact on performance".
  double impact_seconds = 0.0;

  double time_lo(double bin_seconds) const { return bin_lo * bin_seconds; }
  double time_hi(double bin_seconds) const { return (bin_hi + 1) * bin_seconds; }
  bool operator==(const VarianceRegion&) const = default;
};

// Finds all variance regions below `threshold`, sorted by impact
// (descending, ties broken by row-major discovery order) as the paper
// reports them.  This is a fresh RegionCache's first update: a
// from-scratch pass over every column, on the calling thread.  The third
// parameter is unused; it stays only because perfbench's replay, frozen
// with the benchmark, passes its pool.  Drop it at the next benchmark
// change.
std::vector<VarianceRegion> find_variance_regions(
    const Heatmap& map, double threshold = 0.85,
    util::WorkerPool* = nullptr);

// The variance regions of one growing heat map, kept up to date across
// windows by re-labeling only a column suffix [F, bins).  F starts one
// column below the lowest column written since the last update and is
// lowered to the bin_lo of any cached region with bin_hi ≥ F until it
// stops moving; regions wholly below F are kept as they are.  The result
// equals find_variance_regions on the same map, field for field: a kept
// region's cells did not change and nothing in the suffix touches it,
// and a re-labeled region lies wholly inside the suffix, so its
// row-major sums add the same doubles in the same order.
//
// The re-label is one pass on the calling thread: a BFS over the suffix's
// low cells seeded in row-major order, then one row-major stats sweep.
// It stays serial because a rank-striped pass on the shard pool measured
// slower on per-window updates (docs/ARCHITECTURE.md).
//
// One cache per map (it reads the map's write stamps); not thread-safe.
class RegionCache {
 public:
  explicit RegionCache(double threshold = 0.85) : threshold_(threshold) {}

  // Brings the regions up to date with `map`, on the calling thread.
  void update(const Heatmap& map);

  // Regions as of the last update, in find_variance_regions order.
  const std::vector<VarianceRegion>& regions() const { return regions_; }
  // Lowest normalized performance of any data cell, capped at 1.0.
  double worst_cell() const;
  // Cells (ranks × suffix columns) the last update re-labeled.
  std::size_t relabeled_cells() const { return relabeled_; }

 private:
  double threshold_;
  std::uint64_t seen_writes_ = 0;  // map.writes() at the last update
  int bins_ = 0;                   // map.bins() at the last update
  std::vector<VarianceRegion> regions_;
  // (rank, bin) of each region's first row-major cell, parallel to
  // regions_: the tie-break of the impact order.
  std::vector<std::pair<int, int>> first_cell_;
  // Per column, the lowest data cell (+inf when the column has none).
  std::vector<double> column_min_;
  std::size_t relabeled_ = 0;
};

}  // namespace vapro::core
