// The (process × time) normalized-performance heat map of §3.5 and the
// region-growing variance locator.
//
// Each normalized fragment deposits its performance into the time bins it
// overlaps, weighted by overlap duration.  Cells without data are "quiet"
// (no fixed-workload fragment executed there) and never count as variance.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace vapro::util {
class WorkerPool;
}

namespace vapro::core {

// Cache-line aligned: LiveDetection keeps the three kinds' maps side by
// side, and the detection pass deposits into each from its own shard
// thread, so one map's write counter must not share a line with the next
// map's fields.
class alignas(64) Heatmap {
 public:
  // `bin_seconds` — time resolution; rows are ranks.
  Heatmap(int ranks, double bin_seconds);

  // The most cells one map holds: ranks × bins stays at or below
  // kMaxCells.  2^27 cells (2 GiB of sums) fit the paper's scale — 2048
  // ranks × 4 h of 0.25 s bins is 1.2e8 cells — and stop one fragment time
  // from outside the process (the wire, a trace) from sizing the map.
  static constexpr std::int64_t kMaxCells = std::int64_t{1} << 27;
  // Bins a map of `ranks` ranks may hold under kMaxCells (a count below 1
  // counts as 1).
  static int max_bins(int ranks);

  // Fragment times must be finite and start at or after 0 (checked: a bad
  // time would index outside the map).  A deposit ending at or past bin
  // max_bins(ranks()) is refused before anything is allocated: the map is
  // left as it was and refused_deposits() counts it.
  void deposit(int rank, double start, double end, double perf);
  std::uint64_t refused_deposits() const { return refused_; }

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
  // Columns per block: the map grows a block of kBlockBins columns of
  // every rank at a time, and a block never moves once allocated.
  static constexpr int kBlockBins = 64;
  // Cells held in memory: ranks × kBlockBins × ceil(bins / kBlockBins).
  std::size_t allocated_cells() const {
    return blocks_.size() * static_cast<std::size_t>(ranks_) * kBlockBins;
  }

  // Write stamps, so a RegionCache can find what changed since it last
  // looked: writes() counts deposit/merge/clear_from calls that wrote a
  // column, and each stamps the lowest column it writes with its writes()
  // value.
  std::uint64_t writes() const { return writes_; }
  // Lowest column written after `writes` was current; bins() when none.
  // Skips every block whose newest stamp is older: O(blocks + kBlockBins).
  int first_column_written_after(std::uint64_t writes) const;

  bool has_data(int rank, int bin) const;
  // Mean normalized performance in a cell; NaN when no data.
  double cell(int rank, int bin) const;
  // Total fragment-seconds deposited in a cell.
  double weight(int rank, int bin) const;

  // Σ perf·w and Σ w of one (rank, bin).
  struct Cell {
    double weighted = 0.0;
    double weight = 0.0;
    // What cell() returns for it.
    double mean() const {
      return weight > 0.0 ? weighted / weight
                          : std::numeric_limits<double>::quiet_NaN();
    }
  };
  // Row `rank`'s cells from column `bin` (< bins()) to the end of its
  // block or to bins(), whichever comes first.  They are contiguous, so a
  // sweep along a row looks up one block per run instead of one per cell.
  std::span<const Cell> row_run(int rank, int bin) const {
    const int end = std::min(bins_, (bin / kBlockBins + 1) * kBlockBins);
    return {&at(rank, bin), static_cast<std::size_t>(end - bin)};
  }

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
  // Columns [k × kBlockBins, (k + 1) × kBlockBins) of every rank, row-major
  // [rank][column within the block], zero until written.
  using Block = std::vector<Cell>;
  void ensure_bins(int bin);
  void stamp(int bin);
  Cell& at(int rank, int bin) {
    const auto block = static_cast<std::size_t>(bin / kBlockBins);
    return blocks_[block][offset(rank, bin)];
  }
  const Cell& at(int rank, int bin) const {
    const auto block = static_cast<std::size_t>(bin / kBlockBins);
    return blocks_[block][offset(rank, bin)];
  }
  // Where (rank, bin) lies in its block.
  static std::size_t offset(int rank, int bin) {
    return static_cast<std::size_t>(rank) * kBlockBins + bin % kBlockBins;
  }
  int ranks_;
  double bin_seconds_;
  int max_bins_ = 0;
  int bins_ = 0;
  // Enough blocks to cover bins_ columns; cells past bins_ stay zero until
  // the map grows into them.
  std::vector<Block> blocks_;
  // Per column, kBlockBins per block, see writes().  A column's stamp can
  // be older than its last write, but every column a call writes is at or
  // above the one it stamped, so first_column_written_after() never misses
  // a write.
  std::vector<std::uint64_t> column_stamp_;
  // Per block, the newest of its columns' stamps.
  std::vector<std::uint64_t> block_stamp_;
  std::uint64_t writes_ = 0;
  std::uint64_t refused_ = 0;
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
