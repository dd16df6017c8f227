#include "src/core/heatmap.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "src/util/check.hpp"
#include "src/util/csv.hpp"
#include "src/util/table.hpp"

namespace vapro::core {

Heatmap::Heatmap(int ranks, double bin_seconds)
    : ranks_(ranks), bin_seconds_(bin_seconds) {
  VAPRO_CHECK(ranks > 0 && bin_seconds > 0.0);
  max_bins_ = max_bins(ranks);
}

int Heatmap::max_bins(int ranks) {
  return static_cast<int>(kMaxCells / std::max(ranks, 1));
}

void Heatmap::ensure_bins(int bin) {
  if (bin < bins_) return;
  bins_ = bin + 1;
  const auto blocks =
      static_cast<std::size_t>((bins_ + kBlockBins - 1) / kBlockBins);
  while (blocks_.size() < blocks)
    blocks_.emplace_back(static_cast<std::size_t>(ranks_) * kBlockBins);
  column_stamp_.resize(blocks * kBlockBins, 0);
  block_stamp_.resize(blocks, 0);
}

void Heatmap::stamp(int bin) {
  column_stamp_[static_cast<std::size_t>(bin)] = ++writes_;
  block_stamp_[static_cast<std::size_t>(bin / kBlockBins)] = writes_;
}

void Heatmap::deposit(int rank, double start, double end, double perf) {
  VAPRO_CHECK(rank >= 0 && rank < ranks_);
  if (end <= start) return;
  // A NaN start fails the comparison.
  VAPRO_CHECK_MSG(start >= 0.0 && std::isfinite(end),
                  "fragment time [" << start << ", " << end
                                    << ") lies outside the heat map");
  const double last_bin = end / bin_seconds_;
  // Also refuses a quotient that overflowed to +inf.
  if (!(last_bin < max_bins_)) {
    ++refused_;
    return;
  }
  const int first = static_cast<int>(start / bin_seconds_);
  const int last = static_cast<int>(last_bin);
  ensure_bins(last);
  // Readers only ask for the lowest column written (writes()), so the
  // first one is all this call stamps.
  stamp(first);
  for (int b = first; b <= last; ++b) {
    const double lo = std::max(start, b * bin_seconds_);
    const double hi = std::min(end, (b + 1) * bin_seconds_);
    const double w = hi - lo;
    if (w <= 0.0) continue;
    Cell& c = at(rank, b);
    c.weighted += perf * w;
    c.weight += w;
  }
}

void Heatmap::merge(const Heatmap& other, int from) {
  VAPRO_CHECK(other.ranks_ == ranks_);
  VAPRO_CHECK(other.bin_seconds_ == bin_seconds_);
  VAPRO_CHECK(from >= 0);
  if (other.bins_ <= from) return;
  ensure_bins(other.bins_ - 1);
  stamp(from);
  for (int r = 0; r < ranks_; ++r) {
    for (int b = from; b < other.bins_; ++b) {
      Cell& c = at(r, b);
      const Cell& o = other.at(r, b);
      c.weighted += o.weighted;
      c.weight += o.weight;
    }
  }
}

void Heatmap::clear_from(int from) {
  VAPRO_CHECK(from >= 0);
  if (from >= bins_) return;
  stamp(from);
  for (int r = 0; r < ranks_; ++r)
    for (int b = from; b < bins_; ++b) at(r, b) = Cell{};
}

int Heatmap::first_column_written_after(std::uint64_t writes) const {
  if (writes >= writes_) return bins_;
  for (std::size_t k = 0; k < block_stamp_.size(); ++k) {
    if (block_stamp_[k] <= writes) continue;
    for (std::size_t b = k * kBlockBins; b < (k + 1) * kBlockBins; ++b)
      if (column_stamp_[b] > writes) return static_cast<int>(b);
  }
  return bins_;
}

bool Heatmap::has_data(int rank, int bin) const {
  if (bin >= bins_) return false;
  return at(rank, bin).weight > 0.0;
}

double Heatmap::cell(int rank, int bin) const {
  if (bin >= bins_) return std::numeric_limits<double>::quiet_NaN();
  return at(rank, bin).mean();
}

double Heatmap::weight(int rank, int bin) const {
  if (bin >= bins_) return 0.0;
  return at(rank, bin).weight;
}

double Heatmap::row_mean(int rank) const {
  double num = 0.0, den = 0.0;
  for (int b = 0; b < bins_; ++b) {
    num += at(rank, b).weighted;
    den += at(rank, b).weight;
  }
  return den > 0.0 ? num / den : std::numeric_limits<double>::quiet_NaN();
}

double Heatmap::overall_mean() const {
  double num = 0.0, den = 0.0;
  for (int r = 0; r < ranks_; ++r)
    for (int b = 0; b < bins_; ++b) den += at(r, b).weight;
  for (int r = 0; r < ranks_; ++r)
    for (int b = 0; b < bins_; ++b) num += at(r, b).weighted;
  return den > 0.0 ? num / den : std::numeric_limits<double>::quiet_NaN();
}

std::string Heatmap::render_ascii(int max_rows, int max_cols) const {
  // Dark = slow.  Index 0 is the slowest bucket.
  static constexpr char kRamp[] = {'#', '@', '%', '+', '-', '.', ' '};
  constexpr int kLevels = static_cast<int>(sizeof(kRamp));

  const int row_step = std::max(1, (ranks_ + max_rows - 1) / max_rows);
  const int col_step = std::max(1, (bins_ + max_cols - 1) / max_cols);
  std::ostringstream oss;
  oss << "normalized performance heat map (" << ranks_ << " ranks x " << bins_
      << " bins of " << bin_seconds_ << "s; '#'=slow, ' '=fast, '?'=no data)\n";
  for (int r0 = 0; r0 < ranks_; r0 += row_step) {
    oss << "rank ";
    oss.width(5);
    oss << r0 << " |";
    for (int b0 = 0; b0 < bins_; b0 += col_step) {
      double num = 0.0, den = 0.0;
      for (int r = r0; r < std::min(ranks_, r0 + row_step); ++r) {
        for (int b = b0; b < std::min(bins_, b0 + col_step); ++b) {
          num += at(r, b).weighted;
          den += at(r, b).weight;
        }
      }
      if (den <= 0.0) {
        oss << '?';
      } else {
        double perf = std::clamp(num / den, 0.0, 1.0);
        oss << kRamp[std::min(kLevels - 1, static_cast<int>(perf * kLevels))];
      }
    }
    oss << "|\n";
  }
  return oss.str();
}

bool Heatmap::write_csv(const std::string& path) const {
  util::CsvWriter csv(path);
  std::vector<std::string> header;
  header.push_back("rank\\time_s");
  for (int b = 0; b < bins_; ++b)
    header.push_back(util::fmt(b * bin_seconds_, 3));
  csv.write_row(header);
  for (int r = 0; r < ranks_; ++r) {
    std::vector<std::string> row;
    row.push_back(std::to_string(r));
    for (int b = 0; b < bins_; ++b) {
      double v = cell(r, b);
      row.push_back(std::isnan(v) ? "" : util::fmt(v, 4));
    }
    csv.write_row(row);
  }
  return csv.close();
}

namespace {

constexpr double kNoData = std::numeric_limits<double>::infinity();

// Labels the column suffix [col_lo, bins) of `map` as if it were the whole
// map: `regions` in canonical order (by first row-major cell, recorded in
// `first`), and each suffix column's lowest data cell in
// column_min[0, bins - col_lo).  With col_lo 0 this is the from-scratch
// pass; RegionCache calls it only at a col_lo no region crosses, so every
// region it finds is a region of the whole map.
//
// One pass on the calling thread: a BFS with 4-connectivity labels the low
// cells, then the stats accumulate in one flat row-major sweep, the
// summation order the %.17g equivalence fingerprint pins.
void label_suffix(const Heatmap& map, double threshold, int col_lo,
                  std::vector<VarianceRegion>* regions,
                  std::vector<std::pair<int, int>>* first, double* column_min) {
  const int ranks = map.ranks();
  const int cols = map.bins() - col_lo;
  const std::size_t cells = static_cast<std::size_t>(ranks) * cols;
  regions->clear();
  first->clear();
  if (cells == 0) return;
  auto idx = [cols](int r, int c) {
    return static_cast<std::size_t>(r) * cols + c;
  };

  // Low-cell mask and column minima.  Rows in order, so a tie keeps the
  // first row's cell.
  std::vector<std::uint8_t> low(cells, 0);
  std::fill_n(column_min, cols, kNoData);
  for (int r = 0; r < ranks; ++r) {
    for (int c = 0; c < cols;) {
      for (const Heatmap::Cell& cell : map.row_run(r, col_lo + c)) {
        const double v = cell.mean();
        if (!std::isnan(v)) {
          low[idx(r, c)] = v < threshold ? 1 : 0;
          if (v < column_min[c]) column_min[c] = v;
        }
        ++c;
      }
    }
  }

  // Component ids: the first unlabeled low cell in row-major order seeds
  // the next id, and the BFS from it labels its whole component.
  const auto width = static_cast<std::size_t>(cols);
  std::vector<std::int64_t> comp(cells, -1);
  std::size_t components = 0;
  std::vector<std::size_t> queue;
  for (std::size_t seed = 0; seed < cells; ++seed) {
    if (!low[seed] || comp[seed] >= 0) continue;
    const auto id = static_cast<std::int64_t>(components++);
    auto visit = [&](std::size_t i) {
      if (!low[i] || comp[i] >= 0) return;
      comp[i] = id;
      queue.push_back(i);
    };
    queue.clear();
    visit(seed);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t i = queue[head];
      const std::size_t c = i % width;
      if (i + width < cells) visit(i + width);
      if (i >= width) visit(i - width);
      if (c + 1 < width) visit(i + 1);
      if (c > 0) visit(i - 1);
    }
  }
  if (components == 0) return;

  // Region stats in flat row-major order.
  regions->resize(components);
  first->resize(components);
  std::vector<double> perf_weighted(components, 0.0);
  std::vector<double> weight_total(components, 0.0);
  std::vector<std::uint8_t> seen(components, 0);
  for (int r = 0; r < ranks; ++r) {
    for (int c = 0; c < cols;) {
      const std::span<const Heatmap::Cell> run = map.row_run(r, col_lo + c);
      for (std::size_t i = 0; i < run.size(); ++i, ++c) {
        const std::int64_t id = comp[idx(r, c)];
        if (id < 0) continue;
        const std::size_t k = static_cast<std::size_t>(id);
        const int b = col_lo + c;
        VarianceRegion& region = (*regions)[k];
        if (!seen[k]) {
          seen[k] = 1;
          region.rank_lo = region.rank_hi = r;
          region.bin_lo = region.bin_hi = b;
          (*first)[k] = {r, b};
        } else {
          region.rank_lo = std::min(region.rank_lo, r);
          region.rank_hi = std::max(region.rank_hi, r);
          region.bin_lo = std::min(region.bin_lo, b);
          region.bin_hi = std::max(region.bin_hi, b);
        }
        ++region.cells;
        const double perf = run[i].mean();
        const double w = run[i].weight;
        perf_weighted[k] += perf * w;
        weight_total[k] += w;
        region.impact_seconds += (1.0 - perf) * w;
      }
    }
  }
  for (std::size_t k = 0; k < components; ++k)
    (*regions)[k].mean_perf =
        weight_total[k] > 0.0 ? perf_weighted[k] / weight_total[k] : 1.0;
}

// The reported order: impact descending, ties broken by first row-major
// cell (the canonical id of a from-scratch pass).
bool reported_before(const VarianceRegion& a, std::pair<int, int> first_a,
                     const VarianceRegion& b, std::pair<int, int> first_b) {
  if (a.impact_seconds != b.impact_seconds)
    return a.impact_seconds > b.impact_seconds;
  return first_a < first_b;
}

}  // namespace

void RegionCache::update(const Heatmap& map) {
  const int bins = map.bins();
  // Columns the map grew by since the last update count as written.
  const int lowest =
      std::min(map.first_column_written_after(seen_writes_), bins_);
  // One column below the lowest written one: a region ending there may
  // now touch a low cell in the written column.
  int frontier = lowest >= bins ? bins : std::max(0, lowest - 1);
  // No cached region may straddle the frontier, or the suffix pass would
  // find only part of it.  Lowering the frontier can make another region
  // straddle it, so repeat until it stops moving.
  for (bool moved = true; moved;) {
    moved = false;
    for (const VarianceRegion& r : regions_)
      if (r.bin_hi >= frontier && r.bin_lo < frontier) {
        frontier = r.bin_lo;
        moved = true;
      }
  }

  column_min_.resize(static_cast<std::size_t>(bins), kNoData);
  std::vector<VarianceRegion> fresh;
  std::vector<std::pair<int, int>> fresh_first;
  label_suffix(map, threshold_, frontier, &fresh, &fresh_first,
               column_min_.data() + frontier);
  std::vector<std::size_t> order(fresh.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return reported_before(fresh[a], fresh_first[a], fresh[b], fresh_first[b]);
  });

  // Merge the re-labeled regions into the kept ones, which are already in
  // reported order.
  std::vector<VarianceRegion> regions;
  std::vector<std::pair<int, int>> first_cell;
  regions.reserve(regions_.size() + fresh.size());
  first_cell.reserve(regions_.size() + fresh.size());
  std::size_t kept = 0;
  auto skip_relabeled = [&] {
    while (kept < regions_.size() && regions_[kept].bin_hi >= frontier) ++kept;
  };
  auto take_kept = [&] {
    regions.push_back(regions_[kept]);
    first_cell.push_back(first_cell_[kept]);
    ++kept;
    skip_relabeled();
  };
  skip_relabeled();
  for (std::size_t k : order) {
    while (kept < regions_.size() &&
           reported_before(regions_[kept], first_cell_[kept], fresh[k],
                           fresh_first[k]))
      take_kept();
    regions.push_back(fresh[k]);
    first_cell.push_back(fresh_first[k]);
  }
  while (kept < regions_.size()) take_kept();
  regions_ = std::move(regions);
  first_cell_ = std::move(first_cell);

  relabeled_ = static_cast<std::size_t>(map.ranks()) * (bins - frontier);
  seen_writes_ = map.writes();
  bins_ = bins;
}

double RegionCache::worst_cell() const {
  double worst = 1.0;
  for (double m : column_min_)
    if (m < worst) worst = m;
  return worst;
}

std::vector<VarianceRegion> find_variance_regions(const Heatmap& map,
                                                  double threshold,
                                                  util::WorkerPool*) {
  RegionCache cache(threshold);
  cache.update(map);
  return cache.regions();
}

}  // namespace vapro::core
