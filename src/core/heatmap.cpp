#include "src/core/heatmap.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <sstream>

#include "src/util/check.hpp"
#include "src/util/csv.hpp"
#include "src/util/pipeline.hpp"
#include "src/util/table.hpp"

namespace vapro::core {

Heatmap::Heatmap(int ranks, double bin_seconds)
    : ranks_(ranks), bin_seconds_(bin_seconds) {
  VAPRO_CHECK(ranks > 0 && bin_seconds > 0.0);
}

void Heatmap::ensure_bins(int bin) {
  if (bin < bins_) return;
  const int new_bins = bin + 1;
  if (new_bins > stride_) {
    const int new_stride = std::max(new_bins, 2 * stride_);
    const std::size_t cells = static_cast<std::size_t>(ranks_) * new_stride;
    std::vector<double> weighted(cells, 0.0);
    std::vector<double> weights(cells, 0.0);
    for (int r = 0; r < ranks_; ++r) {
      const std::size_t to = static_cast<std::size_t>(r) * new_stride;
      std::copy_n(weighted_.begin() + index(r, 0), bins_, weighted.begin() + to);
      std::copy_n(weights_.begin() + index(r, 0), bins_, weights.begin() + to);
    }
    weighted_ = std::move(weighted);
    weights_ = std::move(weights);
    stride_ = new_stride;
  }
  column_stamp_.resize(static_cast<std::size_t>(new_bins), 0);
  bins_ = new_bins;
}

void Heatmap::deposit(int rank, double start, double end, double perf) {
  VAPRO_CHECK(rank >= 0 && rank < ranks_);
  if (end <= start) return;
  // A NaN fails both comparisons.
  const double first_bin = start / bin_seconds_;
  const double last_bin = end / bin_seconds_;
  VAPRO_CHECK_MSG(first_bin >= 0.0 && last_bin < kMaxBins,
                  "fragment time [" << start << ", " << end
                                    << ") lies outside the heat map");
  const int first = static_cast<int>(first_bin);
  const int last = static_cast<int>(last_bin);
  ensure_bins(last);
  // Readers only ask for the lowest column written (writes()), so the
  // first one is all this call stamps.
  column_stamp_[static_cast<std::size_t>(first)] = ++writes_;
  for (int b = first; b <= last; ++b) {
    const double lo = std::max(start, b * bin_seconds_);
    const double hi = std::min(end, (b + 1) * bin_seconds_);
    const double w = hi - lo;
    if (w <= 0.0) continue;
    weighted_[index(rank, b)] += perf * w;
    weights_[index(rank, b)] += w;
  }
}

void Heatmap::merge(const Heatmap& other, int from) {
  VAPRO_CHECK(other.ranks_ == ranks_);
  VAPRO_CHECK(other.bin_seconds_ == bin_seconds_);
  VAPRO_CHECK(from >= 0);
  if (other.bins_ <= from) return;
  ensure_bins(other.bins_ - 1);
  column_stamp_[static_cast<std::size_t>(from)] = ++writes_;
  for (int r = 0; r < ranks_; ++r) {
    for (int b = from; b < other.bins_; ++b) {
      weighted_[index(r, b)] += other.weighted_[other.index(r, b)];
      weights_[index(r, b)] += other.weights_[other.index(r, b)];
    }
  }
}

void Heatmap::clear_from(int from) {
  VAPRO_CHECK(from >= 0);
  if (from >= bins_) return;
  column_stamp_[static_cast<std::size_t>(from)] = ++writes_;
  for (int r = 0; r < ranks_; ++r) {
    std::fill_n(weighted_.begin() + index(r, from), bins_ - from, 0.0);
    std::fill_n(weights_.begin() + index(r, from), bins_ - from, 0.0);
  }
}

int Heatmap::first_column_written_after(std::uint64_t writes) const {
  if (writes >= writes_) return bins_;
  for (int b = 0; b < bins_; ++b)
    if (column_stamp_[static_cast<std::size_t>(b)] > writes) return b;
  return bins_;
}

bool Heatmap::has_data(int rank, int bin) const {
  if (bin >= bins_) return false;
  return weights_[index(rank, bin)] > 0.0;
}

double Heatmap::cell(int rank, int bin) const {
  if (!has_data(rank, bin)) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t i = index(rank, bin);
  return weighted_[i] / weights_[i];
}

double Heatmap::weight(int rank, int bin) const {
  if (bin >= bins_) return 0.0;
  return weights_[index(rank, bin)];
}

double Heatmap::row_mean(int rank) const {
  double num = 0.0, den = 0.0;
  for (int b = 0; b < bins_; ++b) {
    num += weighted_[index(rank, b)];
    den += weights_[index(rank, b)];
  }
  return den > 0.0 ? num / den : std::numeric_limits<double>::quiet_NaN();
}

double Heatmap::overall_mean() const {
  double num = 0.0, den = 0.0;
  for (int r = 0; r < ranks_; ++r)
    for (int b = 0; b < bins_; ++b) den += weights_[index(r, b)];
  for (int r = 0; r < ranks_; ++r)
    for (int b = 0; b < bins_; ++b) num += weighted_[index(r, b)];
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
          num += weighted_[index(r, b)];
          den += weights_[index(r, b)];
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

// First row of stripe `s` when `ranks` rows split into `stripes` stripes
// (balanced: sizes differ by at most one, empty only when stripes > ranks).
int stripe_begin(int ranks, int stripes, int s) {
  return static_cast<int>((static_cast<long long>(ranks) * s) / stripes);
}

// Per-stripe connected-component labeling: BFS with 4-connectivity over
// low cells, CONFINED to the stripe's rows [row_lo, row_hi).  Writes only
// this stripe's rows of `label` (labels are stripe-local, starting at 0)
// and returns the number of local components — so concurrent stripes never
// touch the same memory.
std::size_t label_stripe(const std::vector<std::uint8_t>& low, int bins,
                         int row_lo, int row_hi,
                         std::vector<std::int64_t>& label) {
  auto idx = [bins](int r, int b) {
    return static_cast<std::size_t>(r) * bins + b;
  };
  std::size_t next_label = 0;
  std::deque<std::pair<int, int>> frontier;
  for (int r = row_lo; r < row_hi; ++r) {
    for (int b = 0; b < bins; ++b) {
      if (!low[idx(r, b)] || label[idx(r, b)] >= 0) continue;
      const std::int64_t id = static_cast<std::int64_t>(next_label++);
      label[idx(r, b)] = id;
      frontier.assign(1, {r, b});
      while (!frontier.empty()) {
        auto [cr, cb] = frontier.front();
        frontier.pop_front();
        constexpr int dr[] = {1, -1, 0, 0};
        constexpr int db[] = {0, 0, 1, -1};
        for (int k = 0; k < 4; ++k) {
          const int nr = cr + dr[k], nb = cb + db[k];
          if (nr < row_lo || nr >= row_hi || nb < 0 || nb >= bins) continue;
          if (!low[idx(nr, nb)] || label[idx(nr, nb)] >= 0) continue;
          label[idx(nr, nb)] = id;
          frontier.emplace_back(nr, nb);
        }
      }
    }
  }
  return next_label;
}

// Path-halving find on the boundary-merge union-find.
std::size_t uf_find(std::vector<std::size_t>& parent, std::size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

constexpr double kNoData = std::numeric_limits<double>::infinity();

// Labels the column suffix [col_lo, bins) of `map` as if it were the whole
// map: `regions` in canonical order (by first row-major cell, recorded in
// `first`), and each suffix column's lowest data cell in
// column_min[0, bins - col_lo).  With col_lo 0 this is the from-scratch
// pass; RegionCache calls it only at a col_lo no region crosses, so every
// region it finds is a region of the whole map.
//
// The sharded pass splits rows into contiguous rank stripes, one task per
// stripe; one stripe IS the serial path (same code, no special case).
// Determinism argument: stripe labeling writes only stripe-local state,
// the boundary merge and everything after run serially in fixed row-major
// order, and components are renumbered by first row-major cell — so the
// output is a pure function of the map, independent of the stripe count
// and of scheduling.
void label_suffix(const Heatmap& map, double threshold, int col_lo,
                  util::WorkerPool* pool, std::vector<VarianceRegion>* regions,
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
  const int stripes =
      pool && pool->lanes() > 1
          ? static_cast<int>(
                std::min<std::size_t>(pool->lanes(),
                                      static_cast<std::size_t>(ranks)))
          : 1;

  // Pass 1 (sharded): low-cell mask, per-stripe column minima, and
  // stripe-confined component labeling.
  std::vector<std::uint8_t> low(cells, 0);
  std::vector<std::int64_t> label(cells, -1);
  std::vector<std::size_t> stripe_labels(static_cast<std::size_t>(stripes), 0);
  std::vector<double> stripe_min(static_cast<std::size_t>(stripes) * cols,
                                 kNoData);
  auto run_stripe = [&](std::size_t s) {
    const int row_lo = stripe_begin(ranks, stripes, static_cast<int>(s));
    const int row_hi = stripe_begin(ranks, stripes, static_cast<int>(s) + 1);
    double* mins = stripe_min.data() + s * cols;
    for (int r = row_lo; r < row_hi; ++r) {
      for (int c = 0; c < cols; ++c) {
        const double v = map.cell(r, col_lo + c);
        if (std::isnan(v)) continue;
        low[idx(r, c)] = v < threshold ? 1 : 0;
        if (v < mins[c]) mins[c] = v;
      }
    }
    stripe_labels[s] = label_stripe(low, cols, row_lo, row_hi, label);
  };
  if (stripes == 1) {
    run_stripe(0);
  } else {
    const std::size_t failed = pool->run(
        static_cast<std::size_t>(stripes),
        [&](std::size_t s, std::size_t) { run_stripe(s); });
    if (failed > 0) {
      // Contained task failure: redo the whole pass serially (nothing
      // outside the scratch vectors was touched, so this is equivalent).
      std::fill(low.begin(), low.end(), 0);
      std::fill(label.begin(), label.end(), -1);
      std::fill(stripe_min.begin(), stripe_min.end(), kNoData);
      for (int s = 0; s < stripes; ++s)
        run_stripe(static_cast<std::size_t>(s));
    }
  }
  // Stripes in row order, so a tie keeps the first row's cell, as one
  // stripe would.
  for (int c = 0; c < cols; ++c) {
    double m = kNoData;
    for (int s = 0; s < stripes; ++s)
      if (stripe_min[static_cast<std::size_t>(s) * cols + c] < m)
        m = stripe_min[static_cast<std::size_t>(s) * cols + c];
    column_min[c] = m;
  }

  // Pass 2 (serial): globalize stripe-local labels by prefix offsets.
  std::vector<std::size_t> offset(static_cast<std::size_t>(stripes) + 1, 0);
  for (int s = 0; s < stripes; ++s)
    offset[s + 1] = offset[s] + stripe_labels[s];
  const std::size_t total_labels = offset[stripes];
  if (total_labels == 0) return;
  for (int s = 1; s < stripes; ++s) {
    const int row_lo = stripe_begin(ranks, stripes, s);
    const int row_hi = stripe_begin(ranks, stripes, s + 1);
    if (offset[s] == 0) continue;
    for (int r = row_lo; r < row_hi; ++r)
      for (int c = 0; c < cols; ++c)
        if (label[idx(r, c)] >= 0)
          label[idx(r, c)] += static_cast<std::int64_t>(offset[s]);
  }

  // Pass 3 (serial): stitch components across stripe boundaries — a low
  // cell vertically adjacent to a low cell in the stripe above joins its
  // component.  Visited in ascending (stripe, column) order, but
  // union-find connectivity is order-independent anyway.
  std::vector<std::size_t> parent(total_labels);
  for (std::size_t i = 0; i < total_labels; ++i) parent[i] = i;
  for (int s = 1; s < stripes; ++s) {
    const int r = stripe_begin(ranks, stripes, s);
    if (r == 0 || r >= ranks) continue;  // empty stripe: no boundary
    for (int c = 0; c < cols; ++c) {
      if (!low[idx(r, c)] || !low[idx(r - 1, c)]) continue;
      const std::size_t a =
          uf_find(parent, static_cast<std::size_t>(label[idx(r - 1, c)]));
      const std::size_t b =
          uf_find(parent, static_cast<std::size_t>(label[idx(r, c)]));
      if (a != b) parent[b] = a;
    }
  }

  // Pass 4 (serial): canonical component ids in order of each component's
  // first row-major cell — the id a single-stripe run would have assigned.
  std::vector<std::int64_t> comp_of_root(total_labels, -1);
  std::size_t components = 0;
  std::vector<std::int64_t> comp(cells, -1);
  for (std::size_t i = 0; i < cells; ++i) {
    if (label[i] < 0) continue;
    const std::size_t root = uf_find(parent, static_cast<std::size_t>(label[i]));
    if (comp_of_root[root] < 0)
      comp_of_root[root] = static_cast<std::int64_t>(components++);
    comp[i] = comp_of_root[root];
  }

  // Pass 5 (serial): accumulate region stats in flat row-major order.
  // This order is the SAME for every stripe count — per-stripe partial
  // sums would differ between thread counts in the last bit of a double,
  // which the %.17g equivalence fingerprint would catch.
  regions->resize(components);
  first->resize(components);
  std::vector<double> perf_weighted(components, 0.0);
  std::vector<double> weight_total(components, 0.0);
  std::vector<std::uint8_t> seen(components, 0);
  for (int r = 0; r < ranks; ++r) {
    for (int c = 0; c < cols; ++c) {
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
      const double perf = map.cell(r, b);
      const double w = map.weight(r, b);
      perf_weighted[k] += perf * w;
      weight_total[k] += w;
      region.impact_seconds += (1.0 - perf) * w;
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

void RegionCache::update(const Heatmap& map, util::WorkerPool* pool) {
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
  label_suffix(map, threshold_, frontier, pool, &fresh, &fresh_first,
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
                                                  util::WorkerPool* pool) {
  RegionCache cache(threshold);
  cache.update(map, pool);
  return cache.regions();
}

}  // namespace vapro::core
