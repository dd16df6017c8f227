#include "src/core/detection.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>

#include "src/util/check.hpp"
#include "src/util/pipeline.hpp"

namespace vapro::core {

std::uint64_t ClusterBaseline::key_of(const Cluster& c) const {
  // Quantize the seed norm logarithmically with the clustering threshold as
  // the quantum: two windows' clusters of the same workload class land in
  // the same bucket, adjacent classes (≥ threshold apart) do not.
  const double n = std::max(c.seed_norm, 1e-12);
  const std::int64_t bucket =
      static_cast<std::int64_t>(std::floor(std::log(n) / std::log1p(norm_quantum_)));
  std::uint64_t h = Stg::edge_key(c.from, c.to);
  h ^= static_cast<std::uint64_t>(bucket) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(c.kind) << 61;
  return h;
}

double ClusterBaseline::update(const Cluster& c, double window_min) {
  auto [it, inserted] = mins_[static_cast<std::size_t>(c.kind)].try_emplace(
      key_of(c), window_min);
  if (!inserted) it->second = std::min(it->second, window_min);
  return it->second;
}

std::vector<NormalizedFragment> normalize_fragments(
    const Stg& stg, const ClusteringResult& clusters,
    ClusterBaseline* baseline, std::size_t live_begin) {
  const FragmentColumns& cols = stg.fragments();
  std::vector<NormalizedFragment> out;
  for (const Cluster& c : clusters.clusters) {
    if (c.rare) continue;
    double window_min = std::numeric_limits<double>::infinity();
    for (std::size_t idx : c.members)
      window_min = std::min(window_min, cols.duration(idx));
    double fastest = baseline ? baseline->update(c, window_min) : window_min;
    if (fastest <= 0.0) continue;  // zero-duration cluster: nothing to rank
    for (std::size_t idx : c.members) {
      if (idx < live_begin) continue;  // carry-in: context only
      NormalizedFragment nf;
      nf.rank = cols.rank(idx);
      nf.start = cols.start_time(idx);
      nf.end = cols.end_time(idx);
      nf.kind = c.kind;
      nf.perf = cols.duration(idx) > 0.0
                    ? std::min(1.0, fastest / cols.duration(idx))
                    : 1.0;
      out.push_back(nf);
    }
  }
  return out;
}

void CoverageAccumulator::add(const Stg& stg, const ClusteringResult& clusters,
                              std::size_t live_begin) {
  const FragmentColumns& cols = stg.fragments();
  for (const Cluster& c : clusters.clusters) {
    const auto k = static_cast<std::size_t>(c.kind);
    for (std::size_t idx : c.members) {
      if (idx < live_begin) continue;  // carry-in: already counted
      observed[k] += cols.duration(idx);
      if (!c.rare) covered[k] += cols.duration(idx);
    }
  }
}

double CoverageAccumulator::coverage(double total_execution_seconds) const {
  if (total_execution_seconds <= 0.0) return 0.0;
  return std::min(1.0, covered_total() / total_execution_seconds);
}

void deposit_fragments(std::span<const NormalizedFragment> fragments,
                       Heatmap& computation, Heatmap& communication,
                       Heatmap& io) {
  for (const NormalizedFragment& nf : fragments) {
    switch (nf.kind) {
      case FragmentKind::kComputation:
        computation.deposit(nf.rank, nf.start, nf.end, nf.perf);
        break;
      case FragmentKind::kCommunication:
        communication.deposit(nf.rank, nf.start, nf.end, nf.perf);
        break;
      case FragmentKind::kIo:
        io.deposit(nf.rank, nf.start, nf.end, nf.perf);
        break;
    }
  }
}

namespace {

// detect_fragments for the clusters of one kind.  It writes only that
// kind's map, coverage slot and baseline map.  The coverage sums are
// accumulated in locals that start from the slot's value and are stored
// back once: the same adds in the same order, without the three kinds'
// tasks writing neighbouring doubles on every member.
void detect_kind(FragmentKind kind, const FragmentColumns& cols,
                 const ClusteringResult& clusters, ClusterBaseline* baseline,
                 std::size_t live_begin, CoverageAccumulator& coverage,
                 Heatmap& map) {
  const auto k = static_cast<std::size_t>(kind);
  double covered = coverage.covered[k];
  double observed = coverage.observed[k];
  for (const Cluster& c : clusters.clusters) {
    if (c.kind != kind) continue;
    if (c.rare) {
      for (std::size_t idx : c.members)
        if (idx >= live_begin) observed += cols.duration(idx);
      continue;
    }
    double window_min = std::numeric_limits<double>::infinity();
    for (std::size_t idx : c.members)
      window_min = std::min(window_min, cols.duration(idx));
    const double fastest =
        baseline ? baseline->update(c, window_min) : window_min;
    for (std::size_t idx : c.members) {
      if (idx < live_begin) continue;  // carry-in: context only
      const double d = cols.duration(idx);
      observed += d;
      covered += d;
      // A zero-duration cluster has nothing to rank.
      if (fastest > 0.0)
        map.deposit(cols.rank(idx), cols.start_time(idx), cols.end_time(idx),
                    d > 0.0 ? std::min(1.0, fastest / d) : 1.0);
    }
  }
  coverage.covered[k] = covered;
  coverage.observed[k] = observed;
}

}  // namespace

void detect_fragments(const Stg& stg, const ClusteringResult& clusters,
                      ClusterBaseline* baseline, std::size_t live_begin,
                      CoverageAccumulator& coverage, Heatmap& computation,
                      Heatmap& communication, Heatmap& io,
                      util::WorkerPool* pool) {
  const FragmentColumns& cols = stg.fragments();
  Heatmap* const maps[3] = {&computation, &communication, &io};
  const auto run_kind = [&](std::size_t k) {
    detect_kind(static_cast<FragmentKind>(k), cols, clusters, baseline,
                live_begin, coverage, *maps[k]);
  };
  if (!pool || pool->lanes() == 1) {
    for (std::size_t k = 0; k < 3; ++k) run_kind(k);
    return;
  }
  std::exception_ptr failed[3];
  pool->run(3, [&](std::size_t k, std::size_t) {
    try {
      run_kind(k);
    } catch (...) {
      failed[k] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : failed)
    if (e) std::rethrow_exception(e);
}

}  // namespace vapro::core
