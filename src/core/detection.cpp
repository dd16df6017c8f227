#include "src/core/detection.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/check.hpp"

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
  auto [it, inserted] = mins_.try_emplace(key_of(c), window_min);
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
      nf.frag_idx = idx;
      nf.rank = cols.rank(idx);
      nf.start = cols.start_time(idx);
      nf.end = cols.end_time(idx);
      nf.kind = cols.kind(idx);
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
    for (std::size_t idx : c.members) {
      if (idx < live_begin) continue;  // carry-in: already counted
      const auto k = static_cast<std::size_t>(cols.kind(idx));
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

}  // namespace vapro::core
