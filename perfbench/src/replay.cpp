#include "replay.hpp"

#include <sstream>
#include <utility>

#include "src/core/clustering.hpp"
#include "src/core/detection.hpp"
#include "src/core/heatmap.hpp"

namespace perfbench {

using namespace vapro;

namespace {

// Times one layer call: accumulates into `acc` and, when tracing, records a
// span under the enclosing window span.
class LayerTimer {
 public:
  LayerTimer(Tracer* tracer, const char* name, long window, double& acc)
      : scope_(tracer, name, window), acc_(acc), t0_(wall_now()) {}
  ~LayerTimer() { acc_ += wall_now() - t0_; }

 private:
  Scope scope_;
  double& acc_;
  double t0_;
};

bool same_region(const core::VarianceRegion& a, const core::VarianceRegion& b) {
  return a.rank_lo == b.rank_lo && a.rank_hi == b.rank_hi &&
         a.bin_lo == b.bin_lo && a.bin_hi == b.bin_hi && a.cells == b.cells &&
         a.mean_perf == b.mean_perf && a.impact_seconds == b.impact_seconds;
}

}  // namespace

Replayer::Replayer(int ranks, const core::ServerOptions& opts,
                   bool regions_every_window, Tracer* tracer)
    : opts_(opts),
      regions_every_window_(regions_every_window),
      tracer_(tracer),
      stg_(opts.stg_mode),
      baseline_(opts.cluster.threshold),
      diagnoser_(opts.machine, opts.diagnosis) {
  if (opts_.analysis_threads > 1)
    pool_ = std::make_unique<util::WorkerPool>(
        static_cast<std::size_t>(opts_.analysis_threads));
  for (int k = 0; k < 3; ++k) maps_.emplace_back(ranks, opts.bin_seconds);
}

Replayer::~Replayer() = default;

void Replayer::window(core::FragmentBatch batch) {
  const long w = windows_;
  Scope window_scope(tracer_, "replay.window", w);
  {
    LayerTimer t(tracer_, "stg.adopt_fragments", w, seconds_.stg);
    for (const sim::InvocationInfo& info : batch.new_states)
      stg_.touch_vertex(info);
    stg_.adopt_fragments(std::move(batch.fragments));
  }
  core::ClusteringResult clusters;
  {
    LayerTimer t(tracer_, "clustering.cluster_stg_parallel", w,
                 seconds_.clustering);
    clusters = core::cluster_stg_parallel(stg_, opts_.cluster, pool_.get());
  }
  clusters_ += clusters.clusters.size();
  rare_ += clusters.rare_count();
  std::vector<core::NormalizedFragment> normalized;
  {
    LayerTimer t(tracer_, "detection.normalize_fragments", w,
                 seconds_.normalize);
    normalized = core::normalize_fragments(stg_, clusters, &baseline_);
  }
  {
    LayerTimer t(tracer_, "heatmap.deposit_fragments", w, seconds_.deposit);
    core::deposit_fragments(normalized, maps_[0], maps_[1], maps_[2]);
  }
  {
    LayerTimer t(tracer_, "detection.coverage_add", w, seconds_.coverage);
    coverage_.add(stg_, clusters);
  }
  if (opts_.run_diagnosis) {
    LayerTimer t(tracer_, "diagnosis.feed", w, seconds_.diagnosis);
    diagnoser_.feed(stg_, clusters);
  }
  {
    LayerTimer t(tracer_, "stg.clear_fragments", w, seconds_.stg);
    stg_.clear_fragments();
  }
  ++windows_;
  if (opts_.run_diagnosis && verdict_window_ == 0 && diagnoser_.finished())
    verdict_window_ = windows_;
  if (regions_every_window_) {
    LayerTimer t(tracer_, "heatmap.find_variance_regions", w, seconds_.regions);
    for (int k = 0; k < 3; ++k) regions(k);
    ++seconds_.region_passes;
  }
}

std::vector<core::VarianceRegion> Replayer::regions(int kind) {
  return core::find_variance_regions(maps_[static_cast<std::size_t>(kind)],
                                     opts_.variance_threshold, pool_.get());
}

bool Replayer::matches(const std::vector<core::VarianceRegion> server[3],
                       std::string* why) {
  std::vector<core::VarianceRegion> mine[3];
  {
    LayerTimer t(tracer_, "heatmap.find_variance_regions", windows_,
                 seconds_.regions);
    for (int k = 0; k < 3; ++k) mine[k] = regions(k);
    ++seconds_.region_passes;
  }
  final_regions_ = mine[0].size() + mine[1].size() + mine[2].size();
  for (int k = 0; k < 3; ++k) {
    bool same = mine[k].size() == server[k].size();
    for (std::size_t i = 0; same && i < mine[k].size(); ++i)
      same = same_region(mine[k][i], server[k][i]);
    if (!same) {
      std::ostringstream oss;
      oss << "kind " << k << ": replay found " << mine[k].size()
          << " regions, server " << server[k].size();
      *why = oss.str();
      return false;
    }
  }
  return true;
}

double Replayer::clusters_per_window() const {
  return windows_ ? static_cast<double>(clusters_) / windows_ : 0.0;
}

double Replayer::rare_per_window() const {
  return windows_ ? static_cast<double>(rare_) / windows_ : 0.0;
}

}  // namespace perfbench
