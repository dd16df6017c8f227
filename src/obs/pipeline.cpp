#include "src/obs/pipeline.hpp"

#include <sstream>

#include "src/obs/journal.hpp"

namespace vapro::obs {

double PipelineStats::total_seconds() const {
  double total = 0.0;
  for (double s : stage_seconds) total += s;
  return total;
}

double PipelineStats::tool_seconds() const {
  double total = 0.0;
  for (std::size_t s = 0; s < kStageCount; ++s)
    if (static_cast<Stage>(s) != Stage::kQueueWait) total += stage_seconds[s];
  return total;
}

std::size_t PipelineStats::bound_stage() const {
  std::size_t best = 0;
  for (std::size_t s = 1; s < kStageCount; ++s)
    if (stage_seconds[s] > stage_seconds[best]) best = s;
  return best;
}

void CollectingSink::on_window(const PipelineStats& stats) {
  windows_.push_back(stats);
}

std::string CollectingSink::to_json() const {
  std::ostringstream oss;
  oss << '[';
  bool first = true;
  for (const PipelineStats& w : windows_) {
    if (!first) oss << ',';
    first = false;
    oss << "{\"window\":" << w.window
        << ",\"virtual_time\":" << json_number(w.virtual_time)
        << ",\"fragments_drained\":" << w.fragments_drained
        << ",\"carry_ins\":" << w.carry_ins
        << ",\"new_states\":" << w.new_states
        << ",\"clusters_formed\":" << w.clusters_formed
        << ",\"rare_clusters\":" << w.rare_clusters
        << ",\"cluster_shards\":" << w.cluster_shards
        << ",\"diagnosis_stage\":" << w.diagnosis_stage << ",\"stages\":{";
    // The tool-time stages in order, then queue_wait (stage 0), which
    // total_seconds (the window's tool time) leaves out.
    for (std::size_t k = 1; k <= kStageCount; ++k) {
      const std::size_t s = k % kStageCount;
      if (k > 1) oss << ',';
      oss << '"' << kStageNames[s] << "\":" << json_number(w.stage_seconds[s]);
    }
    oss << "},\"total_seconds\":" << json_number(w.tool_seconds()) << '}';
  }
  oss << ']';
  return oss.str();
}

}  // namespace vapro::obs
