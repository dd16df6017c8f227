// Variance diagnosis (paper §4.2–4.3).
//
// Two quantification paths:
//  * formula-based — time-quantified factors convert their counters to
//    seconds directly (breakdown.hpp);
//  * OLS-based — count-only factors (page faults, context switches,
//    signals) get a seconds-per-event cost from an ordinary least squares
//    regression of fragment time on factor values, guarded by the
//    Farrar–Glauber multicollinearity test; only coefficients with
//    p < 0.05 survive.
//
// Contribution analysis (§4.3): within each fixed-workload cluster,
// fragments costing more than `abnormal_ratio` × the fastest are abnormal;
// a factor's contribution is the summed excess of its per-fragment time
// over its mean in the normal fragments.  The progressive diagnoser walks
// the breakdown tree stage by stage, keeping only factors that contribute
// more than `major_share` of the variance, and asks for finer-grained
// counters for the next stage — so only a handful of programmable counters
// is ever active at once.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/breakdown.hpp"
#include "src/core/clustering.hpp"
#include "src/core/stg.hpp"
#include "src/obs/context.hpp"

namespace vapro::core {

// Optional region of interest: §3.5 lets the user select a heat-map region
// for diagnosis.  When set, only abnormal fragments inside the region
// contribute to factor attribution; the normal (reference) fragments are
// still drawn from the whole cluster — the "twins" live outside the region.
struct FocusRegion {
  int rank_lo = 0;
  int rank_hi = 1 << 30;
  double t_lo = 0.0;
  double t_hi = 1e300;

  bool contains(int rank, double start, double end) const {
    return rank >= rank_lo && rank <= rank_hi && end > t_lo && start < t_hi;
  }
};

struct DiagnosisOptions {
  double abnormal_ratio = 1.2;     // paper's k_a
  double major_share = 0.25;       // contribution share for "major factor"
  double significance_alpha = 0.05;
  int min_cluster_fragments = 8;   // clusters smaller than this are skipped
  // Restrict attribution to a user-selected heat-map region.
  std::optional<FocusRegion> focus;
  // Fragments below this STG index are overlap carry-ins (Fig 8): they
  // shape cluster references/minima but never contribute variance twice.
  std::size_t live_begin = 0;
  // Self-telemetry (src/obs): stage-descent events and counters; null
  // disables.  Borrowed, must outlive the diagnoser.
  obs::ObsContext* obs = nullptr;
};

// --- §4.2: full OLS quantification (also the formula-vs-OLS check). ---

struct OlsFactorEstimate {
  FactorId id = FactorId::kRoot;
  // Estimated total seconds attributable to this factor over the fragments.
  double total_seconds = 0.0;
  double p_value = 1.0;
  bool significant = false;
  // True when the factor was dropped for multicollinearity and its effect
  // recovered through its linear relation with the kept factors.
  bool recovered_from_collinearity = false;
  // True when the factor had no variance across fragments (nothing to fit).
  bool constant = false;
};

struct OlsQuantification {
  bool ok = false;
  double r_squared = 0.0;
  std::vector<OlsFactorEstimate> estimates;
};

// Regresses fragment durations on min-max-normalized factor values for the
// fragments of one cluster.
OlsQuantification ols_quantify(const Stg& stg,
                               std::span<const std::size_t> members,
                               const std::vector<FactorId>& factors,
                               const pmu::MachineParams& machine,
                               double alpha = 0.05);

// --- §4.3: contribution analysis over one window. ---

struct FactorContribution {
  FactorId id = FactorId::kRoot;
  double contribution_seconds = 0.0;  // Σ_abnormal (t_f − ref_f)
  double duration_seconds = 0.0;      // abnormal time where f is major
  bool major = false;
};

struct ContributionWindow {
  std::vector<FactorContribution> factors;
  double total_variance_seconds = 0.0;  // Σ_abnormal (t − fastest)
  double abnormal_seconds = 0.0;        // Σ duration of abnormal fragments
  double observed_seconds = 0.0;        // Σ duration of all fragments used
  std::size_t abnormal_fragments = 0;
};

// Computes contributions of `factors` over every usable computation cluster
// in the window.  Per-event costs of count-only factors are fitted per
// cluster by OLS on the residual time (duration − Σ quantified factors).
ContributionWindow analyze_contributions(const Stg& stg,
                                         const ClusteringResult& clusters,
                                         const std::vector<FactorId>& factors,
                                         const pmu::MachineParams& machine,
                                         const DiagnosisOptions& opts);

// --- the progressive state machine. ---

struct DiagnosisFinding {
  FactorId id = FactorId::kRoot;
  int stage = 0;
  double contribution_seconds = 0.0;
  double share = 0.0;           // of the window's total variance
  double duration_seconds = 0.0;
  double duration_share = 0.0;  // of the window's observed time
  bool major = false;
};

struct DiagnosisReport {
  std::vector<DiagnosisFinding> findings;  // exploration order
  std::vector<FactorId> culprits;          // deepest major factors
  double total_variance_seconds = 0.0;
  std::string summary() const;
};

class ProgressiveDiagnoser {
 public:
  ProgressiveDiagnoser(pmu::MachineParams machine, DiagnosisOptions opts);

  // Programmable counters the current stage needs — the client must have
  // these active for the fed window's fragments to be diagnosable.
  std::vector<pmu::Counter> counters_needed() const;

  // Feeds one analysis window.  Advances to the next stage when the window
  // contained enough abnormal fragments to decide major factors.
  // `live_begin`: first non-carry fragment index (overlapping windows).
  void feed(const Stg& stg, const ClusteringResult& clusters,
            std::size_t live_begin = 0);

  bool finished() const { return finished_; }
  int stage() const { return stage_; }
  const DiagnosisReport& report() const { return report_; }

  // Restarts the diagnosis from stage 1, optionally restricted to a
  // user-selected heat-map region (§3.5's region-of-interest flow).
  void restart(std::optional<FocusRegion> focus = std::nullopt);

 private:
  pmu::MachineParams machine_;
  DiagnosisOptions opts_;
  std::vector<FactorId> frontier_;
  int stage_ = 1;
  bool finished_ = false;
  DiagnosisReport report_;
};

}  // namespace vapro::core
