// Detection-quality scoring: what Vapro concluded vs what was injected.
//
// The noise injectors know exactly which (rank range, time window) they
// perturbed and which factor class the perturbation belongs to
// (sim::GroundTruthEvent).  This module scores a run's conclusions against
// that ground truth with window-overlap matching:
//
//   * a detection (variance region) matches a truth when their rank ranges
//     intersect, their time windows overlap by more than
//     QualityMatchOptions::min_overlap_seconds, and the detection's
//     heat-map category is one the truth can plausibly surface in (an IO
//     injection is only "found" by an IO-map region — a shared-resource
//     injection spans every rank and most of the run, so without the
//     category constraint any unrelated region would claim it);
//   * precision  = matched detections / detections  (1 when nothing was
//     detected — an empty answer contains no false positives);
//   * recall     = matched truths / truths          (1 when nothing was
//     injected — there was nothing to miss);
//   * F1         = harmonic mean of the two (0 when both are 0);
//   * top-factor accuracy = truths whose expected factor class appears in
//     the run's observed top factors / truths that carry an expected set.
//
// Factor classes are plain strings so this layer stays free of core/sim
// types: diagnosis culprits score under their factor_name() ("dram_bound",
// "involuntary_cs", ...), and category-level evidence (IO noise should
// surface as an IO-category region) under "category:io" etc.  The
// core-side adapter (src/core/scoreboard) builds both sides.
//
// Scores aggregate per (app × noise) cell into a QualityScoreboard, which
// renders the /v1/quality JSON body, publishes vapro.quality.* gauges, and
// journals "quality"/"quality_cell" events (journal schema v2) so alert
// rules like `quality_recall < 0.8 for 2` can fire on regressions.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/journal.hpp"
#include "src/obs/metrics.hpp"

namespace vapro::obs {

class ExpositionServer;

// One injected perturbation, already resolved to ranks/time by the sim
// layer (sim::GroundTruthEvent → this via core::scoreboard).
struct QualityTruth {
  double t_lo = 0.0;
  double t_hi = 0.0;
  int rank_lo = 0;
  int rank_hi = 0;  // inclusive
  // Factor classes that count as a correct diagnosis for this injection;
  // empty = the truth carries no diagnosable expectation (it still counts
  // for detection precision/recall).
  std::vector<std::string> expected_factors;
  // Heat-map categories a detection may match this truth from ("io",
  // "communication", "computation"); empty = any category.
  std::vector<std::string> allowed_categories;
};

// One detected variance region, in scoreboard terms.
struct QualityDetection {
  double t_lo = 0.0;
  double t_hi = 0.0;
  int rank_lo = 0;
  int rank_hi = 0;  // inclusive
  double impact_seconds = 0.0;
  // Heat-map category the region came from; empty = unspecified (matches
  // any truth's allowed set).
  std::string category;
};

struct QualityMatchOptions {
  // Time overlap must exceed this many seconds (0 = any positive overlap).
  double min_overlap_seconds = 0.0;
};

// True when `d` overlaps `t` in both rank range and time window, and `d`'s
// category is in `t`'s allowed set (either side empty = no constraint).
bool quality_match(const QualityTruth& t, const QualityDetection& d,
                   const QualityMatchOptions& opts = {});

struct QualityScore {
  std::size_t truths = 0;
  std::size_t detections = 0;
  std::size_t matched_truths = 0;      // truths found by >= 1 detection
  std::size_t matched_detections = 0;  // detections explained by >= 1 truth
  std::size_t diagnosis_cases = 0;     // truths with a non-empty expected set
  std::size_t diagnosis_hits = 0;      // ... whose class was named top factor

  double precision() const;
  double recall() const;
  double f1() const;
  double top_factor_accuracy() const;

  // Micro-average accumulation (counts add; the ratios re-derive).
  void merge(const QualityScore& other);
};

// Scores one run: overlap-matches `detections` against `truths`, then
// checks each truth's expected factor classes against `top_factors` — the
// run's observed top factors (diagnosis culprit names plus
// "category:<kind>" tags for categories containing matched detections).
QualityScore score_quality(const std::vector<QualityTruth>& truths,
                           const std::vector<QualityDetection>& detections,
                           const std::vector<std::string>& top_factors,
                           const QualityMatchOptions& opts = {});

struct QualityCell {
  std::string app;
  std::string noise;  // noise-kind tag ("cpu", "io", ...) or "none"
  QualityScore score;
};

// Per-(app × noise) scoreboard.  Thread-safe: `add` may race with the
// exposition serve thread rendering /v1/quality.
class QualityScoreboard {
 public:
  void add(QualityCell cell);
  std::vector<QualityCell> cells() const;
  QualityScore aggregate() const;

  // {"schema":"vapro.quality","cells":[...],"aggregate":{...}} — numbers
  // via json_number like every other machine surface, so the live
  // endpoint serves byte-for-byte the values BENCH_quality.json records.
  std::string render_json() const;

  // vapro.quality.{precision,recall,f1,top_factor_accuracy} aggregate
  // gauges plus per-cell vapro.quality.cell.<app>.<noise>.<metric>.
  void publish_gauges(MetricsRegistry& metrics) const;

  // One "quality_cell" event per cell plus one aggregate "quality" event
  // whose field names double as alert-rule metrics (quality_recall, ...).
  void journal(Journal& journal, double virtual_time) const;

  // Registers GET /v1/quality serving render_json().  Borrowed: this
  // scoreboard must outlive the server (or remove_route first).
  void attach_route(ExpositionServer& server);

 private:
  mutable std::mutex mu_;
  std::vector<QualityCell> cells_;
};

}  // namespace vapro::obs
