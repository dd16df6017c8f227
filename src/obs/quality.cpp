#include "src/obs/quality.hpp"

#include <algorithm>
#include <sstream>

#include "src/obs/exposition.hpp"

namespace vapro::obs {

namespace {

void append_score_fields(std::ostringstream& oss, const QualityScore& s) {
  oss << "\"truths\":" << s.truths << ",\"detections\":" << s.detections
      << ",\"matched_truths\":" << s.matched_truths
      << ",\"matched_detections\":" << s.matched_detections
      << ",\"diagnosis_cases\":" << s.diagnosis_cases
      << ",\"diagnosis_hits\":" << s.diagnosis_hits
      << ",\"precision\":" << json_number(s.precision())
      << ",\"recall\":" << json_number(s.recall())
      << ",\"f1\":" << json_number(s.f1())
      << ",\"top_factor_accuracy\":" << json_number(s.top_factor_accuracy());
}

}  // namespace

bool quality_match(const QualityTruth& t, const QualityDetection& d,
                   const QualityMatchOptions& opts) {
  if (d.rank_hi < t.rank_lo || d.rank_lo > t.rank_hi) return false;
  if (!t.allowed_categories.empty() && !d.category.empty() &&
      std::find(t.allowed_categories.begin(), t.allowed_categories.end(),
                d.category) == t.allowed_categories.end())
    return false;
  const double overlap = std::min(t.t_hi, d.t_hi) - std::max(t.t_lo, d.t_lo);
  return overlap > opts.min_overlap_seconds;
}

double QualityScore::precision() const {
  if (detections == 0) return 1.0;
  return static_cast<double>(matched_detections) /
         static_cast<double>(detections);
}

double QualityScore::recall() const {
  if (truths == 0) return 1.0;
  return static_cast<double>(matched_truths) / static_cast<double>(truths);
}

double QualityScore::f1() const {
  const double p = precision();
  const double r = recall();
  if (p + r <= 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

double QualityScore::top_factor_accuracy() const {
  if (diagnosis_cases == 0) return 1.0;
  return static_cast<double>(diagnosis_hits) /
         static_cast<double>(diagnosis_cases);
}

void QualityScore::merge(const QualityScore& other) {
  truths += other.truths;
  detections += other.detections;
  matched_truths += other.matched_truths;
  matched_detections += other.matched_detections;
  diagnosis_cases += other.diagnosis_cases;
  diagnosis_hits += other.diagnosis_hits;
}

QualityScore score_quality(const std::vector<QualityTruth>& truths,
                           const std::vector<QualityDetection>& detections,
                           const std::vector<std::string>& top_factors,
                           const QualityMatchOptions& opts) {
  QualityScore score;
  score.truths = truths.size();
  score.detections = detections.size();
  for (const QualityDetection& d : detections)
    for (const QualityTruth& t : truths)
      if (quality_match(t, d, opts)) {
        ++score.matched_detections;
        break;
      }
  for (const QualityTruth& t : truths) {
    bool found = false;
    for (const QualityDetection& d : detections)
      if (quality_match(t, d, opts)) {
        found = true;
        break;
      }
    if (found) ++score.matched_truths;
    if (t.expected_factors.empty()) continue;
    ++score.diagnosis_cases;
    // An injection a detector never located cannot have been diagnosed:
    // factor attribution runs on the fragments of detected regions, so an
    // unmatched truth scores as a diagnosis miss even when the factor
    // happens to appear for another injection.
    if (!found) continue;
    for (const std::string& expected : t.expected_factors)
      if (std::find(top_factors.begin(), top_factors.end(), expected) !=
          top_factors.end()) {
        ++score.diagnosis_hits;
        break;
      }
  }
  return score;
}

void QualityScoreboard::add(QualityCell cell) {
  std::lock_guard<std::mutex> lock(mu_);
  cells_.push_back(std::move(cell));
}

std::vector<QualityCell> QualityScoreboard::cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_;
}

QualityScore QualityScoreboard::aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  QualityScore total;
  for (const QualityCell& cell : cells_) total.merge(cell.score);
  return total;
}

std::string QualityScoreboard::render_json() const {
  const std::vector<QualityCell> cells = this->cells();
  const QualityScore total = aggregate();
  std::ostringstream oss;
  oss << "{\"schema\":\"vapro.quality\",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    oss << (i ? "," : "") << "{\"app\":\"" << journal_json_escape(cells[i].app)
        << "\",\"noise\":\"" << journal_json_escape(cells[i].noise) << "\",";
    append_score_fields(oss, cells[i].score);
    oss << "}";
  }
  oss << "],\"aggregate\":{";
  append_score_fields(oss, total);
  oss << "}}";
  return oss.str();
}

void QualityScoreboard::publish_gauges(MetricsRegistry& metrics) const {
  const std::vector<QualityCell> cells = this->cells();
  const QualityScore total = aggregate();
  metrics.gauge("vapro.quality.precision")->set(total.precision());
  metrics.gauge("vapro.quality.recall")->set(total.recall());
  metrics.gauge("vapro.quality.f1")->set(total.f1());
  metrics.gauge("vapro.quality.top_factor_accuracy")
      ->set(total.top_factor_accuracy());
  for (const QualityCell& cell : cells) {
    const std::string base =
        "vapro.quality.cell." + cell.app + "." + cell.noise + ".";
    metrics.gauge(base + "precision")->set(cell.score.precision());
    metrics.gauge(base + "recall")->set(cell.score.recall());
    metrics.gauge(base + "f1")->set(cell.score.f1());
    metrics.gauge(base + "top_factor_accuracy")
        ->set(cell.score.top_factor_accuracy());
  }
}

void QualityScoreboard::journal(Journal& journal, double virtual_time) const {
  const std::vector<QualityCell> cells = this->cells();
  for (const QualityCell& cell : cells)
    journal.emit(
        "quality_cell", /*window=*/-1, virtual_time,
        {JournalField::str("app", cell.app),
         JournalField::str("noise", cell.noise),
         JournalField::num("truths",
                           static_cast<std::uint64_t>(cell.score.truths)),
         JournalField::num("detections",
                           static_cast<std::uint64_t>(cell.score.detections)),
         JournalField::num("precision", cell.score.precision()),
         JournalField::num("recall", cell.score.recall()),
         JournalField::num("f1", cell.score.f1()),
         JournalField::num("top_factor_accuracy",
                           cell.score.top_factor_accuracy())});
  const QualityScore total = aggregate();
  // Field names double as alert-rule metric names (quality_recall < 0.8
  // for 2) the way window-event fields do for variance_ratio.
  journal.emit("quality", /*window=*/-1, virtual_time,
               {JournalField::num("quality_precision", total.precision()),
                JournalField::num("quality_recall", total.recall()),
                JournalField::num("quality_f1", total.f1()),
                JournalField::num("quality_top_factor_accuracy",
                                  total.top_factor_accuracy()),
                JournalField::num(
                    "cells", static_cast<std::uint64_t>(cells.size()))});
}

void QualityScoreboard::attach_route(ExpositionServer& server) {
  server.add_route("/v1/quality", [this] {
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = render_json();
    return resp;
  });
}

}  // namespace vapro::obs
