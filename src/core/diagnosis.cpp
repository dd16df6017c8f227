#include "src/core/diagnosis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/obs/span.hpp"
#include "src/stats/collinearity.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/ols.hpp"
#include "src/util/check.hpp"

namespace vapro::core {

namespace {

// Factor values per fragment as a column per factor.  Each member's
// counter sample is assembled once and read for every factor.
std::vector<std::vector<double>> factor_columns(
    const Stg& stg, const std::vector<std::size_t>& members,
    const std::vector<FactorId>& factors, const pmu::MachineParams& machine) {
  const FragmentColumns& frags = stg.fragments();
  std::vector<std::vector<double>> cols(factors.size());
  for (std::vector<double>& col : cols) col.reserve(members.size());
  for (std::size_t idx : members) {
    const pmu::CounterSample counters = frags.counters(idx);
    for (std::size_t f = 0; f < factors.size(); ++f)
      cols[f].push_back(factor_value(factors[f], counters, machine));
  }
  return cols;
}

bool column_is_constant(const std::vector<double>& col) {
  if (col.empty()) return true;
  double lo = col[0], hi = col[0];
  for (double v : col) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi - lo <= 1e-12 * std::max(1.0, std::fabs(hi));
}

}  // namespace

OlsQuantification ols_quantify(const Stg& stg,
                               const std::vector<std::size_t>& members,
                               const std::vector<FactorId>& factors,
                               const pmu::MachineParams& machine,
                               double alpha) {
  OlsQuantification out;
  out.estimates.reserve(factors.size());
  for (FactorId f : factors) out.estimates.push_back(OlsFactorEstimate{f});
  if (members.size() < factors.size() + 3) return out;

  std::vector<double> y;
  y.reserve(members.size());
  for (std::size_t idx : members) y.push_back(stg.fragments().duration(idx));

  auto raw = factor_columns(stg, members, factors, machine);

  // Min-max normalize each factor to [0,1] (paper §4.2); constant columns
  // cannot be regressed and are excluded up front.
  std::vector<std::size_t> variable;  // indices into `factors`
  std::vector<std::vector<double>> norm_cols;
  std::vector<double> spans;
  for (std::size_t f = 0; f < factors.size(); ++f) {
    if (column_is_constant(raw[f])) {
      out.estimates[f].constant = true;
      continue;
    }
    double lo = *std::min_element(raw[f].begin(), raw[f].end());
    double hi = *std::max_element(raw[f].begin(), raw[f].end());
    std::vector<double> col(raw[f].size());
    for (std::size_t i = 0; i < col.size(); ++i)
      col[i] = (raw[f][i] - lo) / (hi - lo);
    variable.push_back(f);
    norm_cols.push_back(std::move(col));
    spans.push_back(hi - lo);
  }
  if (variable.empty()) return out;

  // Farrar–Glauber pruning of multicollinear factors.
  stats::CollinearityReduction reduction =
      stats::reduce_multicollinearity(norm_cols, alpha);

  std::vector<std::vector<double>> kept_cols;
  kept_cols.reserve(reduction.kept.size());
  for (std::size_t k : reduction.kept) kept_cols.push_back(norm_cols[k]);
  stats::OlsResult fit = stats::ols_fit_columns(y, kept_cols, true);
  if (!fit.ok) return out;

  out.ok = true;
  out.r_squared = fit.r_squared;

  auto column_sum = [](const std::vector<double>& col) {
    double s = 0.0;
    for (double v : col) s += v;
    return s;
  };

  for (std::size_t j = 0; j < reduction.kept.size(); ++j) {
    const std::size_t f = variable[reduction.kept[j]];
    OlsFactorEstimate& est = out.estimates[f];
    est.p_value = fit.p_values[j];
    est.significant = est.p_value < alpha;
    // Undo the normalization: the coefficient is seconds per normalized
    // unit, so total factor time = coef · Σ x_norm.
    est.total_seconds = fit.coefficients[j] * column_sum(norm_cols[reduction.kept[j]]);
  }
  // Factors removed for multicollinearity inherit an estimate through their
  // linear relation to the kept factors (paper §4.2 last step).
  for (std::size_t r = 0; r < reduction.removed.size(); ++r) {
    const std::size_t f = variable[reduction.removed[r]];
    OlsFactorEstimate& est = out.estimates[f];
    est.recovered_from_collinearity = true;
    double coef = 0.0;
    for (std::size_t j = 0; j < reduction.kept.size(); ++j)
      coef += reduction.relation[r][j] * fit.coefficients[j];
    est.total_seconds = coef * column_sum(norm_cols[reduction.removed[r]]);
    est.p_value = 1.0;
  }
  return out;
}

ContributionWindow analyze_contributions(const Stg& stg,
                                         const ClusteringResult& clusters,
                                         const std::vector<FactorId>& factors,
                                         const pmu::MachineParams& machine,
                                         const DiagnosisOptions& opts) {
  const FragmentColumns& frags = stg.fragments();
  ContributionWindow window;
  window.factors.reserve(factors.size());
  for (FactorId f : factors) window.factors.push_back(FactorContribution{f});

  // Split factors into formula-quantified and count-only.
  std::vector<std::size_t> quantified, counted;
  for (std::size_t f = 0; f < factors.size(); ++f) {
    (factor_def(factors[f]).time_quantified ? quantified : counted).push_back(f);
  }

  for (const Cluster& c : clusters.clusters) {
    if (c.rare || c.kind != FragmentKind::kComputation) continue;
    if (c.members.size() <
        static_cast<std::size_t>(opts.min_cluster_fragments))
      continue;

    std::vector<double> durations;
    durations.reserve(c.members.size());
    double fastest = std::numeric_limits<double>::infinity();
    for (std::size_t idx : c.members) {
      durations.push_back(frags.duration(idx));
      fastest = std::min(fastest, durations.back());
    }
    if (fastest <= 0.0) continue;

    auto raw = factor_columns(stg, c.members, factors, machine);

    // Per-event cost of count-only factors, fitted per cluster on the
    // residual time (duration minus everything the formulas explain).
    std::vector<double> event_cost(factors.size(), 0.0);
    if (!counted.empty()) {
      std::vector<double> residual(durations);
      for (std::size_t i = 0; i < residual.size(); ++i)
        for (std::size_t q : quantified) residual[i] -= raw[q][i];
      std::vector<std::vector<double>> count_cols;
      std::vector<std::size_t> fit_idx;
      for (std::size_t cidx : counted) {
        if (column_is_constant(raw[cidx])) continue;
        count_cols.push_back(raw[cidx]);
        fit_idx.push_back(cidx);
      }
      if (!count_cols.empty() &&
          residual.size() >= count_cols.size() + 3) {
        stats::CollinearityReduction reduction =
            stats::reduce_multicollinearity(count_cols, opts.significance_alpha);
        std::vector<std::vector<double>> kept_cols;
        for (std::size_t k : reduction.kept) kept_cols.push_back(count_cols[k]);
        stats::OlsResult fit = stats::ols_fit_columns(residual, kept_cols, true);
        if (fit.ok) {
          for (std::size_t j = 0; j < reduction.kept.size(); ++j) {
            if (fit.p_values[j] < opts.significance_alpha)
              event_cost[fit_idx[reduction.kept[j]]] =
                  std::max(0.0, fit.coefficients[j]);
          }
          for (std::size_t r = 0; r < reduction.removed.size(); ++r) {
            double coef = 0.0;
            for (std::size_t j = 0; j < reduction.kept.size(); ++j)
              coef += reduction.relation[r][j] * fit.coefficients[j];
            event_cost[fit_idx[reduction.removed[r]]] = std::max(0.0, coef);
          }
        }
      }
    }

    // Per-fragment factor time in seconds.
    auto factor_time = [&](std::size_t f, std::size_t i) {
      return factor_def(factors[f]).time_quantified
                 ? raw[f][i]
                 : raw[f][i] * event_cost[f];
    };

    // Reference values: mean over normal fragments.
    const double abnormal_cut = opts.abnormal_ratio * fastest;
    std::vector<double> ref(factors.size(), 0.0);
    std::size_t normals = 0;
    for (std::size_t i = 0; i < c.members.size(); ++i) {
      if (durations[i] > abnormal_cut) continue;
      ++normals;
      for (std::size_t f = 0; f < factors.size(); ++f)
        ref[f] += factor_time(f, i);
    }
    if (normals == 0) continue;
    for (double& r : ref) r /= static_cast<double>(normals);

    for (std::size_t i = 0; i < c.members.size(); ++i) {
      if (c.members[i] < opts.live_begin) continue;  // carry-in
      window.observed_seconds += durations[i];
      if (durations[i] <= abnormal_cut) continue;
      if (opts.focus) {
        const std::size_t idx = c.members[i];
        if (!opts.focus->contains(frags.rank(idx), frags.start_time(idx),
                                  frags.end_time(idx)))
          continue;
      }
      ++window.abnormal_fragments;
      window.abnormal_seconds += durations[i];
      const double slowdown = durations[i] - fastest;
      window.total_variance_seconds += slowdown;
      for (std::size_t f = 0; f < factors.size(); ++f) {
        const double excess = factor_time(f, i) - ref[f];
        if (excess > 0.0) window.factors[f].contribution_seconds += excess;
        // The factor is "major for this fragment" when it explains more
        // than major_share of the fragment's slowdown (Fig 11 regions).
        if (slowdown > 0.0 && excess > opts.major_share * slowdown)
          window.factors[f].duration_seconds += durations[i];
      }
    }
  }

  for (FactorContribution& fc : window.factors) {
    fc.major = window.total_variance_seconds > 0.0 &&
               fc.contribution_seconds >
                   opts.major_share * window.total_variance_seconds;
  }
  return window;
}

std::string DiagnosisReport::summary() const {
  std::ostringstream oss;
  if (findings.empty()) {
    oss << "no variance diagnosed";
    return oss.str();
  }
  oss << "progressive variance diagnosis (" << findings.size()
      << " factors examined):\n";
  for (const DiagnosisFinding& f : findings) {
    oss << "  S" << f.stage << " " << factor_name(f.id) << ": "
        << f.share * 100.0 << "% of slowdown, affecting "
        << f.duration_share * 100.0 << "% of execution time"
        << (f.major ? "  [MAJOR]" : "") << "\n";
  }
  oss << "  culprits:";
  for (FactorId f : culprits) oss << " [" << factor_name(f) << "]";
  return oss.str();
}

ProgressiveDiagnoser::ProgressiveDiagnoser(pmu::MachineParams machine,
                                           DiagnosisOptions opts)
    : machine_(machine), opts_(opts), frontier_(children_of(FactorId::kRoot)) {}

void ProgressiveDiagnoser::restart(std::optional<FocusRegion> focus) {
  opts_.focus = std::move(focus);
  frontier_ = children_of(FactorId::kRoot);
  stage_ = 1;
  finished_ = false;
  report_ = DiagnosisReport{};
}

std::vector<pmu::Counter> ProgressiveDiagnoser::counters_needed() const {
  return counters_for(frontier_);
}

void ProgressiveDiagnoser::feed(const Stg& stg,
                                const ClusteringResult& clusters,
                                std::size_t live_begin) {
  if (finished_) return;
  // The per-stage span nests inside the server's "diagnose" stage span, so
  // a trace shows exactly which windows ran under S1/S2/S3.
  obs::TraceRecorder* trace = opts_.obs ? opts_.obs->trace() : nullptr;
  obs::SpanScope span(
      {trace, trace ? opts_.obs->metrics().counter(
                          "vapro.obs.spans_dropped_total")
                    : nullptr},
      "diagnosis.S" + std::to_string(stage_), "diagnosis",
      {obs::TraceRecorder::arg("factors",
                               static_cast<std::uint64_t>(frontier_.size()))});
  opts_.live_begin = live_begin;
  ContributionWindow window =
      analyze_contributions(stg, clusters, frontier_, machine_, opts_);
  // A window without meaningful variance doesn't advance the stage — the
  // diagnoser keeps watching with the same counters (§4.3's n-period cost).
  if (window.abnormal_fragments < 3 || window.total_variance_seconds <= 0.0)
    return;

  obs::Journal* journal = opts_.obs ? opts_.obs->journal() : nullptr;
  if (journal) {
    // Events use window=-1: the diagnoser doesn't know the analysis-window
    // ordinal; consumers correlate by sequence order (findings precede the
    // server's "window" event for the same window — alerts.hpp relies on
    // this).
    journal->emit(
        "diagnosis_window", -1, 0.0,
        {obs::JournalField::num("stage", static_cast<std::int64_t>(stage_)),
         obs::JournalField::num(
             "abnormal_fragments",
             static_cast<std::uint64_t>(window.abnormal_fragments)),
         obs::JournalField::num("variance_seconds",
                                window.total_variance_seconds),
         obs::JournalField::num("abnormal_seconds", window.abnormal_seconds),
         obs::JournalField::num("observed_seconds", window.observed_seconds)});
  }

  report_.total_variance_seconds += window.total_variance_seconds;
  std::vector<FactorId> majors;
  for (const FactorContribution& fc : window.factors) {
    DiagnosisFinding finding;
    finding.id = fc.id;
    finding.stage = stage_;
    finding.contribution_seconds = fc.contribution_seconds;
    finding.share = fc.contribution_seconds / window.total_variance_seconds;
    finding.duration_seconds = fc.duration_seconds;
    finding.duration_share =
        window.observed_seconds > 0.0
            ? fc.duration_seconds / window.observed_seconds
            : 0.0;
    finding.major = fc.major;
    report_.findings.push_back(finding);
    if (fc.major) majors.push_back(fc.id);
    if (journal) {
      journal->emit(
          "diagnosis_finding", -1, 0.0,
          {obs::JournalField::str("factor",
                                  std::string(factor_name(finding.id))),
           obs::JournalField::num("stage",
                                  static_cast<std::int64_t>(finding.stage)),
           obs::JournalField::num("contribution_seconds",
                                  finding.contribution_seconds),
           obs::JournalField::num("share", finding.share),
           obs::JournalField::num("duration_seconds",
                                  finding.duration_seconds),
           obs::JournalField::num("duration_share", finding.duration_share),
           obs::JournalField::boolean("major", finding.major)});
    }
  }

  std::vector<FactorId> next;
  for (FactorId m : majors) {
    for (FactorId child : children_of(m)) next.push_back(child);
  }
  if (next.empty()) {
    report_.culprits = majors;
    finished_ = true;
    if (opts_.obs) {
      opts_.obs->metrics().counter("vapro.diagnosis.finished")->inc();
      std::string culprits;
      for (FactorId f : majors) {
        if (!culprits.empty()) culprits += ",";
        culprits += std::string(factor_name(f));
      }
      if (journal)
        journal->emit(
            "diagnosis_finished", -1, 0.0,
            {obs::JournalField::str("culprits", culprits),
             obs::JournalField::num("stage",
                                    static_cast<std::int64_t>(stage_))});
      if (auto* trace = opts_.obs->trace())
        trace->instant("diagnosis.finished", "diagnosis",
                       {obs::TraceRecorder::arg("culprits", culprits)});
    }
    return;
  }
  frontier_ = std::move(next);
  ++stage_;
  // Stage descent: the next window needs a different counter set — exactly
  // the moment the session reprograms the clients' PMUs.
  if (opts_.obs) {
    opts_.obs->metrics().counter("vapro.diagnosis.stage_advances")->inc();
    if (journal)
      journal->emit(
          "diagnosis_stage", -1, 0.0,
          {obs::JournalField::num("to_stage",
                                  static_cast<std::int64_t>(stage_)),
           obs::JournalField::num(
               "frontier", static_cast<std::uint64_t>(frontier_.size()))});
    if (auto* trace = opts_.obs->trace()) {
      trace->instant(
          "diagnosis.stage_advance", "diagnosis",
          {obs::TraceRecorder::arg(
               "to_stage", static_cast<std::uint64_t>(stage_)),
           obs::TraceRecorder::arg(
               "frontier", static_cast<std::uint64_t>(frontier_.size()))});
    }
  }
}

}  // namespace vapro::core
