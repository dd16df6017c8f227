#include "src/core/report_json.hpp"

#include <cmath>
#include <sstream>

#include "src/obs/journal.hpp"

namespace vapro::core {

namespace {

void append_number(std::ostringstream& oss, double v) {
  if (std::isfinite(v)) {
    oss << v;
  } else {
    oss << "null";
  }
}

void append_regions(std::ostringstream& oss, const VaproSession& session,
                    FragmentKind kind, double bin_seconds) {
  oss << '"' << fragment_kind_name(kind) << "\":[";
  bool first = true;
  for (const VarianceRegion& r : session.locate(kind)) {
    if (!first) oss << ',';
    first = false;
    oss << "{\"rank_lo\":" << r.rank_lo << ",\"rank_hi\":" << r.rank_hi
        << ",\"t_lo\":";
    append_number(oss, r.time_lo(bin_seconds));
    oss << ",\"t_hi\":";
    append_number(oss, r.time_hi(bin_seconds));
    oss << ",\"mean_perf\":";
    append_number(oss, r.mean_perf);
    oss << ",\"impact_seconds\":";
    append_number(oss, r.impact_seconds);
    oss << ",\"cells\":" << r.cells << '}';
  }
  oss << ']';
}

}  // namespace

std::string report_json(const VaproSession& session,
                        double total_execution_seconds) {
  std::ostringstream oss;
  const double bin = session.computation_map().bin_seconds();
  oss << "{\"fragments\":" << session.fragments_recorded()
      << ",\"bytes\":" << session.bytes_recorded()
      << ",\"windows\":" << session.server().windows_processed();
  if (total_execution_seconds > 0.0) {
    oss << ",\"coverage\":";
    append_number(oss, session.coverage(total_execution_seconds));
  }

  oss << ",\"regions\":{";
  append_regions(oss, session, FragmentKind::kComputation, bin);
  oss << ',';
  append_regions(oss, session, FragmentKind::kCommunication, bin);
  oss << ',';
  append_regions(oss, session, FragmentKind::kIo, bin);
  oss << '}';

  oss << ",\"rare_findings\":[";
  bool first = true;
  for (const RareFinding& f : session.rare_findings()) {
    if (!first) oss << ',';
    first = false;
    oss << "{\"state\":\"" << obs::journal_json_escape(f.state)
        << "\",\"kind\":\"" << fragment_kind_name(f.kind)
        << "\",\"executions\":" << f.executions << ",\"total_seconds\":";
    append_number(oss, f.total_seconds);
    oss << '}';
  }
  oss << ']';

  const DiagnosisReport& diag = session.diagnosis();
  oss << ",\"diagnosis\":{\"finished\":"
      << (session.server().diagnosis_finished() ? "true" : "false")
      << ",\"total_variance_seconds\":";
  append_number(oss, diag.total_variance_seconds);
  oss << ",\"findings\":[";
  first = true;
  for (const DiagnosisFinding& f : diag.findings) {
    if (!first) oss << ',';
    first = false;
    oss << "{\"factor\":\""
        << obs::journal_json_escape(std::string(factor_name(f.id)))
        << "\",\"stage\":" << f.stage << ",\"share\":";
    append_number(oss, f.share);
    oss << ",\"duration_share\":";
    append_number(oss, f.duration_share);
    oss << ",\"major\":" << (f.major ? "true" : "false") << '}';
  }
  oss << "],\"culprits\":[";
  first = true;
  for (FactorId f : diag.culprits) {
    if (!first) oss << ',';
    first = false;
    oss << '"' << obs::journal_json_escape(std::string(factor_name(f)))
        << '"';
  }
  oss << "]}}";
  return oss.str();
}

}  // namespace vapro::core
