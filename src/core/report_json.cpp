#include "src/core/report_json.hpp"

#include <sstream>
#include <vector>

#include "src/core/live_export.hpp"
#include "src/obs/journal.hpp"

namespace vapro::core {

std::string report_json(const VaproSession& session,
                        double total_execution_seconds) {
  std::ostringstream oss;
  oss << "{\"fragments\":" << session.fragments_recorded()
      << ",\"bytes\":" << session.bytes_recorded()
      << ",\"windows\":" << session.server().windows_processed();
  if (total_execution_seconds > 0.0)
    oss << ",\"coverage\":"
        << obs::json_number(session.coverage(total_execution_seconds));

  std::vector<VarianceRegion> regions[3];
  for (int k = 0; k < 3; ++k)
    regions[k] = session.locate(static_cast<FragmentKind>(k));
  oss << ",\"regions\":"
      << regions_json(regions, session.computation_map().bin_seconds());

  oss << ",\"rare_findings\":[";
  bool first = true;
  for (const RareFinding& f : session.rare_findings()) {
    if (!first) oss << ',';
    first = false;
    oss << "{\"state\":\"" << obs::journal_json_escape(f.state)
        << "\",\"kind\":\"" << fragment_kind_name(f.kind)
        << "\",\"executions\":" << f.executions
        << ",\"total_seconds\":" << obs::json_number(f.total_seconds) << '}';
  }
  oss << ']';

  const DiagnosisReport& diag = session.diagnosis();
  oss << ",\"diagnosis\":{\"finished\":"
      << (session.server().diagnosis_finished() ? "true" : "false")
      << ",\"total_variance_seconds\":"
      << obs::json_number(diag.total_variance_seconds) << ",\"findings\":[";
  first = true;
  for (const DiagnosisFinding& f : diag.findings) {
    if (!first) oss << ',';
    first = false;
    oss << "{\"factor\":\""
        << obs::journal_json_escape(std::string(factor_name(f.id)))
        << "\",\"stage\":" << f.stage
        << ",\"share\":" << obs::json_number(f.share)
        << ",\"duration_share\":" << obs::json_number(f.duration_share)
        << ",\"major\":" << (f.major ? "true" : "false") << '}';
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
