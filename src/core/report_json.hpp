// JSON serialization of session results for CI pipelines and dashboards.
// Emits a single self-contained document: run metadata, per-category
// variance regions, coverage, rare findings, and the diagnosis tree walk.
#pragma once

#include <string>

#include "src/core/vapro.hpp"

namespace vapro::core {

// Serializes the session result.  `total_execution_seconds` feeds the
// coverage figure (pass 0 to omit it).
std::string report_json(const VaproSession& session,
                        double total_execution_seconds = 0.0);

}  // namespace vapro::core
