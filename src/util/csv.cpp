#include "src/util/csv.hpp"

#include <sstream>

namespace vapro::util {

CsvWriter::CsvWriter(const std::string& path) : out_(path) {}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << csv_escape(fields[i]);
  }
  out_ << '\n';
}

void CsvWriter::write_row(const std::vector<double>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << fields[i];
  }
  out_ << '\n';
}

bool CsvWriter::close() {
  if (out_.is_open()) out_.close();
  return !out_.fail();
}

std::string csv_escape(const std::string& field) {
  bool needs_quote = field.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quote) return field;
  std::ostringstream oss;
  oss << '"';
  for (char c : field) {
    if (c == '"') oss << '"';
    oss << c;
  }
  oss << '"';
  return oss.str();
}

}  // namespace vapro::util
