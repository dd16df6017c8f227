// Tiny CSV writer used by benches and the visualization layer to dump
// heat maps and per-fragment series for external plotting.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace vapro::util {

class CsvWriter {
 public:
  // Opens `path` for writing.  A path that cannot be opened is reported
  // by close(), not by aborting: the rows written meanwhile go nowhere.
  explicit CsvWriter(const std::string& path);

  // Writes one row; fields are quoted only when they contain a comma/quote.
  void write_row(const std::vector<std::string>& fields);
  void write_row(const std::vector<double>& fields);

  // Flushes and closes (the destructor closes too).  False when the open,
  // a write or the flush failed.
  bool close();

 private:
  std::ofstream out_;
};

// Escapes a single CSV field (RFC 4180 quoting).
std::string csv_escape(const std::string& field);

}  // namespace vapro::util
