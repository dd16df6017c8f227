// Minimal command-line flag parser for the driver tools: supports
// --key=value and --key value forms plus boolean switches.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace vapro::util {

class CliArgs {
 public:
  // Parses argv; unknown arguments are collected as positionals.
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  int get_int(const std::string& key, int fallback) const;
  // Strict forms for flags a tool range-checks: *out is `fallback` when
  // the flag is absent, else the value, and false (with *out unchanged)
  // when the whole value is not one number, or for an int not one that
  // fits in an int.
  bool parse_double(const std::string& key, double fallback,
                    double* out) const;
  bool parse_int(const std::string& key, int fallback, int* out) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  const std::vector<std::string>& positionals() const { return positionals_; }
  // All values passed for a repeatable flag (e.g. several --noise=...).
  std::vector<std::string> get_all(const std::string& key) const;

 private:
  std::multimap<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

// Splits "a:b:c" into fields.
std::vector<std::string> split(const std::string& s, char sep);

}  // namespace vapro::util
