#include "src/util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>

namespace vapro::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_.emplace(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_.emplace(arg, argv[++i]);
    } else {
      values_.emplace(arg, "true");  // boolean switch
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

int CliArgs::get_int(const std::string& key, int fallback) const {
  auto it = values_.find(key);
  return it == values_.end()
             ? fallback
             : static_cast<int>(std::strtol(it->second.c_str(), nullptr, 10));
}

bool CliArgs::parse_double(const std::string& key, double fallback,
                           double* out) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    *out = fallback;
    return true;
  }
  const char* text = it->second.c_str();
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

bool CliArgs::parse_int(const std::string& key, int fallback,
                        int* out) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    *out = fallback;
    return true;
  }
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max())
    return false;
  *out = static_cast<int>(value);
  return true;
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> CliArgs::get_all(const std::string& key) const {
  std::vector<std::string> out;
  auto [lo, hi] = values_.equal_range(key);
  for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

}  // namespace vapro::util
