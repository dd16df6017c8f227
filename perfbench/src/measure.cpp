#include "measure.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM honors reset_peak_rss(); ru_maxrss (KiB) is the fallback.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.compare(0, 6, "VmHWM:") == 0)
      return std::atof(line.c_str() + 6) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double reference_seconds() {
  static std::vector<std::uint64_t> buf(std::size_t{1} << 17, 1);  // 1 MiB
  static volatile std::uint64_t sink = 0;
  const std::size_t mask = buf.size() - 1;
  const double t0 = wall_now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
  for (int pass = 0; pass < 4; ++pass)
    for (std::size_t i = 0; i < buf.size(); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += buf[(i * 7919) & mask] ^ x;
      buf[i] += acc;
    }
  sink = sink + acc;
  return wall_now() - t0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Tracer::Tracer() : epoch_(wall_now()) { spans_.reserve(1 << 16); }

double Tracer::now() const { return wall_now() - epoch_; }

int Tracer::begin(const char* name, long window) {
  Span s;
  s.name = name;
  s.start = now();
  s.parent = open_.empty() ? -1 : open_.back();
  s.window = window;
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size() - 1);
  open_.push_back(idx);
  return idx;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end = now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::add(const char* name, double start, double end, long window,
                 std::uint64_t count) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = open_.empty() ? -1 : open_.back();
  s.window = window;
  s.count = count;
  spans_.push_back(std::move(s));
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
  return {self.begin(), self.end()};
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"window\":%ld,\"count\":%llu}}\n",
                  i ? "," : "", s.name.c_str(), s.start * 1e6,
                  (s.end - s.start) * 1e6, i, s.parent, s.window,
                  static_cast<unsigned long long>(s.count));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_)
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  items_.push_back({name, {value, unit}});
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char buf[64];
  bool first = true;
  for (const auto& [name, vu] : metrics.items()) {
    // Full precision: %.17g round-trips a double.  Non-finite values are
    // not JSON; they print as 0 and the caller marks the run incorrect.
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

unsigned physical_cores() {
  // Unique (physical id, core id) pairs: SMT siblings count once.
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::set<std::pair<int, int>> cores;
  int package = 0;
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 11, "physical id") == 0)
      package = std::atoi(line.c_str() + colon + 1);
    else if (line.compare(0, 7, "core id") == 0)
      cores.emplace(package, std::atoi(line.c_str() + colon + 1));
  }
  if (!cores.empty()) return static_cast<unsigned>(cores.size());
  return std::thread::hardware_concurrency();
}

std::string host_json(std::uint64_t seed) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"physical_cores\": " << physical_cores()
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"vapro_fault_injection\": "
      << (PERFBENCH_FAULT_INJECTION ? "true" : "false")
      << ", \"seed\": " << seed << "}";
  return out.str();
}

}  // namespace perfbench
