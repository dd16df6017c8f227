// Clocks, order statistics, the span trace, host provenance and the
// result line of the Vapro benchmark driver.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Monotonic wall clock and process CPU (user + sys, all threads), seconds.
double wall_now();
double cpu_now();
// Peak resident set of this process since start or the last
// reset_peak_rss() (Linux clear_refs; a no-op where unsupported), MiB.
double peak_rss_mb();
void reset_peak_rss();

// Wall seconds of one fixed reference job run now: single-threaded integer
// hashing and a scattered read-modify-write walk over a 1 MiB buffer, about
// 2 ms.  It shares no code with Vapro, so its time tracks only the host's
// speed, which on a shared host drifts by tens of percent over minutes.
double reference_seconds();

// Linear-interpolated quantile (q in [0, 1]); NaN for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// One recorded span of a public call: [start, end] in seconds since the
// tracer's epoch, the index of the enclosing span (-1 at top level) and
// the analysis window it belongs to (-1 outside any window).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  long window = -1;
  std::uint64_t count = 1;  // > 1 for aggregated per-window hook spans
};

// In-memory span recorder.  A null Tracer* disables tracing at one branch
// per call site; spans are written out once, at exit.
class Tracer {
 public:
  Tracer();
  // Opens a span nested in the innermost open one; returns its index.
  int begin(const char* name, long window);
  void end(int index);
  // Records a closed span in one step (aggregates, replayed timings).
  void add(const char* name, double start, double end, long window,
           std::uint64_t count = 1);
  double now() const;
  const std::vector<Span>& spans() const { return spans_; }
  // Self time per span name: duration minus the time of direct children.
  std::vector<std::pair<std::string, double>> self_seconds() const;
  // Chrome trace-event JSON (viewable in Perfetto / chrome://tracing).
  bool write_json(const std::string& path) const;

 private:
  double epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; no-op with a null tracer.
class Scope {
 public:
  Scope(Tracer* t, const char* name, long window)
      : t_(t), idx_(t ? t->begin(name, window) : -1) {}
  ~Scope() {
    if (t_) t_->end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

// Named metrics in insertion order, printed as the result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} on one line.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics);
// Host/build provenance as one JSON object (nproc, physical cores, build
// type, fault-injection state, seed).
std::string host_json(std::uint64_t seed);
unsigned physical_cores();

}  // namespace perfbench
