// Self-overhead accountant: separates *tool* wall time from *application*
// time so the reproduction can report its own Table-1-style overhead
// number.
//
// Tool time is accumulated (relaxed atomic nanoseconds) by every
// instrumented tool code path — client interception hooks, window drains,
// server analysis, PMU reprogramming.  Application time has two views:
//   * run wall seconds — host wall clock of the whole run, set by the
//     driver; tool_fraction_of_wall() = tool / wall is the honest
//     "overhead %" analog of Table 1;
//   * app virtual seconds — the simulator's makespan, reported alongside
//     so readers can relate tool cost to simulated execution scale.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace vapro::obs {

class OverheadAccountant {
 public:
  void add_tool_ns(std::uint64_t ns) {
    tool_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  void set_run_wall_seconds(double s) { wall_seconds_ = s; }
  void set_app_virtual_seconds(double s) { app_virtual_seconds_ = s; }

  double tool_seconds() const {
    return static_cast<double>(tool_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  double run_wall_seconds() const { return wall_seconds_; }
  double app_virtual_seconds() const { return app_virtual_seconds_; }
  // Fraction of the run's wall clock spent inside tool code; 0 until the
  // driver sets the wall time.
  double tool_fraction_of_wall() const {
    return wall_seconds_ > 0.0 ? tool_seconds() / wall_seconds_ : 0.0;
  }

  // {"tool_seconds":..,"run_wall_seconds":..,"app_virtual_seconds":..,
  //  "tool_fraction_of_wall":..}
  std::string to_json() const;

 private:
  std::atomic<std::uint64_t> tool_ns_{0};
  double wall_seconds_ = 0.0;
  double app_virtual_seconds_ = 0.0;
};

// RAII: charges the scope's wall time to the accountant's tool tally.
class ToolTimeScope {
 public:
  explicit ToolTimeScope(OverheadAccountant* acct);
  ~ToolTimeScope();
  ToolTimeScope(const ToolTimeScope&) = delete;
  ToolTimeScope& operator=(const ToolTimeScope&) = delete;

 private:
  OverheadAccountant* acct_;
  std::uint64_t t0_ns_ = 0;
};

// Sampled variant for per-call hot paths (interception hooks fire for
// every fragment boundary): times one call in kEvery per thread and scales
// the reading by kEvery, so the accountant stays honest at ~1/kEvery the
// clock-read cost.  Use the exact ToolTimeScope for coarse operations.
class SampledToolTimeScope {
 public:
  static constexpr std::uint64_t kEvery = 64;
  explicit SampledToolTimeScope(OverheadAccountant* acct);
  ~SampledToolTimeScope();
  SampledToolTimeScope(const SampledToolTimeScope&) = delete;
  SampledToolTimeScope& operator=(const SampledToolTimeScope&) = delete;

 private:
  OverheadAccountant* acct_ = nullptr;  // null when this call is skipped
  std::uint64_t t0_ns_ = 0;
};

}  // namespace vapro::obs
