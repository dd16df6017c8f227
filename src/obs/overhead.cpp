#include "src/obs/overhead.hpp"

#include <chrono>
#include <functional>
#include <sstream>
#include <thread>

#include "src/obs/journal.hpp"

namespace vapro::obs {

namespace {
std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

std::string OverheadAccountant::to_json() const {
  std::ostringstream oss;
  oss << "{\"tool_seconds\":" << json_number(tool_seconds())
      << ",\"run_wall_seconds\":" << json_number(run_wall_seconds())
      << ",\"app_virtual_seconds\":" << json_number(app_virtual_seconds())
      << ",\"tool_fraction_of_wall\":" << json_number(tool_fraction_of_wall())
      << '}';
  return oss.str();
}

ToolTimeScope::ToolTimeScope(OverheadAccountant* acct) : acct_(acct) {
  if (acct_) t0_ns_ = steady_ns();
}

ToolTimeScope::~ToolTimeScope() {
  if (!acct_) return;
  const std::uint64_t t1 = steady_ns();
  acct_->add_tool_ns(t1 > t0_ns_ ? t1 - t0_ns_ : 0);
}

SampledToolTimeScope::SampledToolTimeScope(OverheadAccountant* acct) {
  // Phase-shift each thread's sampling by its id so threads neither time
  // their (cold, allocation-heavy) first call in lockstep nor alias with
  // periodic application structure.
  thread_local std::uint64_t tick =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kEvery;
  if (acct && ++tick % kEvery == 0) {
    acct_ = acct;
    t0_ns_ = steady_ns();
  }
}

SampledToolTimeScope::~SampledToolTimeScope() {
  if (!acct_) return;
  const std::uint64_t t1 = steady_ns();
  acct_->add_tool_ns((t1 > t0_ns_ ? t1 - t0_ns_ : 0) * kEvery);
}

}  // namespace vapro::obs
