// Simulated performance-counter vocabulary.
//
// Mirrors the counters the paper's diagnosis consumes: the fixed Intel
// counters (TOT_INS, TSC, unhalted cycles), the top-down pipeline slot
// events (Yasin's method, used for the S1 breakdown), the cache-level stall
// events (S3), and the OS software counters (page faults, context switches,
// signals).  A `CounterSample` is a snapshot of cumulative counts; fragment
// records hold deltas between two snapshots.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace vapro::pmu {

enum class Counter : std::uint8_t {
  // Fixed hardware counters (always available, no programmable slot used).
  kTotIns = 0,        // TOT_INS — retired instructions
  kTsc,               // TSC — wall-clock cycles
  kCpuClkUnhalted,    // CPU_CLK_UNHALTED — cycles actually on-CPU

  // Top-down level-1 pipeline slots (programmable).
  kSlotsRetiring,
  kSlotsFrontend,
  kSlotsBadSpec,
  kSlotsBackend,

  // Backend decomposition (programmable).
  kStallsCore,
  kStallsL1,
  kStallsL2,
  kStallsL3,
  kStallsDram,

  // Memory traffic (programmable).
  kMemRefs,

  // OS software counters (always available).
  kPageFaultsSoft,
  kPageFaultsHard,
  kCtxSwitchVoluntary,
  kCtxSwitchInvoluntary,
  kSignals,

  kCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

// Canonical short name, e.g. "TOT_INS".
std::string_view counter_name(Counter c);

// True for counters that do not consume a programmable PMU slot
// (fixed hardware counters and OS software counters).
bool is_free_counter(Counter c);

// A snapshot of all counters.  Values are doubles: the model produces
// fractional expectations and the jitter layer perturbs reads anyway.
struct CounterSample {
  std::array<double, kCounterCount> values{};

  double operator[](Counter c) const {
    return values[static_cast<std::size_t>(c)];
  }
  double& operator[](Counter c) { return values[static_cast<std::size_t>(c)]; }

  CounterSample& operator+=(const CounterSample& rhs);
  friend CounterSample operator-(const CounterSample& a,
                                 const CounterSample& b);
};

// Whether a sparse sample carries counter value `v` (the wire codec, the
// window's counter columns): its bit pattern is not all zero, so -0.0 and
// denormals are present and round-trip bit for bit.
inline bool counter_present(double v) {
  return std::bit_cast<std::uint64_t>(v) != 0;
}

}  // namespace vapro::pmu
