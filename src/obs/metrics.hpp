// Self-telemetry metrics registry (the tool watching itself).
//
// Vapro's pitch is production-run operation at <1.38% overhead (Table 1);
// this registry is how the reproduction observes its *own* pipeline rather
// than burying costs in ad-hoc logs.  Three instrument kinds:
//
//   * Counter   — monotonic u64, relaxed-atomic increments;
//   * Gauge     — last-written double (CAS loop for add());
//   * Histogram — fixed log2-spaced latency buckets (100 ns .. ~55 s) with
//                 p50/p95/p99 extraction by linear interpolation inside the
//                 owning bucket.
//
// Registration takes a mutex once per (name) and hands back a stable
// pointer; the hot path afterwards is a single relaxed atomic op, so
// instruments can sit inside per-window (and even per-intercept) code.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vapro::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

class Histogram;

// Value-type copy of a Histogram at one instant.  Snapshots from histograms
// with the same (fixed) bucket layout merge by plain addition, which is what
// makes per-shard histograms foldable into one fleet view without ever
// locking the hot path.
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 30;  // mirrors Histogram::kBuckets
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  double sum_seconds = 0.0;

  void merge(const HistogramSnapshot& other);
  double mean_seconds() const {
    return count == 0 ? 0.0 : sum_seconds / static_cast<double>(count);
  }
  // q in (0,1); returns 0 when empty (same semantics as Histogram).
  double quantile(double q) const;
};

class Histogram {
 public:
  // Buckets double from kMinSeconds; values outside clamp to the ends.
  static constexpr double kMinSeconds = 100e-9;
  static constexpr std::size_t kBuckets = 30;  // 100 ns · 2^29 ≈ 53.7 s

  void record(double seconds);

  // Coherent-enough copy for rendering/merging.  Individual loads are
  // relaxed-atomic; a snapshot taken concurrently with record() may be one
  // observation ahead/behind in count vs buckets, never torn per-field.
  HistogramSnapshot snapshot() const;

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_seconds() const { return sum_.load(std::memory_order_relaxed); }
  double mean_seconds() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum_seconds() / static_cast<double>(n);
  }
  // q in (0,1); returns 0 when empty.  Exact to within the owning bucket
  // (≤ 2× relative error by construction of the log2 bounds).
  double quantile(double q) const;
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  // Lower bound of bucket i in seconds (bucket 0 starts at 0).
  static double bucket_lo(std::size_t i);
  static double bucket_hi(std::size_t i);

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Owns every instrument; hands out stable pointers.  Same name + same kind
// returns the same instrument (cross-module sharing by name).
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  // Lookup without registering: nullptr when no such gauge exists yet.
  // Readers (health endpoints) use this so probing for an optional gauge
  // does not create a zero-valued instrument in /metrics.
  const Gauge* find_gauge(const std::string& name) const;

  // One JSON object: {"counters":{...},"gauges":{...},"histograms":{name:
  // {"count":..,"sum_seconds":..,"mean_seconds":..,"p50":..,"p95":..,
  //  "p99":..}}}.
  std::string to_json() const;

  // Human-readable dump for the end-of-run table, sorted by name.
  struct Row {
    std::string name;
    std::string kind;   // "counter" | "gauge" | "histogram"
    std::string value;  // formatted
  };
  std::vector<Row> rows() const;

  // Raw snapshots for machine renderers (Prometheus exposition).  The
  // Histogram pointers stay valid for the registry's lifetime; instrument
  // reads are atomic, so renderers need no further locking.
  std::vector<std::pair<std::string, std::uint64_t>> counter_values() const;
  std::vector<std::pair<std::string, double>> gauge_values() const;
  std::vector<std::pair<std::string, const Histogram*>> histogram_entries()
      const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace vapro::obs
