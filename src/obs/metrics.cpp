#include "src/obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/obs/journal.hpp"

namespace vapro::obs {

static_assert(HistogramSnapshot::kBuckets == Histogram::kBuckets,
              "snapshot bucket layout must mirror the live histogram");

namespace {

std::size_t bucket_index(double seconds) {
  if (seconds < Histogram::kMinSeconds) return 0;
  const double ratio = seconds / Histogram::kMinSeconds;
  const auto idx = static_cast<std::size_t>(std::log2(ratio)) + 1;
  return idx >= Histogram::kBuckets ? Histogram::kBuckets - 1 : idx;
}

std::string fmt_seconds(double s) {
  char buf[32];
  if (s < 1e-3)
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  else if (s < 1.0)
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  else
    std::snprintf(buf, sizeof(buf), "%.3fs", s);
  return buf;
}

// Shared by Histogram::quantile (atomic loads) and HistogramSnapshot
// (plain values): nearest-rank walk, linear interpolation in the owning
// bucket.
double quantile_over(const std::uint64_t* buckets, std::uint64_t n, double q) {
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(n);
  double seen = 0.0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const auto in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= rank) {
      const double frac = (rank - seen) / in_bucket;
      return Histogram::bucket_lo(i) +
             frac * (Histogram::bucket_hi(i) - Histogram::bucket_lo(i));
    }
    seen += in_bucket;
  }
  return Histogram::bucket_hi(Histogram::kBuckets - 1);
}

}  // namespace

double Histogram::bucket_lo(std::size_t i) {
  return i == 0 ? 0.0 : kMinSeconds * std::pow(2.0, static_cast<double>(i - 1));
}

double Histogram::bucket_hi(std::size_t i) {
  return kMinSeconds * std::pow(2.0, static_cast<double>(i));
}

void Histogram::record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  buckets_[bucket_index(seconds)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + seconds,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::quantile(double q) const {
  return snapshot().quantile(q);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  for (std::size_t i = 0; i < kBuckets; ++i)
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  s.sum_seconds = sum_.load(std::memory_order_relaxed);
  return s;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum_seconds += other.sum_seconds;
}

double HistogramSnapshot::quantile(double q) const {
  return quantile_over(buckets.data(), count, q);
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream oss;
  oss << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) oss << ',';
    first = false;
    oss << '"' << name << "\":" << c->value();
  }
  oss << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) oss << ',';
    first = false;
    oss << '"' << name << "\":" << json_number(g->value());
  }
  oss << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) oss << ',';
    first = false;
    oss << '"' << name << "\":{\"count\":" << h->count()
        << ",\"sum_seconds\":" << json_number(h->sum_seconds())
        << ",\"mean_seconds\":" << json_number(h->mean_seconds())
        << ",\"p50\":" << json_number(h->quantile(0.50))
        << ",\"p95\":" << json_number(h->quantile(0.95))
        << ",\"p99\":" << json_number(h->quantile(0.99)) << '}';
  }
  oss << "}}";
  return oss.str();
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counter_values() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauge_values()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::histogram_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

std::vector<MetricsRegistry::Row> MetricsRegistry::rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Row> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_)
    out.push_back({name, "counter", std::to_string(c->value())});
  for (const auto& [name, g] : gauges_) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", g->value());
    out.push_back({name, "gauge", buf});
  }
  for (const auto& [name, h] : histograms_) {
    std::ostringstream v;
    v << "n=" << h->count() << " mean=" << fmt_seconds(h->mean_seconds())
      << " p50=" << fmt_seconds(h->quantile(0.5))
      << " p95=" << fmt_seconds(h->quantile(0.95))
      << " p99=" << fmt_seconds(h->quantile(0.99));
    out.push_back({name, "histogram", v.str()});
  }
  return out;
}

}  // namespace vapro::obs
