// Live exposition: a tiny embedded HTTP server (plain POSIX sockets, no
// dependencies) so an operator can watch a production run instead of
// waiting for write-at-exit files.
//
// One background thread accepts connections on a loopback (by default)
// listen socket and answers GET requests, one per connection
// (HTTP/1.1 with Connection: close — every Prometheus scraper and curl
// understands this).  Routes are a name → handler registry: ObsContext
// registers /metrics (Prometheus text format rendered on demand from the
// MetricsRegistry) and /healthz; AnalysisServer/ServerGroup add
// /v1/heatmap and /v1/variance JSON snapshots.  Handlers run on the serve
// thread, so they must do their own synchronization with the analysis
// thread (the core routes lock the owning server's live mutex).
//
// Port 0 binds an ephemeral port; port() reports the real one.  start()
// returns false with a readable message when the port is taken — callers
// surface that instead of crashing mid-run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.hpp"

namespace vapro::obs {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class ExpositionServer {
 public:
  ExpositionServer() = default;
  ~ExpositionServer() { stop(); }
  ExpositionServer(const ExpositionServer&) = delete;
  ExpositionServer& operator=(const ExpositionServer&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral) and starts the serve thread.
  // On failure returns false and, when `error` is non-null, a human
  // message (e.g. "port 9100 in use: Address already in use").
  bool start(int port, std::string* error = nullptr);
  void stop();

  bool running() const { return listen_fd_ >= 0; }
  int port() const { return port_; }
  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  // Connections dropped at accept time (injected "expo.accept" faults or
  // real transient accept errors) without wedging the serve loop.
  std::uint64_t accept_faults() const {
    return accept_faults_.load(std::memory_order_relaxed);
  }
  // Responses whose send failed because the peer disconnected mid-response
  // (EPIPE/ECONNRESET — e.g. a scraper that hung up).  A counted drop, not
  // a crash: SIGPIPE is ignored at start() and sends use MSG_NOSIGNAL.
  std::uint64_t send_drops() const {
    return send_drops_.load(std::memory_order_relaxed);
  }

  using Handler = std::function<HttpResponse()>;
  // Registers (or replaces) a GET route.  remove_route is safe while the
  // server runs: it synchronizes with any in-flight handler invocation, so
  // after it returns the handler will never be called again.
  void add_route(const std::string& path, Handler handler);
  void remove_route(const std::string& path);

  // Sorted list of registered paths.  Safe to call from inside a handler
  // (the routes mutex is recursive precisely so the "/" index and /healthz
  // can enumerate their own server's routes).
  std::vector<std::string> route_paths() const;

 private:
  void serve_loop();
  void handle_connection(int fd);
  HttpResponse dispatch(const std::string& path);

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> accept_faults_{0};
  std::atomic<std::uint64_t> send_drops_{0};
  // Recursive: dispatch() holds it across the handler call (so
  // remove_route cannot race an in-flight handler), and handlers may call
  // route_paths() back into the server.
  mutable std::recursive_mutex routes_mu_;
  std::map<std::string, Handler> routes_;
};

// Prometheus text exposition format (version 0.0.4) for every instrument
// in the registry: counters and gauges verbatim, histograms in native
// histogram format (cumulative `_bucket{le="..."}` samples ending at
// `le="+Inf"`, plus `_sum`/`_count`) followed by `<name>_p50/_p95/_p99`
// gauges so dashboards get quantiles without PromQL histogram_quantile.
// Metric names are sanitized ('.' → '_').
std::string render_prometheus(const MetricsRegistry& registry);

// A sample value in Prometheus text: json_number's digits (journal.hpp)
// for finite values, and Prometheus's own NaN, +Inf and -Inf for the
// values JSON spells null.
std::string prometheus_number(double v);

// The scrape Content-Type Prometheus expects.
inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

}  // namespace vapro::obs
