#include "src/obs/exposition.hpp"

#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <sstream>

#include "src/obs/journal.hpp"
#include "src/testing/fault.hpp"
#include "src/util/log.hpp"
#include "src/util/socket.hpp"

namespace vapro::obs {

namespace {

std::string sanitize_metric_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

void append_sample(std::ostringstream& oss, const std::string& name,
                   double v) {
  oss << name << ' ' << prometheus_number(v) << '\n';
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "OK";
  }
}

}  // namespace

std::string prometheus_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return json_number(v);
}

std::string render_prometheus(const MetricsRegistry& registry) {
  std::ostringstream oss;
  for (const auto& [name, value] : registry.counter_values()) {
    const std::string n = sanitize_metric_name(name);
    oss << "# TYPE " << n << " counter\n";
    oss << n << ' ' << value << '\n';
  }
  for (const auto& [name, value] : registry.gauge_values()) {
    const std::string n = sanitize_metric_name(name);
    oss << "# TYPE " << n << " gauge\n";
    append_sample(oss, n, value);
  }
  for (const auto& [name, hist] : registry.histogram_entries()) {
    const std::string n = sanitize_metric_name(name);
    const HistogramSnapshot snap = hist->snapshot();
    oss << "# TYPE " << n << " histogram\n";
    // Cumulative le-labelled buckets.  Trailing empty buckets collapse into
    // the mandatory +Inf sample (still a valid cumulative series) so an
    // idle histogram costs one line, not thirty.
    std::size_t last = 0;
    for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i)
      if (snap.buckets[i] != 0) last = i + 1;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < last; ++i) {
      cum += snap.buckets[i];
      oss << n << "_bucket{le=\"" << prometheus_number(Histogram::bucket_hi(i))
          << "\"} " << cum << '\n';
    }
    oss << n << "_bucket{le=\"+Inf\"} " << snap.count << '\n';
    append_sample(oss, n + "_sum", snap.sum_seconds);
    oss << n << "_count " << snap.count << '\n';
    // Pre-computed quantile gauges: the self-diagnosis endpoints (and any
    // scraper without recording rules) read latency percentiles directly.
    for (const auto& [suffix, q] :
         {std::pair<const char*, double>{"_p50", 0.50},
          {"_p95", 0.95},
          {"_p99", 0.99}}) {
      oss << "# TYPE " << n << suffix << " gauge\n";
      append_sample(oss, n + suffix, snap.quantile(q));
    }
  }
  return oss.str();
}

bool ExpositionServer::start(int port, std::string* error) {
  if (running()) {
    if (error) *error = "exposition server already running";
    return false;
  }
  // A scraper that disconnects mid-response must cost us a counted drop,
  // not a SIGPIPE-killed process.
  util::ignore_sigpipe();
  const int fd = util::listen_loopback(port, 16, &port_, error);
  if (fd < 0) return false;
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void ExpositionServer::stop() {
  if (!running()) return;
  stopping_.store(true, std::memory_order_relaxed);
  // Unblock the accept() by tearing the listen socket down.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (thread_.joinable()) thread_.join();
  listen_fd_ = -1;
}

void ExpositionServer::add_route(const std::string& path, Handler handler) {
  std::lock_guard<std::recursive_mutex> lock(routes_mu_);
  routes_[path] = std::move(handler);
}

void ExpositionServer::remove_route(const std::string& path) {
  std::lock_guard<std::recursive_mutex> lock(routes_mu_);
  routes_.erase(path);
}

std::vector<std::string> ExpositionServer::route_paths() const {
  std::lock_guard<std::recursive_mutex> lock(routes_mu_);
  std::vector<std::string> out;
  out.reserve(routes_.size());
  for (const auto& [p, h] : routes_) out.push_back(p);
  return out;
}

void ExpositionServer::serve_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (errno == EINTR) continue;
      break;  // listen socket is gone
    }
    if (VAPRO_FAULT("expo.accept") == testing::FaultAction::kFail) {
      // Transient accept-side failure (EMFILE/EAGAIN): drop this client
      // and keep serving — the loop must never wedge on one bad accept.
      accept_faults_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    handle_connection(fd);
    ::close(fd);
  }
}

void ExpositionServer::handle_connection(int fd) {
  // One request per connection; read until the end of the header block
  // (we never accept bodies) with a small cap against abuse.
  std::string req;
  char buf[2048];
  while (req.find("\r\n\r\n") == std::string::npos && req.size() < 16384) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t line_end = req.find("\r\n");
  if (line_end == std::string::npos) return;
  std::istringstream request_line(req.substr(0, line_end));
  std::string method, target;
  request_line >> method >> target;

  HttpResponse resp;
  if (method != "GET") {
    resp.status = 405;
    resp.body = "only GET is supported\n";
  } else {
    const std::size_t q = target.find('?');
    if (q != std::string::npos) target.resize(q);
    resp = dispatch(target);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  std::ostringstream out;
  out << "HTTP/1.1 " << resp.status << ' ' << status_text(resp.status)
      << "\r\nContent-Type: " << resp.content_type
      << "\r\nContent-Length: " << resp.body.size()
      << "\r\nConnection: close\r\n\r\n"
      << resp.body;
  std::string payload = out.str();
  switch (VAPRO_FAULT("expo.send")) {
    case testing::FaultAction::kClose:
      // Peer-visible mid-response close: half the payload goes out, then
      // the connection dies.  Clients must treat the short body as failure.
      payload.resize(payload.size() / 2);
      break;
    case testing::FaultAction::kFail:
      return;  // send() failed outright; nothing reaches the client
    default:
      break;
  }
  // EPIPE/ECONNRESET here just means the peer went away mid-response
  // (curl ^C, a scraper timeout): count the drop, keep serving.
  if (!util::send_all(fd, payload.data(), payload.size()))
    send_drops_.fetch_add(1, std::memory_order_relaxed);
}

HttpResponse ExpositionServer::dispatch(const std::string& path) {
  // Handlers are invoked under the routes mutex so remove_route (called
  // from a destructing AnalysisServer) cannot race an in-flight call.
  std::lock_guard<std::recursive_mutex> lock(routes_mu_);
  auto it = routes_.find(path);
  if (it == routes_.end()) {
    HttpResponse resp;
    resp.status = 404;
    std::ostringstream body;
    body << "unknown path " << path << "\navailable:\n";
    for (const auto& [p, h] : routes_) body << "  " << p << '\n';
    resp.body = body.str();
    return resp;
  }
  // A handler that throws must surface as a 503 response, never as a hung
  // connection or a dead serve thread.
  try {
    return it->second();
  } catch (const std::exception& e) {
    HttpResponse resp;
    resp.status = 503;
    resp.body = std::string("handler error: ") + e.what() + '\n';
    return resp;
  } catch (...) {
    HttpResponse resp;
    resp.status = 503;
    resp.body = "handler error\n";
    return resp;
  }
}

}  // namespace vapro::obs
