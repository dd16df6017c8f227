// Chrome trace-event exporter (chrome://tracing / Perfetto "JSON Array
// Format", trailing object form).
//
// Records complete ("X") duration events and instant ("i") events against a
// steady-clock epoch taken at construction; thread ids are compacted to
// small integers in first-seen order so a Perfetto timeline shows "analysis
// window N" spans on the driver track and "cluster.shard"/"leaf.window"
// spans on the worker tracks, with diagnosis stage descents nested inside.
//
// Recording happens under one mutex — the event rate is per analysis
// window/worker, not per fragment, so contention is irrelevant; what must
// stay cheap (the disabled path) is a null-pointer check at the call site.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace vapro::obs {

// One "k":v pair of an event's args object; `json_value` is already valid
// JSON (number or quoted string) — use TraceRecorder::arg to build them.
struct TraceArg {
  std::string key;
  std::string json_value;
};

struct ChromeEvent {
  std::string name;
  std::string category;
  char phase = 'X';       // 'X' complete, 'i' instant, 's'/'f' flow
  double ts_us = 0.0;     // microseconds since recorder epoch
  double dur_us = 0.0;    // 'X' only
  int tid = 0;
  std::uint64_t flow_id = 0;  // 's'/'f' only: binds the two flow endpoints
  std::vector<TraceArg> args;
};

class TraceRecorder {
 public:
  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  static TraceArg arg(const std::string& key, double v);
  static TraceArg arg(const std::string& key, std::uint64_t v);
  static TraceArg arg(const std::string& key, const std::string& v);

  // Nanoseconds since the recorder's epoch, for begin timestamps.
  std::uint64_t now_ns() const;

  // A complete event spanning [t0_ns, now].
  void complete(const std::string& name, const std::string& category,
                std::uint64_t t0_ns, std::vector<TraceArg> args = {});
  // A complete event with an explicit duration.
  void complete_span(const std::string& name, const std::string& category,
                     std::uint64_t t0_ns, std::uint64_t dur_ns,
                     std::vector<TraceArg> args = {});
  void instant(const std::string& name, const std::string& category,
               std::vector<TraceArg> args = {});

  // Flow (causality) arrows: a flow_start at the producer plus a flow_end
  // with the same id at the consumer draws an arrow across threads in
  // Perfetto — the handoff edge between pipeline stages.  Ids come from
  // next_flow_id() (never 0).
  std::uint64_t next_flow_id() {
    return flow_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void flow_start(const std::string& name, const std::string& category,
                  std::uint64_t flow_id, std::uint64_t ts_ns);
  void flow_end(const std::string& name, const std::string& category,
                std::uint64_t flow_id, std::uint64_t ts_ns);

  std::size_t size() const;
  std::vector<ChromeEvent> snapshot() const;

  // {"traceEvents":[...],"displayTimeUnit":"ms"} — loadable by Perfetto
  // and chrome://tracing.
  std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  int tid_of_current_thread_locked();
  void push_locked(ChromeEvent ev);

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::atomic<std::uint64_t> flow_seq_{0};
  std::vector<ChromeEvent> events_;
  std::unordered_map<std::thread::id, int> tids_;
};

}  // namespace vapro::obs
