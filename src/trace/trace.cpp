#include "src/trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

namespace vapro::trace {

namespace {

constexpr std::uint32_t kMagic = 0x56505254;  // "VPRT"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void put(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

// Reads the next T.  A short read fails the stream, which parse() checks
// once per group of fields.
template <typename T>
T take(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  return v;
}

// Serialized size of one event (fixed part + path payload).
std::size_t event_bytes(const TraceEvent& ev) {
  return 1 /*kind*/ + 8 /*time*/ + 4 /*rank*/ + 4 /*site*/ + 1 /*op*/ +
         8 * 4 /*args*/ + 8 /*truth*/ + 1 /*static flag*/ +
         4 + 4 * ev.info.path.size() /*path*/ +
         8 * pmu::kCounterCount /*counters*/;
}

// Parses a whole trace from `in`, or writes why it cannot to `why`.
std::optional<Trace> parse(std::istream& in, std::ostream& why) {
  const auto magic = take<std::uint32_t>(in);
  if (in && magic != kMagic) {
    why << "not a vapro trace";
    return std::nullopt;
  }
  const auto version = take<std::uint32_t>(in);
  if (in && version != kVersion) {
    why << "unsupported trace version";
    return std::nullopt;
  }
  const auto count = take<std::uint32_t>(in);
  // Every recorded rank contributes at least its program-end event, so a
  // rank at or past the event count is corrupt; the INT_MAX cap keeps
  // ranks() from overflowing.
  const std::int64_t rank_limit = std::min<std::int64_t>(
      count, std::numeric_limits<std::int32_t>::max());
  Trace trace;
  for (std::uint32_t i = 0; i < count; ++i) {
    TraceEvent ev;
    const auto kind = take<std::uint8_t>(in);
    ev.time = take<double>(in);
    ev.info.rank = take<std::int32_t>(in);
    ev.info.site = take<sim::CallSiteId>(in);
    const auto op = take<std::uint8_t>(in);
    ev.info.args.bytes = take<double>(in);
    ev.info.args.peer = static_cast<int>(take<std::int64_t>(in));
    ev.info.args.fd = static_cast<int>(take<std::int64_t>(in));
    ev.info.args.tag = static_cast<int>(take<std::int64_t>(in));
    ev.info.args.transfer_seconds = take<double>(in);
    ev.info.truth_class_since_last = take<std::int64_t>(in);
    ev.info.statically_fixed_since_last = take<std::uint8_t>(in) != 0;
    const auto frames = take<std::uint32_t>(in);
    if (!in) break;
    if (kind > static_cast<std::uint8_t>(EventKind::kProgramEnd)) {
      why << "trace event " << i << ": bad event kind " << int{kind};
      return std::nullopt;
    }
    if (!std::isfinite(ev.time) || ev.time < 0.0) {
      why << "trace event " << i << ": bad time " << ev.time;
      return std::nullopt;
    }
    if (ev.info.rank < 0 || ev.info.rank >= rank_limit) {
      why << "trace event " << i << ": rank " << ev.info.rank
          << " out of range";
      return std::nullopt;
    }
    if (op > static_cast<std::uint8_t>(sim::OpKind::kProbe)) {
      why << "trace event " << i << ": bad op kind " << int{op};
      return std::nullopt;
    }
    // Bytes and counters become workload dims, where a non-finite value
    // stalls the clustering sweep (see net::decode_batch).
    if (!std::isfinite(ev.info.args.bytes)) {
      why << "trace event " << i << ": bad bytes " << ev.info.args.bytes;
      return std::nullopt;
    }
    if (frames >= (1u << 20)) {
      why << "trace event " << i << ": implausible path length " << frames;
      return std::nullopt;
    }
    ev.kind = static_cast<EventKind>(kind);
    ev.info.kind = static_cast<sim::OpKind>(op);
    ev.info.path.resize(frames);
    for (std::uint32_t f = 0; f < frames; ++f)
      ev.info.path[f] = take<std::uint32_t>(in);
    for (double& v : ev.ground_truth.values) v = take<double>(in);
    if (!in) break;
    for (std::size_t c = 0; c < pmu::kCounterCount; ++c) {
      const double v = ev.ground_truth.values[c];
      if (std::isfinite(v)) continue;
      why << "trace event " << i << ": bad counter "
          << pmu::counter_name(static_cast<pmu::Counter>(c)) << " " << v;
      return std::nullopt;
    }
    trace.append(std::move(ev));
  }
  if (!in) {
    why << "truncated trace file";
    return std::nullopt;
  }
  return trace;
}

}  // namespace

int Trace::ranks() const {
  int ranks = 0;
  for (const TraceEvent& ev : events_)
    ranks = std::max(ranks, ev.info.rank + 1);
  return ranks;
}

std::size_t Trace::byte_size() const {
  std::size_t total = 12;  // header
  for (const TraceEvent& ev : events_) total += event_bytes(ev);
  return total;
}

bool Trace::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  put(out, kMagic);
  put(out, kVersion);
  put(out, static_cast<std::uint32_t>(events_.size()));
  for (const TraceEvent& ev : events_) {
    put(out, static_cast<std::uint8_t>(ev.kind));
    put(out, ev.time);
    put(out, static_cast<std::int32_t>(ev.info.rank));
    put(out, ev.info.site);
    put(out, static_cast<std::uint8_t>(ev.info.kind));
    put(out, ev.info.args.bytes);
    put(out, static_cast<std::int64_t>(ev.info.args.peer));
    put(out, static_cast<std::int64_t>(ev.info.args.fd));
    put(out, static_cast<std::int64_t>(ev.info.args.tag));
    put(out, ev.info.args.transfer_seconds);
    put(out, ev.info.truth_class_since_last);
    put(out, static_cast<std::uint8_t>(ev.info.statically_fixed_since_last));
    put(out, static_cast<std::uint32_t>(ev.info.path.size()));
    for (std::uint32_t frame : ev.info.path) put(out, frame);
    for (double v : ev.ground_truth.values) put(out, v);
  }
  out.close();
  return !out.fail();
}

std::optional<Trace> Trace::load(const std::string& path,
                                 std::string* error) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream why;
  std::optional<Trace> trace;
  if (in)
    trace = parse(in, why);
  else
    why << "cannot open file";
  if (!trace && error) *error = why.str();
  return trace;
}

void TraceWriter::on_call_begin(const sim::InvocationInfo& info, double time,
                                const pmu::CounterSample& gt) {
  trace_.append(TraceEvent{EventKind::kCallBegin, time, info, gt});
  if (tee_) tee_->on_call_begin(info, time, gt);
}

void TraceWriter::on_call_end(const sim::InvocationInfo& info, double time,
                              const pmu::CounterSample& gt) {
  trace_.append(TraceEvent{EventKind::kCallEnd, time, info, gt});
  if (tee_) tee_->on_call_end(info, time, gt);
}

void TraceWriter::on_program_end(sim::RankId rank, double time) {
  TraceEvent ev;
  ev.kind = EventKind::kProgramEnd;
  ev.time = time;
  ev.info.rank = rank;
  trace_.append(std::move(ev));
  if (tee_) tee_->on_program_end(rank, time);
}

void TraceReplayer::dispatch(const TraceEvent& ev, sim::Interceptor& sink) {
  switch (ev.kind) {
    case EventKind::kCallBegin:
      sink.on_call_begin(ev.info, ev.time, ev.ground_truth);
      break;
    case EventKind::kCallEnd:
      sink.on_call_end(ev.info, ev.time, ev.ground_truth);
      break;
    case EventKind::kProgramEnd:
      sink.on_program_end(ev.info.rank, ev.time);
      break;
  }
}

void TraceReplayer::replay(sim::Interceptor& sink) const {
  for (const TraceEvent& ev : trace_.events()) dispatch(ev, sink);
}

}  // namespace vapro::trace
