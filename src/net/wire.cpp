#include "src/net/wire.hpp"

#include <cmath>
#include <cstring>

#include "src/util/crc32.hpp"

namespace vapro::net {
namespace {

// --- little-endian primitives ---------------------------------------------
// memcpy through explicit byte shifts: endian-independent, alignment-safe,
// and free of the type-punning UB the ubsan CI job exists to catch.

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
void put_u16(std::string& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v & 0xff));
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    put_u8(out, static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    put_u8(out, static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}
void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}
void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}
void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

// Bounded cursor over a payload; every get_* checks remaining bytes so a
// truncated or hostile payload fails cleanly instead of reading past the
// buffer.
struct Cursor {
  const std::uint8_t* p;
  std::size_t len;
  std::size_t off = 0;
  bool ok = true;

  explicit Cursor(const std::string& s)
      : p(reinterpret_cast<const std::uint8_t*>(s.data())), len(s.size()) {}

  bool need(std::size_t n) {
    if (!ok || len - off < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return p[off++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(p[off]) |
        (static_cast<std::uint16_t>(p[off + 1]) << 8));
    off += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(p[off + static_cast<std::size_t>(i)])
           << (8 * i);
    off += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(p[off + static_cast<std::size_t>(i)])
           << (8 * i);
    off += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string bytes(std::size_t n) {
    if (!need(n)) return std::string();
    std::string s(reinterpret_cast<const char*>(p + off), n);
    off += n;
    return s;
  }
  bool done() const { return ok && off == len; }
};

bool fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

void put_args(std::string& out, const sim::CommArgs& a) {
  // Names every field: one added to CommArgs breaks the build here.
  const auto& [bytes, peer, fd, tag, transfer] = a;
  put_f64(out, bytes);
  put_i32(out, peer);
  put_i32(out, fd);
  put_i32(out, tag);
  put_f64(out, transfer);
}

void get_args(Cursor& c, sim::CommArgs* a) {
  a->bytes = c.f64();
  a->peer = c.i32();
  a->fd = c.i32();
  a->tag = c.i32();
  a->transfer_seconds = c.f64();
}

}  // namespace

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kBatch: return "batch";
    case FrameType::kAck: return "ack";
    case FrameType::kNack: return "nack";
    case FrameType::kBye: return "bye";
  }
  return "?";
}

const char* ack_status_name(AckStatus s) {
  switch (s) {
    case AckStatus::kAdmitted: return "admitted";
    case AckStatus::kDuplicate: return "duplicate";
    case AckStatus::kShed: return "shed";
    case AckStatus::kRejected: return "rejected";
  }
  return "?";
}

std::uint32_t crc32(const void* data, std::size_t len) {
  return util::crc32(data, len);
}

std::string encode_frame(FrameType type, std::uint64_t seq,
                         const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  put_u32(out, kWireMagic);
  put_u16(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u8(out, 0);  // flags
  put_u64(out, seq);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

bool decode_header(const std::uint8_t* bytes, FrameHeader* out,
                   std::string* error) {
  std::string view(reinterpret_cast<const char*>(bytes), kFrameHeaderBytes);
  Cursor c(view);
  out->magic = c.u32();
  out->version = c.u16();
  const std::uint8_t type = c.u8();
  out->flags = c.u8();
  out->seq = c.u64();
  out->payload_len = c.u32();
  out->payload_crc = c.u32();
  if (out->magic != kWireMagic) return fail(error, "bad magic");
  if (out->version != kWireVersion)
    return fail(error, "unsupported wire version " +
                           std::to_string(out->version));
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kBye))
    return fail(error, "unknown frame type " + std::to_string(type));
  out->type = static_cast<FrameType>(type);
  if (out->flags != 0) return fail(error, "nonzero flags");
  if (out->payload_len > kMaxPayloadBytes)
    return fail(error, "oversized payload");
  return true;
}

std::string encode_hello(const HelloPayload& hello) {
  std::string out;
  put_u16(out, hello.wire_version);
  put_u16(out, static_cast<std::uint16_t>(hello.tenant.size()));
  out.append(hello.tenant);
  put_u32(out, hello.ranks);
  return out;
}

bool decode_hello(const std::string& payload, HelloPayload* out,
                  std::string* error) {
  Cursor c(payload);
  out->wire_version = c.u16();
  const std::uint16_t name_len = c.u16();
  out->tenant = c.bytes(name_len);
  out->ranks = c.u32();
  if (!c.done()) return fail(error, "malformed hello payload");
  return true;
}

std::string encode_batch(const core::FragmentBatch& batch,
                         double drain_seconds) {
  std::string out;
  // Rough size: fragments dominate; header fields below add ~90 bytes each.
  out.reserve(16 + batch.fragments.size() * 96 + batch.new_states.size() * 48);
  put_f64(out, drain_seconds);
  put_u32(out, static_cast<std::uint32_t>(batch.new_states.size()));
  for (const sim::InvocationInfo& info : batch.new_states) {
    put_i32(out, info.rank);
    put_u32(out, info.site);
    put_u8(out, static_cast<std::uint8_t>(info.kind));
    put_args(out, info.args);
    put_u32(out, static_cast<std::uint32_t>(info.path.size()));
    for (std::uint32_t frame : info.path) put_u32(out, frame);
    put_i64(out, info.truth_class_since_last);
    put_u8(out, info.statically_fixed_since_last ? 1 : 0);
  }
  const core::FragmentColumns& frags = batch.fragments;
  put_u32(out, static_cast<std::uint32_t>(frags.size()));
  for (std::size_t idx = 0; idx < frags.size(); ++idx) {
    put_u8(out, static_cast<std::uint8_t>(frags.kind(idx)));
    put_i32(out, frags.rank(idx));
    put_u64(out, frags.from(idx));
    put_u64(out, frags.to(idx));
    put_f64(out, frags.start_time(idx));
    put_f64(out, frags.end_time(idx));
    // Sparse counter sample: (slot, value) pairs for present slots only.
    // "Present" means a non-zero BIT PATTERN, not numeric non-zero: -0.0
    // and the rest of the weird doubles must survive the round trip
    // bit-identical.
    const pmu::CounterSample counters = frags.counters(idx);
    std::uint8_t active = 0;
    for (std::size_t i = 0; i < pmu::kCounterCount; ++i)
      if (pmu::counter_present(counters.values[i])) ++active;
    put_u8(out, active);
    for (std::size_t i = 0; i < pmu::kCounterCount; ++i) {
      if (!pmu::counter_present(counters.values[i])) continue;
      put_u8(out, static_cast<std::uint8_t>(i));
      put_f64(out, counters.values[i]);
    }
    put_args(out, frags.args(idx));
    put_u8(out, static_cast<std::uint8_t>(frags.op(idx)));
    put_i64(out, frags.truth_class(idx));
  }
  return out;
}

bool decode_batch(const std::string& payload, core::FragmentBatch* out,
                  double* drain_seconds, std::string* error,
                  std::size_t* declared_fragments) {
  if (declared_fragments) *declared_fragments = 0;
  Cursor c(payload);
  out->new_states.clear();
  out->fragments.clear();
  const double drain = c.f64();
  const std::uint32_t n_states = c.u32();
  if (!c.ok || n_states > payload.size())
    return fail(error, "malformed batch payload (state count)");
  out->new_states.reserve(n_states);
  for (std::uint32_t i = 0; i < n_states; ++i) {
    sim::InvocationInfo info;
    info.rank = c.i32();
    info.site = c.u32();
    const std::uint8_t kind = c.u8();
    if (kind > static_cast<std::uint8_t>(sim::OpKind::kProbe))
      return fail(error, "malformed batch payload (op kind)");
    info.kind = static_cast<sim::OpKind>(kind);
    get_args(c, &info.args);
    const std::uint32_t depth = c.u32();
    if (!c.ok || depth > payload.size())
      return fail(error, "malformed batch payload (path depth)");
    info.path.reserve(depth);
    for (std::uint32_t d = 0; d < depth; ++d) info.path.push_back(c.u32());
    info.truth_class_since_last = c.i64();
    info.statically_fixed_since_last = c.u8() != 0;
    if (!c.ok) return fail(error, "malformed batch payload (truncated state)");
    out->new_states.push_back(std::move(info));
  }
  const std::uint32_t n_frags = c.u32();
  if (!c.ok || n_frags > payload.size())
    return fail(error, "malformed batch payload (fragment count)");
  if (declared_fragments) *declared_fragments = n_frags;
  out->fragments.reserve(n_frags);
  for (std::uint32_t i = 0; i < n_frags; ++i) {
    core::Fragment f;
    const std::uint8_t kind = c.u8();
    if (kind > static_cast<std::uint8_t>(core::FragmentKind::kIo))
      return fail(error, "malformed batch payload (fragment kind)");
    f.kind = static_cast<core::FragmentKind>(kind);
    f.rank = c.i32();
    f.from = c.u64();
    f.to = c.u64();
    f.start_time = c.f64();
    f.end_time = c.f64();
    // Times index heat-map bins: a NaN, infinite or negative time would
    // land outside the map.  An end before the start is a negative
    // duration, which would become its cluster's baseline minimum for good.
    if (!(std::isfinite(f.start_time) && std::isfinite(f.end_time) &&
          f.start_time >= 0.0 && f.end_time >= f.start_time))
      return fail(error, "malformed batch payload (fragment time)");
    const std::uint8_t active = c.u8();
    if (active > pmu::kCounterCount)
      return fail(error, "malformed batch payload (counter count)");
    for (std::uint8_t s = 0; s < active; ++s) {
      const std::uint8_t slot = c.u8();
      const double value = c.f64();
      if (slot >= pmu::kCounterCount)
        return fail(error, "malformed batch payload (counter slot)");
      // Counters and bytes are workload dims: a NaN norm never ends its
      // seed's norm-sorted sweep, so the item would cluster in quadratic
      // time, every such fragment a singleton.
      if (!std::isfinite(value))
        return fail(error, "malformed batch payload (counter value)");
      f.counters.values[slot] = value;
    }
    get_args(c, &f.args);
    if (!std::isfinite(f.args.bytes))
      return fail(error, "malformed batch payload (fragment bytes)");
    const std::uint8_t op = c.u8();
    if (op > static_cast<std::uint8_t>(sim::OpKind::kProbe))
      return fail(error, "malformed batch payload (fragment op)");
    f.op = static_cast<sim::OpKind>(op);
    f.truth_class = c.i64();
    if (!c.ok)
      return fail(error, "malformed batch payload (truncated fragment)");
    out->fragments.push_back(f);
  }
  if (!c.done()) return fail(error, "malformed batch payload (trailing bytes)");
  if (drain_seconds) *drain_seconds = drain;
  return true;
}

std::string encode_ack(AckStatus status) {
  std::string out;
  put_u8(out, static_cast<std::uint8_t>(status));
  return out;
}

bool decode_ack(const std::string& payload, AckStatus* out,
                std::string* error) {
  Cursor c(payload);
  const std::uint8_t status = c.u8();
  if (!c.done() || status > static_cast<std::uint8_t>(AckStatus::kRejected))
    return fail(error, "malformed ack payload");
  *out = static_cast<AckStatus>(status);
  return true;
}

}  // namespace vapro::net
