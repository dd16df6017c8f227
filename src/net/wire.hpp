// Vapro ingest wire protocol v1 — no-deps binary framing for fragment
// batches over sockets (ROADMAP item 2; the exposition server proved the
// socket idiom, this is the data plane).
//
// Every frame is a fixed 24-byte header followed by `payload_len` bytes:
//
//   offset  size  field        notes
//   ------  ----  -----------  ------------------------------------------
//   0       4     magic        0x5650524F ("VPRO"), little-endian
//   4       2     version      wire schema version, currently 1
//   6       1     type         FrameType below
//   7       1     flags        reserved, must be 0
//   8       8     seq          per-tenant batch sequence number
//   16      4     payload_len  bytes following the header
//   20      4     payload_crc  CRC-32 (IEEE 802.3) over the payload
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern in a u64, so a decoded batch is BIT-IDENTICAL to the encoded one
// — the property the net-transport equivalence harness asserts end to end.
//
// Frame types:
//   kHello  client → server, once per connection: wire version + tenant
//           name + rank count.  Acked (or nacked: unknown tenant / version
//           mismatch, then the server closes).
//   kBatch  client → server: one FragmentBatch plus its drain timestamp.
//           Acked with an AckStatus; a CRC mismatch gets a kNack carrying
//           the header's seq so the client can retransmit exactly that
//           batch.
//   kAck    server → client: 1-byte AckStatus payload.
//   kNack   server → client: empty payload; "resend seq".
//   kBye    client → server: clean shutdown, no reply.
//
// Idempotency contract: `seq` starts at 0 per (tenant, stream) and
// increases by 1 per unique batch.  Retransmits reuse the original seq, so
// the session layer can dedup (kDuplicate ack) instead of double-counting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/core/client.hpp"

namespace vapro::net {

inline constexpr std::uint32_t kWireMagic = 0x5650524Fu;  // "VPRO"
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 24;
// Upper bound on a sane payload; anything larger is a protocol error (a
// desynced or hostile peer), not a batch.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kBatch = 2,
  kAck = 3,
  kNack = 4,
  kBye = 5,
};

enum class AckStatus : std::uint8_t {
  kAdmitted = 0,   // queued (or buffered for in-order application)
  kDuplicate = 1,  // seq already seen — retransmit deduped
  kShed = 2,       // admission shed this batch; journaled as `shed`
  kRejected = 3,   // protocol-level refusal (unknown tenant, bad version)
};

const char* frame_type_name(FrameType t);
const char* ack_status_name(AckStatus s);

struct FrameHeader {
  std::uint32_t magic = kWireMagic;
  std::uint16_t version = kWireVersion;
  FrameType type = FrameType::kBye;
  std::uint8_t flags = 0;
  std::uint64_t seq = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320), the classic table-driven
// form.  crc32("123456789") == 0xCBF43926.
std::uint32_t crc32(const void* data, std::size_t len);

// --- frame codec -----------------------------------------------------------

// Serializes header + payload into one contiguous buffer ready to send.
std::string encode_frame(FrameType type, std::uint64_t seq,
                         const std::string& payload);

// Parses a 24-byte header.  False (with `error` set) on bad magic, version,
// unknown type, nonzero flags, or oversized payload_len — all of which mean
// the stream is desynced and the connection must drop.
bool decode_header(const std::uint8_t* bytes, FrameHeader* out,
                   std::string* error);

// --- payload codecs --------------------------------------------------------

struct HelloPayload {
  std::uint16_t wire_version = kWireVersion;
  std::string tenant;
  std::uint32_t ranks = 0;
};

std::string encode_hello(const HelloPayload& hello);
bool decode_hello(const std::string& payload, HelloPayload* out,
                  std::string* error);

// Batch payload: drain_seconds (f64) then the FragmentBatch.  Counter
// samples are sparse (only slots whose bit pattern is non-zero travel),
// since most of the 18 counter slots are inactive in any given PMU
// programming.  decode_batch refuses a fragment whose times are negative,
// not finite, or end before they start; `declared_fragments`, when given,
// receives the fragment count the payload declares, also when a later
// field fails (0 when the count itself is unreadable).  Ranks, time range
// and states are checked against the tenant by the session
// (src/net/session.hpp).
std::string encode_batch(const core::FragmentBatch& batch,
                         double drain_seconds);
bool decode_batch(const std::string& payload, core::FragmentBatch* out,
                  double* drain_seconds, std::string* error,
                  std::size_t* declared_fragments = nullptr);

std::string encode_ack(AckStatus status);
bool decode_ack(const std::string& payload, AckStatus* out,
                std::string* error);

}  // namespace vapro::net
