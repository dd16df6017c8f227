// CRC-32/IEEE (polynomial 0xEDB88320, the zlib/Ethernet checksum), which
// the net wire protocol (src/net/wire.hpp) stamps on every frame payload.
// Known-answer: crc32("123456789") == 0xCBF43926.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vapro::util {

std::uint32_t crc32(const void* data, std::size_t len);

}  // namespace vapro::util
