#include "src/util/arena.hpp"

#include <algorithm>

#include "src/util/check.hpp"

namespace vapro::util {

namespace {

std::size_t align_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

}  // namespace

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  VAPRO_DCHECK(align != 0 && (align & (align - 1)) == 0);
  if (bytes == 0) bytes = 1;
  // Bump the current chunk, then scan the (reset, empty) chunks after it
  // before asking the system for more.
  for (std::size_t i = current_; i < chunks_.size(); ++i) {
    Chunk& c = chunks_[i];
    const std::size_t start = align_up(c.used, align);
    if (start + bytes <= c.size) {
      c.used = start + bytes;
      current_ = i;
      return c.data.get() + start;
    }
  }
  Chunk& c = grow(bytes + align);
  const std::size_t start =
      align_up(reinterpret_cast<std::size_t>(c.data.get()), align) -
      reinterpret_cast<std::size_t>(c.data.get());
  c.used = start + bytes;
  current_ = chunks_.size() - 1;
  return c.data.get() + start;
}

Arena::Chunk& Arena::grow(std::size_t at_least) {
  std::size_t want = min_chunk_bytes_;
  if (!chunks_.empty())
    want = std::min(chunks_.back().size * 2, kMaxChunkBytes);
  want = std::max(want, at_least);
  Chunk c;
  // Not zero-filled: every caller writes what it reads, so chunk tails
  // nobody writes are never faulted in.
  c.data = std::make_unique_for_overwrite<std::byte[]>(want);
  c.size = want;
  chunks_.push_back(std::move(c));
  return chunks_.back();
}

void Arena::reset() {
  for (Chunk& c : chunks_) c.used = 0;
  current_ = 0;
}

std::size_t Arena::bytes_used() const {
  std::size_t n = 0;
  for (const Chunk& c : chunks_) n += c.used;
  return n;
}

std::size_t Arena::bytes_reserved() const {
  std::size_t n = 0;
  for (const Chunk& c : chunks_) n += c.size;
  return n;
}

}  // namespace vapro::util
