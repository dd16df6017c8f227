// Chunked bump allocator for per-window data.
//
// The analysis pipeline allocates a window's worth of fragment columns,
// clusters them, publishes, and throws the whole window away — a lifetime
// pattern that malloc/free per container serves poorly.  An Arena hands
// out pointers by bumping a cursor through geometrically-growing chunks;
// reset() rewinds every cursor WITHOUT returning memory to the system, so
// an arena that is cleared and refilled touches the allocator only while
// it grows.  The server's window cycle does not keep one arena, though:
// Stg::adopt_fragments move-assigns each drained batch's arena over the
// previous window's, which frees it, and VaproClient::drain starts a fresh
// one — one arena's chunks are allocated and freed per window.
//
// Chunks are not zero-filled: memory comes back exactly as the system
// hands it out, so a chunk tail nobody writes is never faulted in.
// Callers write every byte they read; FragmentColumns zero-fills a
// counter column's earlier rows itself when the column first appears.
//
// Only trivially-destructible payloads belong here (the arena never runs
// destructors); FragmentColumns (src/core/columns.hpp) stores exactly
// such columns.  Moving an Arena moves chunk ownership — a pointer swap —
// which is what makes batch hand-off between pipeline stages copy-free.
//
// Not thread-safe: one arena belongs to one window's producer at a time,
// matching the pipeline's hand-off discipline (a batch is owned by exactly
// one stage).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace vapro::util {

class Arena {
 public:
  // Chunks start at `min_chunk_bytes` and double up to `max_chunk_bytes`
  // as demand grows; a single oversized request gets its own exact-fit
  // chunk.
  explicit Arena(std::size_t min_chunk_bytes = 64 * 1024)
      : min_chunk_bytes_(min_chunk_bytes ? min_chunk_bytes : 1) {}

  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `bytes` of storage aligned to `align` (a power of two).
  // Never returns nullptr; zero-byte requests get a unique valid pointer
  // into the current chunk.
  void* allocate(std::size_t bytes, std::size_t align);

  template <typename T>
  T* allocate_array(std::size_t n) {
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  // Rewinds every chunk cursor; all previously returned pointers become
  // dead, all chunk memory stays reserved for reuse.
  void reset();

  // Bytes handed out since the last reset (including alignment padding).
  std::size_t bytes_used() const;
  // Bytes held from the system across resets.
  std::size_t bytes_reserved() const;
  std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static constexpr std::size_t kMaxChunkBytes = 8u << 20;

  Chunk& grow(std::size_t at_least);

  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;  // index of the chunk being bumped
  std::size_t min_chunk_bytes_;
};

}  // namespace vapro::util
