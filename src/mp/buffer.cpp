#include "mp/buffer.hpp"

#include <atomic>
#include <mutex>

#include "util/error.hpp"

namespace pblpar::mp {

namespace {

// Size classes: powers of two from 4 KiB to 32 MiB. Larger payloads
// bypass the cache (allocated and freed directly).
constexpr std::size_t kMinBlockBytes = std::size_t{1} << 12;
constexpr int kClassCount = 14;
constexpr std::size_t kMaxCachedPerClass = 8;

struct PoolClass {
  std::mutex mu;
  std::vector<std::byte*> blocks;
};

PoolClass& pool_class(int index) {
  // Never destroyed: a Buffer released during static destruction still
  // finds a live pool, and the cached blocks stay reachable at exit, so
  // LeakSanitizer does not report them.
  static PoolClass* const classes = new PoolClass[kClassCount];
  return classes[index];
}

std::atomic<std::uint64_t> g_pool_hits{0};
std::atomic<std::uint64_t> g_pool_misses{0};
std::atomic<std::uint64_t> g_pool_recycled{0};
std::atomic<std::uint64_t> g_pool_discarded{0};

std::atomic<std::uint64_t> g_copy_count{0};
std::atomic<std::uint64_t> g_copy_bytes{0};

/// Smallest size class whose capacity holds `size`, or -1 when the
/// request is above the largest cached class.
int class_for(std::size_t size) {
  std::size_t capacity = kMinBlockBytes;
  for (int c = 0; c < kClassCount; ++c) {
    if (size <= capacity) {
      return c;
    }
    capacity <<= 1;
  }
  return -1;
}

std::size_t class_capacity(int index) {
  return kMinBlockBytes << static_cast<std::size_t>(index);
}

}  // namespace

namespace detail {

void note_payload_copy(std::size_t bytes) {
  g_copy_count.fetch_add(1, std::memory_order_relaxed);
  g_copy_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

PooledBlock pool_acquire(std::size_t size) {
  const int index = class_for(size);
  if (index < 0) {
    g_pool_misses.fetch_add(1, std::memory_order_relaxed);
    return PooledBlock{new std::byte[size], size};
  }
  const std::size_t capacity = class_capacity(index);
  PoolClass& cls = pool_class(index);
  {
    std::lock_guard<std::mutex> lock(cls.mu);
    if (!cls.blocks.empty()) {
      std::byte* block = cls.blocks.back();
      cls.blocks.pop_back();
      g_pool_hits.fetch_add(1, std::memory_order_relaxed);
      return PooledBlock{block, capacity};
    }
  }
  g_pool_misses.fetch_add(1, std::memory_order_relaxed);
  return PooledBlock{new std::byte[capacity], capacity};
}

void pool_release(std::byte* data, std::size_t capacity) noexcept {
  const int index = class_for(capacity);
  if (index >= 0 && class_capacity(index) == capacity) {
    PoolClass& cls = pool_class(index);
    std::lock_guard<std::mutex> lock(cls.mu);
    if (cls.blocks.size() < kMaxCachedPerClass) {
      cls.blocks.push_back(data);
      g_pool_recycled.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  g_pool_discarded.fetch_add(1, std::memory_order_relaxed);
  delete[] data;
}

}  // namespace detail

PoolStats buffer_pool_stats() {
  PoolStats stats;
  stats.hits = g_pool_hits.load(std::memory_order_relaxed);
  stats.misses = g_pool_misses.load(std::memory_order_relaxed);
  stats.recycled = g_pool_recycled.load(std::memory_order_relaxed);
  stats.discarded = g_pool_discarded.load(std::memory_order_relaxed);
  return stats;
}

void buffer_pool_reset_stats() {
  g_pool_hits.store(0, std::memory_order_relaxed);
  g_pool_misses.store(0, std::memory_order_relaxed);
  g_pool_recycled.store(0, std::memory_order_relaxed);
  g_pool_discarded.store(0, std::memory_order_relaxed);
}

void buffer_pool_trim() {
  for (int c = 0; c < kClassCount; ++c) {
    PoolClass& cls = pool_class(c);
    std::vector<std::byte*> blocks;
    {
      std::lock_guard<std::mutex> lock(cls.mu);
      blocks.swap(cls.blocks);
    }
    for (std::byte* block : blocks) {
      delete[] block;
    }
  }
}

CopyStats payload_copy_stats() {
  CopyStats stats;
  stats.copies = g_copy_count.load(std::memory_order_relaxed);
  stats.bytes = g_copy_bytes.load(std::memory_order_relaxed);
  return stats;
}

void payload_copy_reset_stats() {
  g_copy_count.store(0, std::memory_order_relaxed);
  g_copy_bytes.store(0, std::memory_order_relaxed);
}

Buffer Buffer::uninitialized(std::size_t size) {
  Buffer buffer;
  buffer.size_ = size;
  if (size == 0) {
    return buffer;
  }
  if (size <= kInlineCapacity) {
    buffer.data_ = buffer.sbo_.data();
    return buffer;
  }
  const detail::PooledBlock block = detail::pool_acquire(size);
  buffer.data_ = block.data;
  buffer.keepalive_ = std::shared_ptr<const void>(
      block.data, [capacity = block.capacity](const void* p) {
        detail::pool_release(
            const_cast<std::byte*>(static_cast<const std::byte*>(p)),
            capacity);
      });
  return buffer;
}

Buffer Buffer::copy_of(const void* data, std::size_t size) {
  Buffer buffer = uninitialized(size);
  detail::copy_payload(buffer.mutable_data(), data, size);
  return buffer;
}

Buffer Buffer::slice(std::size_t offset, std::size_t count) const {
  util::require(offset <= size_ && count <= size_ - offset,
                "Buffer::slice: range out of bounds");
  Buffer out;
  out.size_ = count;
  if (count == 0) {
    return out;
  }
  if (keepalive_ != nullptr) {
    out.keepalive_ = keepalive_;
    out.data_ = data_ + offset;
    return out;
  }
  std::memcpy(out.sbo_.data(), data_ + offset, count);
  out.data_ = out.sbo_.data();
  return out;
}

}  // namespace pblpar::mp
