#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace pblpar::oocore {

/// A spill file could not be opened, read or written (disk full, unlinked
/// scratch dir, torn record). Unlike rt::Cancelled this is a hard error:
/// the job cannot produce its output.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Seeded I/O fault injection for the out-of-core tier, the disk-side
/// sibling of rt::ChaosPlan: short writes exercise the writer's retry
/// loop, slow reads stall a reader the way a cold disk or a contended
/// spindle would (reads are synchronous, so the stall holds up the
/// merge or reduce that issued it). Draws come from one deterministic
/// xoshiro stream per file (derived from `seed` and a per-file salt), so
/// a plan replays identically. Empty plan (the default) = no injection.
struct IoChaos {
  /// Probability, per physical write, of the write stopping short
  /// mid-buffer (the retry loop then continues from the offset).
  double short_write_probability = 0.0;

  /// Probability, per physical read, of stalling `slow_read_delay_s`
  /// before the read is served.
  double slow_read_probability = 0.0;
  double slow_read_delay_s = 0.0;

  std::uint64_t seed = 1;

  bool empty() const {
    return short_write_probability <= 0.0 && slow_read_probability <= 0.0;
  }

  /// Fail loudly on a malformed plan: probabilities in [0, 1], delay
  /// finite and non-negative.
  void validate() const;
};

/// Thin chaos-aware wrapper over one stdio stream. write() always
/// completes or throws: a short write — injected or real — is retried
/// from the offset it stopped at. read() returns the byte count actually
/// delivered (< requested only at end of file). Update mode opens an
/// existing file for writing without truncating it, so several handles
/// can each seek() to their own byte window of one pre-sized file.
class RawFile {
 public:
  enum class Mode { Read, Write, Update };

  RawFile(const std::filesystem::path& path, Mode mode, const IoChaos& chaos,
          std::uint64_t salt);
  ~RawFile();

  RawFile(const RawFile&) = delete;
  RawFile& operator=(const RawFile&) = delete;

  void seek(std::uint64_t offset);
  std::size_t read(void* out, std::size_t count);
  void write(const void* data, std::size_t count);

  /// Flush buffered bytes to the OS and close; throws IoError if the
  /// stream reports an error. The destructor closes silently instead
  /// (abandoned spill files are unlinked by ScratchDir anyway).
  void close();

  std::int64_t bytes_read() const { return bytes_read_; }
  std::int64_t bytes_written() const { return bytes_written_; }

 private:
  std::FILE* file_ = nullptr;
  IoChaos chaos_;
  bool chaos_reads_ = false;
  bool chaos_writes_ = false;
  util::Rng rng_;
  std::int64_t bytes_read_ = 0;
  std::int64_t bytes_written_ = 0;
};

/// Buffered spill-file writer: small records accumulate in one
/// `buffer_bytes` block, writes at least a block long bypass the copy.
/// Without `offset` it creates (or truncates) `path`; with one it opens
/// the existing file in update mode and writes from that byte on, leaving
/// every byte outside what it writes untouched.
class SpillWriter {
 public:
  SpillWriter(const std::filesystem::path& path, std::size_t buffer_bytes,
              const IoChaos& chaos = {}, std::uint64_t salt = 0,
              std::optional<std::uint64_t> offset = std::nullopt);

  /// Inline fast path (a merge writes one small record per call): copy
  /// into the block when it fits without filling it. Empty writes take
  /// the slow path, which never hands memcpy a possibly-null pointer.
  void write(const void* data, std::size_t count) {
    if (count != 0 && count < buffer_.size() - fill_) {
      std::memcpy(buffer_.data() + fill_, data, count);
      fill_ += count;
      total_bytes_ += static_cast<std::int64_t>(count);
      return;
    }
    write_slow(data, count);
  }

  /// Flush and close; must be called on success paths (the destructor
  /// closes without flushing guarantees, for abandoned files).
  void close();

  std::int64_t bytes_written() const { return total_bytes_; }

 private:
  void write_slow(const void* data, std::size_t count);
  void flush();

  RawFile file_;
  std::vector<std::byte> buffer_;
  std::size_t fill_ = 0;
  std::int64_t total_bytes_ = 0;
  bool closed_ = false;
};

/// Buffered synchronous reader over a byte window [offset, offset+limit)
/// of a file. `limit` == npos reads to end of file.
class SpillReader {
 public:
  static constexpr std::uint64_t npos = ~std::uint64_t{0};

  SpillReader(const std::filesystem::path& path, std::size_t buffer_bytes,
              const IoChaos& chaos = {}, std::uint64_t salt = 0,
              std::uint64_t offset = 0, std::uint64_t limit = npos);

  /// Returns bytes delivered; < count only at the end of the window.
  /// Inline fast path (a merge reads one small record per call): serve
  /// from the block when it holds the whole request (empty reads take
  /// the slow path, as empty writes do).
  std::size_t read(void* out, std::size_t count) {
    if (count != 0 && count <= len_ - pos_) {
      std::memcpy(out, buffer_.data() + pos_, count);
      pos_ += count;
      total_bytes_ += static_cast<std::int64_t>(count);
      return count;
    }
    return read_slow(out, count);
  }

  std::int64_t bytes_read() const { return total_bytes_; }

 private:
  std::size_t read_slow(void* out, std::size_t count);

  RawFile file_;
  std::vector<std::byte> buffer_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  std::uint64_t remaining_;
  std::int64_t total_bytes_ = 0;
};

}  // namespace pblpar::oocore
