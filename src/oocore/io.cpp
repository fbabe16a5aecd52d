#include "oocore/io.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "util/error.hpp"

namespace pblpar::oocore {

namespace {

bool valid_probability(double p) { return std::isfinite(p) && p >= 0.0 && p <= 1.0; }

std::uint64_t chaos_stream_seed(std::uint64_t seed, std::uint64_t salt) {
  util::SplitMix64 mix(seed ^ (salt * 0x9E3779B97F4A7C15ULL));
  return mix.next();
}

}  // namespace

void IoChaos::validate() const {
  util::require(valid_probability(short_write_probability),
                "IoChaos: short_write_probability must be in [0, 1]");
  util::require(valid_probability(slow_read_probability),
                "IoChaos: slow_read_probability must be in [0, 1]");
  util::require(std::isfinite(slow_read_delay_s) && slow_read_delay_s >= 0.0,
                "IoChaos: slow_read_delay_s must be finite and >= 0");
}

RawFile::RawFile(const std::filesystem::path& path, Mode mode,
                 const IoChaos& chaos, std::uint64_t salt)
    : chaos_(chaos),
      chaos_reads_(chaos.slow_read_probability > 0.0),
      chaos_writes_(chaos.short_write_probability > 0.0),
      rng_(chaos_stream_seed(chaos.seed, salt)) {
  chaos_.validate();
  const char* flags = mode == Mode::Read    ? "rb"
                      : mode == Mode::Write ? "wb"
                                            : "r+b";
  file_ = std::fopen(path.string().c_str(), flags);
  if (file_ == nullptr) {
    throw IoError("oocore: cannot open " + path.string() +
                  (mode == Mode::Read ? " for reading" : " for writing"));
  }
}

RawFile::~RawFile() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void RawFile::seek(std::uint64_t offset) {
#if defined(_WIN32)
  const int rc = _fseeki64(file_, static_cast<long long>(offset), SEEK_SET);
#else
  const int rc = std::fseek(file_, static_cast<long>(offset), SEEK_SET);
#endif
  if (rc != 0) {
    throw IoError("oocore: seek failed");
  }
}

std::size_t RawFile::read(void* out, std::size_t count) {
  auto* dst = static_cast<std::byte*>(out);
  std::size_t off = 0;
  while (off < count) {
    if (chaos_reads_ && rng_.bernoulli(chaos_.slow_read_probability)) {
      // Injected slow read: the disk "went away" for a moment, and the
      // merge or reduce that issued the read waits it out.
      std::this_thread::sleep_for(
          std::chrono::duration<double>(chaos_.slow_read_delay_s));
    }
    const std::size_t got = std::fread(dst + off, 1, count - off, file_);
    if (got == 0) {
      if (std::ferror(file_) != 0) {
        throw IoError("oocore: read failed");
      }
      break;  // end of file
    }
    off += got;
  }
  bytes_read_ += static_cast<std::int64_t>(off);
  return off;
}

void RawFile::write(const void* data, std::size_t count) {
  const auto* src = static_cast<const std::byte*>(data);
  std::size_t off = 0;
  while (off < count) {
    std::size_t want = count - off;
    if (chaos_writes_ && want > 1 &&
        rng_.bernoulli(chaos_.short_write_probability)) {
      // Injected short write: hand the stream only part of the buffer,
      // as a signal-interrupted or quota-throttled write() would. The
      // loop must pick up exactly where the short write stopped.
      want = (want + 1) / 2;
    }
    const std::size_t put = std::fwrite(src + off, 1, want, file_);
    if (put < want && std::ferror(file_) != 0) {
      throw IoError("oocore: write failed");
    }
    if (put == 0) {
      throw IoError("oocore: write made no progress");
    }
    off += put;
  }
  bytes_written_ += static_cast<std::int64_t>(count);
}

void RawFile::close() {
  if (file_ == nullptr) {
    return;
  }
  const bool flush_ok = std::fflush(file_) == 0;
  const bool error = std::ferror(file_) != 0;
  const bool close_ok = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!flush_ok || error || !close_ok) {
    throw IoError("oocore: closing a spill file failed (disk full?)");
  }
}

SpillWriter::SpillWriter(const std::filesystem::path& path,
                         std::size_t buffer_bytes, const IoChaos& chaos,
                         std::uint64_t salt,
                         std::optional<std::uint64_t> offset)
    : file_(path,
            offset.has_value() ? RawFile::Mode::Update : RawFile::Mode::Write,
            chaos, salt) {
  util::require(buffer_bytes > 0, "SpillWriter: buffer_bytes must be > 0");
  buffer_.resize(buffer_bytes);
  if (offset.has_value()) {
    file_.seek(*offset);
  }
}

void SpillWriter::write_slow(const void* data, std::size_t count) {
  const auto* src = static_cast<const std::byte*>(data);
  total_bytes_ += static_cast<std::int64_t>(count);
  // Large blocks skip the staging copy once the buffer is drained.
  if (count >= buffer_.size()) {
    flush();
    file_.write(src, count);
    return;
  }
  while (count > 0) {
    const std::size_t room = buffer_.size() - fill_;
    const std::size_t take = std::min(count, room);
    std::memcpy(buffer_.data() + fill_, src, take);
    fill_ += take;
    src += take;
    count -= take;
    if (fill_ == buffer_.size()) {
      flush();
    }
  }
}

void SpillWriter::flush() {
  if (fill_ > 0) {
    file_.write(buffer_.data(), fill_);
    fill_ = 0;
  }
}

void SpillWriter::close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  flush();
  file_.close();
}

SpillReader::SpillReader(const std::filesystem::path& path,
                         std::size_t buffer_bytes, const IoChaos& chaos,
                         std::uint64_t salt, std::uint64_t offset,
                         std::uint64_t limit)
    : file_(path, RawFile::Mode::Read, chaos, salt), remaining_(limit) {
  util::require(buffer_bytes > 0, "SpillReader: buffer_bytes must be > 0");
  buffer_.resize(buffer_bytes);
  if (offset != 0) {
    file_.seek(offset);
  }
}

std::size_t SpillReader::read_slow(void* out, std::size_t count) {
  auto* dst = static_cast<std::byte*>(out);
  std::size_t off = 0;
  while (off < count) {
    if (pos_ == len_) {
      std::uint64_t want = buffer_.size();
      if (remaining_ != npos) {
        want = std::min<std::uint64_t>(want, remaining_);
      }
      if (want == 0) {
        break;  // window exhausted
      }
      len_ = file_.read(buffer_.data(), static_cast<std::size_t>(want));
      pos_ = 0;
      if (remaining_ != npos) {
        remaining_ -= len_;
      }
      if (len_ == 0) {
        break;  // end of file
      }
    }
    const std::size_t take = std::min(count - off, len_ - pos_);
    std::memcpy(dst + off, buffer_.data() + pos_, take);
    pos_ += take;
    off += take;
  }
  total_bytes_ += static_cast<std::int64_t>(off);
  return off;
}

}  // namespace pblpar::oocore
