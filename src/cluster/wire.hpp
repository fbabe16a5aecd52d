#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace pblpar::cluster {

/// A decode ran past the end of the buffer or found an impossible length
/// — the payload was not produced by the matching Writer sequence.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only byte buffer for building engine message payloads and
/// shuffle blobs. The format is positional: the Reader must consume the
/// exact same sequence of fields the Writer produced (no tags, no
/// padding), which keeps blobs byte-deterministic — equal field
/// sequences encode to equal bytes.
class Writer {
 public:
  void raw(const void* data, std::size_t size) {
    if (size == 0) {
      return;  // empty blobs and strings may pass data() == nullptr
    }
    const auto* bytes = static_cast<const std::byte*>(data);
    bytes_.insert(bytes_.end(), bytes, bytes + size);
  }

  template <class T>
  void trivial(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&value, sizeof(T));
  }

  void u32(std::uint32_t value) { trivial(value); }
  void u64(std::uint64_t value) { trivial(value); }
  void i32(std::int32_t value) { trivial(value); }
  void i64(std::int64_t value) { trivial(value); }
  void f64(double value) { trivial(value); }

  void str(const std::string& text) {
    u32(static_cast<std::uint32_t>(text.size()));
    raw(text.data(), text.size());
  }

  /// Length-prefixed nested buffer.
  void blob(std::span<const std::byte> bytes) {
    u32(static_cast<std::uint32_t>(bytes.size()));
    raw(bytes.data(), bytes.size());
  }

  std::size_t size() const { return bytes_.size(); }

  std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  std::vector<std::byte> bytes_;
};

/// Positional decoder over a byte buffer produced by Writer. Does not own
/// the bytes; the backing storage (vector, mp::Buffer, message payload)
/// must outlive the Reader and any views handed out.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}
  explicit Reader(const std::vector<std::byte>& bytes)
      : bytes_(bytes.data(), bytes.size()) {}

  void raw(void* out, std::size_t size) {
    if (pos_ + size > bytes_.size()) {
      throw WireError("cluster wire: decode ran past the end of the buffer");
    }
    std::memcpy(out, bytes_.data() + pos_, size);
    pos_ += size;
  }

  /// Advance past `size` bytes without reading them.
  void skip(std::size_t size) {
    if (size > remaining()) {
      throw WireError("cluster wire: skip ran past the end of the buffer");
    }
    pos_ += size;
  }

  template <class T>
  T trivial() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    raw(&value, sizeof(T));
    return value;
  }

  std::uint32_t u32() { return trivial<std::uint32_t>(); }
  std::uint64_t u64() { return trivial<std::uint64_t>(); }
  std::int32_t i32() { return trivial<std::int32_t>(); }
  std::int64_t i64() { return trivial<std::int64_t>(); }
  double f64() { return trivial<double>(); }

  std::string str() {
    const std::uint32_t size = u32();
    if (pos_ + size > bytes_.size()) {
      throw WireError("cluster wire: string length exceeds the buffer");
    }
    std::string text;
    if (size > 0) {
      text.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), size);
    }
    pos_ += size;
    return text;
  }

  std::vector<std::byte> blob() {
    std::span<const std::byte> view = blob_view();
    return std::vector<std::byte>(view.begin(), view.end());
  }

  /// Length-prefixed nested buffer as a zero-copy view into the backing
  /// bytes (valid while they live).
  std::span<const std::byte> blob_view() {
    const std::uint32_t size = u32();
    if (pos_ + size > bytes_.size()) {
      throw WireError("cluster wire: blob length exceeds the buffer");
    }
    std::span<const std::byte> view = bytes_.subspan(pos_, size);
    pos_ += size;
    return view;
  }

  bool done() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t pos() const { return pos_; }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

/// Typed field codec over Writer/Reader, so the distributed MapReduce
/// driver can ship any key/value type the thread-local jobs use:
/// arithmetic types, std::string, std::pair, and std::vector of those.
/// `skip` moves the Reader past one encoded value with the same bounds
/// checks as `read` but without allocating or decoding it, so a caller
/// can find the byte range of a value and forward it untouched.
template <class T, class Enable = void>
struct WireCodec;

template <class T>
struct WireCodec<T, std::enable_if_t<std::is_arithmetic_v<T>>> {
  static void write(Writer& writer, const T& value) {
    writer.trivial(value);
  }
  static T read(Reader& reader) { return reader.template trivial<T>(); }
  static void skip(Reader& reader) { reader.skip(sizeof(T)); }
};

template <>
struct WireCodec<std::string> {
  static void write(Writer& writer, const std::string& value) {
    writer.str(value);
  }
  static std::string read(Reader& reader) { return reader.str(); }
  static void skip(Reader& reader) { reader.skip(reader.u32()); }
};

template <class A, class B>
struct WireCodec<std::pair<A, B>> {
  static void write(Writer& writer, const std::pair<A, B>& value) {
    WireCodec<A>::write(writer, value.first);
    WireCodec<B>::write(writer, value.second);
  }
  static std::pair<A, B> read(Reader& reader) {
    A a = WireCodec<A>::read(reader);
    B b = WireCodec<B>::read(reader);
    return {std::move(a), std::move(b)};
  }
  static void skip(Reader& reader) {
    WireCodec<A>::skip(reader);
    WireCodec<B>::skip(reader);
  }
};

template <class U>
struct WireCodec<std::vector<U>> {
  static void write(Writer& writer, const std::vector<U>& values) {
    writer.u32(static_cast<std::uint32_t>(values.size()));
    for (const U& value : values) {
      WireCodec<U>::write(writer, value);
    }
  }
  static std::vector<U> read(Reader& reader) {
    const std::uint32_t count = read_count(reader);
    std::vector<U> values;
    values.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      values.push_back(WireCodec<U>::read(reader));
    }
    return values;
  }
  static void skip(Reader& reader) {
    const std::uint32_t count = read_count(reader);
    for (std::uint32_t i = 0; i < count; ++i) {
      WireCodec<U>::skip(reader);
    }
  }
  /// The u32 element count, checked against the bytes left: every
  /// element encodes to at least one byte, so a count beyond the
  /// remaining bytes is corrupt — reject it before reserving or looping.
  static std::uint32_t read_count(Reader& reader) {
    const std::uint32_t count = reader.u32();
    if (count > reader.remaining()) {
      throw WireError("cluster wire: vector count exceeds the buffer");
    }
    return count;
  }
};

}  // namespace pblpar::cluster
