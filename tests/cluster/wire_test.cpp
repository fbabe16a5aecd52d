#include "cluster/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pblpar::cluster {
namespace {

TEST(WireTest, ScalarRoundTrip) {
  Writer writer;
  writer.u32(7u);
  writer.u64(1ull << 40);
  writer.i32(-3);
  writer.i64(-(1ll << 40));
  writer.f64(2.5);
  const std::vector<std::byte> bytes = writer.take();

  Reader reader(bytes);
  EXPECT_EQ(reader.u32(), 7u);
  EXPECT_EQ(reader.u64(), 1ull << 40);
  EXPECT_EQ(reader.i32(), -3);
  EXPECT_EQ(reader.i64(), -(1ll << 40));
  EXPECT_DOUBLE_EQ(reader.f64(), 2.5);
  EXPECT_TRUE(reader.done());
}

TEST(WireTest, StringsAndBlobs) {
  Writer inner;
  inner.i32(11);
  Writer writer;
  writer.str("hello wire");
  writer.str("");
  writer.blob(inner.take());
  const std::vector<std::byte> bytes = writer.take();

  Reader reader(bytes);
  EXPECT_EQ(reader.str(), "hello wire");
  EXPECT_EQ(reader.str(), "");
  const std::vector<std::byte> blob = reader.blob();
  Reader blob_reader(blob);
  EXPECT_EQ(blob_reader.i32(), 11);
  EXPECT_TRUE(reader.done());
}

TEST(WireTest, TruncatedDecodeThrows) {
  Writer writer;
  writer.i64(5);
  const std::vector<std::byte> bytes = writer.take();
  {
    Reader reader(bytes);
    (void)reader.i64();
    EXPECT_THROW((void)reader.i32(), WireError);
  }
  {
    // A length prefix larger than the remaining buffer.
    Writer bad;
    bad.u32(1000u);
    const std::vector<std::byte> bad_bytes = bad.take();
    Reader reader(bad_bytes);
    EXPECT_THROW((void)reader.str(), WireError);
    Reader reader2(bad_bytes);
    EXPECT_THROW((void)reader2.blob(), WireError);
  }
}

TEST(WireTest, VectorCountLargerThanTheBufferThrowsBeforeAllocating) {
  // A bare count of 2^32 - 1 elements with no element bytes behind it.
  const std::vector<std::byte> bytes(4, std::byte{0xFF});
  Reader reader(bytes);
  using Pairs = std::vector<std::pair<std::string, long>>;
  EXPECT_THROW((void)WireCodec<Pairs>::read(reader), WireError);
}

TEST(WireTest, CodecRoundTripsNestedTypes) {
  using Pairs = std::vector<std::pair<std::string, std::vector<int>>>;
  const Pairs value = {{"alpha", {1, 2, 3}}, {"", {}}, {"beta", {-7}}};

  Writer writer;
  WireCodec<Pairs>::write(writer, value);
  const std::vector<std::byte> bytes = writer.take();

  Reader reader(bytes);
  EXPECT_EQ(WireCodec<Pairs>::read(reader), value);
  EXPECT_TRUE(reader.done());
}

TEST(WireTest, EqualFieldSequencesEncodeToEqualBytes) {
  const auto encode = [] {
    Writer writer;
    writer.str("determinism");
    writer.f64(3.25);
    WireCodec<std::vector<long>>::write(writer, {4, 5, 6});
    return writer.take();
  };
  EXPECT_EQ(encode(), encode());
}

/// Encode `value` followed by a sentinel field, then check that skip
/// stops exactly where read does (and the sentinel still decodes), and
/// that every strict prefix of the value's bytes makes both throw.
template <class T>
void expect_skip_matches_read(const T& value) {
  constexpr std::uint32_t kSentinel = 0xC0FFEEu;
  Writer writer;
  WireCodec<T>::write(writer, value);
  writer.u32(kSentinel);
  const std::vector<std::byte> bytes = writer.take();

  Reader read_reader(bytes);
  Reader skip_reader(bytes);
  EXPECT_EQ(WireCodec<T>::read(read_reader), value);
  WireCodec<T>::skip(skip_reader);
  EXPECT_EQ(skip_reader.pos(), read_reader.pos());
  EXPECT_EQ(skip_reader.u32(), kSentinel);

  const std::size_t encoded = read_reader.pos();
  for (std::size_t cut = 0; cut < encoded; ++cut) {
    const std::vector<std::byte> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    Reader truncated_read(prefix);
    Reader truncated_skip(prefix);
    EXPECT_THROW((void)WireCodec<T>::read(truncated_read), WireError)
        << "prefix of " << cut << " bytes";
    EXPECT_THROW(WireCodec<T>::skip(truncated_skip), WireError)
        << "prefix of " << cut << " bytes";
  }
}

TEST(WireTest, SkipStopsWhereReadStopsForEveryCodec) {
  expect_skip_matches_read<int>(-42);
  expect_skip_matches_read<long>(1L << 40);
  expect_skip_matches_read<double>(0.125);
  expect_skip_matches_read<std::uint32_t>(7u);
  expect_skip_matches_read<std::string>("");
  expect_skip_matches_read<std::string>("skip me");
  expect_skip_matches_read<std::pair<std::string, long>>({"key", 3});
  expect_skip_matches_read<std::pair<int, std::string>>({9, "line"});
  expect_skip_matches_read<std::pair<std::string, double>>({"mean", 2.5});
  expect_skip_matches_read<std::vector<int>>({});
  expect_skip_matches_read<std::vector<int>>({1, 2, 3});
  expect_skip_matches_read<std::vector<std::string>>({"a", "", "bc"});
  expect_skip_matches_read<std::vector<std::pair<std::string, int>>>(
      {{"x", 1}, {"", 0}, {"yz", -4}});
  expect_skip_matches_read<
      std::vector<std::pair<std::string, std::vector<int>>>>(
      {{"alpha", {1, 2, 3}}, {"", {}}, {"beta", {-7}}});
}

TEST(WireTest, SkipRejectsInflatedLengthsLikeRead) {
  // A string length, then a vector count, larger than the bytes left.
  Writer string_writer;
  string_writer.u32(1000u);
  string_writer.str("abc");
  const std::vector<std::byte> string_bytes = string_writer.take();
  Reader string_reader(string_bytes);
  EXPECT_THROW(WireCodec<std::string>::skip(string_reader), WireError);

  const std::vector<std::byte> count_bytes(4, std::byte{0xFF});
  Reader count_reader(count_bytes);
  using Pairs = std::vector<std::pair<std::string, long>>;
  EXPECT_THROW(WireCodec<Pairs>::skip(count_reader), WireError);
}

}  // namespace
}  // namespace pblpar::cluster
