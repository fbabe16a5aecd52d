#include "cluster/wire.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace pblpar::cluster
