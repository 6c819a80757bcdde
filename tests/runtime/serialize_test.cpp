// ByteWriter/ByteReader: round trips and underflow detection.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "runtime/serialize.hpp"

namespace aacc::rt {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  ByteWriter w;
  w.write(std::uint32_t{42});
  w.write(std::int64_t{-7});
  w.write(3.25);
  w.write(std::uint8_t{255});
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.read<std::uint32_t>(), 42u);
  EXPECT_EQ(r.read<std::int64_t>(), -7);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read<std::uint8_t>(), 255);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, VectorRoundTrip) {
  ByteWriter w;
  const std::vector<std::uint32_t> v{1, 2, 3, 4, 5};
  const std::vector<std::uint64_t> empty;
  w.write_vec(v);
  w.write_vec(empty);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.read_vec<std::uint32_t>(), v);
  EXPECT_TRUE(r.read_vec<std::uint64_t>().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serialize, StringRoundTrip) {
  ByteWriter w;
  w.write_str("hello");
  w.write_str("");
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.read_str(), "hello");
  EXPECT_EQ(r.read_str(), "");
}

TEST(Serialize, UnderflowThrows) {
  ByteWriter w;
  w.write(std::uint16_t{1});
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_THROW(r.read<std::uint64_t>(), std::logic_error);
}

TEST(Serialize, VectorUnderflowThrows) {
  ByteWriter w;
  w.write(std::uint64_t{1000});  // claims 1000 elements, provides none
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_THROW(r.read_vec<std::uint32_t>(), std::logic_error);
}

// A corrupt length must fail the bounds check, not wrap past it into a
// length_error or bad_alloc from the container.
void expect_underflow(const std::function<void()>& read) {
  try {
    read();
    ADD_FAILURE() << "corrupt length was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("message underflow"), std::string::npos)
        << e.what();
  }
}

TEST(Serialize, HugeLengthIsUnderflow) {
  // 2^62 + 1 four-byte elements: n * 4 wraps to 4, which the 4 trailing
  // bytes would satisfy.
  ByteWriter w;
  w.write((std::uint64_t{1} << 62) + 1);
  w.write(std::uint32_t{7});
  const auto vec_buf = w.take();
  expect_underflow([&] {
    ByteReader r(vec_buf);
    (void)r.read_vec<std::uint32_t>();
  });
  // pos + n wraps to 0 for a string length of 2^64 - 8.
  w.write(~std::uint64_t{0} - 7);
  const auto str_buf = w.take();
  expect_underflow([&] {
    ByteReader r(str_buf);
    (void)r.read_str();
  });
  // Varint-coded lists reserve their claimed count up front.
  w.write_varint(~std::uint64_t{0} >> 1);
  const auto packed_buf = w.take();
  expect_underflow([&] {
    ByteReader r(packed_buf);
    (void)read_packed_u32s(r);
  });
  expect_underflow([&] {
    ByteReader r(packed_buf);
    (void)read_ascending_ids(r);
  });
}

TEST(Serialize, TakeResetsWriter) {
  ByteWriter w;
  w.write(std::uint32_t{1});
  EXPECT_EQ(w.size(), 4u);
  (void)w.take();
  EXPECT_EQ(w.size(), 0u);
}

// ---------------------------------------------------------------- wire v2

TEST(Varint, SingleByteBoundary) {
  // 0 and 127 fit one byte; 128 needs two.
  for (const std::uint64_t v : {0ull, 1ull, 127ull}) {
    ByteWriter w;
    w.write_varint(v);
    EXPECT_EQ(w.size(), 1u) << v;
    const auto buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.read_varint(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Varint, TwoByteBoundary) {
  for (const std::uint64_t v : {128ull, 255ull, 16383ull}) {
    ByteWriter w;
    w.write_varint(v);
    EXPECT_EQ(w.size(), 2u) << v;
    const auto buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.read_varint(), v);
  }
}

TEST(Varint, FiveByteBoundary) {
  // 2^28 .. 2^35-1 take five bytes; the full u32 range (incl. the kInfDist
  // bit pattern) must round-trip.
  for (const std::uint64_t v :
       {1ull << 28, 0xffffffffull, (1ull << 35) - 1}) {
    ByteWriter w;
    w.write_varint(v);
    EXPECT_EQ(w.size(), 5u) << v;
    const auto buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.read_varint(), v);
  }
}

TEST(Varint, FullU64RoundTrip) {
  ByteWriter w;
  w.write_varint(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(w.size(), 10u);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.read_varint(), std::numeric_limits<std::uint64_t>::max());
}

TEST(WireV2, SentinelMapping) {
  EXPECT_EQ(encode_u32_sentinel(kInfDist), kSentinelCode);
  EXPECT_EQ(decode_u32_sentinel(kSentinelCode), kInfDist);
  EXPECT_EQ(decode_u32_sentinel(encode_u32_sentinel(0u)), 0u);
  // The largest finite value (saturating arithmetic caps at kInfDist - 1).
  EXPECT_EQ(decode_u32_sentinel(encode_u32_sentinel(kInfDist - 1)),
            kInfDist - 1);
}

TEST(WireV2, PackedU32RoundTrip) {
  const std::vector<std::uint32_t> v{0, 1, kInfDist, 127, 128, kInfDist - 1};
  ByteWriter w;
  write_packed_u32s(w, v);
  // count byte + codes {1, 2, 0, 128, 129, 2^32-1} = 1 + 1+1+1+2+2+5
  EXPECT_EQ(w.size(), 13u);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(read_packed_u32s(r), v);
  EXPECT_TRUE(r.done());
}

TEST(WireV2, AscendingIdsRoundTrip) {
  const std::vector<VertexId> ids{3, 4, 5, 100, 70000};
  ByteWriter w;
  write_ascending_ids(w, ids);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(read_ascending_ids(r), ids);
  EXPECT_TRUE(r.done());

  ByteWriter we;
  write_ascending_ids(we, {});
  const auto bufe = we.take();
  ByteReader re(bufe);
  EXPECT_TRUE(read_ascending_ids(re).empty());
}

TEST(WireV2, DenseAscendingRunIsOneBytePerId) {
  // Consecutive ids delta-encode to 0x00 bytes.
  std::vector<VertexId> ids(100);
  for (VertexId i = 0; i < 100; ++i) ids[i] = 1000 + i;
  ByteWriter w;
  write_ascending_ids(w, ids);
  EXPECT_EQ(w.size(), 1u + 2u + 99u);  // count + first id + 99 zero deltas
}

TEST(DvRecord, V2RoundTrip) {
  const std::vector<std::pair<VertexId, Dist>> entries{
      {2, 1}, {3, 7}, {9, kInfDist}, {70000, 130}};
  ByteWriter w;
  write_dv_record(w, 42, entries);
  const auto buf = w.take();
  ByteReader r(buf);
  DvRecordReader rec(r);
  EXPECT_EQ(rec.vid(), 42u);
  ASSERT_EQ(rec.count(), entries.size());
  for (const auto& e : entries) EXPECT_EQ(rec.next(), e);
  EXPECT_TRUE(r.done());
}

TEST(DvRecord, UnknownVersionRejected) {
  // 1 is the retired fixed-width codec; 9 is from the future.
  for (const std::uint8_t version : {std::uint8_t{1}, std::uint8_t{9}}) {
    ByteWriter w;
    w.write(version);
    const auto buf = w.take();
    ByteReader r(buf);
    EXPECT_THROW(DvRecordReader rec(r), std::logic_error) << int{version};
  }
}

TEST(DvRecord, EmptyRecordRoundTrip) {
  ByteWriter w;
  write_dv_record(w, 3, {});
  const auto buf = w.take();
  ByteReader r(buf);
  DvRecordReader rec(r);
  EXPECT_EQ(rec.vid(), 3u);
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace aacc::rt
