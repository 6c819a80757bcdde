// ByteWriter/ByteReader: round trips and underflow detection.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "runtime/serialize.hpp"

namespace aacc::rt {
namespace {

/// DvRecordReader bound that admits every 32-bit target.
constexpr std::uint64_t kAnyTarget = std::uint64_t{1} << 32;

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
  DvRecordReader rec(r, kAnyTarget);
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
    EXPECT_THROW(DvRecordReader rec(r, kAnyTarget), std::logic_error)
        << int{version};
  }
}

TEST(DvRecord, EmptyRecordRoundTrip) {
  ByteWriter w;
  write_dv_record(w, 3, {});
  const auto buf = w.take();
  ByteReader r(buf);
  DvRecordReader rec(r, kAnyTarget);
  EXPECT_EQ(rec.vid(), 3u);
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_TRUE(r.done());
}

/// Hex dump of a writer's bytes.
std::string hex(const ByteWriter& w) {
  std::string out;
  for (const std::byte b : w.view()) {
    const auto v = std::to_integer<unsigned>(b);
    out += "0123456789abcdef"[v >> 4];
    out += "0123456789abcdef"[v & 0xf];
  }
  return out;
}

/// Encodes one record after a byte already in the writer (records are
/// appended to per-destination buffers that hold earlier records).
ByteWriter record_after_prefix(
    VertexId vid, const std::vector<std::pair<VertexId, Dist>>& entries) {
  ByteWriter w;
  w.write(std::uint8_t{0xab});
  write_dv_record(w, vid, entries);
  return w;
}

// The encoder's bytes are pinned: these were captured from the original
// byte-at-a-time encoder, so any rewrite must reproduce them exactly.
TEST(DvRecord, GoldenBytes) {
  EXPECT_EQ(hex(record_after_prefix(3, {})), "ab020300");
  EXPECT_EQ(hex(record_after_prefix(7, {{0, 0}, {1, 5}, {300, 127}, {301, 128}})),
            "ab02070400010006aa028001008101");
  EXPECT_EQ(hex(record_after_prefix(0x4000, {{5, kInfDist}, {6, 2}})),
            "ab028080010205000003");
  // Every entry a 5-byte target delta and a 5-byte distance code.
  EXPECT_EQ(hex(record_after_prefix(0xFFFFFFFEu, {{0x10000000u, 0xFFFFFFFEu},
                                                 {0x20000001u, 0x10000000u},
                                                 {0xFFFFFFFEu, 0xFFFFFFFEu}})),
            "ab02feffffff0f038080808001ffffffff0f80808080018180808001fcffffff0d"
            "ffffffff0f");
}

TEST(DvRecord, GoldenBytesDenseRow) {
  std::vector<std::pair<VertexId, Dist>> entries;
  for (VertexId t = 0; t < 6000; ++t) {
    entries.emplace_back(t, t % 7 == 0 ? kInfDist : (t * 37u) % 20000u);
  }
  const ByteWriter w = record_after_prefix(5999, entries);
  ASSERT_EQ(w.size(), 18034u);
  EXPECT_EQ(hex(w).substr(0, 80),
            "ab02ef2ef02e00000026004b007000950100ba0100df01000000a90200ce0200f3"
            "0200980300bd03");
  std::uint64_t fnv = 1469598103934665603ULL;  // FNV-1a over every byte
  for (const std::byte b : w.view()) {
    fnv = (fnv ^ std::to_integer<std::uint64_t>(b)) * 1099511628211ULL;
  }
  EXPECT_EQ(fnv, 5797229513224244632ULL);
}

/// Decodes a whole hand-built record (vid, count, then count entries).
void decode_all(const ByteWriter& w) {
  const auto buf = w.view();
  ByteReader r(buf);
  DvRecordReader rec(r, kAnyTarget);
  for (std::uint32_t i = 0; i < rec.count(); ++i) (void)rec.next();
}

ByteWriter record_header(std::uint64_t vid, std::uint64_t count) {
  ByteWriter w;
  w.write(kDvRecordV2);
  w.write_varint(vid);
  w.write_varint(count);
  return w;
}

TEST(DvRecord, CountBeyondPayloadRejected) {
  // Every entry takes at least two bytes; a count the remaining bytes
  // cannot hold is corrupt, including one that would narrow to a small u32.
  for (const std::uint64_t count : {std::uint64_t{3}, std::uint64_t{1} << 32}) {
    ByteWriter w = record_header(1, count);
    for (int i = 0; i < 5; ++i) w.write(std::uint8_t{0});
    EXPECT_THROW(decode_all(w), std::logic_error) << count;
  }
  ByteWriter ok = record_header(1, 2);
  for (int i = 0; i < 4; ++i) ok.write(std::uint8_t{0});
  EXPECT_NO_THROW(decode_all(ok));
}

TEST(DvRecord, FieldsBeyond32BitsRejected) {
  const std::uint64_t big = std::uint64_t{1} << 32;
  EXPECT_THROW(decode_all(record_header(big, 0)), std::logic_error);
  ByteWriter target = record_header(1, 1);
  target.write_varint(big);  // first target
  target.write_varint(1);
  EXPECT_THROW(decode_all(target), std::logic_error);
  ByteWriter dist = record_header(1, 1);
  dist.write_varint(4);
  dist.write_varint(big);  // distance code
  EXPECT_THROW(decode_all(dist), std::logic_error);
}

TEST(DvRecord, WrappingTargetRejected) {
  ByteWriter w = record_header(1, 2);
  w.write_varint(0xFFFFFFF0u);
  w.write_varint(1);
  w.write_varint(0x20);  // 0xFFFFFFF0 + 0x20 + 1 wraps past 2^32
  w.write_varint(1);
  EXPECT_THROW(decode_all(w), std::logic_error);

  // The largest id that still fits decodes.
  ByteWriter edge = record_header(1, 2);
  edge.write_varint(0xFFFFFFF0u);
  edge.write_varint(1);
  edge.write_varint(0xE);
  edge.write_varint(1);
  const auto buf = edge.view();
  ByteReader r(buf);
  DvRecordReader rec(r, kAnyTarget);
  EXPECT_EQ(rec.next().first, 0xFFFFFFF0u);
  EXPECT_EQ(rec.next().first, 0xFFFFFFFFu);
}

TEST(DvRecord, TargetBeyondLimitRejected) {
  // The engine bounds targets by its column count; the last column passes.
  ByteWriter w;
  write_dv_record(w, 1, {{3, 1}, {9, 2}});
  const auto buf = w.view();
  {
    ByteReader r(buf);
    DvRecordReader rec(r, 10);
    (void)rec.next();
    EXPECT_EQ(rec.next().first, 9u);
  }
  ByteReader r(buf);
  DvRecordReader rec(r, 9);
  EXPECT_EQ(rec.next().first, 3u);
  EXPECT_THROW((void)rec.next(), std::logic_error);
}

}  // namespace
}  // namespace aacc::rt
