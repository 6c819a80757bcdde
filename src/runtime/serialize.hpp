// Byte-buffer serialization for inter-rank messages.
//
// Rank state may only cross rank boundaries through these buffers — that is
// what keeps the thread-based runtime an honest stand-in for MPI: byte
// counts fed into the LogGP model are the real payload sizes, and no rank
// can observe another's memory.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace aacc::rt {

class ByteWriter {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    const auto* p = reinterpret_cast<const std::byte*>(&value);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  /// Appends raw bytes with no length prefix (pre-encoded records that fan
  /// out to several destinations are assembled once and appended per
  /// destination).
  void write_bytes(std::span<const std::byte> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// LEB128 unsigned varint: 7 value bits per byte, high bit = continue.
  /// 1 byte for values < 128, 2 bytes < 16384, at most 5 bytes for u32
  /// payloads and kMaxVarintBytes for the full u64 range.
  static constexpr std::size_t kMaxVarintBytes = 10;
  void write_varint(std::uint64_t v) {
    while (v >= 0x80) {
      write(static_cast<std::uint8_t>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    write(static_cast<std::uint8_t>(v));
  }
  /// Encodes v at p (room for kMaxVarintBytes); returns one past the last
  /// byte written. write_dv_record encodes a whole record this way into
  /// one extend() reservation, which EXPERIMENTS.md §M3 measures faster
  /// than a write_varint per field.
  static std::byte* put_varint(std::byte* p, std::uint64_t v) {
    while (v >= 0x80) {
      *p++ = static_cast<std::byte>((v & 0x7f) | 0x80);
      v >>= 7;
    }
    *p++ = static_cast<std::byte>(v);
    return p;
  }

  /// Appends `max_bytes` bytes and returns a pointer to the first: a caller
  /// that knows only an upper bound of its encoded size writes through the
  /// pointer, then hands the end of what it wrote to trim_to().
  std::byte* extend(std::size_t max_bytes) {
    const std::size_t old = buf_.size();
    buf_.resize(old + max_bytes);
    return buf_.data() + old;
  }
  /// Drops every byte from `end` on (the unused tail of an extend()).
  void trim_to(const std::byte* end) {
    buf_.resize(static_cast<std::size_t>(end - buf_.data()));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_vec(const std::vector<T>& v) {
    write(static_cast<std::uint64_t>(v.size()));
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
  }

  void write_str(const std::string& s) {
    write(static_cast<std::uint64_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  /// Borrowed view of the accumulated bytes (valid until the next write).
  [[nodiscard]] std::span<const std::byte> view() const { return buf_; }

  /// Drops the contents but keeps the capacity — per-step scratch writers
  /// reuse their allocation across RC steps.
  void clear() { buf_.clear(); }

  /// Moves the accumulated bytes out; the writer is reusable afterwards.
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

// ------------------------------------------------------------------- CRC32
//
// Software CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) for the
// reliable-transport frame checksum (wire format v2.1, docs/PROTOCOL.md).
// Table-driven; the table is built at compile time so the header stays
// dependency-free.

namespace detail {
consteval std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();
}  // namespace detail

/// Incremental update: feed buffers in sequence, starting from
/// crc32_init() and finishing with crc32_final().
[[nodiscard]] constexpr std::uint32_t crc32_init() { return 0xFFFFFFFFU; }
[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t crc,
                                                std::span<const std::byte> data) {
  for (const std::byte b : data) {
    crc = detail::kCrc32Table[(crc ^ std::to_integer<std::uint32_t>(b)) & 0xFFU] ^
          (crc >> 8);
  }
  return crc;
}
[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t crc) {
  return crc ^ 0xFFFFFFFFU;
}

/// One-shot convenience.
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::byte> data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> buf) : buf_(buf) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    AACC_CHECK_MSG(pos_ + sizeof(T) <= buf_.size(), "message underflow");
    T value;
    std::memcpy(&value, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vec() {
    const auto n = read<std::uint64_t>();
    // Bound the count before scaling it: a corrupt length (checkpoint file,
    // frame) must not wrap n * sizeof(T) past the check.
    AACC_CHECK_MSG(n <= remaining() / sizeof(T), "message underflow");
    std::vector<T> v(n);
    // An empty vector's data() may be null, and memcpy into null is UB even
    // for zero bytes.
    if (n != 0) std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  std::string read_str() {
    const auto n = read<std::uint64_t>();
    AACC_CHECK_MSG(n <= remaining(), "message underflow");
    if (n == 0) return {};
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::uint64_t read_varint() {
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
      const auto b = read<std::uint8_t>();
      AACC_CHECK_MSG(shift < 64, "varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  [[nodiscard]] bool done() const { return pos_ == buf_.size(); }
  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------- wire v2
//
// Compressed codecs for the DV-update message path and checkpoints (see
// docs/PROTOCOL.md §"Wire format v2"). Values of u32 domains with an
// all-ones sentinel (kInfDist / kNoVertex) map through code = 0 for the
// sentinel, value + 1 otherwise, so the common small values stay 1-byte
// varints and the sentinel costs 1 byte instead of 5.

inline constexpr std::uint64_t kSentinelCode = 0;

/// kInfDist / kNoVertex → 0, v → v + 1. Saturating arithmetic guarantees
/// every non-sentinel value is < 2^32 - 1, so v + 1 never collides.
[[nodiscard]] constexpr std::uint64_t encode_u32_sentinel(std::uint32_t v) {
  return v == std::numeric_limits<std::uint32_t>::max()
             ? kSentinelCode
             : static_cast<std::uint64_t>(v) + 1;
}
[[nodiscard]] constexpr std::uint32_t decode_u32_sentinel(std::uint64_t code) {
  return code == kSentinelCode ? std::numeric_limits<std::uint32_t>::max()
                               : static_cast<std::uint32_t>(code - 1);
}

/// Varint-packs a u32 vector under the sentinel mapping (checkpoint rows:
/// distances and next hops are mostly small or the sentinel).
inline void write_packed_u32s(ByteWriter& w, const std::vector<std::uint32_t>& v) {
  w.write_varint(v.size());
  for (const std::uint32_t x : v) w.write_varint(encode_u32_sentinel(x));
}
inline std::vector<std::uint32_t> read_packed_u32s(ByteReader& r) {
  const auto n = r.read_varint();
  AACC_CHECK_MSG(n <= r.remaining(), "message underflow");  // >= 1 B each
  std::vector<std::uint32_t> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    v.push_back(decode_u32_sentinel(r.read_varint()));
  }
  return v;
}

/// Delta-encodes a strictly ascending id list: first id raw, then
/// (id - prev - 1) — dense dirty ranges become runs of 0x00 bytes.
inline void write_ascending_ids(ByteWriter& w, const std::vector<VertexId>& ids) {
  w.write_varint(ids.size());
  VertexId prev = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i == 0) {
      w.write_varint(ids[0]);
    } else {
      AACC_DCHECK(ids[i] > prev);
      w.write_varint(ids[i] - prev - 1);
    }
    prev = ids[i];
  }
}
inline std::vector<VertexId> read_ascending_ids(ByteReader& r) {
  const auto n = r.read_varint();
  AACC_CHECK_MSG(n <= r.remaining(), "message underflow");  // >= 1 B each
  std::vector<VertexId> ids;
  ids.reserve(n);
  VertexId prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto delta = static_cast<VertexId>(r.read_varint());
    prev = (i == 0) ? delta : prev + delta + 1;
    ids.push_back(prev);
  }
  return ids;
}

// ---- DV-update records --------------------------------------------------
//
// One record carries the changed entries of one row to a subscriber. Every
// record opens with a version byte, so a future codec can be told apart.
//
//   v2:  u8 version, varint vid, varint count,
//        count × (varint target-delta, varint dist-code)
//        targets strictly ascending; first delta is the target itself,
//        later deltas are (target - prev - 1); dist-code is the sentinel
//        mapping above (poison markers ship as 1 byte).

inline constexpr std::uint8_t kDvRecordV2 = 2;

/// Entries must be sorted by target id (ascending, unique). The record is
/// written through one reservation of its worst-case size (every field a
/// u32 varint, at most 5 bytes), trimmed afterwards.
inline void write_dv_record(
    ByteWriter& w, VertexId vid,
    const std::vector<std::pair<VertexId, Dist>>& entries) {
  constexpr std::size_t kMaxU32Varint = 5;
  std::byte* p = w.extend(1 + kMaxU32Varint + ByteWriter::kMaxVarintBytes +
                          entries.size() * 2 * kMaxU32Varint);
  *p++ = static_cast<std::byte>(kDvRecordV2);
  p = ByteWriter::put_varint(p, vid);
  p = ByteWriter::put_varint(p, entries.size());
  VertexId prev = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto [t, d] = entries[i];
    AACC_DCHECK(i == 0 || t > prev);
    p = ByteWriter::put_varint(p, i == 0 ? t : t - prev - 1);
    prev = t;
    p = ByteWriter::put_varint(p, encode_u32_sentinel(d));
  }
  w.trim_to(p);
}

/// Streaming decoder for one record: construct, read vid()/count(), then
/// call next() exactly count() times. A malformed record throws instead of
/// yielding a wrapped id: every field must fit in 32 bits, every target
/// must lie below `target_limit` (the receiver's column count; a target
/// that wraps past 2^32 never does), and the count must fit in the bytes
/// left (an entry takes ≥ 2).
class DvRecordReader {
 public:
  DvRecordReader(ByteReader& r, std::uint64_t target_limit)
      : r_(r), target_limit_(target_limit) {
    AACC_CHECK_MSG(r_.read<std::uint8_t>() == kDvRecordV2,
                   "unknown DV record version");
    vid_ = read_u32();
    const std::uint64_t count = r_.read_varint();
    AACC_CHECK_MSG(count <= r_.remaining() / 2, "DV record count overflows");
    count_ = static_cast<std::uint32_t>(count);
  }

  [[nodiscard]] VertexId vid() const { return vid_; }
  [[nodiscard]] std::uint32_t count() const { return count_; }

  std::pair<VertexId, Dist> next() {
    AACC_DCHECK(read_ < count_);
    const std::uint64_t delta = read_u32();
    const std::uint64_t t =
        (read_ == 0) ? delta : std::uint64_t{prev_} + delta + 1;
    AACC_CHECK_MSG(t < target_limit_,
                   "DV record target " << t << " out of range");
    prev_ = static_cast<VertexId>(t);
    ++read_;
    return {prev_, decode_u32_sentinel(read_u32())};
  }

 private:
  std::uint32_t read_u32() {
    const std::uint64_t v = r_.read_varint();
    AACC_CHECK_MSG(v <= std::numeric_limits<std::uint32_t>::max(),
                   "DV record field exceeds 32 bits");
    return static_cast<std::uint32_t>(v);
  }

  ByteReader& r_;
  std::uint64_t target_limit_;
  VertexId vid_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t read_ = 0;
  VertexId prev_ = 0;
};

}  // namespace aacc::rt
