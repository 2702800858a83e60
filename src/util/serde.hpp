// Minimal binary serialization used for every RPC payload in Bridge.
//
// The wire format is deliberately simple and explicit: little-endian fixed
// width integers, length-prefixed byte strings.  All Bridge/EFS protocol
// structs provide `encode(Writer&)` / `decode(Reader&)` pairs built on these
// primitives, so messages could travel over a real network unchanged (the
// paper notes its message layer "could be realized equally well on any local
// area network").
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.hpp"

namespace bridge::util {

/// Append-only encoder producing a byte buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  void u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte string.
  void bytes(std::span<const std::byte> data);
  void str(std::string_view s);

  /// Raw bytes with no length prefix (caller knows the length).
  void raw(std::span<const std::byte> data);

  [[nodiscard]] const std::vector<std::byte>& buffer() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::byte> take() && noexcept {
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(std::byte(static_cast<std::uint8_t>(v >> (8 * i))));
    }
  }
  std::vector<std::byte> buf_;
};

/// Cursor-based decoder over a byte span.  Decoding past the end or reading a
/// malformed length throws StatusError(kCorrupt): a truncated message is a
/// peer bug, not a caller-recoverable condition.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(get_le<std::uint64_t>()); }
  bool boolean() { return u8() != 0; }

  std::vector<std::byte> bytes();
  std::string str();

  /// Raw bytes with no length prefix.
  std::span<const std::byte> raw(std::size_t n) { return take(n); }

  /// Element count (u32) of a vector whose every element encodes to at
  /// least `min_elem_bytes`.  A count the rest of the payload cannot hold
  /// throws kCorrupt before the caller reserves memory for it.
  std::uint32_t count(std::size_t min_elem_bytes);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  std::span<const std::byte> take(std::size_t n);
  template <typename T>
  T get_le() {
    auto span = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(span[i])) << (8 * i);
    }
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Encode any struct exposing `void encode(Writer&) const`.
template <typename T>
std::vector<std::byte> encode_to_bytes(const T& value) {
  Writer w;
  value.encode(w);
  return std::move(w).take();
}

/// Decode any struct exposing `static T decode(Reader&)`.
template <typename T>
T decode_from_bytes(std::span<const std::byte> data) {
  Reader r(data);
  return T::decode(r);
}

}  // namespace bridge::util
