// Serde wire-format tests: round trips, endianness, bounds checking.
#include <gtest/gtest.h>

#include "src/util/serde.hpp"
#include "src/util/status.hpp"

namespace bridge::util {
namespace {

TEST(Serde, IntegerRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.boolean(true);
  w.boolean(false);

  Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  const auto& buf = w.buffer();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<int>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<int>(buf[3]), 0x01);
}

TEST(Serde, StringAndBytesRoundTrip) {
  Writer w;
  w.str("bridge");
  w.str("");
  std::vector<std::byte> blob{std::byte{9}, std::byte{8}, std::byte{7}};
  w.bytes(blob);

  Reader r(w.buffer());
  EXPECT_EQ(r.str(), "bridge");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.bytes(), blob);
}

TEST(Serde, RawHasNoLengthPrefix) {
  Writer w;
  std::vector<std::byte> blob{std::byte{1}, std::byte{2}};
  w.raw(blob);
  EXPECT_EQ(w.size(), 2u);
}

TEST(Serde, ReadPastEndThrowsCorrupt) {
  Writer w;
  w.u16(7);
  Reader r(w.buffer());
  r.u8();
  EXPECT_THROW(r.u32(), StatusError);
}

TEST(Serde, MalformedLengthThrows) {
  Writer w;
  w.u32(1000);  // claims 1000 bytes follow; none do
  Reader r(w.buffer());
  EXPECT_THROW(r.bytes(), StatusError);
}

TEST(Serde, RemainingTracksCursor) {
  Writer w;
  w.u64(1);
  w.u64(2);
  Reader r(w.buffer());
  EXPECT_EQ(r.remaining(), 16u);
  r.u64();
  EXPECT_EQ(r.remaining(), 8u);
}

TEST(Serde, CountRejectsWhatThePayloadCannotHold) {
  Writer w;
  w.u32(3);
  w.u32(10);
  w.u32(20);
  w.u32(30);
  Reader ok(w.buffer());
  EXPECT_EQ(ok.count(4), 3u);  // exactly fits
  Reader tight(w.buffer());
  EXPECT_THROW((void)tight.count(5), StatusError);  // 15 bytes > 12 left

  Writer huge;
  huge.u32(0xFFFFFFFFu);
  huge.u64(0);
  Reader r(huge.buffer());
  try {
    (void)r.count(4);  // throws before any caller could reserve 16 GiB
    FAIL() << "oversized count accepted";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), ErrorCode::kCorrupt);
  }
}

TEST(Status, ToStringFormats) {
  EXPECT_EQ(Status::ok().to_string(), "OK");
  EXPECT_EQ(not_found("file 3").to_string(), "NOT_FOUND: file 3");
}

TEST(Result, ValueAndError) {
  Result<int> good(5);
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(good.value(), 5);
  EXPECT_EQ(good.value_or(9), 5);

  Result<int> bad(invalid_argument("nope"));
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.value_or(9), 9);
  EXPECT_THROW((void)bad.value(), StatusError);  // value() on error must throw; result unreachable
  EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace bridge::util
