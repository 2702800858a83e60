// Bridge block header wrap/unwrap: sizes, checksum protection, corruption
// detection.
#include <gtest/gtest.h>

#include "src/core/bridge_block.hpp"

namespace bridge::core {
namespace {

std::vector<std::byte> user_data(std::size_t n, std::uint8_t fill = 0x42) {
  return std::vector<std::byte>(n, std::byte{fill});
}

TEST(BridgeBlock, WrapProducesExactLfsPayload) {
  auto wrapped = wrap_block(BlockOwner{7, 8, 0}, 123, user_data(960));
  ASSERT_TRUE(wrapped.is_ok());
  EXPECT_EQ(wrapped.value().size(), efs::kEfsDataBytes);  // 1000
}

TEST(BridgeBlock, RoundTripPreservesEverything) {
  auto data = user_data(777, 0x3C);
  auto wrapped = wrap_block(BlockOwner{9, 16, 3}, 4567, data, 11, 12);
  ASSERT_TRUE(wrapped.is_ok());
  auto unwrapped = unwrap_block(wrapped.value(), 9, 4567);
  ASSERT_TRUE(unwrapped.is_ok());
  EXPECT_EQ(unwrapped.value().header.file_id, 9u);
  EXPECT_EQ(unwrapped.value().header.global_block_no, 4567u);
  EXPECT_EQ(unwrapped.value().header.width, 16u);
  EXPECT_EQ(unwrapped.value().header.start_lfs, 3u);
  EXPECT_EQ(unwrapped.value().header.reserved0, 11u);
  EXPECT_EQ(unwrapped.value().header.reserved1, 12u);
  EXPECT_EQ(unwrapped.value().user_data, data);
}

TEST(BridgeBlock, EmptyPayloadAllowed) {
  auto wrapped = wrap_block(BlockOwner{}, 0, {});
  ASSERT_TRUE(wrapped.is_ok());
  auto unwrapped = unwrap_block(wrapped.value(), 0, 0);
  ASSERT_TRUE(unwrapped.is_ok());
  EXPECT_TRUE(unwrapped.value().user_data.empty());
}

TEST(BridgeBlock, OversizedPayloadRejected) {
  auto wrapped = wrap_block(BlockOwner{}, 0, user_data(961));
  EXPECT_EQ(wrapped.status().code(), util::ErrorCode::kInvalidArgument);
}

TEST(BridgeBlock, PayloadCorruptionDetected) {
  auto wrapped = wrap_block(BlockOwner{}, 0, user_data(500));
  ASSERT_TRUE(wrapped.is_ok());
  auto tampered = wrapped.value();
  tampered[efs::kBridgeHeaderBytes + 100] ^= std::byte{0xFF};
  auto unwrapped = unwrap_block(tampered, 0, 0);
  EXPECT_EQ(unwrapped.status().code(), util::ErrorCode::kCorrupt);
}

TEST(BridgeBlock, BadMagicDetected) {
  auto wrapped = wrap_block(BlockOwner{}, 0, user_data(100));
  ASSERT_TRUE(wrapped.is_ok());
  auto tampered = wrapped.value();
  tampered[3] ^= std::byte{0xFF};  // high byte of the little-endian magic
  EXPECT_EQ(unwrap_block(tampered, 0, 0).status().code(),
            util::ErrorCode::kCorrupt);
}

TEST(BridgeBlock, WrongSizeRejected) {
  std::vector<std::byte> short_payload(999);
  EXPECT_EQ(unwrap_block(short_payload, 0, 0).status().code(),
            util::ErrorCode::kCorrupt);
}

TEST(BridgeBlock, ValidBlockOfAnotherFileOrPositionRejected) {
  // An intact block is still corrupt where another one was expected: the
  // header's constituent id and global block number must both match.
  auto wrapped = wrap_block(BlockOwner{9, 4, 1}, 5, user_data(100));
  ASSERT_TRUE(wrapped.is_ok());
  EXPECT_TRUE(unwrap_block(wrapped.value(), 9, 5).is_ok());
  EXPECT_EQ(unwrap_block(wrapped.value(), 9, 1).status().code(),
            util::ErrorCode::kCorrupt);
  EXPECT_EQ(unwrap_block(wrapped.value(), 10, 5).status().code(),
            util::ErrorCode::kCorrupt);
}

TEST(BridgeBlock, HeaderIsExactly40Bytes) {
  util::Writer w;
  BridgeBlockHeader{}.encode(w);
  EXPECT_EQ(w.size(), efs::kBridgeHeaderBytes);
}

}  // namespace
}  // namespace bridge::core
