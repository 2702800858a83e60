// The 40-byte Bridge header carried at the front of every LFS block payload.
//
// "An additional 40 bytes for Bridge-related header information have been
// taken from the data storage area of each block (leaving 960 bytes for
// data)" (§4.3).  The header self-describes the block's position in the
// global file, so a tool holding a raw LFS block can translate between
// local and global names, and a checksum guards the user payload.
//
// This file is the only place a header is built or parsed.  Whoever writes
// a block stamps it with wrap_block: the Bridge Server (write_run), the
// replicated files (data, mirror and parity blocks, and every rebuilt copy)
// and the tools (through ConstituentWriter, tool_base.hpp, and the
// reorganize worker).  Whoever reads one checks it with unwrap_block, which
// names the constituent and global block it expects and returns kCorrupt
// for any other, so a misplaced block is never mistaken for the one asked
// for — however valid its checksum.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/efs/layout.hpp"
#include "src/util/hash.hpp"
#include "src/util/serde.hpp"
#include "src/util/status.hpp"

namespace bridge::core {

using BridgeFileId = std::uint32_t;

struct BridgeBlockHeader {
  std::uint32_t magic = kMagic;
  /// The file's CONSTITUENT (LFS) id, not its Bridge directory id.  The two
  /// are equal when a file is created, but a cross-server rename mints a new
  /// directory id while the constituent id — and therefore every header
  /// already on disk — stays fixed for the file's lifetime.
  BridgeFileId file_id = 0;
  std::uint64_t global_block_no = 0;
  std::uint32_t width = 1;       ///< interleaving breadth of the file
  std::uint32_t start_lfs = 0;   ///< LFS holding global block 0
  std::uint32_t payload_bytes = 0;  ///< valid user bytes (<= kUserDataBytes)
  std::uint32_t checksum = 0;       ///< FNV-1a of the user payload
  std::uint32_t reserved0 = 0;
  std::uint32_t reserved1 = 0;

  static constexpr std::uint32_t kMagic = 0xB81D6E00;

  void encode(util::Writer& w) const {
    w.u32(magic);
    w.u32(file_id);
    w.u64(global_block_no);
    w.u32(width);
    w.u32(start_lfs);
    w.u32(payload_bytes);
    w.u32(checksum);
    w.u32(reserved0);
    w.u32(reserved1);
  }
  static BridgeBlockHeader decode(util::Reader& r) {
    BridgeBlockHeader h;
    h.magic = r.u32();
    h.file_id = r.u32();
    h.global_block_no = r.u64();
    h.width = r.u32();
    h.start_lfs = r.u32();
    h.payload_bytes = r.u32();
    h.checksum = r.u32();
    h.reserved0 = r.u32();
    h.reserved1 = r.u32();
    return h;
  }
};

static_assert(efs::kBridgeHeaderBytes == 40);

/// The file a block belongs to: what every header of its constituents
/// carries besides the block number.
struct BlockOwner {
  BridgeFileId file_id = 0;  ///< constituent id, as in BridgeBlockHeader
  std::uint32_t width = 1;
  std::uint32_t start_lfs = 0;
};

/// Build a full kEfsDataBytes (1000-byte) LFS payload for global block
/// `global_block_no` of `owner`: Bridge header + user data (zero padded).
/// `user_data` must be at most kUserDataBytes.  The reserved words carry a
/// parity block's length and fill words; every other block leaves them 0.
inline util::Result<std::vector<std::byte>> wrap_block(
    const BlockOwner& owner, std::uint64_t global_block_no,
    std::span<const std::byte> user_data, std::uint32_t reserved0 = 0,
    std::uint32_t reserved1 = 0) {
  if (user_data.size() > efs::kUserDataBytes) {
    return util::invalid_argument("payload exceeds 960 bytes");
  }
  BridgeBlockHeader header;
  header.file_id = owner.file_id;
  header.global_block_no = global_block_no;
  header.width = owner.width;
  header.start_lfs = owner.start_lfs;
  header.payload_bytes = static_cast<std::uint32_t>(user_data.size());
  header.checksum = util::fnv1a_32(user_data);
  header.reserved0 = reserved0;
  header.reserved1 = reserved1;
  util::Writer w(efs::kEfsDataBytes);
  header.encode(w);
  w.raw(user_data);
  auto bytes = std::move(w).take();
  bytes.resize(efs::kEfsDataBytes);
  return bytes;
}

struct UnwrappedBlock {
  BridgeBlockHeader header;
  std::vector<std::byte> user_data;
};

/// Parse an LFS payload back into header + user data, verifying magic,
/// length and checksum, and that it is global block `global_block_no` of
/// constituent `file_id`.
inline util::Result<UnwrappedBlock> unwrap_block(
    std::span<const std::byte> lfs_payload, BridgeFileId file_id,
    std::uint64_t global_block_no) {
  if (lfs_payload.size() != efs::kEfsDataBytes) {
    return util::corrupt("bad LFS payload size");
  }
  util::Reader r(lfs_payload);
  UnwrappedBlock out;
  out.header = BridgeBlockHeader::decode(r);
  if (out.header.magic != BridgeBlockHeader::kMagic) {
    return util::corrupt("bad Bridge block magic");
  }
  if (out.header.payload_bytes > efs::kUserDataBytes) {
    return util::corrupt("bad Bridge payload length");
  }
  auto data = r.raw(out.header.payload_bytes);
  out.user_data.assign(data.begin(), data.end());
  if (util::fnv1a_32(out.user_data) != out.header.checksum) {
    return util::corrupt("Bridge block checksum mismatch");
  }
  if (out.header.file_id != file_id ||
      out.header.global_block_no != global_block_no) {
    return util::corrupt("Bridge header does not match requested block");
  }
  return out;
}

}  // namespace bridge::core
