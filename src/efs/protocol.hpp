// EFS wire protocol: request/response structs and their serialization.
//
// Every request is stateless and self-describing.  The paper's EFS took a
// suggested disk address with each read and write to shorten its chain
// walks (§4.3); the extent maps answer every lookup directly, so requests
// name only (file, block numbers) and replies carry no disk addresses.  Data
// moves through one pair of vectored ops; a single block is a run of one.
#pragma once

#include <cstdint>
#include <vector>

#include "src/efs/layout.hpp"
#include "src/util/serde.hpp"

namespace bridge::efs {

enum class MsgType : std::uint32_t {
  kCreate = 0x100,
  kDelete = 0x101,
  kInfo = 0x102,
  // 0x103 and 0x104 (the paper's single-block read/write) stay unassigned
  // and answer "unknown EFS message type": a single block is a run of one.
  kSync = 0x105,
  /// The data path: one envelope carries a whole run of block numbers, so
  /// the per-message latency is paid once per run instead of once per block
  /// and the server can feed back-to-back blocks straight out of the track
  /// cache.
  kReadMany = 0x106,
  kWriteMany = 0x107,
  /// Truncate a constituent file to a given block count, freeing the tail.
  /// The compensation primitive: the Bridge Server and the replication layer
  /// use it to roll a constituent back after a partial multi-LFS failure.
  kTruncate = 0x108,
};

/// Stable op name for trace span labels ("efs.ReadMany", ...).
constexpr const char* efs_msg_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::kCreate: return "efs.Create";
    case MsgType::kDelete: return "efs.Delete";
    case MsgType::kInfo: return "efs.Info";
    case MsgType::kSync: return "efs.Sync";
    case MsgType::kReadMany: return "efs.ReadMany";
    case MsgType::kWriteMany: return "efs.WriteMany";
    case MsgType::kTruncate: return "efs.Truncate";
  }
  return "efs.Unknown";
}

struct CreateRequest {
  FileId file_id = kInvalidFileId;
  void encode(util::Writer& w) const { w.u32(file_id); }
  static CreateRequest decode(util::Reader& r) { return {r.u32()}; }
};

struct DeleteRequest {
  FileId file_id = kInvalidFileId;
  void encode(util::Writer& w) const { w.u32(file_id); }
  static DeleteRequest decode(util::Reader& r) { return {r.u32()}; }
};

struct InfoRequest {
  FileId file_id = kInvalidFileId;
  void encode(util::Writer& w) const { w.u32(file_id); }
  static InfoRequest decode(util::Reader& r) { return {r.u32()}; }
};

struct InfoResponse {
  std::uint32_t size_blocks = 0;
  std::uint32_t free_blocks = 0;  ///< whole-LFS free count (append preflight)
  void encode(util::Writer& w) const {
    w.u32(size_blocks);
    w.u32(free_blocks);
  }
  static InfoResponse decode(util::Reader& r) {
    InfoResponse resp;
    resp.size_blocks = r.u32();
    resp.free_blocks = r.u32();
    return resp;
  }
};

/// Vectored read: fetch `block_nos` (any order, any gaps — true scatter) in
/// one request.  The response returns the blocks in request order.  A
/// single-block read is a run of one: 12 request bytes.
struct ReadManyRequest {
  FileId file_id = kInvalidFileId;
  std::vector<std::uint32_t> block_nos;
  void encode(util::Writer& w) const {
    w.u32(file_id);
    w.u32(static_cast<std::uint32_t>(block_nos.size()));
    for (auto n : block_nos) w.u32(n);
  }
  static ReadManyRequest decode(util::Reader& r) {
    ReadManyRequest req;
    req.file_id = r.u32();
    std::uint32_t n = r.count(4);
    req.block_nos.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) req.block_nos.push_back(r.u32());
    return req;
  }
};

struct ReadManyResponse {
  std::vector<std::vector<std::byte>> blocks;  ///< blocks[i] = block_nos[i]
  void encode(util::Writer& w) const {
    w.u32(static_cast<std::uint32_t>(blocks.size()));
    for (const auto& b : blocks) w.bytes(b);
  }
  static ReadManyResponse decode(util::Reader& r) {
    ReadManyResponse resp;
    std::uint32_t n = r.count(4);
    resp.blocks.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) resp.blocks.push_back(r.bytes());
    return resp;
  }
  /// The payload of a run-of-one reply (kCorrupt if it holds another count).
  util::Result<std::vector<std::byte>> take_one() && {
    if (blocks.size() != 1) {
      return util::corrupt("LFS returned a short vectored read");
    }
    return std::move(blocks.front());
  }
};

/// One (block_no, payload) pair of a vectored write.
struct BlockWrite {
  std::uint32_t block_no = 0;
  std::vector<std::byte> data;  ///< kEfsDataBytes payload
};

/// Vectored write: apply `writes` in order.  Each block number travels
/// with its payload, so a request cannot carry more numbers than payloads.
/// Appends are preflighted against the allocation bitmap (including any
/// extent-table growth they would force) so an out-of-space run fails
/// whole, leaving the constituent file untouched (no partial tail for the
/// Bridge Server to roll back).  The reply is a bare status.
struct WriteManyRequest {
  FileId file_id = kInvalidFileId;
  std::vector<BlockWrite> writes;
  /// A run of one: the naive view's single-block write.
  static WriteManyRequest one(FileId file_id, std::uint32_t block_no,
                              std::vector<std::byte> data) {
    WriteManyRequest req{file_id, {}};
    req.writes.push_back({block_no, std::move(data)});
    return req;
  }
  void encode(util::Writer& w) const {
    w.u32(file_id);
    w.u32(static_cast<std::uint32_t>(writes.size()));
    for (const auto& b : writes) {
      w.u32(b.block_no);
      w.bytes(b.data);
    }
  }
  static WriteManyRequest decode(util::Reader& r) {
    WriteManyRequest req;
    req.file_id = r.u32();
    std::uint32_t n = r.count(8);
    req.writes.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      BlockWrite b;
      b.block_no = r.u32();
      b.data = r.bytes();
      req.writes.push_back(std::move(b));
    }
    return req;
  }
};

/// Truncate `file_id` to `new_size_blocks` (must not exceed the current
/// size; equal is a no-op).  Tail blocks are explicitly freed, the chain is
/// re-closed, and the directory entry is persisted before the reply.
struct TruncateRequest {
  FileId file_id = kInvalidFileId;
  std::uint32_t new_size_blocks = 0;
  void encode(util::Writer& w) const {
    w.u32(file_id);
    w.u32(new_size_blocks);
  }
  static TruncateRequest decode(util::Reader& r) {
    TruncateRequest req;
    req.file_id = r.u32();
    req.new_size_blocks = r.u32();
    return req;
  }
};

struct TruncateResponse {
  std::uint32_t size_blocks = 0;  ///< size after the truncate
  void encode(util::Writer& w) const { w.u32(size_blocks); }
  static TruncateResponse decode(util::Reader& r) { return {r.u32()}; }
};

}  // namespace bridge::efs
