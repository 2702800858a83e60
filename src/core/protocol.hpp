// Bridge Server wire protocol — the command set of Table 1.
//
//   Create File | Delete File | Open | Sequential Read | Random Read |
//   Sequential Write | Random Write | Parallel Open | Get Info
//
// plus the worker-side messages the server exchanges with parallel-open
// workers (block delivery for reads, block solicitation for writes).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/bridge_block.hpp"
#include "src/core/distribution.hpp"
#include "src/sim/rpc.hpp"
#include "src/util/hash.hpp"
#include "src/util/serde.hpp"

namespace bridge::core {

using BridgeFileId = std::uint32_t;

// --- Distributed-directory addressing ---------------------------------------
//
// When the directory is partitioned across k Bridge Servers, every durable
// identifier must be routable WITHOUT consulting any client-side map (a map
// keyed by raw per-server ids clobbers whenever two servers mint the same
// id, and it goes stale on delete).  The top byte of a BridgeFileId is its
// home server index — each server mints ids from its own 2^24-wide slice —
// so the id itself says where the file's directory entry lives, exactly as
// session/job ids carry their home in the top byte of the 64-bit handle.

/// Top byte of a BridgeFileId carries the minting server's home index.
inline constexpr std::uint32_t kFileIdHomeShift = 24;
inline constexpr BridgeFileId kFileIdLocalMask =
    (BridgeFileId{1} << kFileIdHomeShift) - 1;

/// Home server index encoded in a file id.
constexpr std::uint32_t file_id_home(BridgeFileId id) noexcept {
  return id >> kFileIdHomeShift;
}

/// First id of server `home`'s slice (offset past the reserved low ids so a
/// single-server machine keeps the historical 1000-based id space).
constexpr BridgeFileId make_file_id_base(std::uint32_t home) noexcept {
  return (home << kFileIdHomeShift) | BridgeFileId{1000};
}

/// Which server owns directory entry `name` in a k-server partition.  Shared
/// by RoutedBridgeClient (request routing) and BridgeServer (cross-server
/// rename: the source computes the destination of the new name), so the two
/// sides can never disagree about a name's home.
inline std::uint32_t directory_home(std::string_view name,
                                    std::size_t num_servers) {
  auto bytes = std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(name.data()), name.size());
  return num_servers <= 1 ? 0 : util::fnv1a_32(bytes) % num_servers;
}

/// Upper bound on the blocks one vectored request may move.  Bounds server
/// memory per request and keeps a single client from parking the server on
/// one giant run while other clients starve.
inline constexpr std::uint32_t kMaxRunBlocks = 256;

enum class BridgeMsg : std::uint32_t {
  kCreate = 0x200,
  kDelete = 0x201,
  kOpen = 0x202,
  kSeqRead = 0x203,
  kRandomRead = 0x204,
  kSeqWrite = 0x205,
  kRandomWrite = 0x206,
  kParallelOpen = 0x207,
  kParallelRead = 0x208,
  kParallelWrite = 0x209,
  kGetInfo = 0x20A,
  /// Extension beyond Table 1: delete a batch of files with all LFS work
  /// overlapped ("Discard the old files in parallel", §5.2).
  kDeleteMany = 0x20B,
  /// Extension: resolve a range of global block numbers to (LFS, local)
  /// placements.  Closed-form for round-robin/chunked files, but hashed and
  /// linked ("disordered") placements live only in the Bridge directory, so
  /// tools that operate on them — notably the off-line reorganizer §3
  /// mentions — must ask the server.
  kResolve = 0x20C,
  /// Vectored naive-view ops: one envelope moves a run of blocks, letting
  /// the server keep every involved LFS in flight at once instead of one
  /// blocking LFS hop per client round trip (the §4.1 central-server
  /// bottleneck).  The single-block ops above remain wire-compatible.
  kSeqReadMany = 0x20D,
  kSeqWriteMany = 0x20E,
  kRandomReadMany = 0x20F,
  /// Extension: shrink an open file to `new_size_blocks`, fanning per-LFS
  /// truncates to the constituents and keeping the server's PlacementMap /
  /// size bookkeeping in step (ROADMAP "Naive-API truncate").
  kTruncate = 0x210,
  /// Extension: reposition a session's sequential read cursor (clamped to
  /// the file size).  Lets window-buffered readers (BufferedFileStream)
  /// serve random-access programs without reopening the file.
  kSeqSeek = 0x211,
  /// Extension: rename a directory entry.  Local when both names hash to the
  /// same home; otherwise the source server coordinates a PVFS-style
  /// prepare/commit handoff with the destination (kRenameInstall/kRenameAck
  /// below) — the entry is detached from the source before the record ships,
  /// so exactly one server can ever mutate the file's placement.
  kRename = 0x212,
  /// Extension: list directory entries (optionally under a name prefix),
  /// sorted by name.  A routed client fans this out to every server and
  /// merges the sorted partitions deterministically — the "Scalable Unix
  /// Commands" global-listing pattern.
  kList = 0x213,
  // Server -> server messages for the cross-server rename handoff:
  /// Coordinator -> destination: install the detached record under its new
  /// name (the prepare).  Carries the whole directory record; no file data
  /// moves — constituent LFS files are untouched by rename.
  kRenameInstall = 0x282,
  /// Destination -> coordinator: commit (new id minted at the destination)
  /// or abort (e.g. the new name already exists).  Posted straight to the
  /// coordinator's service mailbox so neither server ever blocks on the
  /// other — ordering comes from these message edges alone.
  kRenameAck = 0x283,
  // Server -> worker messages for parallel jobs:
  kWorkerData = 0x280,  ///< one-way block delivery (parallel read)
  kWorkerGive = 0x281,  ///< request/reply block solicitation (parallel write)
};

/// Stable op name for trace span labels ("bridge.Open", ...).
constexpr const char* bridge_msg_name(BridgeMsg type) noexcept {
  switch (type) {
    case BridgeMsg::kCreate: return "bridge.Create";
    case BridgeMsg::kDelete: return "bridge.Delete";
    case BridgeMsg::kOpen: return "bridge.Open";
    case BridgeMsg::kSeqRead: return "bridge.SeqRead";
    case BridgeMsg::kRandomRead: return "bridge.RandomRead";
    case BridgeMsg::kSeqWrite: return "bridge.SeqWrite";
    case BridgeMsg::kRandomWrite: return "bridge.RandomWrite";
    case BridgeMsg::kParallelOpen: return "bridge.ParallelOpen";
    case BridgeMsg::kParallelRead: return "bridge.ParallelRead";
    case BridgeMsg::kParallelWrite: return "bridge.ParallelWrite";
    case BridgeMsg::kGetInfo: return "bridge.GetInfo";
    case BridgeMsg::kDeleteMany: return "bridge.DeleteMany";
    case BridgeMsg::kResolve: return "bridge.Resolve";
    case BridgeMsg::kSeqReadMany: return "bridge.SeqReadMany";
    case BridgeMsg::kSeqWriteMany: return "bridge.SeqWriteMany";
    case BridgeMsg::kRandomReadMany: return "bridge.RandomReadMany";
    case BridgeMsg::kTruncate: return "bridge.Truncate";
    case BridgeMsg::kSeqSeek: return "bridge.SeqSeek";
    case BridgeMsg::kRename: return "bridge.Rename";
    case BridgeMsg::kList: return "bridge.List";
    case BridgeMsg::kRenameInstall: return "bridge.RenameInstall";
    case BridgeMsg::kRenameAck: return "bridge.RenameAck";
    case BridgeMsg::kWorkerData: return "bridge.WorkerData";
    case BridgeMsg::kWorkerGive: return "bridge.WorkerGive";
  }
  return "bridge.Unknown";
}

/// Summary of a Bridge file returned by Open.
struct FileMeta {
  BridgeFileId id = 0;
  std::string name;
  std::uint8_t distribution = 0;  ///< Distribution enum value
  std::uint32_t width = 0;        ///< interleaving breadth
  std::uint32_t start_lfs = 0;
  std::uint32_t chunk_blocks = 0;
  std::uint64_t size_blocks = 0;
  std::uint32_t lfs_file_id = 0;  ///< constituent file id on each LFS it spans

  /// The identity this file's block headers carry.
  [[nodiscard]] BlockOwner owner() const {
    return {lfs_file_id, width, start_lfs};
  }

  void encode(util::Writer& w) const {
    w.u32(id);
    w.str(name);
    w.u8(distribution);
    w.u32(width);
    w.u32(start_lfs);
    w.u32(chunk_blocks);
    w.u64(size_blocks);
    w.u32(lfs_file_id);
  }
  static FileMeta decode(util::Reader& r) {
    FileMeta m;
    m.id = r.u32();
    m.name = r.str();
    m.distribution = r.u8();
    m.width = r.u32();
    m.start_lfs = r.u32();
    m.chunk_blocks = r.u32();
    m.size_blocks = r.u64();
    m.lfs_file_id = r.u32();
    return m;
  }
};

/// Top bit of CreateFileRequest::distribution: fan the Create out through
/// an embedded binary tree (§4.5's suggested improvement) instead of the
/// sequential loop.  The low bits carry the Distribution.
inline constexpr std::uint8_t kCreateTreeBit = 0x80;

struct CreateFileRequest {
  std::string name;
  std::uint8_t distribution = 0;  ///< Distribution, | kCreateTreeBit for tree
  std::uint32_t width = 0;  ///< 0 = interleave across all LFSs
  std::uint32_t start_lfs = 0;
  std::uint32_t chunk_blocks = 0;  ///< chunked only: per-LFS capacity
  std::uint64_t hash_seed = 0;     ///< hashed only

  void encode(util::Writer& w) const {
    w.str(name);
    w.u8(distribution);
    w.u32(width);
    w.u32(start_lfs);
    w.u32(chunk_blocks);
    w.u64(hash_seed);
  }
  static CreateFileRequest decode(util::Reader& r) {
    CreateFileRequest req;
    req.name = r.str();
    req.distribution = r.u8();
    req.width = r.u32();
    req.start_lfs = r.u32();
    req.chunk_blocks = r.u32();
    req.hash_seed = r.u64();
    return req;
  }
};

struct CreateFileResponse {
  BridgeFileId id = 0;
  void encode(util::Writer& w) const { w.u32(id); }
  static CreateFileResponse decode(util::Reader& r) { return {r.u32()}; }
};

struct DeleteFileRequest {
  std::string name;
  void encode(util::Writer& w) const { w.str(name); }
  static DeleteFileRequest decode(util::Reader& r) { return {r.str()}; }
};

struct DeleteManyRequest {
  std::vector<std::string> names;
  void encode(util::Writer& w) const {
    w.u32(static_cast<std::uint32_t>(names.size()));
    for (const auto& n : names) w.str(n);
  }
  static DeleteManyRequest decode(util::Reader& r) {
    DeleteManyRequest req;
    std::uint32_t n = r.count(4);
    req.names.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) req.names.push_back(r.str());
    return req;
  }
};

struct OpenRequest {
  std::string name;
  void encode(util::Writer& w) const { w.str(name); }
  static OpenRequest decode(util::Reader& r) { return {r.str()}; }
};

struct OpenResponse {
  FileMeta meta;
  std::uint64_t session = 0;
  void encode(util::Writer& w) const {
    meta.encode(w);
    w.u64(session);
  }
  static OpenResponse decode(util::Reader& r) {
    OpenResponse resp;
    resp.meta = FileMeta::decode(r);
    resp.session = r.u64();
    return resp;
  }
};

struct SeqReadRequest {
  std::uint64_t session = 0;
  void encode(util::Writer& w) const { w.u64(session); }
  static SeqReadRequest decode(util::Reader& r) { return {r.u64()}; }
};

struct SeqReadResponse {
  bool eof = false;
  std::uint64_t block_no = 0;
  std::vector<std::byte> data;  ///< user payload (<= 960 bytes)
  void encode(util::Writer& w) const {
    w.boolean(eof);
    w.u64(block_no);
    w.bytes(data);
  }
  static SeqReadResponse decode(util::Reader& r) {
    SeqReadResponse resp;
    resp.eof = r.boolean();
    resp.block_no = r.u64();
    resp.data = r.bytes();
    return resp;
  }
};

struct RandomReadRequest {
  BridgeFileId id = 0;
  std::uint64_t block_no = 0;
  void encode(util::Writer& w) const {
    w.u32(id);
    w.u64(block_no);
  }
  static RandomReadRequest decode(util::Reader& r) {
    RandomReadRequest req;
    req.id = r.u32();
    req.block_no = r.u64();
    return req;
  }
};

struct RandomReadResponse {
  std::vector<std::byte> data;
  void encode(util::Writer& w) const { w.bytes(data); }
  static RandomReadResponse decode(util::Reader& r) { return {r.bytes()}; }
};

struct SeqWriteRequest {
  std::uint64_t session = 0;
  std::vector<std::byte> data;
  void encode(util::Writer& w) const {
    w.u64(session);
    w.bytes(data);
  }
  static SeqWriteRequest decode(util::Reader& r) {
    SeqWriteRequest req;
    req.session = r.u64();
    req.data = r.bytes();
    return req;
  }
};

struct SeqWriteResponse {
  std::uint64_t block_no = 0;
  void encode(util::Writer& w) const { w.u64(block_no); }
  static SeqWriteResponse decode(util::Reader& r) { return {r.u64()}; }
};

struct RandomWriteRequest {
  BridgeFileId id = 0;
  std::uint64_t block_no = 0;
  std::vector<std::byte> data;
  void encode(util::Writer& w) const {
    w.u32(id);
    w.u64(block_no);
    w.bytes(data);
  }
  static RandomWriteRequest decode(util::Reader& r) {
    RandomWriteRequest req;
    req.id = r.u32();
    req.block_no = r.u64();
    req.data = r.bytes();
    return req;
  }
};

/// Sequential read of up to `max_blocks` blocks from the session cursor.
struct SeqReadManyRequest {
  std::uint64_t session = 0;
  std::uint32_t max_blocks = 0;
  void encode(util::Writer& w) const {
    w.u64(session);
    w.u32(max_blocks);
  }
  static SeqReadManyRequest decode(util::Reader& r) {
    SeqReadManyRequest req;
    req.session = r.u64();
    req.max_blocks = r.u32();
    return req;
  }
};

struct SeqReadManyResponse {
  bool eof = false;  ///< cursor reached end of file after this run
  std::uint64_t first_block_no = 0;
  std::vector<std::vector<std::byte>> blocks;  ///< global-block order
  void encode(util::Writer& w) const {
    w.boolean(eof);
    w.u64(first_block_no);
    w.u32(static_cast<std::uint32_t>(blocks.size()));
    for (const auto& b : blocks) w.bytes(b);
  }
  static SeqReadManyResponse decode(util::Reader& r) {
    SeqReadManyResponse resp;
    resp.eof = r.boolean();
    resp.first_block_no = r.u64();
    std::uint32_t n = r.count(4);
    resp.blocks.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) resp.blocks.push_back(r.bytes());
    return resp;
  }
};

/// Sequential append of a run of blocks at the session write cursor.  The
/// run either commits whole (cursor advances by blocks.size()) or fails
/// whole (cursor and file size unchanged).
struct SeqWriteManyRequest {
  std::uint64_t session = 0;
  std::vector<std::vector<std::byte>> blocks;
  void encode(util::Writer& w) const {
    w.u64(session);
    w.u32(static_cast<std::uint32_t>(blocks.size()));
    for (const auto& b : blocks) w.bytes(b);
  }
  static SeqWriteManyRequest decode(util::Reader& r) {
    SeqWriteManyRequest req;
    req.session = r.u64();
    std::uint32_t n = r.count(4);
    req.blocks.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) req.blocks.push_back(r.bytes());
    return req;
  }
};

struct SeqWriteManyResponse {
  std::uint64_t first_block_no = 0;
  std::uint32_t count = 0;
  void encode(util::Writer& w) const {
    w.u64(first_block_no);
    w.u32(count);
  }
  static SeqWriteManyResponse decode(util::Reader& r) {
    SeqWriteManyResponse resp;
    resp.first_block_no = r.u64();
    resp.count = r.u32();
    return resp;
  }
};

/// Reposition a session's sequential read cursor to `block_no` (clamped to
/// the file size, so seeking past EOF parks the cursor at EOF).
struct SeqSeekRequest {
  std::uint64_t session = 0;
  std::uint64_t block_no = 0;
  void encode(util::Writer& w) const {
    w.u64(session);
    w.u64(block_no);
  }
  static SeqSeekRequest decode(util::Reader& r) {
    SeqSeekRequest req;
    req.session = r.u64();
    req.block_no = r.u64();
    return req;
  }
};

struct SeqSeekResponse {
  std::uint64_t block_no = 0;  ///< cursor position after the (clamped) seek
  void encode(util::Writer& w) const { w.u64(block_no); }
  static SeqSeekResponse decode(util::Reader& r) { return {r.u64()}; }
};

/// Rename `from` to `to`.  Sent to the server that homes `from`.
struct RenameRequest {
  std::string from;
  std::string to;
  void encode(util::Writer& w) const {
    w.str(from);
    w.str(to);
  }
  static RenameRequest decode(util::Reader& r) {
    RenameRequest req;
    req.from = r.str();
    req.to = r.str();
    return req;
  }
};

struct RenameResponse {
  /// The file's id after the rename.  Unchanged for a local rename; freshly
  /// minted from the destination's slice for a cross-server move, so the
  /// top byte routes to the entry's new home (stale pre-rename ids resolve
  /// to not_found at the old home, never to another file's data).
  BridgeFileId id = 0;
  void encode(util::Writer& w) const { w.u32(id); }
  static RenameResponse decode(util::Reader& r) { return {r.u32()}; }
};

/// Coordinator -> destination: install this detached directory record under
/// `to` (cross-server rename prepare).  `seq` keys the coordinator's pending
/// table and is echoed in the ack.
struct RenameInstallRequest {
  std::uint64_t seq = 0;
  std::string to;
  std::uint32_t lfs_file_id = 0;
  PlacementMap placement;
  void encode(util::Writer& w) const {
    w.u64(seq);
    w.str(to);
    w.u32(lfs_file_id);
    placement.encode(w);
  }
  static RenameInstallRequest decode(util::Reader& r) {
    RenameInstallRequest req;
    req.seq = r.u64();
    req.to = r.str();
    req.lfs_file_id = r.u32();
    req.placement = PlacementMap::decode(r);
    return req;
  }
};

/// Destination -> coordinator: commit (code=kOk, `new_id` minted from the
/// destination's slice) or abort (code + reason, e.g. kAlreadyExists).
struct RenameAck {
  std::uint64_t seq = 0;
  std::uint8_t code = 0;  ///< util::ErrorCode value; 0 = committed
  BridgeFileId new_id = 0;
  std::string error;
  void encode(util::Writer& w) const {
    w.u64(seq);
    w.u8(code);
    w.u32(new_id);
    w.str(error);
  }
  static RenameAck decode(util::Reader& r) {
    RenameAck ack;
    ack.seq = r.u64();
    ack.code = r.u8();
    ack.new_id = r.u32();
    ack.error = r.str();
    return ack;
  }
};

/// List directory entries whose names start with `prefix` ("" = all).
struct ListRequest {
  std::string prefix;
  void encode(util::Writer& w) const { w.str(prefix); }
  static ListRequest decode(util::Reader& r) { return {r.str()}; }
};

/// One directory entry in a listing.  `size_blocks` is the directory's
/// bookkeeping size (refreshed on Open, not here — a listing is a cheap
/// in-memory sweep, the metadata-storm survival property).
struct ListEntry {
  std::string name;
  BridgeFileId id = 0;
  std::uint64_t size_blocks = 0;
  std::uint8_t distribution = 0;
  void encode(util::Writer& w) const {
    w.str(name);
    w.u32(id);
    w.u64(size_blocks);
    w.u8(distribution);
  }
  static ListEntry decode(util::Reader& r) {
    ListEntry e;
    e.name = r.str();
    e.id = r.u32();
    e.size_blocks = r.u64();
    e.distribution = r.u8();
    return e;
  }
};

/// Entries sorted by name (each server sorts its partition; the routed
/// client's k-way merge then yields one globally sorted listing).
struct ListResponse {
  std::vector<ListEntry> entries;
  void encode(util::Writer& w) const {
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) e.encode(w);
  }
  static ListResponse decode(util::Reader& r) {
    ListResponse resp;
    std::uint32_t n = r.count(17);  // name length + id + size + distribution
    resp.entries.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      resp.entries.push_back(ListEntry::decode(r));
    }
    return resp;
  }
};

/// Random read of `count` consecutive blocks starting at `first_block`.
struct RandomReadManyRequest {
  BridgeFileId id = 0;
  std::uint64_t first_block = 0;
  std::uint32_t count = 0;
  void encode(util::Writer& w) const {
    w.u32(id);
    w.u64(first_block);
    w.u32(count);
  }
  static RandomReadManyRequest decode(util::Reader& r) {
    RandomReadManyRequest req;
    req.id = r.u32();
    req.first_block = r.u64();
    req.count = r.u32();
    return req;
  }
};

struct RandomReadManyResponse {
  std::vector<std::vector<std::byte>> blocks;  ///< blocks[i] = first+i
  void encode(util::Writer& w) const {
    w.u32(static_cast<std::uint32_t>(blocks.size()));
    for (const auto& b : blocks) w.bytes(b);
  }
  static RandomReadManyResponse decode(util::Reader& r) {
    RandomReadManyResponse resp;
    std::uint32_t n = r.count(4);
    resp.blocks.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) resp.blocks.push_back(r.bytes());
    return resp;
  }
};

/// Shrink file `id` to `new_size_blocks` global blocks.  Growing is not
/// supported (write at the end to extend); equal size is a no-op.
struct TruncateFileRequest {
  BridgeFileId id = 0;
  std::uint64_t new_size_blocks = 0;
  void encode(util::Writer& w) const {
    w.u32(id);
    w.u64(new_size_blocks);
  }
  static TruncateFileRequest decode(util::Reader& r) {
    TruncateFileRequest req;
    req.id = r.u32();
    req.new_size_blocks = r.u64();
    return req;
  }
};

struct TruncateFileResponse {
  std::uint64_t size_blocks = 0;  ///< file size after the truncate
  void encode(util::Writer& w) const { w.u64(size_blocks); }
  static TruncateFileResponse decode(util::Reader& r) { return {r.u64()}; }
};

struct ParallelOpenRequest {
  std::uint64_t session = 0;
  std::vector<sim::Address> workers;
  void encode(util::Writer& w) const {
    w.u64(session);
    w.u32(static_cast<std::uint32_t>(workers.size()));
    for (const auto& a : workers) sim::encode_address(w, a);
  }
  static ParallelOpenRequest decode(util::Reader& r) {
    ParallelOpenRequest req;
    req.session = r.u64();
    std::uint32_t n = r.count(12);  // encoded sim::Address
    req.workers.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      req.workers.push_back(sim::decode_address(r));
    }
    return req;
  }
};

struct ParallelOpenResponse {
  std::uint64_t job = 0;
  void encode(util::Writer& w) const { w.u64(job); }
  static ParallelOpenResponse decode(util::Reader& r) { return {r.u64()}; }
};

struct ParallelReadRequest {
  std::uint64_t job = 0;
  void encode(util::Writer& w) const { w.u64(job); }
  static ParallelReadRequest decode(util::Reader& r) { return {r.u64()}; }
};

struct ParallelReadResponse {
  std::uint32_t blocks_delivered = 0;
  bool eof = false;
  void encode(util::Writer& w) const {
    w.u32(blocks_delivered);
    w.boolean(eof);
  }
  static ParallelReadResponse decode(util::Reader& r) {
    ParallelReadResponse resp;
    resp.blocks_delivered = r.u32();
    resp.eof = r.boolean();
    return resp;
  }
};

struct ParallelWriteRequest {
  std::uint64_t job = 0;
  void encode(util::Writer& w) const { w.u64(job); }
  static ParallelWriteRequest decode(util::Reader& r) { return {r.u64()}; }
};

struct ParallelWriteResponse {
  std::uint32_t blocks_written = 0;
  void encode(util::Writer& w) const { w.u32(blocks_written); }
  static ParallelWriteResponse decode(util::Reader& r) { return {r.u32()}; }
};

struct ResolveRequest {
  BridgeFileId id = 0;
  std::uint64_t first_block = 0;
  std::uint32_t count = 0;
  void encode(util::Writer& w) const {
    w.u32(id);
    w.u64(first_block);
    w.u32(count);
  }
  static ResolveRequest decode(util::Reader& r) {
    ResolveRequest req;
    req.id = r.u32();
    req.first_block = r.u64();
    req.count = r.u32();
    return req;
  }
};

struct ResolveResponse {
  std::vector<Placement> placements;  ///< placements[i] = block first+i
  void encode(util::Writer& w) const {
    w.u32(static_cast<std::uint32_t>(placements.size()));
    for (const auto& placement : placements) {
      w.u32(placement.lfs_index);
      w.u32(placement.local_block);
    }
  }
  static ResolveResponse decode(util::Reader& r) {
    ResolveResponse resp;
    std::uint32_t n = r.count(8);
    resp.placements.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Placement placement;
      placement.lfs_index = r.u32();
      placement.local_block = r.u32();
      resp.placements.push_back(placement);
    }
    return resp;
  }
};

/// Get Info: everything a tool needs to talk to the LFS level directly.
struct GetInfoResponse {
  std::uint32_t num_lfs = 0;
  std::vector<sim::Address> lfs_services;  ///< index i = LFS i
  std::vector<std::uint32_t> lfs_nodes;    ///< node hosting LFS i

  void encode(util::Writer& w) const {
    w.u32(num_lfs);
    for (const auto& a : lfs_services) sim::encode_address(w, a);
    for (auto n : lfs_nodes) w.u32(n);
  }
  static GetInfoResponse decode(util::Reader& r) {
    GetInfoResponse resp;
    resp.num_lfs = r.count(16);  // address + node per LFS
    resp.lfs_services.reserve(resp.num_lfs);
    for (std::uint32_t i = 0; i < resp.num_lfs; ++i) {
      resp.lfs_services.push_back(sim::decode_address(r));
    }
    resp.lfs_nodes.reserve(resp.num_lfs);
    for (std::uint32_t i = 0; i < resp.num_lfs; ++i) {
      resp.lfs_nodes.push_back(r.u32());
    }
    return resp;
  }
};

/// Server -> worker one-way delivery during a parallel read.
struct WorkerData {
  bool eof = false;
  std::uint64_t global_block_no = 0;
  std::vector<std::byte> data;
  void encode(util::Writer& w) const {
    w.boolean(eof);
    w.u64(global_block_no);
    w.bytes(data);
  }
  static WorkerData decode(util::Reader& r) {
    WorkerData d;
    d.eof = r.boolean();
    d.global_block_no = r.u64();
    d.data = r.bytes();
    return d;
  }
};

/// Server -> worker solicitation during a parallel write (request).
struct WorkerGiveRequest {
  std::uint64_t global_block_no = 0;
  void encode(util::Writer& w) const { w.u64(global_block_no); }
  static WorkerGiveRequest decode(util::Reader& r) { return {r.u64()}; }
};

/// Worker's reply: its next block (or has_data=false when drained).
struct WorkerGiveResponse {
  bool has_data = false;
  std::vector<std::byte> data;
  void encode(util::Writer& w) const {
    w.boolean(has_data);
    w.bytes(data);
  }
  static WorkerGiveResponse decode(util::Reader& r) {
    WorkerGiveResponse resp;
    resp.has_data = r.boolean();
    resp.data = r.bytes();
    return resp;
  }
};

}  // namespace bridge::core
