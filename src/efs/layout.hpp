// On-disk layout of the Elementary File System (EFS), version 2.
//
// The seed followed §4.3 of the paper literally: files were doubly linked
// circular lists of 1024-byte blocks and the free state was rediscovered by
// scanning every block header at mount.  Layout v2 keeps the block geometry
// and the 24-byte self-describing block header but replaces the linkage with
// an FFS-style organization (SNIPPETS.md snippets 2-3):
//
//   block 0                superblock (layout_version = 2)
//   dir_start..+dir_blocks flat hashed directory, 64 entries/block
//   bitmap_start..+bitmap_blocks  allocation bitmap, 8192 bits/block
//   data_start..capacity   data blocks and extent-table blocks
//
// Each file's placement is a sorted run list of extents (block_no, addr,
// len) stored in dedicated extent-table blocks chained from the directory
// entry.  Data block headers keep magic/file_id/block_no for fsck's benefit;
// the next/prev chain pointers are retired (always kNilAddr).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/disk/disk.hpp"
#include "src/util/serde.hpp"
#include "src/util/status.hpp"

namespace bridge::efs {

using disk::BlockAddr;
using disk::kNilAddr;
using FileId = std::uint32_t;

/// File id 0 is reserved as the empty directory-slot marker.
inline constexpr FileId kInvalidFileId = 0;

inline constexpr std::uint32_t kBlockSize = 1024;
inline constexpr std::uint32_t kEfsHeaderBytes = 24;
/// Payload bytes an EFS client reads/writes per block (Bridge puts its own
/// 40-byte header at the front of this region).
inline constexpr std::uint32_t kEfsDataBytes = kBlockSize - kEfsHeaderBytes;  // 1000
inline constexpr std::uint32_t kBridgeHeaderBytes = 40;
/// User data bytes per block once both headers are accounted for.
inline constexpr std::uint32_t kUserDataBytes =
    kEfsDataBytes - kBridgeHeaderBytes;  // 960

inline constexpr std::uint32_t kMagicDataBlock = 0xEF51;
inline constexpr std::uint32_t kMagicSuperblock = 0xEF50;
inline constexpr std::uint32_t kMagicExtentBlock = 0xEF5E;

/// On-disk layout version written in the superblock.  Mounting any other
/// version fails: v1 chain images must be recreated, not migrated.
inline constexpr std::uint32_t kLayoutVersion = 2;

/// The 24-byte header at the front of every data block.  Since layout v2
/// only magic/file_id/block_no are meaningful (fsck uses them to validate
/// extent tables and to salvage files whose tables were destroyed); the
/// next/prev chain pointers of §4.3 are written as kNilAddr and ignored.
struct BlockHeader {
  std::uint32_t magic = kMagicDataBlock;
  FileId file_id = kInvalidFileId;
  std::uint32_t block_no = 0;  ///< local (per-LFS) block number within file
  BlockAddr next = kNilAddr;   ///< retired chain pointer, kNilAddr in v2
  BlockAddr prev = kNilAddr;   ///< retired chain pointer, kNilAddr in v2
  std::uint32_t reserved = 0;

  void encode(util::Writer& w) const {
    w.u32(magic);
    w.u32(file_id);
    w.u32(block_no);
    w.u32(next);
    w.u32(prev);
    w.u32(reserved);
  }
  static BlockHeader decode(util::Reader& r) {
    BlockHeader h;
    h.magic = r.u32();
    h.file_id = r.u32();
    h.block_no = r.u32();
    h.next = r.u32();
    h.prev = r.u32();
    h.reserved = r.u32();
    return h;
  }
};

/// Parse the header at the front of a raw 1024-byte block image.
BlockHeader parse_header(std::span<const std::byte> block);
/// Overwrite the header at the front of a raw block image.
void store_header(std::span<std::byte> block, const BlockHeader& header);

/// Superblock (disk block 0).
struct Superblock {
  std::uint32_t magic = kMagicSuperblock;
  std::uint32_t layout_version = kLayoutVersion;
  std::uint32_t dir_start = 1;        ///< first directory block
  std::uint32_t dir_blocks = 8;       ///< directory region length
  std::uint32_t bitmap_start = 9;     ///< first allocation-bitmap block
  std::uint32_t bitmap_blocks = 1;    ///< bitmap region length
  std::uint32_t data_start = 10;      ///< first allocatable block
  std::uint32_t capacity_blocks = 0;  ///< total blocks on the device
  std::uint32_t free_count = 0;
  /// 1 after format/sync/clean mount; 0 while mutations may be in flight.
  /// A dirty superblock routes the next mount through scan-and-rebuild.
  std::uint32_t clean = 1;

  void encode(util::Writer& w) const {
    w.u32(magic);
    w.u32(layout_version);
    w.u32(dir_start);
    w.u32(dir_blocks);
    w.u32(bitmap_start);
    w.u32(bitmap_blocks);
    w.u32(data_start);
    w.u32(capacity_blocks);
    w.u32(free_count);
    w.u32(clean);
  }
  static Superblock decode(util::Reader& r) {
    Superblock sb;
    sb.magic = r.u32();
    sb.layout_version = r.u32();
    sb.dir_start = r.u32();
    sb.dir_blocks = r.u32();
    sb.bitmap_start = r.u32();
    sb.bitmap_blocks = r.u32();
    sb.data_start = r.u32();
    sb.capacity_blocks = r.u32();
    sb.free_count = r.u32();
    sb.clean = r.u32();
    return sb;
  }
};

/// One 16-byte directory slot; 64 slots per directory block.
struct DirEntry {
  FileId file_id = kInvalidFileId;  ///< 0 = empty slot
  BlockAddr table_head = kNilAddr;  ///< first extent-table block (nil if empty)
  std::uint32_t size_blocks = 0;
  std::uint32_t flags = 0;  ///< bit0: tombstone (keeps probe chains intact)

  static constexpr std::uint32_t kTombstone = 1u;

  [[nodiscard]] bool empty() const noexcept { return file_id == kInvalidFileId; }
  [[nodiscard]] bool tombstone() const noexcept {
    return (flags & kTombstone) != 0;
  }

  void encode(util::Writer& w) const {
    w.u32(file_id);
    w.u32(table_head);
    w.u32(size_blocks);
    w.u32(flags);
  }
  static DirEntry decode(util::Reader& r) {
    DirEntry e;
    e.file_id = r.u32();
    e.table_head = r.u32();
    e.size_blocks = r.u32();
    e.flags = r.u32();
    return e;
  }
};

inline constexpr std::uint32_t kDirEntryBytes = 16;
inline constexpr std::uint32_t kDirEntriesPerBlock = kBlockSize / kDirEntryBytes;

/// One run of physically contiguous blocks: file-local blocks
/// [block_no, block_no + len) live at disk addresses [addr, addr + len).
struct Extent {
  std::uint32_t block_no = 0;
  BlockAddr addr = kNilAddr;
  std::uint32_t len = 0;

  void encode(util::Writer& w) const {
    w.u32(block_no);
    w.u32(addr);
    w.u32(len);
  }
  static Extent decode(util::Reader& r) {
    Extent e;
    e.block_no = r.u32();
    e.addr = r.u32();
    e.len = r.u32();
    return e;
  }
};

inline constexpr std::uint32_t kExtentBytes = 12;
inline constexpr std::uint32_t kExtentTableHeaderBytes = 16;
/// Extents per 1024-byte extent-table block: (1024 - 16) / 12 = 84.
inline constexpr std::uint32_t kExtentsPerTableBlock =
    (kBlockSize - kExtentTableHeaderBytes) / kExtentBytes;

/// Decoded extent-table block: a slice of the file's sorted run list plus a
/// link to the next table block (kNilAddr terminates the chain).
struct ExtentTableBlock {
  std::uint32_t magic = kMagicExtentBlock;
  FileId file_id = kInvalidFileId;
  BlockAddr next = kNilAddr;
  std::vector<Extent> extents;

  [[nodiscard]] bool valid_for(FileId id) const noexcept {
    return magic == kMagicExtentBlock && file_id == id &&
           extents.size() <= kExtentsPerTableBlock;
  }

  /// Serialize into a full 1024-byte block image (zero padded).
  [[nodiscard]] std::vector<std::byte> to_image() const;
  /// Parse a raw block image.  Never throws: a garbage image simply decodes
  /// with a wrong magic (count is clamped), which valid_for() rejects.
  static ExtentTableBlock parse(std::span<const std::byte> block);
};

/// Number of extent-table blocks needed to hold `extent_count` extents.
/// A file with data always owns at least one table block; an empty file none.
[[nodiscard]] constexpr std::uint32_t table_blocks_for(
    std::size_t extent_count) noexcept {
  if (extent_count == 0) return 0;
  return static_cast<std::uint32_t>(
      (extent_count + kExtentsPerTableBlock - 1) / kExtentsPerTableBlock);
}

/// Allocation group: a new extent starts at the first wholly free, aligned
/// run of this many blocks at or after its goal (8 tracks of 4 blocks), so
/// files appended at the same time land in separate groups instead of
/// interleaving block by block.  32 bits is half a bitmap word, so a group
/// test is one shift-and-mask of one word; and 32 blocks is half of the
/// default 64-block cache, the most one multi-track transfer stages or fills.
inline constexpr std::uint32_t kAllocGroupBlocks = 32;

/// In-memory allocation bitmap over the whole device (bit set = allocated).
/// Blocks below data_start are permanently set; free_count tracks only the
/// data region.  Persisted 8192 bits per bitmap block.
class BlockBitmap {
 public:
  struct Run {
    BlockAddr addr = kNilAddr;
    std::uint32_t len = 0;
  };

  /// Reset to "metadata allocated, data region free".
  void reset(std::uint32_t capacity_blocks, std::uint32_t data_start);

  [[nodiscard]] bool test(BlockAddr a) const noexcept {
    return (words_[a >> 6] >> (a & 63)) & 1u;
  }
  void set(BlockAddr a) noexcept;
  void clear(BlockAddr a) noexcept;

  [[nodiscard]] std::uint32_t free_count() const noexcept { return free_count_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  /// Find a free run of up to `max_len` blocks placed as close to `goal` as
  /// possible: the run starting exactly at `goal` if that block is free
  /// (extent growth / track locality), otherwise the nearest free block at
  /// or after `goal`, otherwise the nearest one before it.  Deterministic.
  /// Returns len == 0 iff the data region is full.
  [[nodiscard]] Run find_free_run(BlockAddr goal, std::uint32_t max_len) const;

  /// Start of the first wholly free, `span`-aligned run of `span` blocks
  /// that starts at or after `goal`, wrapping around to the start of the
  /// device; kNilAddr if there is none.  `span` must be a power of two no
  /// larger than 64 (anything else finds nothing), so every candidate lies
  /// inside one bitmap word and the scan tests whole words, skipping full
  /// ones.  Deterministic.
  [[nodiscard]] BlockAddr find_free_aligned(BlockAddr goal,
                                            std::uint32_t span) const;

  /// Bitmap blocks needed to cover `capacity_blocks` (8192 bits per block).
  [[nodiscard]] static std::uint32_t blocks_needed(
      std::uint32_t capacity_blocks) noexcept {
    return (capacity_blocks + kBlockSize * 8 - 1) / (kBlockSize * 8);
  }

  /// Serialize bitmap block `index` into a 1024-byte image.
  [[nodiscard]] std::vector<std::byte> encode_block(std::uint32_t index) const;
  /// Load bitmap block `index` from a raw image (recomputes free_count).
  void decode_block(std::uint32_t index, std::span<const std::byte> image);

  /// Bit-for-bit equality over the covered range (ignores padding).
  [[nodiscard]] bool operator==(const BlockBitmap& other) const noexcept;

 private:
  void recount() noexcept;

  std::vector<std::uint64_t> words_;
  std::uint32_t capacity_ = 0;
  std::uint32_t data_start_ = 0;
  std::uint32_t free_count_ = 0;
};

}  // namespace bridge::efs
