// The Elementary File System: a stateless flat-namespace local file system.
//
// Reimplementation of the Cronus EFS of §4.3, grown to the v2 extent layout:
//  - file names are numbers hashed into a directory,
//  - each file's placement is a sorted extent list (block_no, addr, len)
//    persisted in extent-table blocks; locate() is an O(log extents) binary
//    search instead of the paper's chain walk, so the suggested disk
//    addresses that shortened those walks (§4.3) are gone from the
//    interface,
//  - allocation is an FFS-style bitmap: appends extend the file's last
//    extent when the next disk block is free, and a new extent starts in a
//    wholly free 32-block group (else track, else block) at or after the
//    goal, so files appended together stay contiguous and track-local,
//  - a block cache with full-track buffering accelerates sequential access,
//    and vectored runs move a window of consecutive tracks per positioning.
//
// One EfsCore instance manages one SimDisk and is driven by one server
// process (EfsServer).  All timed methods charge virtual time through the
// Context; untimed inspection methods (verify_invariants, counters) exist
// for tests and never touch the clock.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/disk/disk.hpp"
#include "src/disk/sched.hpp"
#include "src/efs/cache.hpp"
#include "src/efs/layout.hpp"
#include "src/efs/protocol.hpp"
#include "src/sim/runtime.hpp"
#include "src/util/status.hpp"

namespace bridge::efs {

/// Per-file sequentiality detection driving track read-ahead depth.  With
/// adaptive off (the default) every miss prefetches exactly one track — the
/// seed behavior.  With it on, a file read sequentially earns one extra
/// read-ahead track per full track's worth of consecutive blocks observed
/// (up to max_tracks), and a file probed randomly loses read-ahead entirely
/// after random_cutoff consecutive non-sequential reads.
struct ReadaheadConfig {
  bool adaptive = false;
  std::uint32_t max_tracks = 4;
  std::uint32_t random_cutoff = 4;
};

struct EfsConfig {
  CacheConfig cache;
  /// Request scheduling for the server's mailbox drain (FIFO = arrival
  /// order, exactly the unscheduled seed behavior).
  disk::SchedConfig sched;
  ReadaheadConfig readahead;
  /// CPU per request (decode, dispatch, directory probe).
  sim::SimTime request_cpu = sim::usec(300);
  /// CPU per block of payload handled (copying in/out of the cache).
  sim::SimTime record_cpu = sim::usec(100);
};

/// Directory mutations between charged metadata write-backs.  The
/// directory, bitmap and extent-table blocks are kept current on disk; the
/// amortization models write-behind of the hot metadata blocks.
inline constexpr std::uint32_t kDirFlushInterval = 16;

struct FileInfo {
  FileId id = kInvalidFileId;
  std::uint32_t size_blocks = 0;
};

struct EfsOpStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t appends = 0;
  std::uint64_t creates = 0;
  std::uint64_t deletes = 0;
  std::uint64_t truncates = 0;
  std::uint64_t extent_lookups = 0;     ///< locate() binary searches
  std::uint64_t extents_allocated = 0;  ///< new extents started
  std::uint64_t extents_freed = 0;      ///< extents released by remove/truncate
  std::uint64_t table_block_allocs = 0; ///< extent-table blocks allocated
  std::uint64_t deep_readahead_tracks = 0;  ///< extra tracks requested (>1)
  std::uint64_t last_readahead_depth = 1;   ///< depth of the latest read

  void reset() noexcept { *this = EfsOpStats{}; }

  /// Publish counters under `prefix`.
  void publish(obs::MetricsRegistry& registry, const std::string& prefix) const;
};

class EfsCore {
 public:
  EfsCore(disk::SimDisk& dev, EfsConfig config);

  /// Initialize an empty file system on the device (untimed; models mkfs
  /// before the measurement interval).
  void format();

  /// Rebuild the in-memory directory, extent maps and bitmap from the
  /// on-disk image (untimed; used by persistence tests).  A clean superblock
  /// loads the persisted bitmap directly; a dirty one (crash before sync)
  /// falls back to rebuilding the bitmap from the extent tables and writes
  /// the repaired state back.  Fails if no valid v2 superblock.
  util::Status remount_from_disk();

  util::Status create(sim::Context& ctx, FileId id);
  util::Status remove(sim::Context& ctx, FileId id);
  util::Result<FileInfo> info(sim::Context& ctx, FileId id);

  /// Read local block `block_no` of file `id` (its kEfsDataBytes payload).
  /// The extent map answers the lookup.  A read_many of one block.
  util::Result<std::vector<std::byte>> read(sim::Context& ctx, FileId id,
                                            std::uint32_t block_no);

  /// Read local blocks `block_nos` in request order (the kReadMany
  /// backend).  Every block costs what a lone read costs and is checked for
  /// its own header and identity (kCorrupt for a misplaced block), but a
  /// cache miss fills every consecutive track the rest of the request
  /// covers, up to half the cache, in one read_tracks sweep: a contiguous
  /// run pays one positioning, not one per track.  Fails with the first
  /// failing block's error.
  util::Result<std::vector<std::vector<std::byte>>> read_many(
      sim::Context& ctx, FileId id, std::span<const std::uint32_t> block_nos);

  /// Write local block `block_no` (exactly kEfsDataBytes bytes), through to
  /// the disk.  Writing at block_no == size appends; beyond it is an error.
  util::Status write(sim::Context& ctx, FileId id, std::uint32_t block_no,
                     std::span<const std::byte> data);

  /// Write a run of local blocks (the kWriteMany backend for runs of two or
  /// more).  Each data block is staged in the cache instead of written
  /// through, and each window of consecutive touched tracks (up to half the
  /// cache) is then flushed in one write_tracks sweep — the write-side
  /// counterpart of multi-track read buffering, so a contiguous run costs
  /// ~one positioning per window instead of one per block.  Blocks land
  /// with the same on-disk contents as write().  On error the staged prefix
  /// is still flushed so the disk reflects every completed block and the
  /// caller can compensate with truncate().
  util::Status write_run(sim::Context& ctx, FileId id,
                         std::span<const BlockWrite> writes);

  /// Truncate file `id` to `new_size_blocks` (<= current size; equal is a
  /// no-op).  Dropped tail blocks are O(extents) bitmap clears; a truncate
  /// to zero also releases the file's extent-table blocks.  Used to roll
  /// back partial multi-LFS appends and to reset constituents before a
  /// rebuild (ROADMAP "EFS truncate op").
  util::Status truncate(sim::Context& ctx, FileId id,
                        std::uint32_t new_size_blocks);

  /// Flush dirty cache blocks and the metadata regions (timed); marks the
  /// superblock clean so the next mount takes the fast path.
  util::Status sync(sim::Context& ctx);

  // --- Untimed inspection (tests, benches, integrity checking). ---

  /// Walk every structure and verify the v2 invariants: sorted gap-free
  /// extent maps covering 0..size-1, disjoint files, bitmap⟷extent-table
  /// agreement (every mapped data and table block is marked allocated, every
  /// allocated bit is referenced), self-describing data headers, and
  /// allocated + free == capacity.  Returns the first violation found.
  [[nodiscard]] util::Status verify_invariants() const;
  /// Back-compat alias for verify_invariants().
  [[nodiscard]] util::Status verify_integrity() const {
    return verify_invariants();
  }

  [[nodiscard]] std::size_t free_block_count() const noexcept {
    return bitmap_.free_count();
  }
  /// Disk address of local block `block_no` of file `id` (kNilAddr if the
  /// file or block is absent).  Untimed — the extent maps are RAM-resident;
  /// the request scheduler uses this to estimate a request's target track
  /// without touching the disk.
  [[nodiscard]] BlockAddr peek_block_addr(FileId id,
                                          std::uint32_t block_no) const;
  /// Disk address of the file's first data block (kNilAddr if absent/empty).
  [[nodiscard]] BlockAddr peek_head(FileId id) const {
    return peek_block_addr(id, 0);
  }
  /// Disk address of the file's last data block (kNilAddr if absent/empty):
  /// where an append's allocation starts looking.
  [[nodiscard]] BlockAddr peek_tail(FileId id) const;
  /// Check whether `appends` new blocks fit, counting worst-case extent-table
  /// growth, so an out-of-space vectored run can fail whole before any block
  /// lands.  Untimed.
  [[nodiscard]] util::Status preflight_appends(FileId id,
                                               std::size_t appends) const;
  /// Extent-table blocks currently allocated across all files (tests).
  [[nodiscard]] std::size_t extent_table_blocks_total() const noexcept;
  /// True if the last remount_from_disk() took the dirty-superblock
  /// scan-and-rebuild path.
  [[nodiscard]] bool last_mount_rebuilt() const noexcept {
    return last_mount_rebuilt_;
  }
  [[nodiscard]] std::size_t file_count() const noexcept;
  [[nodiscard]] const EfsOpStats& op_stats() const noexcept { return stats_; }
  [[nodiscard]] const CacheStats& cache_stats() const noexcept {
    return cache_.stats();
  }
  [[nodiscard]] const EfsConfig& config() const noexcept { return config_; }
  [[nodiscard]] disk::SimDisk& device() noexcept { return dev_; }

  /// Publish op counters plus allocator/fragmentation gauges under `prefix`:
  /// `.file_extents_avg` (extents per non-empty file) and `.extent_len_avg`
  /// (data blocks per extent; higher = more contiguous layout).
  void publish_metrics(obs::MetricsRegistry& registry,
                       const std::string& prefix) const;

 private:
  /// Per-file placement: sorted extent list + the table blocks backing it.
  struct FileMap {
    std::vector<Extent> extents;
    std::vector<BlockAddr> table_blocks;
  };

  [[nodiscard]] std::uint32_t dir_capacity() const noexcept {
    return sb_.dir_blocks * kDirEntriesPerBlock;
  }
  /// Find the directory slot for `id`; returns index or -1.
  [[nodiscard]] std::int64_t dir_find(FileId id) const;
  /// Find a slot to insert `id` into; returns index or -1 (directory full).
  [[nodiscard]] std::int64_t dir_find_free(FileId id) const;
  /// Persist the directory block containing slot `slot` plus the superblock
  /// (marked dirty).  Charges a disk write every kDirFlushInterval
  /// mutations (or always if `force`).
  util::Status dir_persist(sim::Context& ctx, std::uint32_t slot, bool force);
  void poke_dir_block(std::uint32_t dir_block_index);
  void poke_superblock();
  /// Keep the on-disk bitmap region current (write-behind model).
  void poke_bitmap();
  /// Re-encode and poke the extent-table blocks of slot `slot`.
  void poke_file_tables(std::uint32_t slot);

  /// Grow the file's run list by one block: extend the last extent if the
  /// next disk block is free, else start a new extent in the first free
  /// group (else track, else block) at or after the file's end (or the
  /// allocation rotor for empty files), growing the extent table first when
  /// needed.  Fails with kOutOfSpace before mutating anything.
  util::Result<BlockAddr> allocate_append_block(sim::Context& ctx,
                                                std::uint32_t slot,
                                                DirEntry& entry);

  /// Tracks one multi-track transfer may stage or fill: half the cache.
  [[nodiscard]] std::uint32_t staging_tracks() const noexcept;

  /// O(log extents) map lookup of a file-local block number.
  util::Result<BlockAddr> locate(sim::Context& ctx, std::uint32_t slot,
                                 const DirEntry& entry, std::uint32_t block_no);

  util::Result<BlockAddr> append_block(sim::Context& ctx, std::uint32_t slot,
                                       DirEntry& entry,
                                       std::span<const std::byte> data,
                                       bool defer_data);

  /// Shared body of write()/write_run().  With defer_data the new block
  /// image is write-back instead of write-through; the caller must flush
  /// the touched tracks afterwards.
  util::Result<BlockAddr> write_one(sim::Context& ctx, FileId id,
                                    std::uint32_t block_no,
                                    std::span<const std::byte> data,
                                    bool defer_data);

  /// Untimed block view preferring unflushed cache contents over the device.
  [[nodiscard]] std::span<const std::byte> cache_view(BlockAddr addr) const;

  /// Per-file sequentiality detector state (ReadaheadConfig).
  struct SeqState {
    std::uint32_t next_block = 0;     ///< expected next sequential block_no
    std::uint32_t run_len = 0;        ///< consecutive sequential reads
    std::uint32_t random_streak = 0;  ///< consecutive non-sequential reads
  };
  /// Observe a read of `block_no` and return the track read-ahead depth the
  /// cache should use for it (0 = no read-ahead, 1 = one track, ...).
  [[nodiscard]] std::uint32_t readahead_depth(FileId id, std::uint32_t block_no);

  disk::SimDisk& dev_;
  EfsConfig config_;
  BlockCache cache_;
  Superblock sb_;
  std::vector<DirEntry> dir_;
  std::vector<FileMap> maps_;  ///< parallel to dir_
  BlockBitmap bitmap_;
  BlockAddr rotor_ = 0;  ///< next-placement goal for new files (locality)
  std::unordered_map<FileId, SeqState> seq_state_;
  std::uint32_t dir_mutations_ = 0;
  EfsOpStats stats_;
  bool formatted_ = false;
  bool last_mount_rebuilt_ = false;
};

}  // namespace bridge::efs
