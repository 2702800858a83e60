// LRU block cache with full-track read-ahead.
//
// "A cache of recently-accessed blocks makes sequential access more
// efficient by keeping neighboring blocks (and their pointers) in memory"
// (§4.3), and average read time "is substantially less than disk latency
// because of full-track buffering" (§4.5).  On a miss the cache reads the
// whole track containing the requested block in one positioning operation.
//
// Write policy: callers choose per update.  Single-block data writes go
// through to disk; vectored runs stage blocks with write_back and land each
// window of consecutive touched tracks in one positioning operation via
// flush_tracks.  Since layout v2 the chain-pointer write-back of the seed is
// gone — an append touches exactly one data block, placement lives in the
// extent tables.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/disk/disk.hpp"
#include "src/sim/runtime.hpp"
#include "src/util/status.hpp"

namespace bridge::efs {

struct CacheConfig {
  std::uint32_t capacity_blocks = 64;
  bool track_readahead = true;
  /// CPU charged on a cache hit (lookup + copy).
  sim::SimTime hit_cpu = sim::usec(150);
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t readahead_blocks = 0;
  std::uint64_t dirty_evictions = 0;
  std::uint64_t clean_evictions = 0;
  /// Dirty blocks flushed through flush_tracks' one-positioning sweeps.
  std::uint64_t coalesced_flush_blocks = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  void reset() noexcept { *this = CacheStats{}; }

  /// Publish counters under `prefix`, plus a `<prefix>.hit_rate` gauge.
  void publish(obs::MetricsRegistry& registry, const std::string& prefix) const;

  /// Phase delta: activity since `b` was captured.
  friend CacheStats operator-(CacheStats a, const CacheStats& b) noexcept {
    a.hits -= b.hits;
    a.misses -= b.misses;
    a.readahead_blocks -= b.readahead_blocks;
    a.dirty_evictions -= b.dirty_evictions;
    a.clean_evictions -= b.clean_evictions;
    a.coalesced_flush_blocks -= b.coalesced_flush_blocks;
    return a;
  }
};

class BlockCache {
 public:
  BlockCache(disk::SimDisk& dev, CacheConfig config)
      : dev_(dev), config_(config) {}

  /// Fetch a block (cache hit or disk read + track read-ahead).  The
  /// returned span is valid until the next cache operation.
  ///
  /// `readahead_tracks` scales the miss fill: 1 (the default) reads the
  /// block's whole track as before, N > 1 streams N consecutive tracks in
  /// one sweep (SimDisk::read_tracks), and 0 suppresses read-ahead entirely
  /// — a random-access read costs one block, not a track.  Ignored when
  /// track_readahead is off; clamped so the fill fits the cache capacity.
  util::Result<std::span<const std::byte>> fetch(sim::Context& ctx,
                                                 disk::BlockAddr addr,
                                                 std::uint32_t readahead_tracks = 1);

  /// Replace a block's contents and write it through to disk.
  util::Status write_through(sim::Context& ctx, disk::BlockAddr addr,
                             std::span<const std::byte> data);

  /// Replace a block's contents in cache only; flushed on eviction.
  util::Status write_back(sim::Context& ctx, disk::BlockAddr addr,
                          std::span<const std::byte> data);

  /// Drop a block without flushing (used when the block is freed).
  void invalidate(disk::BlockAddr addr);

  /// Flush every dirty block (charges one disk write each).
  util::Status flush_all(sim::Context& ctx);

  /// Flush every dirty block on `num_tracks` consecutive tracks, starting
  /// with the one containing `addr`, in ONE positioning operation
  /// (SimDisk::write_tracks) — the write-side mirror of multi-track
  /// read-ahead.  A track with no dirty block splits the window into
  /// separate sweeps; no dirty block at all is a no-op.
  util::Status flush_tracks(sim::Context& ctx, disk::BlockAddr addr,
                            std::uint32_t num_tracks);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  /// Zero the counters (phase measurement without rebuilding the instance).
  void reset_stats() noexcept { stats_.reset(); }
  [[nodiscard]] std::size_t resident_blocks() const noexcept {
    return entries_.size();
  }
  [[nodiscard]] bool contains(disk::BlockAddr addr) const noexcept {
    return entries_.count(addr) != 0;
  }

  /// Untimed view of a cached block (nullptr if absent).  Integrity checks
  /// use it so write-back data not yet flushed is still visible.
  [[nodiscard]] const std::vector<std::byte>* peek(disk::BlockAddr addr) const {
    auto it = entries_.find(addr);
    return it == entries_.end() ? nullptr : &it->second.data;
  }

 private:
  struct Entry {
    std::vector<std::byte> data;
    bool dirty = false;
    std::list<disk::BlockAddr>::iterator lru_pos;
  };

  /// Insert (or overwrite) a cache entry, evicting as needed.
  util::Status install(sim::Context& ctx, disk::BlockAddr addr,
                       std::vector<std::byte> data, bool dirty);
  util::Status evict_one(sim::Context& ctx);
  void touch(Entry& entry, disk::BlockAddr addr);

  disk::SimDisk& dev_;
  CacheConfig config_;
  std::unordered_map<disk::BlockAddr, Entry> entries_;
  std::list<disk::BlockAddr> lru_;  ///< front = most recent
  CacheStats stats_;
};

}  // namespace bridge::efs
