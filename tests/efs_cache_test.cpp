// BlockCache: hit/miss accounting, track read-ahead, LRU eviction,
// write-through vs write-back policies.
#include <gtest/gtest.h>

#include "src/efs/cache.hpp"

namespace bridge::efs {
namespace {

disk::Geometry geo() {
  disk::Geometry g;
  g.num_tracks = 32;
  g.blocks_per_track = 4;
  return g;
}

std::vector<std::byte> block(std::uint8_t fill) {
  return std::vector<std::byte>(1024, std::byte{fill});
}

TEST(Cache, MissThenHit) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  CacheConfig cfg;
  BlockCache cache(dev, cfg);
  sim::SimTime t_miss{}, t_hit{};
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    auto before = ctx.now();
    ASSERT_TRUE(cache.fetch(ctx, 10).is_ok());
    t_miss = ctx.now() - before;
    before = ctx.now();
    ASSERT_TRUE(cache.fetch(ctx, 10).is_ok());
    t_hit = ctx.now() - before;
  });
  rt.run();
  EXPECT_EQ(t_miss.us(), 17'000);  // full track: 15ms + 4*0.5ms
  EXPECT_EQ(t_hit.us(), 150);      // hit cpu only
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, TrackReadAheadMakesNeighborsHits) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  BlockCache cache(dev, CacheConfig{});
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(cache.fetch(ctx, 8).is_ok());   // loads track 2: blocks 8-11
    ASSERT_TRUE(cache.fetch(ctx, 9).is_ok());
    ASSERT_TRUE(cache.fetch(ctx, 10).is_ok());
    ASSERT_TRUE(cache.fetch(ctx, 11).is_ok());
  });
  rt.run();
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().readahead_blocks, 3u);
}

TEST(Cache, ReadAheadDisabledReadsSingleBlocks) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  CacheConfig cfg;
  cfg.track_readahead = false;
  BlockCache cache(dev, cfg);
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(cache.fetch(ctx, 8).is_ok());
    ASSERT_TRUE(cache.fetch(ctx, 9).is_ok());
  });
  rt.run();
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(dev.stats().track_reads, 0u);
}

TEST(Cache, LruEvictsOldest) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  CacheConfig cfg;
  cfg.capacity_blocks = 4;
  cfg.track_readahead = false;
  BlockCache cache(dev, cfg);
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    for (disk::BlockAddr a = 0; a < 4; ++a) ASSERT_TRUE(cache.fetch(ctx, a).is_ok());
    ASSERT_TRUE(cache.fetch(ctx, 0).is_ok());  // refresh 0
    ASSERT_TRUE(cache.fetch(ctx, 50).is_ok()); // evicts 1 (LRU)
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(1));
  });
  rt.run();
}

TEST(Cache, WriteBackFlushesOnEviction) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  CacheConfig cfg;
  cfg.capacity_blocks = 4;
  cfg.track_readahead = false;
  BlockCache cache(dev, cfg);
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(cache.write_back(ctx, 2, block(0xAB)).is_ok());
    // On-disk copy still stale:
    auto on_disk = dev.peek(2);
    EXPECT_EQ((*on_disk)[0], std::byte{0});
    // Fill cache to force eviction of block 2.
    for (disk::BlockAddr a = 10; a < 14; ++a) ASSERT_TRUE(cache.fetch(ctx, a).is_ok());
    on_disk = dev.peek(2);
    EXPECT_EQ((*on_disk)[0], std::byte{0xAB});
  });
  rt.run();
  EXPECT_EQ(cache.stats().dirty_evictions, 1u);
}

TEST(Cache, WriteThroughIsImmediatelyOnDisk) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  BlockCache cache(dev, CacheConfig{});
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(cache.write_through(ctx, 3, block(0xCD)).is_ok());
    auto on_disk = dev.peek(3);
    EXPECT_EQ((*on_disk)[0], std::byte{0xCD});
  });
  rt.run();
  EXPECT_EQ(dev.stats().block_writes, 1u);
}

TEST(Cache, FlushAllWritesEveryDirtyBlock) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  BlockCache cache(dev, CacheConfig{});
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(cache.write_back(ctx, 1, block(1)).is_ok());
    ASSERT_TRUE(cache.write_back(ctx, 2, block(2)).is_ok());
    ASSERT_TRUE(cache.flush_all(ctx).is_ok());
    EXPECT_EQ((*dev.peek(1))[0], std::byte{1});
    EXPECT_EQ((*dev.peek(2))[0], std::byte{2});
  });
  rt.run();
  EXPECT_EQ(dev.stats().block_writes, 2u);
}

TEST(Cache, ReadAheadDoesNotClobberDirtyNeighbors) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  BlockCache cache(dev, CacheConfig{});
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    // Dirty block 9 in cache; disk copy is zeros.
    ASSERT_TRUE(cache.write_back(ctx, 9, block(0xEE)).is_ok());
    // Miss on 8 triggers a read of track 2 (blocks 8-11); the stale disk
    // copy of 9 must not replace the dirty cached copy.
    auto got = cache.fetch(ctx, 8);
    ASSERT_TRUE(got.is_ok());
    auto nine = cache.fetch(ctx, 9);
    ASSERT_TRUE(nine.is_ok());
    EXPECT_EQ(nine.value()[0], std::byte{0xEE});
  });
  rt.run();
}

TEST(Cache, ReadAheadEvictionDoesNotResurrectStaleData) {
  // Regression: a dirty track-mate that gets EVICTED (and flushed) while the
  // track's other blocks are being installed must not be re-installed from
  // the stale disk image captured before the flush.
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  CacheConfig cfg;
  cfg.capacity_blocks = 4;  // exactly one track
  BlockCache cache(dev, cfg);
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    // Dirty block 9 (track 2), oldest in LRU.
    ASSERT_TRUE(cache.write_back(ctx, 9, block(0xAA)).is_ok());
    // Fill the rest of the cache with other tracks (9 stays LRU-oldest).
    ASSERT_TRUE(cache.fetch(ctx, 0).is_ok());  // loads track 0 -> evicts...
    // fetch(0) installed 4 blocks, so 9 was evicted and flushed already or
    // will be during the next readahead; either way, reading block 9 must
    // return the dirty value.
    auto nine = cache.fetch(ctx, 9);
    ASSERT_TRUE(nine.is_ok());
    EXPECT_EQ(nine.value()[0], std::byte{0xAA});
    // And a miss on its track-mate 8 must not clobber it either.
    ASSERT_TRUE(cache.fetch(ctx, 8).is_ok());
    nine = cache.fetch(ctx, 9);
    ASSERT_TRUE(nine.is_ok());
    EXPECT_EQ(nine.value()[0], std::byte{0xAA});
  });
  rt.run();
}

TEST(Cache, FlushTrackCleansBlocksSoEvictionSkipsRewrite) {
  // Satellite of the adaptive-I/O PR: a dirty block pushed out by a
  // coalesced flush_tracks must evict CLEAN afterwards — no second device
  // write, and the eviction counters must say exactly that.
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  CacheConfig cfg;
  cfg.capacity_blocks = 4;
  cfg.track_readahead = false;
  BlockCache cache(dev, cfg);
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(cache.write_back(ctx, 8, block(0x21)).is_ok());
    ASSERT_TRUE(cache.write_back(ctx, 9, block(0x22)).is_ok());
    ASSERT_TRUE(cache.flush_tracks(ctx, 8, 1).is_ok());  // one sweep, 2 blocks
    EXPECT_EQ(cache.stats().coalesced_flush_blocks, 2u);
    EXPECT_EQ(dev.stats().track_writes, 1u);
    std::uint64_t writes_after_flush = dev.stats().block_writes;
    // Force both flushed blocks out of the cache.
    for (disk::BlockAddr a = 20; a < 24; ++a) {
      ASSERT_TRUE(cache.fetch(ctx, a).is_ok());
    }
    EXPECT_FALSE(cache.contains(8));
    EXPECT_FALSE(cache.contains(9));
    // Evictions were clean: the flush already persisted the data.
    EXPECT_EQ(dev.stats().block_writes, writes_after_flush);
    EXPECT_EQ(cache.stats().dirty_evictions, 0u);
    EXPECT_EQ(cache.stats().clean_evictions, 2u);
    EXPECT_EQ((*dev.peek(8))[0], std::byte{0x21});
    EXPECT_EQ((*dev.peek(9))[0], std::byte{0x22});
  });
  rt.run();
}

TEST(Cache, RedirtyAfterFlushTrackStillFlushesOnEviction) {
  // The inverse guard: a block re-dirtied AFTER flush_tracks must still be
  // written out when evicted (clean-marking must not be sticky).
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  CacheConfig cfg;
  cfg.capacity_blocks = 4;
  cfg.track_readahead = false;
  BlockCache cache(dev, cfg);
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(cache.write_back(ctx, 8, block(0x31)).is_ok());
    ASSERT_TRUE(cache.flush_tracks(ctx, 8, 1).is_ok());
    ASSERT_TRUE(cache.write_back(ctx, 8, block(0x32)).is_ok());  // re-dirty
    for (disk::BlockAddr a = 20; a < 24; ++a) {
      ASSERT_TRUE(cache.fetch(ctx, a).is_ok());
    }
    EXPECT_EQ(cache.stats().dirty_evictions, 1u);
    EXPECT_EQ((*dev.peek(8))[0], std::byte{0x32});
  });
  rt.run();
}

TEST(Cache, DeepReadaheadInstallsMultipleTracks) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  BlockCache cache(dev, CacheConfig{});
  sim::SimTime t_fill{};
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    auto before = ctx.now();
    ASSERT_TRUE(cache.fetch(ctx, 8, /*readahead_tracks=*/2).is_ok());
    t_fill = ctx.now() - before;
    // Both track 2 and track 3 are now resident: blocks 8..15 all hit.
    for (disk::BlockAddr a = 9; a < 16; ++a) {
      ASSERT_TRUE(cache.fetch(ctx, a).is_ok());
    }
  });
  rt.run();
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 7u);
  EXPECT_EQ(cache.stats().readahead_blocks, 7u);
  EXPECT_EQ(dev.stats().track_reads, 2u);
  // One sweep: 15ms positioning + 8*0.5ms transfer + 1ms track switch —
  // far below two independent track reads (2*17ms).
  EXPECT_EQ(t_fill.us(), 20'000);
}

TEST(Cache, ZeroReadaheadReadsSingleBlockEvenWhenTrackModeOn) {
  // Depth 0 is the sequentiality detector's "random access" verdict: fetch
  // only the block asked for, even though track readahead is enabled.
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  BlockCache cache(dev, CacheConfig{});
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(cache.fetch(ctx, 8, /*readahead_tracks=*/0).is_ok());
  });
  rt.run();
  EXPECT_EQ(dev.stats().track_reads, 0u);
  EXPECT_EQ(dev.stats().block_reads, 1u);
  EXPECT_EQ(cache.stats().readahead_blocks, 0u);
}

TEST(Cache, DeepReadaheadClampsToCacheCapacity) {
  // A 4-block cache holds exactly one track: a depth-4 request must clamp
  // to one track or the fill would evict its own prefetch.
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  CacheConfig cfg;
  cfg.capacity_blocks = 4;
  BlockCache cache(dev, cfg);
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(cache.fetch(ctx, 8, /*readahead_tracks=*/4).is_ok());
  });
  rt.run();
  EXPECT_EQ(dev.stats().track_reads, 1u);
  EXPECT_EQ(cache.stats().readahead_blocks, 3u);
}

TEST(Cache, InvalidateDropsWithoutFlush) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  BlockCache cache(dev, CacheConfig{});
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(cache.write_back(ctx, 4, block(0x11)).is_ok());
    cache.invalidate(4);
    EXPECT_FALSE(cache.contains(4));
    EXPECT_EQ((*dev.peek(4))[0], std::byte{0});  // never written
  });
  rt.run();
}

}  // namespace
}  // namespace bridge::efs
