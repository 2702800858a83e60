// SimDisk: latency accounting, track reads, bounds, fault injection, and a
// lazily-resident store whose unwritten blocks read as zeros.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "src/disk/disk.hpp"

namespace bridge::disk {
namespace {

Geometry small_geometry() {
  Geometry g;
  g.num_tracks = 16;
  g.blocks_per_track = 4;
  g.block_size = 1024;
  return g;
}

std::vector<std::byte> pattern_block(std::uint8_t fill, std::size_t n = 1024) {
  return std::vector<std::byte>(n, std::byte{fill});
}

TEST(Disk, WriteThenReadRoundTrips) {
  sim::Runtime rt(1);
  SimDisk disk(small_geometry(), LatencyModel{});
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    auto data = pattern_block(0x5A);
    ASSERT_TRUE(disk.write(ctx, 7, data).is_ok());
    auto got = disk.read(ctx, 7);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value(), data);
  });
  rt.run();
}

TEST(Disk, EachAccessChargesLatency) {
  sim::Runtime rt(1);
  LatencyModel lat;
  lat.access_latency = sim::msec(15.0);
  lat.transfer_per_block = sim::msec(0.5);
  SimDisk disk(small_geometry(), lat);
  sim::SimTime elapsed{};
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    auto data = pattern_block(1);
    (void)disk.write(ctx, 0, data);  // timing-only: elapsed virtual time is asserted below
    (void)disk.read(ctx, 40);  // timing-only: elapsed virtual time is asserted below
    elapsed = ctx.now();
  });
  rt.run();
  EXPECT_EQ(elapsed.us(), 31'000);  // 2 * (15ms + 0.5ms)
}

TEST(Disk, TrackReadCostsOnePositioning) {
  sim::Runtime rt(1);
  SimDisk disk(small_geometry(), LatencyModel{});
  sim::SimTime elapsed{};
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    BlockAddr start = kNilAddr;
    auto blocks = disk.read_track(ctx, 6, &start);
    ASSERT_TRUE(blocks.is_ok());
    EXPECT_EQ(start, 4u);  // track 1 starts at block 4
    EXPECT_EQ(blocks.value().size(), 4u);
    elapsed = ctx.now();
  });
  rt.run();
  EXPECT_EQ(elapsed.us(), 17'000);  // 15ms + 4 * 0.5ms
}

TEST(Disk, TrackReadReturnsCorrectContents) {
  sim::Runtime rt(1);
  SimDisk disk(small_geometry(), LatencyModel{});
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    for (std::uint8_t i = 0; i < 4; ++i) {
      (void)disk.write(ctx, 8 + i, pattern_block(i));  // filled blocks are read back and compared below
    }
    auto blocks = disk.read_track(ctx, 9, nullptr);
    ASSERT_TRUE(blocks.is_ok());
    for (std::uint8_t i = 0; i < 4; ++i) {
      EXPECT_EQ(blocks.value()[i], pattern_block(i)) << "block " << int(i);
    }
  });
  rt.run();
}

TEST(Disk, WriteRunCostsOnePositioning) {
  sim::Runtime rt(1);
  SimDisk disk(small_geometry(), LatencyModel{});
  sim::SimTime elapsed{};
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    auto a = pattern_block(1), b = pattern_block(2), c = pattern_block(3);
    WriteOp ops[] = {{4, a}, {6, b}, {7, c}};
    ASSERT_TRUE(disk.write_run(ctx, ops).is_ok());
    elapsed = ctx.now();
    for (auto& op : ops) {
      auto got = disk.read(ctx, op.addr);
      ASSERT_TRUE(got.is_ok());
      EXPECT_TRUE(std::equal(got.value().begin(), got.value().end(),
                             op.data.begin()));
    }
  });
  rt.run();
  EXPECT_EQ(elapsed.us(), 16'500);  // 15ms + 3 * 0.5ms
  EXPECT_EQ(disk.stats().track_writes, 1u);
  EXPECT_EQ(disk.stats().block_writes, 3u);
}

TEST(Disk, WriteRunRejectsCrossTrackAndBadSizeBeforeCharging) {
  sim::Runtime rt(1);
  SimDisk disk(small_geometry(), LatencyModel{});
  sim::SimTime elapsed{};
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    auto a = pattern_block(1), b = pattern_block(2);
    auto runt = pattern_block(3, 100);
    WriteOp spans_tracks[] = {{3, a}, {4, b}};
    EXPECT_EQ(disk.write_run(ctx, spans_tracks).code(),
              util::ErrorCode::kInvalidArgument);
    WriteOp bad_size[] = {{0, a}, {1, runt}};
    EXPECT_EQ(disk.write_run(ctx, bad_size).code(),
              util::ErrorCode::kInvalidArgument);
    EXPECT_TRUE(disk.write_run(ctx, {}).is_ok());  // empty run: free no-op
    elapsed = ctx.now();
  });
  rt.run();
  EXPECT_EQ(elapsed.us(), 0);  // nothing charged, nothing written
  EXPECT_EQ(disk.stats().block_writes, 0u);
}

TEST(Disk, WriteTracksSweepsConsecutiveTracksWithOnePositioning) {
  sim::Runtime rt(1);
  SimDisk disk(small_geometry(), LatencyModel{});
  sim::SimTime elapsed{};
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    std::vector<std::vector<std::byte>> data;
    for (std::uint8_t i = 0; i < 6; ++i) data.push_back(pattern_block(i + 1));
    // Tracks 1, 2 and 3; track 2 only partly, track 3 from its first block.
    WriteOp ops[] = {{6, data[0]},  {7, data[1]},  {8, data[2]},
                     {10, data[3]}, {12, data[4]}, {13, data[5]}};
    ASSERT_TRUE(disk.write_tracks(ctx, ops).is_ok());
    elapsed = ctx.now();
    for (auto& op : ops) {
      EXPECT_TRUE(std::equal(op.data.begin(), op.data.end(),
                             disk.peek(op.addr)->begin()));
    }
  });
  rt.run();
  // 15 ms positioning + 2 track switches of 1 ms + 6 transfers of 0.5 ms.
  EXPECT_EQ(elapsed.us(), 20'000);
  EXPECT_EQ(disk.stats().positioning_ops, 1u);
  EXPECT_EQ(disk.stats().track_writes, 3u);
  EXPECT_EQ(disk.stats().block_writes, 6u);
  EXPECT_EQ(disk.current_track(), 3u);
}

TEST(Disk, WriteTracksRejectsGapDescendingAndBadSizeBeforeCharging) {
  sim::Runtime rt(1);
  SimDisk disk(small_geometry(), LatencyModel{});
  sim::SimTime elapsed{};
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    auto a = pattern_block(1), b = pattern_block(2);
    auto runt = pattern_block(3, 100);
    WriteOp skips_track[] = {{3, a}, {8, b}};  // track 0 then track 2
    EXPECT_EQ(disk.write_tracks(ctx, skips_track).code(),
              util::ErrorCode::kInvalidArgument);
    WriteOp descends[] = {{5, a}, {4, b}};
    EXPECT_EQ(disk.write_tracks(ctx, descends).code(),
              util::ErrorCode::kInvalidArgument);
    WriteOp repeats[] = {{5, a}, {5, b}};
    EXPECT_EQ(disk.write_tracks(ctx, repeats).code(),
              util::ErrorCode::kInvalidArgument);
    WriteOp bad_size[] = {{4, a}, {5, runt}};
    EXPECT_EQ(disk.write_tracks(ctx, bad_size).code(),
              util::ErrorCode::kInvalidArgument);
    WriteOp out_of_range[] = {{63, a}, {64, b}};
    EXPECT_EQ(disk.write_tracks(ctx, out_of_range).code(),
              util::ErrorCode::kInvalidArgument);
    EXPECT_TRUE(disk.write_tracks(ctx, {}).is_ok());  // empty: free no-op
    elapsed = ctx.now();
  });
  rt.run();
  EXPECT_EQ(elapsed.us(), 0);  // nothing charged, nothing written
  EXPECT_EQ(disk.stats().positioning_ops, 0u);
  EXPECT_EQ(disk.stats().block_writes, 0u);
  for (BlockAddr addr : {3u, 4u, 5u, 8u, 63u}) {
    EXPECT_EQ((*disk.peek(addr))[0], std::byte{0}) << "block " << addr;
  }
}

TEST(Disk, OutOfRangeRejected) {
  sim::Runtime rt(1);
  SimDisk disk(small_geometry(), LatencyModel{});
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    EXPECT_EQ(disk.read(ctx, 64).status().code(),
              util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(disk.write(ctx, 9999, pattern_block(0)).code(),
              util::ErrorCode::kInvalidArgument);
  });
  rt.run();
}

TEST(Disk, WrongSizeWriteRejected) {
  sim::Runtime rt(1);
  SimDisk disk(small_geometry(), LatencyModel{});
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    EXPECT_EQ(disk.write(ctx, 0, pattern_block(0, 100)).code(),
              util::ErrorCode::kInvalidArgument);
  });
  rt.run();
}

TEST(Disk, FailAndRepair) {
  sim::Runtime rt(1);
  SimDisk disk(small_geometry(), LatencyModel{});
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(disk.write(ctx, 3, pattern_block(9)).is_ok());
    disk.fail();
    EXPECT_EQ(disk.read(ctx, 3).status().code(), util::ErrorCode::kUnavailable);
    EXPECT_EQ(disk.write(ctx, 3, pattern_block(1)).code(),
              util::ErrorCode::kUnavailable);
    disk.repair();
    auto got = disk.read(ctx, 3);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value(), pattern_block(9));  // data survived the outage
  });
  rt.run();
}

TEST(Disk, StatsAccumulate) {
  sim::Runtime rt(1);
  SimDisk disk(small_geometry(), LatencyModel{});
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    (void)disk.write(ctx, 0, pattern_block(1));  // warm-up op; positioning charge asserted below
    (void)disk.read(ctx, 0);  // warm-up op; positioning charge asserted below
    (void)disk.read_track(ctx, 0, nullptr);  // warm-up op; positioning charge asserted below
  });
  rt.run();
  const auto& st = disk.stats();
  EXPECT_EQ(st.block_writes, 1u);
  EXPECT_EQ(st.block_reads, 1u + 4u);
  EXPECT_EQ(st.track_reads, 1u);
  EXPECT_EQ(st.positioning_ops, 3u);
}

TEST(Disk, PeekAndPokeAreUntimed) {
  sim::Runtime rt(1);
  SimDisk disk(small_geometry(), LatencyModel{});
  auto data = pattern_block(0x77);
  disk.poke(5, data);
  auto view = disk.peek(5);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(std::equal(view->begin(), view->end(), data.begin()));
  EXPECT_FALSE(disk.peek(64).has_value());
  EXPECT_EQ(disk.stats().block_reads, 0u);
}

TEST(Disk, UnwrittenBlocksReadAsZeros) {
  // The default geometry is a 4 MiB device, whose store is a fresh
  // mapping; the small one is not.  Neither is written at construction.
  for (const Geometry& geometry : {Geometry{}, small_geometry()}) {
    sim::Runtime rt(1);
    SimDisk disk(geometry, LatencyModel{});
    auto zeros = pattern_block(0, geometry.block_size);
    BlockAddr last = geometry.capacity_blocks() - 1;
    rt.spawn(0, "t", [&](sim::Context& ctx) {
      for (BlockAddr addr : {BlockAddr{0}, BlockAddr{5}, last}) {
        auto got = disk.read(ctx, addr);
        ASSERT_TRUE(got.is_ok());
        EXPECT_EQ(got.value(), zeros) << "block " << addr;
      }
      BlockAddr start = kNilAddr;
      auto track = disk.read_track(ctx, last, &start);
      ASSERT_TRUE(track.is_ok());
      for (const auto& block : track.value()) EXPECT_EQ(block, zeros);
    });
    rt.run();
    for (BlockAddr addr : {BlockAddr{0}, BlockAddr{9}, last}) {
      auto view = disk.peek(addr);
      ASSERT_TRUE(view.has_value());
      EXPECT_TRUE(std::equal(view->begin(), view->end(), zeros.begin()))
          << "block " << addr;
    }
  }
}

TEST(Disk, SparseImageRoundTrips) {
  // Two blocks written far apart on a 4 MiB device: the image restores
  // them and every other block still reads as zeros.
  std::string path = ::testing::TempDir() + "/bridge_disk_sparse_image.bin";
  Geometry geometry;
  BlockAddr far = geometry.capacity_blocks() - 2;
  SimDisk written(geometry, LatencyModel{});
  written.poke(3, pattern_block(0x3C));
  written.poke(far, pattern_block(0xC3));
  ASSERT_TRUE(written.save_image(path).is_ok());

  SimDisk loaded(geometry, LatencyModel{});
  loaded.poke(7, pattern_block(0xEE));  // overwritten by the image's zeros
  ASSERT_TRUE(loaded.load_image(path).is_ok());
  std::remove(path.c_str());
  for (BlockAddr addr = 0; addr < geometry.capacity_blocks(); ++addr) {
    std::uint8_t fill = addr == 3 ? 0x3C : addr == far ? 0xC3 : 0;
    auto expected = pattern_block(fill);
    auto view = loaded.peek(addr);
    ASSERT_TRUE(view.has_value());
    ASSERT_TRUE(std::equal(view->begin(), view->end(), expected.begin()))
        << "block " << addr;
  }
}

}  // namespace
}  // namespace bridge::disk
