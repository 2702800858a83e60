// Allocator-layer tests for EFS layout v2: BlockBitmap placement and serde,
// extent-table serialization, randomized alloc/free/truncate torture with
// invariants checked after every single operation, the exact out-of-space
// boundary through preflight_appends, the group-first placement of new
// extents (interleaved appenders, the nearly-full fallback, fsck and dirty
// remount afterwards), and same-seed trace reproducibility (run in the
// BRIDGE_RACE_CHECK=ON CI build too, where every bitmap and map access is
// race-annotated).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/efs/efs.hpp"
#include "src/efs/fsck.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/rng.hpp"

namespace bridge::efs {
namespace {

TEST(BlockBitmap, ResetMarksMetadataAllocated) {
  BlockBitmap bm;
  bm.reset(/*capacity_blocks=*/100, /*data_start=*/10);
  for (BlockAddr a = 0; a < 10; ++a) EXPECT_TRUE(bm.test(a)) << a;
  for (BlockAddr a = 10; a < 100; ++a) EXPECT_FALSE(bm.test(a)) << a;
  EXPECT_EQ(bm.free_count(), 90u);
  bm.set(42);
  EXPECT_TRUE(bm.test(42));
  EXPECT_EQ(bm.free_count(), 89u);
  bm.clear(42);
  EXPECT_FALSE(bm.test(42));
  EXPECT_EQ(bm.free_count(), 90u);
}

TEST(BlockBitmap, FindFreeRunPrefersTheGoal) {
  BlockBitmap bm;
  bm.reset(256, 10);
  auto run = bm.find_free_run(/*goal=*/100, /*max_len=*/4);
  EXPECT_EQ(run.addr, 100u);
  EXPECT_EQ(run.len, 4u);

  // An occupied goal falls forward to the nearest free block.
  for (BlockAddr a = 100; a < 104; ++a) bm.set(a);
  run = bm.find_free_run(100, 4);
  EXPECT_EQ(run.addr, 104u);
  EXPECT_EQ(run.len, 4u);

  // A run is cut short by the next allocated block.
  bm.set(106);
  run = bm.find_free_run(104, 8);
  EXPECT_EQ(run.addr, 104u);
  EXPECT_EQ(run.len, 2u);
}

TEST(BlockBitmap, FindFreeRunFallsBackwardWhenTailIsFull) {
  BlockBitmap bm;
  bm.reset(64, 10);
  // Fill the tail of the disk; only [10, 20) stays free.
  for (BlockAddr a = 20; a < 64; ++a) bm.set(a);
  auto run = bm.find_free_run(/*goal=*/60, /*max_len=*/4);
  EXPECT_EQ(run.addr, 19u);
  EXPECT_EQ(run.len, 1u);

  // Completely full: len 0.
  for (BlockAddr a = 10; a < 20; ++a) bm.set(a);
  run = bm.find_free_run(60, 4);
  EXPECT_EQ(run.len, 0u);
}

TEST(BlockBitmap, FindFreeAlignedTakesWholeAlignedChunksAndWraps) {
  BlockBitmap bm;
  bm.reset(/*capacity_blocks=*/256, /*data_start=*/10);
  // Chunk [0, 32) holds metadata; the first free group at or after any goal
  // up to 32 is [32, 64).
  EXPECT_EQ(bm.find_free_aligned(10, 32), 32u);
  EXPECT_EQ(bm.find_free_aligned(32, 32), 32u);
  // A goal inside a group skips to the next aligned start.
  EXPECT_EQ(bm.find_free_aligned(33, 32), 64u);
  bm.set(70);  // [64, 96) is no longer wholly free
  EXPECT_EQ(bm.find_free_aligned(33, 32), 96u);
  // Tracks (4 blocks): [68, 72) holds block 70.
  EXPECT_EQ(bm.find_free_aligned(66, 4), 72u);
  EXPECT_EQ(bm.find_free_aligned(10, 4), 12u);
  // Nothing at or after the goal: wrap around to the first free group.
  for (BlockAddr a = 96; a < 256; ++a) bm.set(a);
  EXPECT_EQ(bm.find_free_aligned(200, 32), 32u);
  for (BlockAddr a = 32; a < 64; a += 8) bm.set(a);
  EXPECT_EQ(bm.find_free_aligned(200, 32), kNilAddr);
  EXPECT_EQ(bm.find_free_aligned(200, 4), 12u);
  // Spans that are not a power of two up to 64 find nothing.
  EXPECT_EQ(bm.find_free_aligned(10, 3), kNilAddr);
  EXPECT_EQ(bm.find_free_aligned(10, 128), kNilAddr);
  // A device whose last chunk is cut short never offers it.
  BlockBitmap tail;
  tail.reset(/*capacity_blocks=*/80, /*data_start=*/10);
  EXPECT_EQ(tail.find_free_aligned(33, 32), 32u);
  EXPECT_EQ(tail.find_free_aligned(64, 32), 32u);  // [64, 96) is cut short
}

TEST(BlockBitmap, EncodeDecodeRoundTripIsBitIdentical) {
  BlockBitmap bm;
  bm.reset(/*capacity_blocks=*/10000, /*data_start=*/12);
  sim::Rng rng(7);
  for (int i = 0; i < 700; ++i) {
    bm.set(static_cast<BlockAddr>(12 + rng.next_below(10000 - 12)));
  }
  ASSERT_EQ(BlockBitmap::blocks_needed(10000), 2u);

  BlockBitmap loaded;
  loaded.reset(10000, 12);
  for (std::uint32_t b = 0; b < 2; ++b) {
    auto image = bm.encode_block(b);
    ASSERT_EQ(image.size(), kBlockSize);
    loaded.decode_block(b, image);
  }
  EXPECT_TRUE(loaded == bm);
  EXPECT_EQ(loaded.free_count(), bm.free_count());
  if (loaded.test(9999)) {
    loaded.clear(9999);
  } else {
    loaded.set(9999);
  }
  EXPECT_FALSE(loaded == bm);
}

TEST(ExtentTable, ImageRoundTripAndGarbageRejection) {
  ExtentTableBlock t;
  t.file_id = 77;
  t.next = 1234;
  for (std::uint32_t i = 0; i < kExtentsPerTableBlock; ++i) {
    t.extents.push_back(Extent{i * 3, 100 + i * 5, 2});
  }
  auto image = t.to_image();
  ASSERT_EQ(image.size(), kBlockSize);
  auto parsed = ExtentTableBlock::parse(image);
  EXPECT_TRUE(parsed.valid_for(77));
  EXPECT_FALSE(parsed.valid_for(78));
  EXPECT_EQ(parsed.next, 1234u);
  ASSERT_EQ(parsed.extents.size(), t.extents.size());
  EXPECT_EQ(parsed.extents.back().addr, t.extents.back().addr);

  std::vector<std::byte> garbage(kBlockSize, std::byte{0xC7});
  EXPECT_FALSE(ExtentTableBlock::parse(garbage).valid_for(77));

  EXPECT_EQ(table_blocks_for(0), 0u);
  EXPECT_EQ(table_blocks_for(1), 1u);
  EXPECT_EQ(table_blocks_for(kExtentsPerTableBlock), 1u);
  EXPECT_EQ(table_blocks_for(kExtentsPerTableBlock + 1), 2u);
}

TEST(Allocator, InvariantsHoldAfterEveryOperation) {
  sim::Runtime rt(1);
  disk::Geometry geometry;
  geometry.num_tracks = 64;  // 256 blocks: small enough to hit out-of-space
  geometry.blocks_per_track = 4;
  disk::SimDisk dev(geometry, disk::LatencyModel{});
  EfsCore fs(dev, EfsConfig{});
  fs.format();
  rt.spawn(0, "torture", [&](sim::Context& ctx) {
    std::vector<std::byte> payload(kEfsDataBytes, std::byte{0x3D});
    sim::Rng rng(0xA110C);
    std::map<FileId, std::uint32_t> sizes;
    for (int op = 0; op < 250; ++op) {
      auto action = rng.next_below(100);
      if (action < 15) {
        FileId id = static_cast<FileId>(1 + rng.next_below(12));
        if (fs.create(ctx, id).is_ok()) sizes[id] = 0;
      } else if (action < 28 && !sizes.empty()) {
        auto it = sizes.begin();
        std::advance(it, static_cast<long>(rng.next_below(sizes.size())));
        ASSERT_TRUE(fs.remove(ctx, it->first).is_ok());
        sizes.erase(it);
      } else if (action < 42 && !sizes.empty()) {
        auto it = sizes.begin();
        std::advance(it, static_cast<long>(rng.next_below(sizes.size())));
        auto target = static_cast<std::uint32_t>(
            rng.next_below(it->second + 1));
        ASSERT_TRUE(fs.truncate(ctx, it->first, target).is_ok());
        it->second = target;
      } else if (!sizes.empty()) {
        auto it = sizes.begin();
        std::advance(it, static_cast<long>(rng.next_below(sizes.size())));
        auto w = fs.write(ctx, it->first, it->second, payload);
        if (w.is_ok()) {
          ++it->second;
        } else {
          ASSERT_EQ(w.code(), util::ErrorCode::kOutOfSpace);
        }
      }
      ASSERT_TRUE(fs.verify_invariants().is_ok()) << "after op " << op;
    }
  });
  rt.run();
}

TEST(Allocator, PreflightPredictsTheExactOutOfSpaceBoundary) {
  sim::Runtime rt(1);
  disk::Geometry geometry;
  geometry.num_tracks = 16;  // 64 blocks, 10 metadata -> 54 allocatable
  geometry.blocks_per_track = 4;
  disk::SimDisk dev(geometry, disk::LatencyModel{});
  EfsCore fs(dev, EfsConfig{});
  fs.format();
  rt.spawn(0, "fill", [&](sim::Context& ctx) {
    std::vector<std::byte> payload(kEfsDataBytes, std::byte{0x55});
    ASSERT_TRUE(fs.create(ctx, 1).is_ok());
    auto free = static_cast<std::uint32_t>(fs.free_block_count());
    ASSERT_EQ(free, 54u);
    // A fresh file needs one extent-table block on its first append, so
    // exactly free - 1 data blocks fit.  Preflight must agree to the block.
    EXPECT_TRUE(fs.preflight_appends(1, free - 1).is_ok());
    EXPECT_EQ(fs.preflight_appends(1, free).code(),
              util::ErrorCode::kOutOfSpace);

    std::uint32_t written = 0;
    for (std::uint32_t i = 0; i < free; ++i) {
      if (!fs.write(ctx, 1, i, payload).is_ok()) break;
      ++written;
    }
    EXPECT_EQ(written, free - 1);
    EXPECT_EQ(fs.free_block_count(), 0u);
    // With the table already in place and zero free blocks, even one more
    // append must be refused up front.
    EXPECT_EQ(fs.preflight_appends(1, 1).code(), util::ErrorCode::kOutOfSpace);
    EXPECT_TRUE(fs.preflight_appends(1, 0).is_ok());

    // Freeing the tail reopens exactly that much headroom.
    ASSERT_TRUE(fs.truncate(ctx, 1, written - 5).is_ok());
    EXPECT_TRUE(fs.preflight_appends(1, 5).is_ok());
    EXPECT_EQ(fs.preflight_appends(1, 6).code(),
              util::ErrorCode::kOutOfSpace);
    ASSERT_TRUE(fs.verify_invariants().is_ok());
  });
  rt.run();
}

/// Extents of file `id` counted from address discontinuities.
std::vector<std::uint32_t> extent_lengths(const EfsCore& fs, FileId id,
                                          std::uint32_t size) {
  std::vector<std::uint32_t> lens;
  for (std::uint32_t b = 0; b < size; ++b) {
    if (b == 0 ||
        fs.peek_block_addr(id, b) != fs.peek_block_addr(id, b - 1) + 1) {
      lens.push_back(0);
    }
    ++lens.back();
  }
  return lens;
}

std::vector<std::byte> tagged(std::uint32_t tag) {
  std::vector<std::byte> data(kEfsDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 7 + i));
  }
  return data;
}

TEST(Allocator, InterleavedAppendersGetGroupLongExtents) {
  // Four files appended one block at a time, round-robin: each new extent
  // starts its own free 32-block group, so a file's extents are group-long
  // instead of one block each.
  sim::Runtime rt(1);
  disk::Geometry geometry;
  geometry.num_tracks = 256;
  geometry.blocks_per_track = 4;
  disk::SimDisk dev(geometry, disk::LatencyModel{});
  EfsCore fs(dev, EfsConfig{});
  fs.format();
  constexpr std::uint32_t kBlocks = 96;
  rt.spawn(0, "appenders", [&](sim::Context& ctx) {
    for (FileId f = 1; f <= 4; ++f) ASSERT_TRUE(fs.create(ctx, f).is_ok());
    for (std::uint32_t i = 0; i < kBlocks; ++i) {
      for (FileId f = 1; f <= 4; ++f) {
        ASSERT_TRUE(fs.write(ctx, f, i, tagged(f * 1000 + i)).is_ok());
      }
    }
  });
  rt.run();
  for (FileId f = 1; f <= 4; ++f) {
    auto lens = extent_lengths(fs, f, kBlocks);
    ASSERT_LE(lens.size(), 4u) << "file " << f;
    for (std::size_t e = 0; e + 1 < lens.size(); ++e) {
      // The first extent may give its group's last block to the next
      // file's extent table.
      EXPECT_GE(lens[e], kAllocGroupBlocks - 1)
          << "file " << f << " extent " << e;
    }
  }
  EXPECT_LE(fs.op_stats().extents_allocated, 16u);
  EXPECT_TRUE(fs.verify_invariants().is_ok());
}

TEST(Allocator, FallbackFillsANearlyFullDiskToItsLastFreeBlock) {
  // Once no whole group or track is free, a new extent takes the nearest
  // free block, so appends keep landing until the bitmap is empty — and
  // kOutOfSpace comes exactly then.
  sim::Runtime rt(1);
  disk::Geometry geometry;
  geometry.num_tracks = 32;  // 128 blocks, 10 metadata -> 118 allocatable
  geometry.blocks_per_track = 4;
  disk::SimDisk dev(geometry, disk::LatencyModel{});
  EfsCore fs(dev, EfsConfig{});
  fs.format();
  rt.spawn(0, "fill", [&](sim::Context& ctx) {
    // One-block files (table + data) until the volume is full.
    std::vector<FileId> files;
    for (FileId f = 1;; ++f) {
      ASSERT_TRUE(fs.create(ctx, f).is_ok());
      if (!fs.write(ctx, f, 0, tagged(f)).is_ok()) break;
      files.push_back(f);
    }
    ASSERT_LE(fs.free_block_count(), 1u);
    // Every other file goes: the volume is left with small holes only.
    for (std::size_t i = 0; i < files.size(); i += 2) {
      ASSERT_TRUE(fs.remove(ctx, files[i]).is_ok());
    }
    const FileId grower = files[1];
    const auto free_before = static_cast<std::uint32_t>(fs.free_block_count());
    ASSERT_GT(free_before, 20u);
    std::uint32_t appended = 0;
    for (std::uint32_t b = 1;; ++b) {
      bool had_space = fs.free_block_count() > 0;
      auto st = fs.write(ctx, grower, b, tagged(grower * 1000 + b));
      if (!st.is_ok()) {
        EXPECT_EQ(st.code(), util::ErrorCode::kOutOfSpace);
        EXPECT_FALSE(had_space) << "refused with free blocks left";
        break;
      }
      ++appended;
    }
    EXPECT_EQ(appended, free_before);
    EXPECT_EQ(fs.free_block_count(), 0u);
    for (std::uint32_t b = 1; b <= appended; ++b) {
      auto r = fs.read(ctx, grower, b);
      ASSERT_TRUE(r.is_ok()) << "block " << b;
      EXPECT_EQ(r.value(), tagged(grower * 1000 + b));
    }
    ASSERT_TRUE(fs.verify_invariants().is_ok());
  });
  rt.run();
}

TEST(Allocator, FsckAndDirtyRemountAreCleanAfterInterleavedAppends) {
  // Interleaved appenders through both write paths (single blocks and
  // multi-track staged runs), then a crash before sync: the dirty remount
  // rebuilds the same bitmap, every block reads back, and fsck finds
  // nothing to repair.
  sim::Runtime rt(1);
  disk::Geometry geometry;
  geometry.num_tracks = 128;
  geometry.blocks_per_track = 4;
  disk::SimDisk dev(geometry, disk::LatencyModel{});
  EfsCore fs(dev, EfsConfig{});
  fs.format();
  constexpr std::uint32_t kRounds = 6, kRun = 12;
  rt.spawn(0, "crash", [&](sim::Context& ctx) {
    for (FileId f = 1; f <= 4; ++f) ASSERT_TRUE(fs.create(ctx, f).is_ok());
    for (std::uint32_t r = 0; r < kRounds; ++r) {
      for (FileId f = 1; f <= 4; ++f) {
        std::uint32_t first = r * kRun;
        if (f % 2 == 0) {
          std::vector<BlockWrite> run;
          for (std::uint32_t b = first; b < first + kRun; ++b) {
            run.push_back({b, tagged(f * 1000 + b)});
          }
          ASSERT_TRUE(fs.write_run(ctx, f, run).is_ok());
        } else {
          for (std::uint32_t b = first; b < first + kRun; ++b) {
            ASSERT_TRUE(fs.write(ctx, f, b, tagged(f * 1000 + b)).is_ok());
          }
        }
      }
    }
    ASSERT_TRUE(fs.verify_invariants().is_ok());

    EfsCore remounted(dev, EfsConfig{});
    ASSERT_TRUE(remounted.remount_from_disk().is_ok());
    EXPECT_TRUE(remounted.last_mount_rebuilt());
    EXPECT_EQ(remounted.free_block_count(), fs.free_block_count());
    ASSERT_TRUE(remounted.verify_invariants().is_ok());
    for (FileId f = 1; f <= 4; ++f) {
      for (std::uint32_t b = 0; b < kRounds * kRun; ++b) {
        auto got = remounted.read(ctx, f, b);
        ASSERT_TRUE(got.is_ok()) << "file " << f << " block " << b;
        EXPECT_EQ(got.value(), tagged(f * 1000 + b));
      }
    }
    auto report = fsck(ctx, dev);
    ASSERT_TRUE(report.is_ok());
    EXPECT_TRUE(report.value().clean);
    EXPECT_EQ(report.value().orphans_freed, 0u);
    EXPECT_EQ(report.value().bits_repaired, 0u);
  });
  rt.run();
}

/// One traced allocator workout; returns the rendered Chrome trace.  Every
/// code path here crosses the race-annotated bitmap/extent structures, so in
/// the BRIDGE_RACE_CHECK=ON build this doubles as a determinism check for
/// the annotations themselves.
std::string traced_alloc_run() {
  sim::Runtime rt(1);
  rt.tracer().enable();
  disk::Geometry geometry;
  geometry.num_tracks = 128;
  geometry.blocks_per_track = 4;
  disk::SimDisk dev(geometry, disk::LatencyModel{});
  EfsCore fs(dev, EfsConfig{});
  fs.format();
  rt.spawn(0, "w", [&](sim::Context& ctx) {
    std::vector<std::byte> payload(kEfsDataBytes, std::byte{0x11});
    for (FileId f = 1; f <= 3; ++f) {
      ASSERT_TRUE(fs.create(ctx, f).is_ok());
      for (std::uint32_t i = 0; i < 20; ++i) {
        ASSERT_TRUE(fs.write(ctx, f, i, payload).is_ok());
      }
    }
    ASSERT_TRUE(fs.truncate(ctx, 2, 7).is_ok());
    ASSERT_TRUE(fs.remove(ctx, 1).is_ok());
    for (std::uint32_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(fs.read(ctx, 3, i).is_ok());
    }
    ASSERT_TRUE(fs.sync(ctx).is_ok());
  });
  rt.run();
  return rt.tracer().chrome_trace_json();
}

TEST(Allocator, SameSeedTracesAreByteIdentical) {
  std::string a = traced_alloc_run();
  std::string b = traced_alloc_run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "allocator paths must be bit-reproducible";
}

}  // namespace
}  // namespace bridge::efs
