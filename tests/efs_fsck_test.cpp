// fsck: repair of deliberately corrupted EFS v2 disks — smashed data blocks,
// destroyed extent tables, forged/cleared bitmap bits, dropped directory
// entries — followed by successful remount and full invariant checks, plus a
// randomized corruption fuzz that doubles as the CI smoke job.
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/efs/efs.hpp"
#include "src/efs/fsck.hpp"
#include "src/sim/rng.hpp"

namespace bridge::efs {
namespace {

disk::Geometry geo() {
  disk::Geometry g;
  g.num_tracks = 256;
  g.blocks_per_track = 4;
  return g;
}

std::vector<std::byte> payload(std::uint32_t tag) {
  std::vector<std::byte> data(kEfsDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 3 + i));
  }
  return data;
}

/// Build a formatted disk with `files` files of `blocks` blocks, synced.
void populate(disk::SimDisk& dev, std::uint32_t files, std::uint32_t blocks) {
  sim::Runtime rt(1);
  EfsCore fs(dev, EfsConfig{});
  fs.format();
  rt.spawn(0, "w", [&](sim::Context& ctx) {
    for (FileId f = 1; f <= files; ++f) {
      ASSERT_TRUE(fs.create(ctx, f).is_ok());
      for (std::uint32_t i = 0; i < blocks; ++i) {
        ASSERT_TRUE(fs.write(ctx, f, i, payload(f * 100 + i))
                        .is_ok());
      }
    }
    ASSERT_TRUE(fs.sync(ctx).is_ok());
  });
  rt.run();
}

/// Find the disk address of (file, local block) by scanning raw headers.
disk::BlockAddr find_block(disk::SimDisk& dev, FileId file,
                           std::uint32_t block_no) {
  for (disk::BlockAddr a = 0; a < dev.geometry().capacity_blocks(); ++a) {
    auto raw = dev.peek(a);
    if (!raw) continue;
    auto h = parse_header(*raw);
    if (h.magic == kMagicDataBlock && h.file_id == file &&
        h.block_no == block_no) {
      return a;
    }
  }
  return disk::kNilAddr;
}

/// Find a file's first extent-table block by scanning raw magics.
disk::BlockAddr find_table_block(disk::SimDisk& dev, FileId file) {
  for (disk::BlockAddr a = 0; a < dev.geometry().capacity_blocks(); ++a) {
    auto raw = dev.peek(a);
    if (!raw) continue;
    auto t = ExtentTableBlock::parse(*raw);
    if (t.valid_for(file)) return a;
  }
  return disk::kNilAddr;
}

void smash(disk::SimDisk& dev, disk::BlockAddr addr, std::uint8_t fill) {
  std::vector<std::byte> garbage(kBlockSize, std::byte{fill});
  dev.poke(addr, garbage);
}

FsckReport run_fsck(disk::SimDisk& dev) {
  FsckReport report;
  sim::Runtime rt(1);
  rt.spawn(0, "fsck", [&](sim::Context& ctx) {
    auto result = fsck(ctx, dev);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    report = result.value();
  });
  rt.run();
  return report;
}

void expect_remount_healthy(disk::SimDisk& dev) {
  EfsCore fs(dev, EfsConfig{});
  ASSERT_TRUE(fs.remount_from_disk().is_ok());
  EXPECT_TRUE(fs.verify_invariants().is_ok());
}

/// Copy of the on-disk bitmap region for bit-identity comparisons.
std::vector<std::vector<std::byte>> bitmap_region(disk::SimDisk& dev) {
  util::Reader r(dev.peek(0)->subspan(0, 64));
  Superblock sb = Superblock::decode(r);
  std::vector<std::vector<std::byte>> region;
  for (std::uint32_t b = 0; b < sb.bitmap_blocks; ++b) {
    auto raw = dev.peek(sb.bitmap_start + b);
    region.emplace_back(raw->begin(), raw->end());
  }
  return region;
}

TEST(Fsck, CleanDiskReportsCleanAndBitmapIsBitIdentical) {
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  populate(dev, 3, 10);
  auto before = bitmap_region(dev);
  auto report = run_fsck(dev);
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.files_checked, 3u);
  EXPECT_EQ(report.files_truncated, 0u);
  EXPECT_EQ(report.orphans_freed, 0u);
  EXPECT_EQ(report.bits_repaired, 0u);
  // Acceptance check: the bitmap fsck would rebuild from the extent tables
  // is bit-for-bit the one the live allocator persisted.
  EXPECT_EQ(bitmap_region(dev), before);
  expect_remount_healthy(dev);
}

TEST(Fsck, GarbageDataBlockTruncatesFile) {
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  populate(dev, 1, 12);
  auto addr = find_block(dev, 1, 5);
  ASSERT_NE(addr, disk::kNilAddr);
  smash(dev, addr, 0xFF);

  auto report = run_fsck(dev);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.files_truncated, 1u);
  // Blocks 5..11 lose their owner: 7 allocation bits come free.
  EXPECT_EQ(report.orphans_freed, 7u);

  // The surviving prefix reads back intact.
  EfsCore fs(dev, EfsConfig{});
  ASSERT_TRUE(fs.remount_from_disk().is_ok());
  EXPECT_TRUE(fs.verify_invariants().is_ok());
  sim::Runtime rt(1);
  rt.spawn(0, "r", [&](sim::Context& ctx) {
    auto info = fs.info(ctx, 1);
    ASSERT_TRUE(info.is_ok());
    EXPECT_EQ(info.value().size_blocks, 5u);
    for (std::uint32_t i = 0; i < 5; ++i) {
      auto r = fs.read(ctx, 1, i);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value(), payload(100 + i));
    }
  });
  rt.run();
}

TEST(Fsck, DestroyedExtentTableIsSalvagedFromDataHeaders) {
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  populate(dev, 2, 8);
  auto table = find_table_block(dev, 2);
  ASSERT_NE(table, disk::kNilAddr);
  smash(dev, table, 0x5A);

  auto report = run_fsck(dev);
  EXPECT_FALSE(report.clean);
  // The data blocks are self-describing, so the whole file comes back.
  EXPECT_EQ(report.entries_salvaged, 1u);
  EXPECT_EQ(report.entries_dropped, 0u);

  EfsCore fs(dev, EfsConfig{});
  ASSERT_TRUE(fs.remount_from_disk().is_ok());
  EXPECT_TRUE(fs.verify_invariants().is_ok());
  sim::Runtime rt(1);
  rt.spawn(0, "r", [&](sim::Context& ctx) {
    EXPECT_EQ(fs.info(ctx, 1).value().size_blocks, 8u);
    EXPECT_EQ(fs.info(ctx, 2).value().size_blocks, 8u);
    for (std::uint32_t i = 0; i < 8; ++i) {
      EXPECT_EQ(fs.read(ctx, 2, i).value(),
                payload(200 + i));
    }
  });
  rt.run();
}

TEST(Fsck, FirstBlockDestroyedDropsEntry) {
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  populate(dev, 1, 6);
  auto addr = find_block(dev, 1, 0);
  ASSERT_NE(addr, disk::kNilAddr);
  smash(dev, addr, 0xAB);

  auto report = run_fsck(dev);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.entries_dropped, 1u);
  // The garbage block, the 5 stranded blocks and the extent table all lose
  // their allocation bits.
  EXPECT_EQ(report.orphans_freed, 7u);

  EfsCore fs(dev, EfsConfig{});
  ASSERT_TRUE(fs.remount_from_disk().is_ok());
  EXPECT_EQ(fs.file_count(), 0u);
  EXPECT_TRUE(fs.verify_invariants().is_ok());
}

TEST(Fsck, OrphanBitWithNoOwnerIsFreed) {
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  populate(dev, 1, 4);
  // Forge an allocation bit for a block no file owns (late in the disk, far
  // from the allocator's packed prefix).
  util::Reader r(dev.peek(0)->subspan(0, 64));
  Superblock sb = Superblock::decode(r);
  disk::BlockAddr victim = sb.capacity_blocks - 1;
  auto raw = dev.peek(sb.bitmap_start);
  std::vector<std::byte> image(raw->begin(), raw->end());
  image[victim >> 3] |=
      std::byte(static_cast<unsigned char>(1u << (victim & 7)));
  dev.poke(sb.bitmap_start, image);

  auto report = run_fsck(dev);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.orphans_freed, 1u);
  EXPECT_EQ(report.files_truncated, 0u);
  expect_remount_healthy(dev);
}

TEST(Fsck, OwnedBlockMarkedFreeIsRepaired) {
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  populate(dev, 1, 4);
  // Clear the allocation bit of a block the file legitimately owns.
  auto addr = find_block(dev, 1, 2);
  ASSERT_NE(addr, disk::kNilAddr);
  util::Reader r(dev.peek(0)->subspan(0, 64));
  Superblock sb = Superblock::decode(r);
  auto raw = dev.peek(sb.bitmap_start);
  std::vector<std::byte> image(raw->begin(), raw->end());
  image[addr >> 3] &=
      ~std::byte(static_cast<unsigned char>(1u << (addr & 7)));
  dev.poke(sb.bitmap_start, image);

  auto report = run_fsck(dev);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.bits_repaired, 1u);
  expect_remount_healthy(dev);
}

TEST(Fsck, CrossLinkedTableTruncatesAtForeignBlock) {
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  populate(dev, 2, 6);
  // Rewrite file 1's single extent so its tail reaches into file 2's run:
  // blocks 0..5 of the extent now map to addr0+3.., whose headers disagree
  // from the very first block — but salvage recovers the file from its own
  // intact data headers.
  auto table = find_table_block(dev, 1);
  ASSERT_NE(table, disk::kNilAddr);
  auto raw = dev.peek(table);
  ExtentTableBlock t = ExtentTableBlock::parse(*raw);
  ASSERT_EQ(t.extents.size(), 1u);
  t.extents[0].addr += 3;
  dev.poke(table, t.to_image());

  auto report = run_fsck(dev);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.entries_salvaged, 1u);

  EfsCore fs(dev, EfsConfig{});
  ASSERT_TRUE(fs.remount_from_disk().is_ok());
  EXPECT_TRUE(fs.verify_invariants().is_ok());
  sim::Runtime rt(1);
  rt.spawn(0, "r", [&](sim::Context& ctx) {
    // Both files fully intact: the cross-link misdirected only the map.
    EXPECT_EQ(fs.info(ctx, 1).value().size_blocks, 6u);
    EXPECT_EQ(fs.info(ctx, 2).value().size_blocks, 6u);
    for (std::uint32_t i = 0; i < 6; ++i) {
      EXPECT_EQ(fs.read(ctx, 1, i).value(),
                payload(100 + i));
    }
  });
  rt.run();
}

TEST(Fsck, DirtyFlagAloneIsNotARepair) {
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  // Populate WITHOUT sync: the write-behind pokes keep all metadata current,
  // so the only blemish is the dirty superblock flag.
  {
    sim::Runtime rt(1);
    EfsCore fs(dev, EfsConfig{});
    fs.format();
    rt.spawn(0, "w", [&](sim::Context& ctx) {
      ASSERT_TRUE(fs.create(ctx, 1).is_ok());
      for (std::uint32_t i = 0; i < 5; ++i) {
        ASSERT_TRUE(
            fs.write(ctx, 1, i, payload(i)).is_ok());
      }
    });
    rt.run();
  }
  auto report = run_fsck(dev);
  EXPECT_TRUE(report.clean);

  // The flag is cleared: the next mount takes the fast bitmap-load path.
  EfsCore fs(dev, EfsConfig{});
  ASSERT_TRUE(fs.remount_from_disk().is_ok());
  EXPECT_FALSE(fs.last_mount_rebuilt());
  EXPECT_TRUE(fs.verify_invariants().is_ok());
}

TEST(Fsck, UnformattedDiskRejected) {
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  sim::Runtime rt(1);
  rt.spawn(0, "fsck", [&](sim::Context& ctx) {
    auto result = fsck(ctx, dev);
    EXPECT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), util::ErrorCode::kCorrupt);
  });
  rt.run();
}

TEST(Fsck, IsIdempotent) {
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  populate(dev, 2, 10);
  auto addr = find_block(dev, 1, 4);
  smash(dev, addr, 0x11);

  auto first = run_fsck(dev);
  EXPECT_FALSE(first.clean);
  auto second = run_fsck(dev);
  EXPECT_TRUE(second.clean);
  EXPECT_EQ(second.files_truncated, 0u);
  EXPECT_EQ(second.entries_salvaged, 0u);
  EXPECT_EQ(second.orphans_freed, 0u);
  EXPECT_EQ(second.bits_repaired, 0u);
}

// Randomized corruption fuzz — the CI smoke job raises the image count via
// BRIDGE_FSCK_FUZZ_IMAGES.  Every corrupted image must (a) fsck without an
// internal error, (b) remount and pass verify_invariants, and (c) report
// clean with zero repair counters on a second pass.
TEST(FsckFuzz, ConvergesAndSecondPassIsClean) {
  std::uint32_t images = 6;
  if (const char* env = std::getenv("BRIDGE_FSCK_FUZZ_IMAGES")) {
    images = static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
  }
  for (std::uint32_t img = 0; img < images; ++img) {
    SCOPED_TRACE("image " + std::to_string(img));
    disk::SimDisk dev(geo(), disk::LatencyModel{});
    populate(dev, 1 + img % 4, 3 + (img * 7) % 20);
    sim::Rng rng(0xF5C4 + img);
    // Corrupt a handful of random non-superblock blocks with random bytes.
    std::uint32_t hits = 1 + static_cast<std::uint32_t>(rng.next_below(6));
    for (std::uint32_t h = 0; h < hits; ++h) {
      auto victim = static_cast<disk::BlockAddr>(
          1 + rng.next_below(dev.geometry().capacity_blocks() - 1));
      std::vector<std::byte> garbage(kBlockSize);
      for (auto& b : garbage) {
        b = std::byte(static_cast<std::uint8_t>(rng.next_below(256)));
      }
      dev.poke(victim, garbage);
    }
    // First pass repairs whatever the corruption hit; what matters is that
    // the second pass below finds nothing left to fix (idempotence).
    run_fsck(dev);
    expect_remount_healthy(dev);
    auto second = run_fsck(dev);
    EXPECT_TRUE(second.clean);
    EXPECT_EQ(second.files_truncated, 0u);
    EXPECT_EQ(second.entries_salvaged, 0u);
    EXPECT_EQ(second.entries_dropped, 0u);
    EXPECT_EQ(second.orphans_freed, 0u);
    EXPECT_EQ(second.bits_repaired, 0u);
  }
}

}  // namespace
}  // namespace bridge::efs
