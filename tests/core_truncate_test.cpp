// Naive-interface Truncate: shrink fans per-constituent truncates to every
// involved LFS, updates the placement map, clamps session cursors, and is
// rejected for replica-group members.
#include <gtest/gtest.h>

#include <string>

#include "src/core/instance.hpp"
#include "src/core/replication.hpp"

namespace bridge::core {
namespace {

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 31 + i));
  }
  return data;
}

SystemConfig test_config(std::uint32_t p) {
  return SystemConfig::paper_profile(p, /*data_blocks_per_lfs=*/512);
}

TEST(Truncate, ShrinkReopenReRead) {
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    auto id = client.create("f");
    ASSERT_TRUE(id.is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }

    auto trunc = client.truncate(id.value(), 7);
    ASSERT_TRUE(trunc.is_ok());
    EXPECT_EQ(trunc.value(), 7u);

    // Reopen: the directory must report the new size and the surviving
    // prefix must read back intact.
    auto reopen = client.open("f");
    ASSERT_TRUE(reopen.is_ok());
    EXPECT_EQ(reopen.value().meta.size_blocks, 7u);
    for (std::uint32_t i = 0; i < 7; ++i) {
      auto r = client.seq_read(reopen.value().session);
      ASSERT_TRUE(r.is_ok());
      EXPECT_FALSE(r.value().eof);
      EXPECT_EQ(r.value().data, record(i));
    }
    auto eof = client.seq_read(reopen.value().session);
    ASSERT_TRUE(eof.is_ok());
    EXPECT_TRUE(eof.value().eof);

    // Reads past the new end fail.
    EXPECT_FALSE(client.random_read(id.value(), 7).is_ok());
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Truncate, FreedBlocksReturnToTheFreeLists) {
  BridgeInstance inst(test_config(4));
  std::size_t before = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    before += inst.lfs(i).core().free_block_count();
  }
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    auto id = client.create("f");
    ASSERT_TRUE(id.is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    ASSERT_TRUE(client.truncate(id.value(), 4).is_ok());
  });
  inst.run();
  std::size_t after = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    after += inst.lfs(i).core().free_block_count();
  }
  // 4 surviving data blocks plus one extent-table block per constituent LFS.
  EXPECT_EQ(before - after, 8u);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Truncate, GrowAndUnknownIdAreRejected) {
  BridgeInstance inst(test_config(2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    auto id = client.create("f");
    ASSERT_TRUE(id.is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    EXPECT_EQ(client.truncate(id.value(), 6).status().code(),
              util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(client.truncate(9999, 0).status().code(),
              util::ErrorCode::kNotFound);
    // Equal size is a no-op success.
    auto same = client.truncate(id.value(), 5);
    ASSERT_TRUE(same.is_ok());
    EXPECT_EQ(same.value(), 5u);
  });
  inst.run();
}

TEST(Truncate, TruncateToZeroThenRefill) {
  BridgeInstance inst(test_config(3));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    auto id = client.create("f");
    ASSERT_TRUE(id.is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 9; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    auto trunc = client.truncate(id.value(), 0);
    ASSERT_TRUE(trunc.is_ok());
    EXPECT_EQ(trunc.value(), 0u);
    // The file is still open and writable from block 0.
    auto reopen = client.open("f");
    ASSERT_TRUE(reopen.is_ok());
    EXPECT_EQ(reopen.value().meta.size_blocks, 0u);
    auto w = client.seq_write(reopen.value().session, record(100));
    ASSERT_TRUE(w.is_ok());
    EXPECT_EQ(w.value(), 0u);
    auto r = client.random_read(id.value(), 0);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), record(100));
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Truncate, ClampsOpenSessionCursors) {
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    auto id = client.create("f");
    ASSERT_TRUE(id.is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    ASSERT_TRUE(client.truncate(id.value(), 5).is_ok());
    // The session's write cursor was at 20; unclamped it would try to write
    // far beyond the new EOF.  Clamped, the next write appends at block 5.
    auto w = client.seq_write(open.value().session, record(55));
    ASSERT_TRUE(w.is_ok());
    EXPECT_EQ(w.value(), 5u);
    auto r = client.random_read(id.value(), 5);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), record(55));
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Truncate, HashedAndLinkedDistributions) {
  for (auto dist : {Distribution::kHashed, Distribution::kLinked}) {
    BridgeInstance inst(test_config(4));
    inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
      CreateOptions options;
      options.distribution = dist;
      options.hash_seed = 77;
      auto id = client.create("f", options);
      ASSERT_TRUE(id.is_ok());
      auto open = client.open("f");
      ASSERT_TRUE(open.is_ok());
      for (std::uint32_t i = 0; i < 24; ++i) {
        ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
      }
      auto trunc = client.truncate(id.value(), 10);
      ASSERT_TRUE(trunc.is_ok());
      auto reopen = client.open("f");
      ASSERT_TRUE(reopen.is_ok());
      EXPECT_EQ(reopen.value().meta.size_blocks, 10u);
      for (std::uint32_t i = 0; i < 10; ++i) {
        auto r = client.random_read(id.value(), i);
        ASSERT_TRUE(r.is_ok());
        EXPECT_EQ(r.value(), record(i)) << "block " << i;
      }
    });
    inst.run();
    EXPECT_TRUE(inst.verify_all_lfs().is_ok())
        << "distribution " << static_cast<int>(dist);
  }
}

TEST(Truncate, RejectedForReplicaGroupMembers) {
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context& ctx, BridgeClient& client) {
    auto mirrored = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(mirrored.is_ok());
    for (std::uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(mirrored.value().append(record(i)).is_ok());
    }
    // Both the primary and the mirror constituent refuse naive truncates.
    auto primary = client.open("m");
    ASSERT_TRUE(primary.is_ok());
    EXPECT_EQ(client.truncate(primary.value().meta.id, 2).status().code(),
              util::ErrorCode::kInvalidArgument);
    auto mirror = client.open("m!mirror");
    ASSERT_TRUE(mirror.is_ok());
    EXPECT_EQ(client.truncate(mirror.value().meta.id, 2).status().code(),
              util::ErrorCode::kInvalidArgument);
    // The group still reads back intact afterwards.
    for (std::uint32_t i = 0; i < 8; ++i) {
      auto r = mirrored.value().read(i);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value(), record(i));
    }
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Truncate, RoutedClientRoutesToTheHomeServer) {
  auto cfg = test_config(4);
  cfg.num_bridge_servers = 3;
  BridgeInstance inst(cfg);
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    for (const char* name : {"alpha", "beta", "gamma"}) {
      ASSERT_TRUE(client.create(name).is_ok());
      auto open = client.open(name);
      ASSERT_TRUE(open.is_ok());
      for (std::uint32_t i = 0; i < 12; ++i) {
        ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
      }
      auto trunc = client.truncate(open.value().meta.id, 3);
      ASSERT_TRUE(trunc.is_ok());
      EXPECT_EQ(trunc.value(), 3u);
      auto reopen = client.open(name);
      ASSERT_TRUE(reopen.is_ok());
      EXPECT_EQ(reopen.value().meta.size_blocks, 3u);
    }
    EXPECT_EQ(client.truncate(424242, 0).status().code(),
              util::ErrorCode::kNotFound);
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

}  // namespace
}  // namespace bridge::core
