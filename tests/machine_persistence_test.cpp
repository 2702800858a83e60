// Whole-machine persistence: disk images + Bridge directory snapshots,
// restored into a fresh instance — files (including hashed/linked ones,
// whose placement tables live only in the directory) survive the restart.
#include <gtest/gtest.h>

#include <string>

#include "src/core/instance.hpp"
#include "src/efs/client.hpp"

namespace bridge::core {
namespace {

SystemConfig cfg(std::uint32_t p) {
  return SystemConfig::paper_profile(p, 512);
}

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 29 + i));
  }
  return data;
}

TEST(MachinePersistence, FullSaveRestartRestore) {
  std::string dir = ::testing::TempDir();
  {
    BridgeInstance machine(cfg(4));
    machine.run_client("w", [&](sim::Context&, BridgeClient& client) {
      // A round-robin file and a hashed file (placement only in the dir).
      ASSERT_TRUE(client.create("plain").is_ok());
      CreateOptions hashed;
      hashed.distribution = Distribution::kHashed;
      hashed.hash_seed = 77;
      ASSERT_TRUE(client.create("scattered", hashed).is_ok());
      for (const char* name : {"plain", "scattered"}) {
        auto open = client.open(name);
        ASSERT_TRUE(open.is_ok());
        for (std::uint32_t i = 0; i < 10; ++i) {
          ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
        }
      }
    });
    machine.run();
    // Administrative shutdown: flush every LFS, then snapshot.
    machine.runtime().spawn(machine.config().client_node(), "sync",
                            [&](sim::Context& ctx) {
                              sim::RpcClient rpc(ctx);
                              for (std::uint32_t i = 0; i < 4; ++i) {
                                efs::EfsClient efs(rpc, machine.lfs(i).address());
                                ASSERT_TRUE(efs.sync().is_ok());
                              }
                            });
    machine.run();
    ASSERT_TRUE(machine.save_machine(dir).is_ok());
  }
  {
    // "Power up" a brand-new machine from the snapshot.
    BridgeInstance machine(cfg(4));
    ASSERT_TRUE(machine.load_machine(dir).is_ok());
    EXPECT_TRUE(machine.verify_all_lfs().is_ok());
    int verified = 0;
    machine.run_client("r", [&](sim::Context&, BridgeClient& client) {
      for (const char* name : {"plain", "scattered"}) {
        auto open = client.open(name);
        ASSERT_TRUE(open.is_ok()) << name;
        ASSERT_EQ(open.value().meta.size_blocks, 10u) << name;
        for (std::uint32_t i = 0; i < 10; ++i) {
          auto r = client.seq_read(open.value().session);
          ASSERT_TRUE(r.is_ok());
          if (r.value().data == record(i)) ++verified;
        }
      }
      // The restored id allocator must not collide with existing files.
      auto fresh = client.create("post-restart");
      ASSERT_TRUE(fresh.is_ok());
    });
    machine.run();
    EXPECT_EQ(verified, 20);
  }
}

TEST(MachinePersistence, LoadMissingSnapshotFails) {
  BridgeInstance machine(cfg(2));
  EXPECT_FALSE(machine.load_machine("/nonexistent/dir").is_ok());
}

TEST(MachinePersistence, DirectorySnapshotRoundTripsPlacement) {
  // encode_state/decode_state preserve hashed placement tables exactly.
  BridgeInstance a(cfg(4));
  a.run_client("w", [&](sim::Context&, BridgeClient& client) {
    CreateOptions hashed;
    hashed.distribution = Distribution::kHashed;
    hashed.hash_seed = 5;
    ASSERT_TRUE(client.create("h", hashed).is_ok());
    auto open = client.open("h");
    for (std::uint32_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
  });
  a.run();
  util::Writer w;
  a.server().encode_state(w);

  BridgeInstance b(cfg(4));
  util::Reader r(w.buffer());
  ASSERT_TRUE(b.server().decode_state(r).is_ok());
  EXPECT_EQ(b.server().directory_size(), 1u);
}

}  // namespace
}  // namespace bridge::core
