// Tool framework: WorkerGroup fan-out semantics (tree vs sequential timing,
// result collection, node placement) and ToolEnv discovery.
#include <gtest/gtest.h>

#include <set>

#include "src/core/instance.hpp"
#include "src/tools/tool_base.hpp"

namespace bridge::tools {
namespace {

core::SystemConfig cfg(std::uint32_t p) {
  return core::SystemConfig::paper_profile(p, 128);
}

TEST(WorkerGroup, CollectsOneResultPerWorker) {
  sim::Runtime rt(8);
  std::vector<int> results;
  rt.spawn(0, "coordinator", [&](sim::Context& ctx) {
    WorkerGroup<int> group(ctx, FanOutConfig{});
    for (int i = 0; i < 6; ++i) {
      group.spawn(i % 8, "w" + std::to_string(i),
                  [i](sim::Context&) { return i * i; });
    }
    EXPECT_EQ(group.spawned(), 6u);
    results = group.wait_all().value();
  });
  rt.run();
  ASSERT_EQ(results.size(), 6u);
  std::multiset<int> got(results.begin(), results.end());
  EXPECT_EQ(got, (std::multiset<int>{0, 1, 4, 9, 16, 25}));
}

TEST(WorkerGroup, WorkersRunOnRequestedNodes) {
  sim::Runtime rt(4);
  std::vector<sim::NodeId> nodes;
  rt.spawn(0, "coordinator", [&](sim::Context& ctx) {
    WorkerGroup<sim::NodeId> group(ctx, FanOutConfig{});
    for (sim::NodeId n = 0; n < 4; ++n) {
      group.spawn(n, "w", [](sim::Context& worker_ctx) {
        return worker_ctx.node();
      });
    }
    nodes = group.wait_all().value();
  });
  rt.run();
  std::set<sim::NodeId> distinct(nodes.begin(), nodes.end());
  EXPECT_EQ(distinct, (std::set<sim::NodeId>{0, 1, 2, 3}));
}

TEST(WorkerGroup, TreeStartupIsLogarithmic) {
  // With tree fan-out, the LAST of 32 workers starts after ~log2(32)+1
  // levels of spawn_cost; sequentially it starts after 32 of them.
  auto last_start_us = [&](bool tree) {
    sim::Runtime rt(32);
    std::int64_t latest = 0;
    rt.spawn(0, "coordinator", [&](sim::Context& ctx) {
      FanOutConfig config;
      config.tree = tree;
      config.spawn_cost = sim::msec(2.0);
      WorkerGroup<int> group(ctx, config);
      for (int i = 0; i < 32; ++i) {
        group.spawn(i % 32, "w", [&latest](sim::Context& worker_ctx) {
          latest = std::max(latest, worker_ctx.now().us());
          return 0;
        });
      }
      (void)group.wait_all();  // cancellation path: results are intentionally abandoned
    });
    rt.run();
    return latest;
  };
  std::int64_t tree = last_start_us(true);
  std::int64_t sequential = last_start_us(false);
  EXPECT_LT(tree, 14'000);       // ~6 levels * 2ms
  EXPECT_GT(sequential, 60'000); // 32 * 2ms
}

TEST(WorkerGroup, ZeroWorkersWaitsTrivially) {
  sim::Runtime rt(1);
  bool done = false;
  rt.spawn(0, "coordinator", [&](sim::Context& ctx) {
    WorkerGroup<int> group(ctx, FanOutConfig{});
    EXPECT_TRUE(group.wait_all().value().empty());
    done = true;
  });
  rt.run();
  EXPECT_TRUE(done);
}

TEST(WorkerGroup, WaitAllDrainsEveryWorkerThenReturnsFirstError) {
  // Two workers fail at different times and a third finishes last: wait_all
  // returns only once all three have reported, with the error that arrived
  // first.
  sim::Runtime rt(3);
  bool slow_done = false;
  util::Status status = util::ok_status();
  rt.spawn(0, "coordinator", [&](sim::Context& ctx) {
    WorkerGroup<int> group(ctx, FanOutConfig{});
    group.spawn(0, "late", [](sim::Context& worker) -> util::Result<int> {
      worker.sleep(sim::msec(20));
      return util::out_of_space("late");
    });
    group.spawn(1, "early", [](sim::Context& worker) -> util::Result<int> {
      worker.sleep(sim::msec(10));
      return util::corrupt("early");
    });
    group.spawn(2, "slow", [&](sim::Context& worker) -> util::Result<int> {
      worker.sleep(sim::msec(30));
      slow_done = true;
      return 7;
    });
    status = group.wait_all().status();
    EXPECT_TRUE(slow_done);
  });
  rt.run();
  EXPECT_EQ(status.code(), util::ErrorCode::kCorrupt);
  EXPECT_EQ(status.message(), "early");
}

TEST(ToolEnv, DiscoverReturnsMachineShape) {
  core::BridgeInstance inst(cfg(5));
  inst.run_client("tool", [&](sim::Context&, core::BridgeClient& client) {
    auto env = discover(client);
    ASSERT_TRUE(env.is_ok());
    EXPECT_EQ(env.value().num_lfs(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i) {
      EXPECT_TRUE(env.value().lfs_service(i).valid());
      EXPECT_EQ(env.value().lfs_node(i), i);
    }
  });
  inst.run();
}

TEST(ToolPrivateFileIds, DisjointFromBridgeIdsAndEachOther) {
  // Owners from several homes, at both ends of the local range, each with
  // run, merge-pass and temp slots: every id is distinct and none is an id
  // any Bridge Server of a machine with at most 128 servers can mint.
  std::set<efs::FileId> seen;
  for (std::uint32_t home : {0u, 1u, 5u, kPrivateOwnerHomes - 1}) {
    core::BridgeFileId base = core::make_file_id_base(home);
    for (core::BridgeFileId owner :
         {base, base + 1, base + 57, base + kPrivateOwnerLocals - 1}) {
      for (std::uint32_t slot :
           {0u, 1u, 32u, kPrivateTempSlot0, kPrivateTempSlot0 + 9,
            kPrivateSlots - 1}) {
        auto id = tool_private_file_id(owner, slot);
        ASSERT_TRUE(id.is_ok()) << id.status().to_string();
        EXPECT_GE(core::file_id_home(id.value()), 128u) << "owner " << owner;
        EXPECT_NE(id.value(), efs::kInvalidFileId);
        EXPECT_TRUE(seen.insert(id.value()).second)
            << "collision owner=" << owner << " slot=" << slot;
      }
    }
  }
}

TEST(ToolPrivateFileIds, SortRunPassAndTempIdsAreDistinct) {
  // The sort's runs take slot 0 (merge "pass 0"), pass k slot k up to the
  // 32 passes a 32-bit width needs, and local temps start just past them.
  EXPECT_EQ(kPrivateTempSlot0, 33u);
  core::BridgeFileId owner = core::make_file_id_base(3) + 7;
  std::set<efs::FileId> seen;
  for (std::uint32_t pass = 0; pass <= 32; ++pass) {
    auto id = tool_private_file_id(owner, pass);
    ASSERT_TRUE(id.is_ok()) << id.status().to_string();
    EXPECT_TRUE(seen.insert(id.value()).second) << "pass " << pass;
  }
  for (std::uint32_t temp = 0; temp < 64; ++temp) {
    auto id = tool_private_file_id(owner, kPrivateTempSlot0 + temp);
    ASSERT_TRUE(id.is_ok()) << id.status().to_string();
    EXPECT_TRUE(seen.insert(id.value()).second) << "temp " << temp;
  }
  EXPECT_EQ(seen.size(), 33u + 64u);
}

TEST(ToolPrivateFileIds, PastTheLimitsIsAnErrorNotACollision) {
  core::BridgeFileId owner = core::make_file_id_base(0);
  EXPECT_EQ(tool_private_file_id(owner, kPrivateSlots).status().code(),
            util::ErrorCode::kOutOfSpace);
  EXPECT_EQ(tool_private_file_id(owner + kPrivateOwnerLocals, 0)
                .status()
                .code(),
            util::ErrorCode::kOutOfSpace);
  EXPECT_EQ(tool_private_file_id(core::make_file_id_base(kPrivateOwnerHomes), 0)
                .status()
                .code(),
            util::ErrorCode::kOutOfSpace);
  // Below a slice's first minted id is no Bridge file at all.
  EXPECT_EQ(tool_private_file_id(owner - 1, 0).status().code(),
            util::ErrorCode::kOutOfSpace);
}

}  // namespace
}  // namespace bridge::tools
