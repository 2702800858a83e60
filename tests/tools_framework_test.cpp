// Tool framework: WorkerGroup fan-out semantics (tree vs sequential timing,
// result collection, node placement, wire cost of inputs and results, the
// mid-run exchange), ConstituentReader's windows and checks, and ToolEnv
// discovery.
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

TEST(WorkerGroup, InputAndResultBytesCostTheirTransferTime) {
  // A worker on another node returns 8n bytes of result beyond the 64-B
  // message, or is handed 8n bytes of input: either way its result arrives
  // later than the bare 64-B baseline by exactly the topology's transfer
  // time for 8n bytes.
  struct Keys {
    std::vector<std::uint64_t> keys;
    [[nodiscard]] std::size_t wire_bytes() const noexcept {
      return keys.size() * 8;
    }
  };
  constexpr std::size_t n = 1000;
  auto arrival_us = [&](std::size_t result_keys, std::size_t input_bytes) {
    sim::Runtime rt(2);
    std::int64_t arrived = 0;
    rt.spawn(0, "coordinator", [&](sim::Context& ctx) {
      WorkerGroup<Keys> group(ctx, FanOutConfig{});
      group.spawn(
          1, "w",
          [result_keys](sim::Context&) -> util::Result<Keys> {
            return Keys{std::vector<std::uint64_t>(result_keys)};
          },
          input_bytes);
      ASSERT_TRUE(group.wait_all().is_ok());
      arrived = ctx.now().us();
    });
    rt.run();
    return arrived;
  };
  sim::Topology topology;
  auto transfer_us =
      static_cast<std::int64_t>(topology.remote_us_per_byte * 8 * n);
  std::int64_t baseline = arrival_us(0, 0);
  EXPECT_EQ(arrival_us(n, 0) - baseline, transfer_us);
  EXPECT_EQ(arrival_us(0, 8 * n) - baseline, transfer_us);
}

TEST(WorkerGroup, ExchangeSendsReportsUpAndPlansDown) {
  // Three workers report i, the coordinator answers each with 10 * the sum
  // of the reports plus i, and each returns its plan.  A worker that fails
  // before it reports counts as failed in reports(), and send_plans() with
  // an error releases the workers parked on their plans.
  struct Report {
    std::uint64_t value = 0;
  };
  struct Plan {
    std::uint64_t value = 0;
    [[nodiscard]] std::size_t wire_bytes() const noexcept { return 8; }
  };
  using Group = WorkerGroup<std::uint64_t, Report, Plan>;
  for (bool fail : {false, true}) {
    SCOPED_TRACE(fail ? "one worker fails first" : "all report");
    sim::Runtime rt(4);
    std::vector<std::uint64_t> results;
    util::Status status = util::ok_status();
    rt.spawn(0, "coordinator", [&](sim::Context& ctx) {
      Group group(ctx, FanOutConfig{});
      for (std::uint32_t i = 0; i < 3; ++i) {
        group.spawn(i + 1, "w",
                    [&group, i, fail](sim::Context& worker)
                        -> util::Result<std::uint64_t> {
                      if (fail && i == 1) return util::corrupt("no report");
                      auto plan = group.exchange(worker, i, Report{i});
                      if (!plan.is_ok()) return plan.status();
                      return plan.value().value;
                    });
      }
      auto reports = group.reports();
      if (!reports.is_ok()) {
        group.send_plans(reports.status());
        status = group.wait_all().status();
        EXPECT_EQ(status, reports.status());
        return;
      }
      std::uint64_t sum = 0;
      for (const Report& report : reports.value()) sum += report.value;
      std::vector<Plan> plans;
      for (std::uint64_t i = 0; i < 3; ++i) plans.push_back({10 * sum + i});
      group.send_plans(std::move(plans));
      auto done = group.wait_all();
      ASSERT_TRUE(done.is_ok());
      results = done.value();
    });
    rt.run();
    EXPECT_FALSE(rt.scheduler().deadlocked());
    if (fail) {
      EXPECT_EQ(status.code(), util::ErrorCode::kCorrupt);
    } else {
      std::multiset<std::uint64_t> got(results.begin(), results.end());
      EXPECT_EQ(got, (std::multiset<std::uint64_t>{30, 31, 32}));
    }
  }
}

/// A width-2 file of 16 records on a 2-LFS machine; record i's first byte
/// is i.  Returns its metadata.
core::FileMeta make_two_lfs_file(core::BridgeInstance& inst) {
  core::FileMeta meta;
  inst.run_client("mkfile", [&](sim::Context&, core::BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    for (std::uint8_t i = 0; i < 16; ++i) {
      std::vector<std::byte> record(efs::kUserDataBytes, std::byte{i});
      ASSERT_TRUE(client.seq_write(open.value().session, record).is_ok());
    }
    meta = client.open("f").value().meta;
  });
  inst.run();
  return meta;
}

TEST(ConstituentReader, WindowedReadsStreamTheConstituentsLocals) {
  // LFS 1 holds constituent 1 of the width-2 file: local l is global
  // 2l + 1.  Its 8 locals with window 3 take three kReadMany (3, 3, 2).
  core::BridgeInstance inst(cfg(2));
  core::FileMeta meta = make_two_lfs_file(inst);
  ASSERT_EQ(meta.start_lfs, 0u);
  inst.run_client("reader", [&](sim::Context&, core::BridgeClient& client) {
    auto env = discover(client);
    ASSERT_TRUE(env.is_ok());
    auto lfs = env.value().make_lfs_clients(client.rpc());
    sim::MessageStats before = inst.runtime().message_stats();
    ConstituentReader reader(*lfs[1], meta.lfs_file_id, 8, 2, 1, 3);
    for (std::uint32_t local = 0; local < 8; ++local) {
      ASSERT_FALSE(reader.exhausted());
      std::uint64_t global = 2 * local + 1;
      EXPECT_EQ(reader.next_global(), global);
      auto block = reader.next();
      ASSERT_TRUE(block.is_ok()) << block.status().to_string();
      EXPECT_EQ(block.value(),
                std::vector<std::byte>(efs::kUserDataBytes,
                                       std::byte(static_cast<std::uint8_t>(
                                           global))));
    }
    EXPECT_TRUE(reader.exhausted());
    sim::MessageStats used = inst.runtime().message_stats() - before;
    // Three kReadMany requests and their three replies.
    EXPECT_EQ(used.local_messages + used.remote_messages, 6u);
  });
  inst.run();
}

TEST(ConstituentReader, WindowedReadsRejectMisplacedBlockAndEmptyIsExhausted) {
  core::BridgeInstance inst(cfg(2));
  core::FileMeta meta = make_two_lfs_file(inst);
  inst.run_client("reader", [&](sim::Context&, core::BridgeClient& client) {
    auto env = discover(client);
    ASSERT_TRUE(env.is_ok());
    auto lfs = env.value().make_lfs_clients(client.rpc());
    // LFS 1's local 0 copied over its local 5: checksum-valid, misplaced.
    auto local0 = lfs[1]->read(meta.lfs_file_id, 0);
    ASSERT_TRUE(local0.is_ok());
    ASSERT_TRUE(lfs[1]->write(meta.lfs_file_id, 5, local0.value()).is_ok());
    ConstituentReader misplaced(*lfs[1], meta.lfs_file_id, 8, 2, 1, 2);
    for (std::uint32_t local = 0; local < 5; ++local) {
      EXPECT_TRUE(misplaced.next().is_ok()) << "local " << local;
    }
    EXPECT_EQ(misplaced.next().status().code(), util::ErrorCode::kCorrupt);

    sim::MessageStats before = inst.runtime().message_stats();
    ConstituentReader empty(*lfs[1], meta.lfs_file_id, 0, 2, 1, 8);
    EXPECT_TRUE(empty.exhausted());
    EXPECT_FALSE(empty.next().is_ok());
    sim::MessageStats used = inst.runtime().message_stats() - before;
    EXPECT_EQ(used.local_messages + used.remote_messages, 0u);
  });
  inst.run();
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
