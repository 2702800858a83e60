// Tool framework: WorkerGroup fan-out semantics (tree vs sequential timing,
// result collection, node placement, wire cost of inputs and results),
// ConstituentReader's list mode and posted windows, and ToolEnv discovery.
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

TEST(ConstituentReader, ListModeStreamsOnlyTheListedLocals) {
  // LFS 1 holds constituent 1 of the width-2 file: local l is global
  // 2l + 1.  Locals {0, 2, 5, 6} with window 2 take two kReadMany, one per
  // pair of locals.
  core::BridgeInstance inst(cfg(2));
  core::FileMeta meta = make_two_lfs_file(inst);
  ASSERT_EQ(meta.start_lfs, 0u);
  inst.run_client("reader", [&](sim::Context&, core::BridgeClient& client) {
    auto env = discover(client);
    ASSERT_TRUE(env.is_ok());
    auto lfs = env.value().make_lfs_clients(client.rpc());
    sim::MessageStats before = inst.runtime().message_stats();
    ConstituentReader reader(*lfs[1], meta.lfs_file_id,
                             std::vector<std::uint32_t>{0, 2, 5, 6}, 2, 1, 2);
    for (std::uint32_t local : {0u, 2u, 5u, 6u}) {
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
    // Two kReadMany requests and their two replies.
    EXPECT_EQ(used.local_messages + used.remote_messages, 4u);
  });
  inst.run();
}

TEST(ConstituentReader, ListModeRejectsMisplacedBlockAndEmptyListIsExhausted) {
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
    ConstituentReader reader(*lfs[1], meta.lfs_file_id,
                             std::vector<std::uint32_t>{2, 5}, 2, 1, 2);
    EXPECT_TRUE(reader.next().is_ok());
    EXPECT_EQ(reader.next().status().code(), util::ErrorCode::kCorrupt);

    sim::MessageStats before = inst.runtime().message_stats();
    ConstituentReader empty(*lfs[1], meta.lfs_file_id,
                            std::vector<std::uint32_t>{}, 2, 1, 8);
    EXPECT_TRUE(empty.exhausted());
    EXPECT_FALSE(empty.next().is_ok());
    sim::MessageStats used = inst.runtime().message_stats() - before;
    EXPECT_EQ(used.local_messages + used.remote_messages, 0u);
  });
  inst.run();
}

TEST(ConstituentReader, PostedWindowsMatchTheBlockingPath) {
  // Three readers post into one batch, so three kReadMany are sent before
  // any reply is awaited: LFS 0's locals {1, 4, 7} and LFS 1's locals
  // {0, 3}, each with window 8, and all 8 of LFS 1's locals with window 2.
  // The first post is capped by its limit, the second by the list's end,
  // the third by the window; next() reads the rest itself.  Every reader
  // returns what the blocking path returns, checked the same way.
  core::BridgeInstance inst(cfg(2));
  core::FileMeta meta = make_two_lfs_file(inst);
  ASSERT_EQ(meta.start_lfs, 0u);
  inst.run_client("reader", [&](sim::Context&, core::BridgeClient& client) {
    auto env = discover(client);
    ASSERT_TRUE(env.is_ok());
    auto lfs = env.value().make_lfs_clients(client.rpc());
    auto make_readers = [&] {
      std::vector<ConstituentReader> readers;
      readers.emplace_back(*lfs[0], meta.lfs_file_id,
                           std::vector<std::uint32_t>{1, 4, 7}, 2, 0, 8);
      readers.emplace_back(*lfs[1], meta.lfs_file_id,
                           std::vector<std::uint32_t>{0, 3}, 2, 1, 8);
      readers.emplace_back(*lfs[1], meta.lfs_file_id, 8, 2, 1, 2);
      return readers;
    };
    // A stream's (global, payload) pairs.
    auto drain = [](ConstituentReader& reader) {
      std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> blocks;
      while (!reader.exhausted()) {
        std::uint64_t global = reader.next_global();
        auto block = reader.next();
        EXPECT_TRUE(block.is_ok()) << block.status().to_string();
        if (!block.is_ok()) break;
        blocks.emplace_back(global, std::move(block).value());
      }
      return blocks;
    };
    auto blocking = make_readers();
    std::vector<std::vector<std::pair<std::uint64_t, std::vector<std::byte>>>>
        expected;
    for (auto& reader : blocking) expected.push_back(drain(reader));
    ASSERT_EQ(expected[0].size(), 3u);
    EXPECT_EQ(expected[0][2].first, 14u);
    EXPECT_EQ(expected[0][2].second,
              std::vector<std::byte>(efs::kUserDataBytes, std::byte{14}));

    auto posted = make_readers();
    sim::MessageStats before = inst.runtime().message_stats();
    sim::AsyncBatch batch(client.rpc());
    EXPECT_EQ(posted[0].post(batch, 2), 2u);  // the limit caps it
    EXPECT_EQ(posted[1].post(batch, 8), 2u);  // the list ends
    EXPECT_EQ(posted[2].post(batch, 8), 2u);  // the window caps it
    EXPECT_EQ(posted[1].post(batch, 8), 0u);  // nothing left to ask for
    sim::MessageStats sent = inst.runtime().message_stats() - before;
    EXPECT_EQ(sent.local_messages + sent.remote_messages, 3u);
    // A reader does not read past its own undelivered post.
    EXPECT_EQ(posted[0].next().status().code(),
              util::ErrorCode::kInvalidArgument);
    // Each post's completion buffers its blocks in its reader.
    auto replies = batch.wait_all();
    ASSERT_EQ(replies.size(), 3u);
    for (const auto& reply : replies) {
      EXPECT_TRUE(reply.is_ok()) << reply.status().to_string();
    }
    for (std::size_t i = 0; i < posted.size(); ++i) {
      EXPECT_EQ(drain(posted[i]), expected[i]) << "reader " << i;
    }
    // Three posts, then blocking reads: one for reader 0's last local and
    // three for reader 2's last 6.
    sim::MessageStats used = inst.runtime().message_stats() - before;
    EXPECT_EQ(used.local_messages + used.remote_messages, 14u);

    // LFS 1's local 0 copied over its local 3: a delivered block is checked
    // like a read one.
    auto local0 = lfs[1]->read(meta.lfs_file_id, 0);
    ASSERT_TRUE(local0.is_ok());
    ASSERT_TRUE(lfs[1]->write(meta.lfs_file_id, 3, local0.value()).is_ok());
    for (bool post : {false, true}) {
      SCOPED_TRACE(post ? "posted" : "blocking");
      auto readers = make_readers();
      ConstituentReader& reader = readers[1];
      if (post) {
        ASSERT_EQ(reader.post(batch, 8), 2u);
        ASSERT_TRUE(batch.wait_all_ok().is_ok());
      }
      EXPECT_TRUE(reader.next().is_ok());
      EXPECT_EQ(reader.next_global(), 7u);
      EXPECT_EQ(reader.next().status().code(), util::ErrorCode::kCorrupt);
    }
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
