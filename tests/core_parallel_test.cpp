// Parallel-open view: job creation, lock-step multi-block reads/writes,
// virtual parallelism (t > p), worker EOF handling, and the speedup the
// parallel interface buys over the naive one.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <optional>

#include "src/core/bridge_block.hpp"
#include "src/core/instance.hpp"
#include "src/efs/client.hpp"

namespace bridge::core {
namespace {

SystemConfig test_config(std::uint32_t p) {
  return SystemConfig::paper_profile(p, /*data_blocks_per_lfs=*/512);
}

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 17 + i));
  }
  return data;
}

/// Write `n` records through the naive interface (setup helper).
void write_file(BridgeInstance& inst, const std::string& name, std::uint32_t n) {
  inst.run_client("setup-writer", [&, n](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create(name).is_ok());
    auto open = client.open(name);
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
  });
  inst.run();
}

TEST(ParallelOpen, WorkersEachReceiveTheirBlocks) {
  BridgeInstance inst(test_config(4));
  write_file(inst, "pfile", 16);

  constexpr std::uint32_t kWorkers = 4;
  std::map<std::uint64_t, std::vector<std::byte>> received;
  std::atomic<int> workers_done{0};
  std::vector<sim::Address> worker_addrs(kWorkers);

  // Workers run on the LFS nodes; each drains deliveries until EOF.
  std::vector<std::unique_ptr<ParallelWorker>> endpoints;
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    inst.runtime().spawn(w, "worker" + std::to_string(w),
                         [&, w](sim::Context& ctx) {
                           ParallelWorker worker(ctx);
                           worker_addrs[w] = worker.address();
                           while (true) {
                             auto delivery = worker.next_block();
                             if (delivery.eof) break;
                             received[delivery.global_block_no] =
                                 delivery.data;
                           }
                           ++workers_done;
                         });
  }
  // Controller: waits a beat for workers to publish addresses, then drives.
  inst.run_client("controller", [&](sim::Context& ctx, BridgeClient& client) {
    ctx.sleep(sim::msec(1));  // let workers start and publish addresses
    auto open = client.open("pfile");
    ASSERT_TRUE(open.is_ok());
    auto job = client.parallel_open(open.value().session, worker_addrs);
    ASSERT_TRUE(job.is_ok());
    std::uint32_t total = 0;
    while (true) {
      auto resp = client.parallel_read(job.value());
      ASSERT_TRUE(resp.is_ok());
      total += resp.value().blocks_delivered;
      if (resp.value().eof) break;
    }
    EXPECT_EQ(total, 16u);
  });
  inst.run();
  EXPECT_EQ(workers_done.load(), 4);
  ASSERT_EQ(received.size(), 16u);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(received[i], record(i)) << "block " << i;
  }
}

TEST(ParallelOpen, VirtualParallelismMoreWorkersThanLfs) {
  // t = 6 workers on a p = 2 machine: "the server will perform groups of p
  // disk accesses in parallel until the high-level request is satisfied".
  BridgeInstance inst(test_config(2));
  write_file(inst, "vfile", 12);

  constexpr std::uint32_t kWorkers = 6;
  std::map<std::uint64_t, std::vector<std::byte>> received;
  std::vector<sim::Address> worker_addrs(kWorkers);
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    inst.runtime().spawn(w % 2, "worker" + std::to_string(w),
                         [&, w](sim::Context& ctx) {
                           ParallelWorker worker(ctx);
                           worker_addrs[w] = worker.address();
                           while (true) {
                             auto delivery = worker.next_block();
                             if (delivery.eof) break;
                             received[delivery.global_block_no] = delivery.data;
                           }
                         });
  }
  inst.run_client("controller", [&](sim::Context& ctx, BridgeClient& client) {
    ctx.sleep(sim::msec(1));
    auto open = client.open("vfile");
    ASSERT_TRUE(open.is_ok());
    auto job = client.parallel_open(open.value().session, worker_addrs);
    ASSERT_TRUE(job.is_ok());
    std::uint32_t total = 0;
    while (true) {
      auto resp = client.parallel_read(job.value());
      ASSERT_TRUE(resp.is_ok());
      total += resp.value().blocks_delivered;
      if (resp.value().eof) break;
    }
    EXPECT_EQ(total, 12u);
  });
  inst.run();
  ASSERT_EQ(received.size(), 12u);
  for (std::uint32_t i = 0; i < 12; ++i) EXPECT_EQ(received[i], record(i));
  // 12 blocks via 6-worker reads on p=2: every read is 3 rounds of 2.
  EXPECT_GE(inst.server().stats().parallel_rounds, 6u);
}

TEST(ParallelOpen, ParallelWriteCollectsFromWorkers) {
  BridgeInstance inst(test_config(3));
  constexpr std::uint32_t kWorkers = 3;
  constexpr std::uint32_t kBlocksPerWorker = 4;
  std::vector<sim::Address> worker_addrs(kWorkers);

  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    inst.runtime().spawn(w, "wworker" + std::to_string(w),
                         [&, w](sim::Context& ctx) {
                           ParallelWorker worker(ctx);
                           worker_addrs[w] = worker.address();
                           // Each solicitation supplies the worker's next
                           // record; round r writes blocks r*3 .. r*3+2.
                           std::uint32_t round = 0;
                           while (round < kBlocksPerWorker) {
                             bool more = worker.serve_give([&] {
                               return std::optional<std::vector<std::byte>>(
                                   record(round * kWorkers + w));
                             });
                             (void)more;
                             ++round;
                           }
                         });
  }
  inst.run_client("controller", [&](sim::Context& ctx, BridgeClient& client) {
    ctx.sleep(sim::msec(1));
    ASSERT_TRUE(client.create("wfile").is_ok());
    auto open = client.open("wfile");
    ASSERT_TRUE(open.is_ok());
    auto job = client.parallel_open(open.value().session, worker_addrs);
    ASSERT_TRUE(job.is_ok());
    std::uint32_t total = 0;
    for (std::uint32_t round = 0; round < kBlocksPerWorker; ++round) {
      auto resp = client.parallel_write(job.value());
      ASSERT_TRUE(resp.is_ok());
      total += resp.value().blocks_written;
    }
    EXPECT_EQ(total, kWorkers * kBlocksPerWorker);
  });
  inst.run();

  // Read the file back through a fresh client and check global order.
  int verified = 0;
  inst.run_client("verifier", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open("wfile");
    ASSERT_TRUE(open.is_ok());
    EXPECT_EQ(open.value().meta.size_blocks, 12u);
    for (std::uint32_t i = 0; i < 12; ++i) {
      auto r = client.seq_read(open.value().session);
      ASSERT_TRUE(r.is_ok());
      if (r.value().data == record(i)) ++verified;
    }
  });
  inst.run();
  EXPECT_EQ(verified, 12);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

/// Spawn one daemon write worker per entry of `addrs` (which must outlive
/// `inst`) and store its address there.  Worker w of t answers its r-th
/// solicitation with record(r * t + w) while `gives(w, r)` holds, and
/// reports itself drained otherwise.
void spawn_writers(BridgeInstance& inst, std::vector<sim::Address>& addrs,
                   std::function<bool(std::uint32_t, std::uint32_t)> gives) {
  auto t = static_cast<std::uint32_t>(addrs.size());
  for (std::uint32_t w = 0; w < t; ++w) {
    inst.runtime().spawn(w % inst.num_lfs(), "wworker" + std::to_string(w),
                         [&addrs, t, w, gives](sim::Context& ctx) {
                           ctx.set_daemon();
                           ParallelWorker worker(ctx);
                           addrs[w] = worker.address();
                           for (std::uint32_t r = 0;; ++r) {
                             worker.serve_give([&] {
                               return gives(w, r)
                                          ? std::optional(record(r * t + w))
                                          : std::nullopt;
                             });
                           }
                         });
  }
  // Let the workers publish their addresses before anyone reads `addrs`.
  inst.run();
}

TEST(ParallelOpen, FailedParallelWriteLeavesSizeUnchanged) {
  // One lock-step round spans all three LFSs; LFS 1's disk dies between
  // rounds.  The failed round must not grow the file.
  std::vector<sim::Address> workers(3);
  BridgeInstance inst(test_config(3));
  spawn_writers(inst, workers, [](std::uint32_t, std::uint32_t) { return true; });
  inst.run_client("controller", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("wfile").is_ok());
    auto open = client.open("wfile");
    ASSERT_TRUE(open.is_ok());
    auto job = client.parallel_open(open.value().session, workers);
    ASSERT_TRUE(job.is_ok());
    auto first = client.parallel_write(job.value());
    ASSERT_TRUE(first.is_ok());
    EXPECT_EQ(first.value().blocks_written, 3u);

    inst.lfs(1).disk().fail();
    EXPECT_FALSE(client.parallel_write(job.value()).is_ok());
    auto listed = client.list("wfile");
    ASSERT_TRUE(listed.is_ok());
    ASSERT_EQ(listed.value().size(), 1u);
    EXPECT_EQ(listed.value()[0].size_blocks, 3u);
  });
  inst.run();

  // LFSs 0 and 2 took their blocks of the failed round; they must have been
  // truncated back, or the reopen's size refresh would count them.
  inst.lfs(1).disk().repair();
  inst.run_client("reopener", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open("wfile");
    ASSERT_TRUE(open.is_ok());
    EXPECT_EQ(open.value().meta.size_blocks, 3u);
    for (std::uint32_t i = 0; i < 3; ++i) {
      auto r = client.seq_read(open.value().session);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_FALSE(r.value().eof);
      EXPECT_EQ(r.value().data, record(i)) << "block " << i;
    }
    auto end = client.seq_read(open.value().session);
    ASSERT_TRUE(end.is_ok());
    EXPECT_TRUE(end.value().eof);
  });
  inst.run();
}

TEST(ParallelOpen, ParallelWriteKeepsGapFreePrefixWhenMiddleWorkerDrains) {
  // Worker 1 of 3 drains after one block.  The second round keeps only
  // worker 0's block: worker 2's would leave a gap, so it is dropped.
  std::vector<sim::Address> workers(3);
  BridgeInstance inst(test_config(3));
  spawn_writers(inst, workers, [](std::uint32_t w, std::uint32_t r) {
    return w != 1 || r == 0;
  });
  inst.run_client("controller", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("wfile").is_ok());
    auto open = client.open("wfile");
    ASSERT_TRUE(open.is_ok());
    auto job = client.parallel_open(open.value().session, workers);
    ASSERT_TRUE(job.is_ok());
    std::vector<std::uint32_t> written;
    for (int call = 0; call < 3; ++call) {
      auto resp = client.parallel_write(job.value());
      ASSERT_TRUE(resp.is_ok());
      written.push_back(resp.value().blocks_written);
    }
    EXPECT_EQ(written, (std::vector<std::uint32_t>{3, 1, 0}));
  });
  inst.run();

  inst.run_client("verifier", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open("wfile");
    ASSERT_TRUE(open.is_ok());
    EXPECT_EQ(open.value().meta.size_blocks, 4u);
    for (std::uint32_t i = 0; i < 4; ++i) {
      auto r = client.seq_read(open.value().session);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().data, record(i)) << "block " << i;
    }
    auto end = client.seq_read(open.value().session);
    ASSERT_TRUE(end.is_ok());
    EXPECT_TRUE(end.value().eof);
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(ParallelOpen, ParallelReadRejectsMisplacedBlockLikeNaiveRead) {
  // A validly wrapped block whose header says global block 9, written into
  // block 5's slot through the tool view.  Neither view may deliver it.
  // The workers never see EOF; what they capture must outlive `inst`.
  std::map<std::uint64_t, std::vector<std::byte>> received;
  std::vector<sim::Address> worker_addrs(4);
  BridgeInstance inst(test_config(4));
  write_file(inst, "f", 12);
  for (std::uint32_t w = 0; w < 4; ++w) {
    inst.runtime().spawn(w, "worker" + std::to_string(w),
                         [&, w](sim::Context& ctx) {
                           ctx.set_daemon();
                           ParallelWorker worker(ctx);
                           worker_addrs[w] = worker.address();
                           while (true) {
                             auto delivery = worker.next_block();
                             if (delivery.eof) break;
                             received[delivery.global_block_no] = delivery.data;
                           }
                         });
  }
  inst.run_client("controller", [&](sim::Context& ctx, BridgeClient& client) {
    ctx.sleep(sim::msec(1));
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    const FileMeta& meta = open.value().meta;
    auto slot = client.resolve(meta.id, 5, 1);
    ASSERT_TRUE(slot.is_ok());
    const Placement& at = slot.value().placements.at(0);
    auto wrapped = wrap_block(meta.owner(), 9, record(9));
    ASSERT_TRUE(wrapped.is_ok());
    auto info = client.get_info();
    ASSERT_TRUE(info.is_ok());
    efs::EfsClient lfs(client.rpc(), info.value().lfs_services[at.lfs_index]);
    ASSERT_TRUE(
        lfs.write(meta.lfs_file_id, at.local_block, wrapped.value()).is_ok());

    EXPECT_EQ(client.random_read(meta.id, 5).status().code(),
              util::ErrorCode::kCorrupt);
    auto job = client.parallel_open(open.value().session, worker_addrs);
    ASSERT_TRUE(job.is_ok());
    auto first_round = client.parallel_read(job.value());  // blocks 0..3
    ASSERT_TRUE(first_round.is_ok());
    EXPECT_EQ(client.parallel_read(job.value()).status().code(),  // 4..7
              util::ErrorCode::kCorrupt);
  });
  inst.run();
  // Only the intact first round reached the workers.
  EXPECT_EQ(received.size(), 4u);
  EXPECT_EQ(received.count(5), 0u);
}

TEST(ParallelOpen, EmptyWorkerListRejected) {
  BridgeInstance inst(test_config(2));
  write_file(inst, "f", 2);
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    EXPECT_EQ(client.parallel_open(open.value().session, {}).status().code(),
              util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(client.parallel_read(777).status().code(),
              util::ErrorCode::kNotFound);
  });
  inst.run();
}

TEST(ParallelOpen, ParallelReadBeatsNaiveRead) {
  // The whole point of the parallel view: t-block transfers approach p-way
  // disk parallelism, while naive reads serialize round trips.
  constexpr std::uint32_t kBlocks = 64;
  auto naive_time = [&] {
    BridgeInstance inst(test_config(4));
    write_file(inst, "f", kBlocks);
    sim::SimTime elapsed{};
    inst.run_client("naive", [&](sim::Context& ctx, BridgeClient& client) {
      auto open = client.open("f");
      ASSERT_TRUE(open.is_ok());
      auto start = ctx.now();
      for (std::uint32_t i = 0; i < kBlocks; ++i) {
        ASSERT_TRUE(client.seq_read(open.value().session).is_ok());
      }
      elapsed = ctx.now() - start;
    });
    inst.run();
    return elapsed;
  }();
  auto parallel_time = [&] {
    BridgeInstance inst(test_config(4));
    write_file(inst, "f", kBlocks);
    std::vector<sim::Address> worker_addrs(4);
    for (std::uint32_t w = 0; w < 4; ++w) {
      inst.runtime().spawn(w, "worker", [&, w](sim::Context& ctx) {
        ParallelWorker worker(ctx);
        worker_addrs[w] = worker.address();
        while (!worker.next_block().eof) {
        }
      });
    }
    sim::SimTime elapsed{};
    inst.run_client("controller", [&](sim::Context& ctx, BridgeClient& client) {
      ctx.sleep(sim::msec(1));
      auto open = client.open("f");
      ASSERT_TRUE(open.is_ok());
      auto job = client.parallel_open(open.value().session, worker_addrs);
      ASSERT_TRUE(job.is_ok());
      auto start = ctx.now();
      while (true) {
        auto resp = client.parallel_read(job.value());
        ASSERT_TRUE(resp.is_ok());
        if (resp.value().eof) break;
      }
      elapsed = ctx.now() - start;
    });
    inst.run();
    return elapsed;
  }();
  EXPECT_LT(parallel_time.us() * 2, naive_time.us())
      << "parallel=" << parallel_time.to_string()
      << " naive=" << naive_time.to_string();
}

}  // namespace
}  // namespace bridge::core
