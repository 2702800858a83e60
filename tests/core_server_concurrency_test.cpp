// The Bridge Server with several requests in flight: LFS round trips of
// unrelated files overlap, the server's one CPU is still paid serially but
// runs the shortest remaining charge first, and requests that name the same
// file are granted its monitor in arrival order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/analysis/race.hpp"
#include "src/core/instance.hpp"

namespace bridge::core {
namespace {

SystemConfig cfg(std::uint32_t p, std::uint32_t blocks_per_lfs = 512) {
  return SystemConfig::paper_profile(p, blocks_per_lfs);
}

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 13 + i));
  }
  return data;
}

std::vector<std::vector<std::byte>> records(std::uint32_t first,
                                            std::uint32_t n) {
  std::vector<std::vector<std::byte>> out;
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(record(first + i));
  return out;
}

/// Create `name` with `options` and write `n` blocks tagged from `tag`.
void fill(BridgeClient& client, const std::string& name, std::uint32_t n,
          std::uint32_t tag, CreateOptions options = {}) {
  ASSERT_TRUE(client.create(name, options).is_ok());
  auto open = client.open(name);
  ASSERT_TRUE(open.is_ok());
  ASSERT_TRUE(
      client.seq_write_many(open.value().session, records(tag, n)).is_ok());
}

/// Virtual time for the chosen readers to read 16 blocks each, one request
/// per block, of files "a" (LFS 0-1) and "b" (LFS 2-3), through sessions
/// opened beforehand: from the readers' start to the last reply.  The LFS
/// caches hold one block and read nothing ahead, so every read is a disk
/// access.
sim::SimTime read_phase(bool read_a, bool read_b) {
  constexpr std::uint32_t kBlocks = 16;
  SystemConfig config = cfg(4);
  config.efs.cache.capacity_blocks = 1;
  config.efs.cache.track_readahead = false;
  BridgeInstance inst(config);
  std::uint64_t session_a = 0;
  std::uint64_t session_b = 0;
  inst.run_client("setup", [&](sim::Context&, BridgeClient& client) {
    fill(client, "a", kBlocks, 0, {.width = 2, .start_lfs = 0});
    fill(client, "b", kBlocks, 100, {.width = 2, .start_lfs = 2});
    session_a = client.open("a").value().session;
    session_b = client.open("b").value().session;
  });
  inst.run();
  sim::SimTime start = inst.runtime().now();
  sim::SimTime end = start;
  auto reader = [&](std::uint64_t session, std::uint32_t tag) {
    return [&, session, tag](sim::Context& ctx, BridgeClient& client) {
      for (std::uint32_t i = 0; i < kBlocks; ++i) {
        auto r = client.seq_read(session);
        ASSERT_TRUE(r.is_ok());
        EXPECT_EQ(r.value().data, record(tag + i));
      }
      end = std::max(end, ctx.now());
    };
  };
  if (read_a) inst.run_client("read-a", reader(session_a, 0));
  if (read_b) inst.run_client("read-b", reader(session_b, 100));
  inst.run();
  return end - start;
}

TEST(ServerConcurrency, ReadsOfDifferentFilesOverlap) {
  sim::SimTime a = read_phase(true, false);
  sim::SimTime b = read_phase(false, true);
  sim::SimTime both = read_phase(true, true);
  ASSERT_GT(a.us(), 0);
  ASSERT_GT(b.us(), 0);
  // A serial server would take a + b (or more); overlapping the two files'
  // LFS round trips leaves little more than the longer one.
  EXPECT_LT(both, a + b);
  EXPECT_LT(both.us(), (a + b).us() * 3 / 4)
      << "a " << a.us() << " us, b " << b.us() << " us, both " << both.us();
}

TEST(ServerConcurrency, TwoCreatesPayTheCpuSerially) {
  BridgeInstance inst(cfg(4));
  std::vector<sim::SimTime> ends;
  for (int c = 0; c < 2; ++c) {
    inst.run_client("c" + std::to_string(c),
                    [&, c](sim::Context& ctx, BridgeClient& client) {
                      ASSERT_TRUE(
                          client.create("f" + std::to_string(c), {.width = 1})
                              .is_ok());
                      ends.push_back(ctx.now());
                    });
  }
  inst.run();
  ASSERT_EQ(ends.size(), 2u);
  const BridgeConfig& bridge = inst.config().bridge;
  sim::SimTime create_cpu = bridge.request_cpu + bridge.create_base_cpu +
                            bridge.create_dispatch_cpu +
                            bridge.create_reply_cpu;
  // Both started at 0; the server's one CPU ran the two Creates one charge
  // at a time, so the later one cannot finish before twice the CPU.
  EXPECT_GE(std::max(ends[0], ends[1]), create_cpu * 2);
  // Each Create's waits for the other's CPU are ledgered as queueing, so
  // no request's service time holds more than its own Create.
  std::string lane = "bridge.n" + std::to_string(inst.config().bridge_node());
  const auto* queue = inst.runtime().metrics().find_histogram(lane + ".queue_us");
  const auto* service =
      inst.runtime().metrics().find_histogram(lane + ".service_us");
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->count(), 2u);
  EXPECT_GE(queue->max(),
            static_cast<std::uint64_t>(bridge.create_base_cpu.us()));
  EXPECT_LT(service->max(), static_cast<std::uint64_t>(create_cpu.us()) * 2);
}

TEST(ServerConcurrency, OpenQueuedBehindAWriteSeesTheWholeRun) {
  // Two sessions of one file: the second is opened while the first
  // session's run is in flight, so its Open waits for the run and its write
  // cursor starts past it.  The two runs land contiguous and disjoint.
  constexpr std::uint32_t kRun = 16;
  BridgeInstance inst(cfg(4));
  inst.run_client("setup", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
  });
  inst.run();
  auto go = inst.runtime().make_channel<int>(inst.config().client_node());
  sim::SimTime a_end{0};
  sim::SimTime b_open_sent{0};
  inst.run_client("a", [&](sim::Context& ctx, BridgeClient& client) {
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    go->send(1);
    auto w = client.seq_write_many(open.value().session, records(0, kRun));
    ASSERT_TRUE(w.is_ok());
    EXPECT_EQ(w.value().first_block_no, 0u);
    a_end = ctx.now();
  });
  inst.run_client("b", [&](sim::Context& ctx, BridgeClient& client) {
    (void)go->recv();  // the value is only a signal
    // a's 16-block request spends ~16 ms on the wire; let it reach the
    // server first.
    ctx.sleep(sim::msec(20));
    b_open_sent = ctx.now();
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    EXPECT_EQ(open.value().meta.size_blocks, kRun);
    auto w = client.seq_write_many(open.value().session, records(100, kRun));
    ASSERT_TRUE(w.is_ok());
    EXPECT_EQ(w.value().first_block_no, kRun);
  });
  inst.run();
  ASSERT_LT(b_open_sent, a_end) << "the Open did not overlap the run";
  inst.run_client("check", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    ASSERT_EQ(open.value().meta.size_blocks, 2 * kRun);
    auto all = client.random_read_many(open.value().meta.id, 0, 2 * kRun);
    ASSERT_TRUE(all.is_ok());
    for (std::uint32_t i = 0; i < kRun; ++i) {
      EXPECT_EQ(all.value().blocks[i], record(i)) << i;
      EXPECT_EQ(all.value().blocks[kRun + i], record(100 + i)) << i;
    }
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(ServerConcurrency, WritersSharingASessionLandContiguousRuns) {
  // Two processes append through one session at once.  The session's
  // cursor moves under the file's monitor, so the second run starts where
  // the first one ended instead of at the cursor both saw on arrival.
  constexpr std::uint32_t kRun = 16;
  BridgeInstance inst(cfg(4));
  std::uint64_t session = 0;
  inst.run_client("setup", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
    session = client.open("f").value().session;
  });
  inst.run();
  std::vector<std::uint64_t> firsts(2, 0);
  for (std::uint32_t k = 0; k < 2; ++k) {
    inst.run_client(
        "w" + std::to_string(k), [&, k](sim::Context& ctx, BridgeClient& client) {
          ctx.sleep(sim::msec(k));  // w0's run arrives first
          auto w = client.seq_write_many(session, records(100 * k, kRun));
          ASSERT_TRUE(w.is_ok());
          firsts[k] = w.value().first_block_no;
        });
  }
  inst.run();
  EXPECT_EQ(firsts[0], 0u);
  EXPECT_EQ(firsts[1], kRun);
  inst.run_client("check", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    ASSERT_EQ(open.value().meta.size_blocks, 2 * kRun);
    auto all = client.random_read_many(open.value().meta.id, 0, 2 * kRun);
    ASSERT_TRUE(all.is_ok());
    for (std::uint32_t i = 0; i < kRun; ++i) {
      EXPECT_EQ(all.value().blocks[i], record(i)) << i;
      EXPECT_EQ(all.value().blocks[kRun + i], record(100 + i)) << i;
    }
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(ServerConcurrency, DeleteWaitsForAReadOfTheSameFile) {
  constexpr std::uint32_t kBlocks = 32;
  BridgeInstance inst(cfg(4));
  BridgeFileId id = 0;
  inst.run_client("setup", [&](sim::Context&, BridgeClient& client) {
    fill(client, "f", kBlocks, 0);
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    id = open.value().meta.id;
  });
  inst.run();
  auto go = inst.runtime().make_channel<int>(inst.config().client_node());
  sim::SimTime read_end{0};
  sim::SimTime delete_sent{0};
  sim::SimTime delete_end{0};
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    go->send(1);
    auto r = client.random_read_many(id, 0, kBlocks);
    read_end = ctx.now();
    ASSERT_TRUE(r.is_ok());
    for (std::uint32_t i = 0; i < kBlocks; ++i) {
      EXPECT_EQ(r.value().blocks[i], record(i)) << i;
    }
  });
  inst.run_client("deleter", [&](sim::Context& ctx, BridgeClient& client) {
    (void)go->recv();  // the value is only a signal
    ctx.sleep(sim::msec(1));  // the read reaches the server first
    delete_sent = ctx.now();
    EXPECT_TRUE(client.remove("f").is_ok());
    delete_end = ctx.now();
  });
  inst.run();
  ASSERT_LT(delete_sent, read_end) << "the Delete did not overlap the read";
  EXPECT_GT(delete_end, read_end);
  EXPECT_EQ(inst.server().directory_size(), 0u);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(ServerConcurrency, ConcurrentAppendsReserveLfsSpace) {
  // "a" spans LFS 0-1 and "b" LFS 1-2.  Each run alone fits; together they
  // need more of LFS 1 than it has.  The run that passes its preflight
  // first reserves its blocks, so the other fails there, before it writes
  // anything.
  BridgeInstance inst(cfg(3, 160));
  std::uint64_t session_a = 0;
  std::uint64_t session_b = 0;
  inst.run_client("setup", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("a", {.width = 2, .start_lfs = 0}).is_ok());
    ASSERT_TRUE(client.create("b", {.width = 2, .start_lfs = 1}).is_ok());
    session_a = client.open("a").value().session;
    session_b = client.open("b").value().session;
  });
  inst.run();
  auto free_blocks = [&](std::uint32_t i) {
    return static_cast<std::uint32_t>(inst.lfs(i).core().free_block_count());
  };
  std::uint32_t per_lfs = free_blocks(1) / 2 + 1;
  ASSERT_LE(per_lfs, std::min(free_blocks(0), free_blocks(2)));
  ASSERT_LE(2 * per_lfs, kMaxRunBlocks);
  std::uint64_t appends_before = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    appends_before += inst.lfs(i).core().op_stats().appends;
  }

  std::vector<util::Status> results(2, util::ok_status());
  auto writer = [&](std::size_t k, std::uint64_t session) {
    return [&, k, session](sim::Context&, BridgeClient& client) {
      auto w = client.seq_write_many(
          session, records(static_cast<std::uint32_t>(k) * 1000, 2 * per_lfs));
      results[k] = w.status();
    };
  };
  inst.run_client("write-a", writer(0, session_a));
  inst.run_client("write-b", writer(1, session_b));
  inst.run();
  std::size_t ok = 0;
  for (const auto& st : results) {
    if (st.is_ok()) {
      ++ok;
    } else {
      EXPECT_EQ(st.code(), util::ErrorCode::kOutOfSpace) << st.to_string();
    }
  }
  ASSERT_EQ(ok, 1u);
  std::uint64_t appends = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    appends += inst.lfs(i).core().op_stats().appends;
  }
  EXPECT_EQ(appends - appends_before, 2u * per_lfs)
      << "the failed run wrote blocks before it failed";
  inst.run_client("check", [&](sim::Context&, BridgeClient& client) {
    for (std::size_t k = 0; k < 2; ++k) {
      auto open = client.open(k == 0 ? "a" : "b");
      ASSERT_TRUE(open.is_ok());
      EXPECT_EQ(open.value().meta.size_blocks,
                results[k].is_ok() ? 2u * per_lfs : 0u);
    }
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(ServerConcurrency, OverlappingHandlersAreRaceFree) {
  // Three clients share names on one server: creates, appends, reads,
  // renames and deletes all overlap.  Every directory and placement access
  // is ordered by a monitor grant or a directory section, and the race
  // detector must see those edges.
  BridgeInstance inst(cfg(4));
  inst.runtime().enable_race_check();
  auto workload = [](std::uint32_t base) {
    return [base](sim::Context&, BridgeClient& client) {
      for (std::uint32_t i = 0; i < 4; ++i) {
        std::string name = "shared" + std::to_string(i);
        (void)client.create(name);  // losers get kAlreadyExists and go on
        auto open = client.open(name);
        if (!open.is_ok()) continue;
        // Any op may lose to another client's rename or delete; the test
        // asserts the detector's verdict, not each op's outcome.
        (void)client.seq_write_many(open.value().session,  // may lose, above
                                    records(base + i, 3));
        (void)client.random_read_many(open.value().meta.id, 0, 2);  // ditto
        (void)client.list("shared");  // ditto
        if (base == 200) {
          (void)client.rename(name, "moved" + std::to_string(i));  // ditto
        } else if (base == 100) {
          (void)client.remove(name);  // ditto
        }
      }
    };
  };
  for (std::uint32_t base : {0u, 100u, 200u}) {
    inst.run_client("c" + std::to_string(base), workload(base));
  }
  inst.run();
  // Short charges preempted the Creates' long ones, so the CPU queue's
  // hand-offs and preemptions were exercised under the detector too.
  EXPECT_GT(inst.server().stats().cpu_preemptions, 0u);
  EXPECT_GT(inst.runtime().race()->access_count(), 0u);
  EXPECT_TRUE(inst.runtime().race()->report_text().empty())
      << inst.runtime().race()->report_text();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(ServerConcurrency, SingleClientBasicOpTimesAreUnchanged) {
  // Table 2's sequence, one client at a time: no request ever waits for the
  // CPU or a monitor, so every per-op time is the serial server's, to the
  // microsecond.
  constexpr std::uint32_t kBlocks = 16;
  BridgeInstance inst(cfg(4));
  std::vector<std::int64_t> us;
  inst.run_client("c", [&](sim::Context& ctx, BridgeClient& client) {
    auto lap = [&, t0 = ctx.now()]() mutable {
      us.push_back((ctx.now() - t0).us());
      t0 = ctx.now();
    };
    ASSERT_TRUE(client.create("file").is_ok());
    lap();
    auto open = client.open("file");
    ASSERT_TRUE(open.is_ok());
    lap();
    for (std::uint32_t i = 0; i < kBlocks; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    lap();
    auto reopen = client.open("file");
    ASSERT_TRUE(reopen.is_ok());
    lap();
    for (std::uint32_t i = 0; i < kBlocks; ++i) {
      ASSERT_TRUE(client.seq_read(reopen.value().session).is_ok());
    }
    lap();
    ASSERT_TRUE(client.random_read(reopen.value().meta.id, 3).is_ok());
    lap();
    ASSERT_TRUE(client.random_write(reopen.value().meta.id, 5, record(99))
                    .is_ok());
    lap();
    ASSERT_TRUE(client.remove("file").is_ok());
    lap();
  });
  inst.run();
  // create, open, 16 writes, reopen, 16 reads, random read, random write,
  // delete — as measured on the serial server.
  std::vector<std::int64_t> serial = {205321, 79642, 303600, 79642,
                                      58016,  3625,  19124,  17629};
  EXPECT_EQ(us, serial);
}

/// A Create of a width-1 file on LFS 3, alone or with two 1-block reads of
/// a width-1 file on LFS 0 sent 10 ms into it, i.e. during its 136 ms base
/// charge.  The two files share no LFS, so the runs differ only in CPU.
struct CreateWithReads {
  sim::SimTime create_us{0};               ///< the Create's latency
  std::vector<sim::SimTime> read_us;       ///< each read's latency
  BridgeServerStats phase;                 ///< server counters of the phase
  std::uint64_t client_calls = 0;          ///< requests the phase sent
};

CreateWithReads create_with_reads(bool reads) {
  BridgeInstance inst(cfg(4));
  BridgeFileId id = 0;
  inst.run_client("setup", [&](sim::Context&, BridgeClient& client) {
    fill(client, "f", 4, 0, {.width = 1, .start_lfs = 0});
    id = client.open("f").value().meta.id;
  });
  inst.run();
  BridgeServerStats before = inst.server().stats();
  CreateWithReads out;
  inst.run_client("creator", [&](sim::Context& ctx, BridgeClient& client) {
    sim::SimTime t0 = ctx.now();
    ASSERT_TRUE(client.create("g", {.width = 1, .start_lfs = 3}).is_ok());
    out.create_us = ctx.now() - t0;
    ++out.client_calls;
  });
  if (reads) {
    inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
      ctx.sleep(sim::msec(10));
      for (std::uint32_t i = 0; i < 2; ++i) {
        sim::SimTime t0 = ctx.now();
        auto r = client.random_read(id, i);
        ASSERT_TRUE(r.is_ok());
        EXPECT_EQ(r.value(), record(i));
        out.read_us.push_back(ctx.now() - t0);
        ++out.client_calls;
      }
    });
  }
  inst.run();
  out.phase = inst.server().stats() - before;
  return out;
}

/// The same two reads with the server otherwise idle.
std::vector<sim::SimTime> reads_alone() {
  BridgeInstance inst(cfg(4));
  BridgeFileId id = 0;
  inst.run_client("setup", [&](sim::Context&, BridgeClient& client) {
    fill(client, "f", 4, 0, {.width = 1, .start_lfs = 0});
    id = client.open("f").value().meta.id;
  });
  inst.run();
  std::vector<sim::SimTime> out;
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    ctx.sleep(sim::msec(10));
    for (std::uint32_t i = 0; i < 2; ++i) {
      sim::SimTime t0 = ctx.now();
      ASSERT_TRUE(client.random_read(id, i).is_ok());
      out.push_back(ctx.now() - t0);
    }
  });
  inst.run();
  return out;
}

TEST(ServerConcurrency, ReadDuringACreateWaitsUnderAMillisecondForTheCpu) {
  CreateWithReads mixed = create_with_reads(true);
  std::vector<sim::SimTime> alone = reads_alone();
  ASSERT_EQ(mixed.read_us.size(), 2u);
  ASSERT_EQ(alone.size(), 2u);
  // Each read's 0.3 ms decode and 0.25 ms forward preempt the Create's
  // base charge instead of waiting out the rest of its 136 ms.
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_LT((mixed.read_us[i] - alone[i]).us(), 1000)
        << "read " << i << ": " << mixed.read_us[i].us() << " us, alone "
        << alone[i].us() << " us";
  }
}

TEST(ServerConcurrency, APreemptedCreateFinishesExactlyTheReadsCpuLater) {
  CreateWithReads alone = create_with_reads(false);
  CreateWithReads mixed = create_with_reads(true);
  const BridgeConfig bridge = BridgeConfig{};
  sim::SimTime read_cpu = bridge.request_cpu + bridge.forward_cpu;
  EXPECT_EQ(alone.create_us.us(), 155634);
  EXPECT_EQ(mixed.create_us.us(), 155634 + 2 * 550);
  EXPECT_EQ(mixed.create_us - alone.create_us, read_cpu * 2);
  // Both reads preempted the base charge: once for each decode, once for
  // each forward.
  EXPECT_EQ(mixed.phase.cpu_preemptions, 4u);
  EXPECT_EQ(alone.phase.cpu_preemptions, 0u);
  EXPECT_EQ(mixed.phase.cpu_busy_us - alone.phase.cpu_busy_us,
            static_cast<std::uint64_t>((read_cpu * 2).us()));
}

TEST(ServerConcurrency, PreemptionsLeaveNoEnvelopeToBeServedAsARequest) {
  CreateWithReads mixed = create_with_reads(true);
  ASSERT_GT(mixed.phase.cpu_preemptions, 0u);
  // A hand-off or preemption envelope left in a worker's inbox would be
  // taken by its idle loop and counted as a request.
  EXPECT_EQ(mixed.phase.requests, mixed.client_calls);
}

TEST(ServerConcurrency, EqualChargesKeepArrivalOrder) {
  // GetInfo costs one request_cpu and nothing else.  Four arrive 10 us
  // apart, all within the first one's charge: none is shorter than what
  // the running one has left, so they run in arrival order, back to back.
  BridgeInstance inst(cfg(4));
  std::vector<sim::SimTime> ends(4);
  std::vector<std::uint32_t> order;
  for (std::uint32_t k = 0; k < 4; ++k) {
    inst.run_client("info" + std::to_string(k),
                    [&, k](sim::Context& ctx, BridgeClient& client) {
                      ctx.sleep(sim::usec(10 * k));
                      ASSERT_TRUE(client.get_info().is_ok());
                      ends[k] = ctx.now();
                      order.push_back(k);
                    });
  }
  inst.run();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  const BridgeConfig bridge = BridgeConfig{};
  for (std::uint32_t k = 1; k < 4; ++k) {
    EXPECT_EQ(ends[k] - ends[k - 1], bridge.request_cpu) << k;
  }
  EXPECT_EQ(inst.server().stats().cpu_preemptions, 0u);
}

TEST(ServerConcurrency, SessionIndexDropsExactlyTheDeletedFilesSessions) {
  BridgeInstance inst(cfg(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    fill(client, "a", 4, 0);
    fill(client, "b", 4, 100);
    // fill opened one session on each file; two more on "a", one on "b".
    std::uint64_t a1 = client.open("a").value().session;
    std::uint64_t a2 = client.open("a").value().session;
    auto b = client.open("b");
    ASSERT_TRUE(b.is_ok());
    std::uint64_t b1 = b.value().session;
    ASSERT_EQ(inst.server().session_count(), 5u);

    ASSERT_TRUE(client.remove("a").is_ok());
    EXPECT_EQ(inst.server().session_count(), 2u);
    // A new "a" does not inherit the old file's sessions.
    fill(client, "a", 2, 200);
    EXPECT_EQ(client.seq_read(a1).status().code(), util::ErrorCode::kNotFound);
    EXPECT_EQ(client.seq_read(a2).status().code(), util::ErrorCode::kNotFound);
    EXPECT_EQ(inst.server().session_count(), 3u);

    // "b"'s sessions follow it through a rename and are clamped by a
    // truncate of the new name.
    ASSERT_TRUE(client.seq_seek(b1, 3).is_ok());
    ASSERT_TRUE(client.rename("b", "c").is_ok());
    ASSERT_TRUE(client.truncate(b.value().meta.id, 2).is_ok());
    auto r = client.seq_read(b1);
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(r.value().eof);
    ASSERT_TRUE(client.seq_seek(b1, 1).is_ok());
    r = client.seq_read(b1);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().data, record(101));
    // The write cursor was pulled back from 4 to the new end.
    auto w = client.seq_write(b1, record(300));
    ASSERT_TRUE(w.is_ok());
    EXPECT_EQ(w.value(), 2u);
    ASSERT_TRUE(client.remove("c").is_ok());
    EXPECT_EQ(inst.server().session_count(), 1u);
  });
  inst.run();
}

}  // namespace
}  // namespace bridge::core
