// Fiber-scheduler guarantees: a workload run twice in one process yields
// byte-identical Chrome traces, obs documents and scheduler statistics, for
// a routed-namespace workload and a replication/rebuild workload — so no
// scheduler or stack-pool state leaks between Scheduler lifetimes.  (The
// same-seed identity across the assembly and ucontext fiber switches is a
// CI cmp of two builds.)  Stack pooling, teardown of parked daemons with
// undelivered channel items and 10k-process churn behave.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/race.hpp"
#include "src/core/instance.hpp"
#include "src/core/replication.hpp"
#include "src/sim/runtime.hpp"
#include "src/sim/scheduler.hpp"

namespace bridge {
namespace {

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 11 + i));
  }
  return data;
}

/// What a rerun must reproduce exactly: the full trace, the obs document,
/// and the scheduler's event accounting.
struct RunFingerprint {
  std::string trace;
  std::string obs;
  std::uint64_t events_dispatched = 0;
  std::uint64_t wakes_scheduled = 0;
  std::uint64_t stale_wakes_skipped = 0;
  std::uint64_t processes_spawned = 0;
};

/// Routed-namespace workload: two clients race rename/open/remove across
/// four servers (the PR-5 determinism suite's racing schedule).
RunFingerprint routed_workload() {
  auto config = core::SystemConfig::paper_profile(4, 2048);
  config.num_bridge_servers = 4;
  core::BridgeInstance inst(config);
  inst.runtime().tracer().enable();
  auto workload = [](std::uint32_t base) {
    return [base](sim::Context&, core::RoutedBridgeClient& client) {
      for (std::uint32_t i = 0; i < 4; ++i) {
        std::string from = "src_" + std::to_string(base + i);
        std::string to = "dst_" + std::to_string(i);  // shared targets
        if (!client.create(from).is_ok()) continue;
        auto open = client.open(from);
        if (open.is_ok()) {
          (void)client.seq_write(open.value().session, record(base + i));  // workload body; runs are compared by trace digest
        }
        auto renamed = client.rename(from, to);
        if (renamed.is_ok()) {
          (void)client.random_read(renamed.value(), 0);  // workload body; runs are compared by trace digest
        } else {
          (void)client.remove(from);  // workload body; runs are compared by trace digest
        }
      }
    };
  };
  inst.run_routed_client("racer-a", workload(0));
  inst.run_routed_client("racer-b", workload(100));
  inst.run();
  RunFingerprint fp;
  fp.trace = inst.runtime().tracer().chrome_trace_json();
  fp.obs = inst.obs_json();
  const sim::SchedulerStats& stats = inst.runtime().scheduler().stats();
  fp.events_dispatched = stats.events_dispatched;
  fp.wakes_scheduled = stats.wakes_scheduled;
  fp.stale_wakes_skipped = stats.stale_wakes_skipped;
  fp.processes_spawned = stats.processes_spawned;
  return fp;
}

/// Replication workload: write a mirrored file, fail + repair an LFS,
/// rebuild it, and re-read everything.
RunFingerprint rebuild_workload() {
  core::BridgeInstance inst(core::SystemConfig::paper_profile(4, 1024));
  inst.runtime().tracer().enable();
  inst.run_client("writer", [&](sim::Context& ctx, core::BridgeClient& client) {
    auto file = core::MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> run;
    for (std::uint32_t i = 0; i < 25; ++i) run.push_back(record(i));
    ASSERT_TRUE(file.value().append_many(run).is_ok());
  });
  inst.run();
  inst.lfs(2).disk().fail();
  inst.lfs(2).disk().repair();
  inst.run_client("rebuilder",
                  [&](sim::Context& ctx, core::BridgeClient& client) {
                    auto file = core::MirroredFile::open(ctx, client, "m");
                    ASSERT_TRUE(file.is_ok());
                    core::RebuildOptions options;
                    options.window_blocks = 4;
                    ASSERT_TRUE(file.value().rebuild_lfs(2, options).is_ok());
                  });
  inst.run();
  int ok_reads = 0;
  inst.run_client("reader", [&](sim::Context& ctx, core::BridgeClient& client) {
    auto file = core::MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t i = 0; i < 25; ++i) {
      if (file.value().read(i).is_ok()) ++ok_reads;
    }
  });
  inst.run();
  EXPECT_EQ(ok_reads, 25);
  RunFingerprint fp;
  fp.trace = inst.runtime().tracer().chrome_trace_json();
  fp.obs = inst.obs_json();
  const sim::SchedulerStats& stats = inst.runtime().scheduler().stats();
  fp.events_dispatched = stats.events_dispatched;
  fp.wakes_scheduled = stats.wakes_scheduled;
  fp.stale_wakes_skipped = stats.stale_wakes_skipped;
  fp.processes_spawned = stats.processes_spawned;
  return fp;
}

void expect_identical(const RunFingerprint& first,
                      const RunFingerprint& second) {
  EXPECT_EQ(first.trace, second.trace) << "same-seed trace diverged";
  EXPECT_EQ(first.obs, second.obs) << "same-seed obs document diverged";
  EXPECT_EQ(first.events_dispatched, second.events_dispatched);
  EXPECT_EQ(first.wakes_scheduled, second.wakes_scheduled);
  EXPECT_EQ(first.stale_wakes_skipped, second.stale_wakes_skipped);
  EXPECT_EQ(first.processes_spawned, second.processes_spawned);
}

TEST(SimBackend, RoutedWorkloadIsByteIdenticalAcrossReruns) {
  RunFingerprint first = routed_workload();
  RunFingerprint second = routed_workload();
  ASSERT_FALSE(first.trace.empty());
  expect_identical(first, second);
}

TEST(SimBackend, RebuildWorkloadIsByteIdenticalAcrossReruns) {
  RunFingerprint first = rebuild_workload();
  RunFingerprint second = rebuild_workload();
  ASSERT_FALSE(first.trace.empty());
  expect_identical(first, second);
}

// Mirror of RaceDetectorSim.DroppedChannelItemsReleaseSnapshots, with the
// extra twist that teardown must also unwind a parked daemon fiber: its
// stack unwinds via ProcessKilled, the abandoned channel's destructor drops
// the undelivered items, and the race detector ends with zero outstanding
// tokens.
TEST(SimBackend, FiberTeardownDropsParkedDaemonsAndUndeliveredItems) {
  sim::Runtime rt(/*num_nodes=*/1);
  rt.enable_race_check();
  ASSERT_NE(rt.race(), nullptr);
  {
    auto abandoned = rt.make_channel<int>(/*node=*/0);
    auto idle = rt.make_channel<int>(/*node=*/0);
    rt.spawn(0, "fire-and-forget", [&](sim::Context& ctx) {
      ctx.send(*abandoned, 1, /*payload_bytes=*/4);
      ctx.send(*abandoned, 2, /*payload_bytes=*/4);
    });
    rt.spawn(0, "parked-daemon", [&](sim::Context& ctx) {
      ctx.set_daemon();
      // Parks forever: nothing ever sends on `idle`.  Scheduler teardown
      // must unwind this fiber's stack without delivering anything.
      (void)idle->recv();
      ADD_FAILURE() << "daemon should never be woken with an item";
    });
    rt.run();
    EXPECT_FALSE(rt.scheduler().deadlocked());
    EXPECT_EQ(rt.race()->outstanding_tokens(), 2u);
  }  // Runtime (and Scheduler) destroyed: daemon unwound, channels drained
  SUCCEED();
}

// Sequential (non-overlapping) process lifetimes must share one pooled
// stack: the pool allocates on first dispatch and recycles on exit.
TEST(SimBackend, StackPoolReusesStacksAfterProcessExit) {
  sim::Scheduler sched;
  for (int i = 0; i < 50; ++i) {
    // Staggered starts, no parking: lifetimes never overlap.
    sched.spawn(0, "seq" + std::to_string(i), [] {},
                sim::usec(static_cast<std::int64_t>(i) * 10));
  }
  sched.run();
  EXPECT_EQ(sched.stats().processes_spawned, 50u);
  EXPECT_EQ(sched.stats().fiber_stacks_allocated, 1u);
  EXPECT_EQ(sched.stats().fiber_stacks_reused, 49u);
  EXPECT_EQ(sched.stats().fiber_stack_live_peak, 1u);
}

// Overlapping lifetimes need distinct stacks; the pool's peak tracks the
// true concurrency, not the total spawn count.
TEST(SimBackend, StackPoolPeakTracksConcurrentProcesses) {
  sim::Scheduler sched;
  for (int i = 0; i < 8; ++i) {
    sched.spawn(0, "olap" + std::to_string(i), [&sched] {
      sched.sleep_until(sched.now() + sim::usec(100));  // all 8 overlap
    });
  }
  sched.run();
  EXPECT_EQ(sched.stats().fiber_stacks_allocated, 8u);
  EXPECT_EQ(sched.stats().fiber_stack_live_peak, 8u);
}

// 10k short-lived processes churning through the scheduler.  Must complete, and must do it with a
// bounded stack pool (one wave's worth), not 10k stacks.
TEST(SimBackend, TenThousandProcessChurn) {
  sim::Scheduler sched;
  std::uint64_t completed = 0;
  constexpr std::uint64_t kWaves = 100;
  constexpr std::uint64_t kWaveSize = 100;
  for (std::uint64_t wave = 0; wave < kWaves; ++wave) {
    for (std::uint64_t i = 0; i < kWaveSize; ++i) {
      sched.spawn(0, "churn", [&sched, &completed] {
        sched.sleep_until(sched.now() + sim::usec(1));
        ++completed;
      });
    }
    sched.run();
    ASSERT_FALSE(sched.deadlocked());
  }
  EXPECT_EQ(completed, kWaves * kWaveSize);
  EXPECT_EQ(sched.stats().processes_spawned, kWaves * kWaveSize);
  EXPECT_LE(sched.stats().fiber_stacks_allocated, kWaveSize);
  EXPECT_GE(sched.stats().fiber_stacks_reused,
            kWaves * kWaveSize - kWaveSize);
}

}  // namespace
}  // namespace bridge
