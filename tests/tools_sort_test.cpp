// Sort tool: output sorted + permutation of input (property, multiple p and
// sizes), merge invariants, phase reporting, degenerate inputs, cleanup after
// success and failure, concurrent sorts, the sort's Bridge and local-phase LFS
// traffic, and the rank merge against the token tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <tuple>

#include "src/core/instance.hpp"
#include "src/tools/sort/local_sort.hpp"
#include "src/tools/sort/sort_tool.hpp"

namespace bridge::tools {
namespace {

using core::BridgeClient;
using core::BridgeInstance;
using core::SystemConfig;

SystemConfig cfg(std::uint32_t p, std::uint32_t blocks_per_lfs = 2048) {
  return SystemConfig::paper_profile(p, blocks_per_lfs);
}

constexpr SortMerge kBothMerges[] = {SortMerge::kTokenTree, SortMerge::kRank};

const char* merge_name(SortMerge merge) {
  return merge == SortMerge::kRank ? "rank" : "token tree";
}

/// A record whose payload starts with the little-endian key, then filler
/// derived from the key (so payload identity follows key identity).
std::vector<std::byte> keyed_record(std::uint64_t key) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  util::Writer w;
  w.u64(key);
  std::copy(w.buffer().begin(), w.buffer().end(), data.begin());
  for (std::size_t i = 8; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>((key * 131 + i) & 0xFF));
  }
  return data;
}

/// A record with key `key` whose filler names `tag`, so records with equal
/// keys stay distinguishable.
std::vector<std::byte> tagged_record(std::uint64_t key, std::uint64_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  util::Writer w;
  w.u64(key);
  w.u64(tag);
  std::copy(w.buffer().begin(), w.buffer().end(), data.begin());
  return data;
}

std::uint64_t record_tag(std::span<const std::byte> payload) {
  util::Reader r(payload.subspan(8, 8));
  return r.u64();
}

void make_file(BridgeInstance& inst, const std::string& name,
               const std::vector<std::vector<std::byte>>& records) {
  inst.run_client("mkfile", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create(name).is_ok());
    auto open = client.open(name);
    ASSERT_TRUE(open.is_ok());
    for (const auto& record : records) {
      ASSERT_TRUE(client.seq_write(open.value().session, record).is_ok());
    }
  });
  inst.run();
}

void make_keyed_file(BridgeInstance& inst, const std::string& name,
                     const std::vector<std::uint64_t>& keys) {
  std::vector<std::vector<std::byte>> records;
  for (auto key : keys) records.push_back(keyed_record(key));
  make_file(inst, name, records);
}

/// Every block of `name` as its LFSs store it, header included, in
/// (constituent, local block) order.
std::vector<std::vector<std::byte>> raw_blocks(BridgeInstance& inst,
                                               const std::string& name) {
  std::vector<std::vector<std::byte>> blocks;
  inst.run_client("raw", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open(name);
    ASSERT_TRUE(open.is_ok());
    const core::FileMeta& meta = open.value().meta;
    auto env = discover(client);
    ASSERT_TRUE(env.is_ok());
    auto lfs = env.value().make_lfs_clients(client.rpc());
    for (std::uint32_t j = 0; j < meta.width; ++j) {
      std::uint64_t count = meta.size_blocks / meta.width +
                            (j < meta.size_blocks % meta.width ? 1 : 0);
      auto& efs = *lfs[(meta.start_lfs + j) % env.value().num_lfs()];
      for (std::uint32_t l = 0; l < count; ++l) {
        auto block = efs.read(meta.lfs_file_id, l);
        ASSERT_TRUE(block.is_ok()) << block.status().to_string();
        blocks.push_back(std::move(block).value());
      }
    }
  });
  inst.run();
  return blocks;
}

/// Every record of `name`, in file order.
std::vector<std::vector<std::byte>> read_records(BridgeInstance& inst,
                                                 const std::string& name) {
  std::vector<std::vector<std::byte>> records;
  inst.run_client("readback", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open(name);
    ASSERT_TRUE(open.is_ok());
    for (std::uint64_t i = 0; i < open.value().meta.size_blocks; ++i) {
      auto r = client.seq_read(open.value().session);
      ASSERT_TRUE(r.is_ok());
      records.push_back(std::move(r.value().data));
    }
  });
  inst.run();
  return records;
}

/// Sort `input` into `sorted` with `merge` and in-core capacity `c`.
void sort_with(BridgeInstance& inst, SortMerge merge, std::uint32_t c) {
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    SortOptions options;
    options.merge = merge;
    options.tuning.in_core_records = c;
    auto result = run_sort_tool(ctx, client, "input", "sorted", options);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  });
  inst.run();
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
}

/// Read the whole file back and return its keys in order; also verifies
/// each record's payload matches its key.
std::vector<std::uint64_t> read_keys(BridgeInstance& inst,
                                     const std::string& name) {
  std::vector<std::uint64_t> keys;
  for (const auto& record : read_records(inst, name)) {
    std::uint64_t key = record_key(record);
    EXPECT_EQ(record, keyed_record(key)) << "payload mangled";
    keys.push_back(key);
  }
  return keys;
}

void check_sorted_permutation(std::vector<std::uint64_t> input,
                              const std::vector<std::uint64_t>& output) {
  ASSERT_EQ(input.size(), output.size());
  EXPECT_TRUE(std::is_sorted(output.begin(), output.end()));
  std::sort(input.begin(), input.end());
  EXPECT_EQ(input, output);
}

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next_u64() % 100000;
  return keys;
}

struct SortCase {
  std::uint32_t p;
  std::uint32_t records;
  std::uint32_t in_core;
  std::uint32_t fanin = 2;
};

class SortProperty : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortProperty, SortsToPermutation) {
  auto param = GetParam();
  for (SortMerge merge : kBothMerges) {
    SCOPED_TRACE(merge_name(merge));
    BridgeInstance inst(cfg(param.p));
    auto keys = random_keys(param.records, 1234 + param.p);
    make_keyed_file(inst, "input", keys);

    SortReport report;
    inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
      SortOptions options;
      options.merge = merge;
      options.tuning.in_core_records = param.in_core;
      options.tuning.local_merge_fanin = param.fanin;
      auto result = run_sort_tool(ctx, client, "input", "sorted", options);
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      report = result.value();
    });
    inst.run();
    ASSERT_FALSE(inst.runtime().scheduler().deadlocked());

    EXPECT_EQ(report.records, param.records);
    check_sorted_permutation(keys, read_keys(inst, "sorted"));
    EXPECT_TRUE(inst.verify_all_lfs().is_ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SortProperty,
    ::testing::Values(
        SortCase{2, 64, 8},       // several local merge passes
        SortCase{4, 100, 16},     // non-multiple of p
        SortCase{4, 16, 64},      // in-core only (no local merges)
        SortCase{8, 128, 8},      // deep global merge tree
        SortCase{3, 50, 8},       // non-power-of-two p
        SortCase{1, 20, 4},       // degenerate single LFS
        SortCase{8, 8, 16},       // one record per node
        SortCase{4, 3, 16},       // fewer records than nodes
        SortCase{2, 120, 8, 8},   // 8-way local merges (§5.2 fix)
        SortCase{4, 90, 8, 4},    // 4-way local merges
        SortCase{2, 64, 8, 16}));  // fan-in exceeds run count

TEST(SortTool, DuplicateKeysSurvive) {
  BridgeInstance inst(cfg(4));
  std::vector<std::uint64_t> keys(40, 7);  // all equal
  for (std::size_t i = 0; i < 10; ++i) keys[i * 4] = i;
  make_keyed_file(inst, "input", keys);
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    SortOptions options;
    options.tuning.in_core_records = 8;
    ASSERT_TRUE(run_sort_tool(ctx, client, "input", "sorted", options).is_ok());
  });
  inst.run();
  check_sorted_permutation(keys, read_keys(inst, "sorted"));
}

TEST(SortTool, AlreadySortedInput) {
  BridgeInstance inst(cfg(4));
  std::vector<std::uint64_t> keys(60);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  make_keyed_file(inst, "input", keys);
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    SortOptions options;
    options.tuning.in_core_records = 16;
    ASSERT_TRUE(run_sort_tool(ctx, client, "input", "sorted", options).is_ok());
  });
  inst.run();
  check_sorted_permutation(keys, read_keys(inst, "sorted"));
}

TEST(SortTool, ReverseSortedInput) {
  BridgeInstance inst(cfg(4));
  std::vector<std::uint64_t> keys(60);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = keys.size() - i;
  make_keyed_file(inst, "input", keys);
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    SortOptions options;
    options.tuning.in_core_records = 16;
    ASSERT_TRUE(run_sort_tool(ctx, client, "input", "sorted", options).is_ok());
  });
  inst.run();
  check_sorted_permutation(keys, read_keys(inst, "sorted"));
}

TEST(SortTool, EmptyFileSorts) {
  BridgeInstance inst(cfg(4));
  make_keyed_file(inst, "input", {});
  SortReport report;
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    auto result = run_sort_tool(ctx, client, "input", "sorted");
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    report = result.value();
  });
  inst.run();
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
  EXPECT_EQ(report.records, 0u);
  EXPECT_TRUE(read_keys(inst, "sorted").empty());
}

TEST(SortTool, PhasesAreReportedAndIntermediatesCleaned) {
  // p=3 is odd: the token tree carries a run into a later pass, and must
  // still discard it there.  The rank merge makes one pass at any p.
  for (SortMerge merge : kBothMerges) {
    for (std::uint32_t p : {4u, 3u}) {
      SCOPED_TRACE(std::string(merge_name(merge)) + " p=" + std::to_string(p));
      BridgeInstance inst(cfg(p));
      make_keyed_file(inst, "input", random_keys(80, 9));
      SortReport report;
      inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
        SortOptions options;
        options.merge = merge;
        options.tuning.in_core_records = 8;
        auto result = run_sort_tool(ctx, client, "input", "sorted", options);
        ASSERT_TRUE(result.is_ok());
        report = result.value();
      });
      inst.run();
      EXPECT_GT(report.local_phase.us(), 0);
      EXPECT_GT(report.merge_phase.us(), 0);
      EXPECT_GE(report.total.us(),
                report.local_phase.us() + report.merge_phase.us());
      // ceil(log2(p)) token-tree passes; one rank pass.
      EXPECT_EQ(report.merge_passes, merge == SortMerge::kRank ? 1u : 2u);
      // Only "input" and "sorted" remain in the Bridge directory.
      EXPECT_EQ(inst.server().directory_size(), 2u);
      // Temp LFS files are gone; only the two files' constituents remain.
      for (std::uint32_t i = 0; i < p; ++i) {
        EXPECT_EQ(inst.lfs(i).core().file_count(), 2u) << "lfs " << i;
      }
      check_sorted_permutation(random_keys(80, 9), read_keys(inst, "sorted"));
    }
  }
}

TEST(SortTool, TwoConcurrentSortsOnOneMachine) {
  // Local temps and merge outputs are named by the sort's own dst, so two
  // sorts running at once on the same LFSs never collide.
  BridgeInstance inst(cfg(4));
  auto keys_a = random_keys(80, 21);
  auto keys_b = random_keys(80, 22);
  make_keyed_file(inst, "in_a", keys_a);
  make_keyed_file(inst, "in_b", keys_b);
  for (const char* tag : {"a", "b"}) {
    std::string src = std::string("in_") + tag;
    std::string dst = std::string("out_") + tag;
    inst.run_client(std::string("sorter_") + tag,
                    [src, dst](sim::Context& ctx, BridgeClient& client) {
                      SortOptions options;
                      options.tuning.in_core_records = 8;
                      auto result =
                          run_sort_tool(ctx, client, src, dst, options);
                      EXPECT_TRUE(result.is_ok())
                          << dst << ": " << result.status().to_string();
                    });
  }
  inst.run();
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
  check_sorted_permutation(keys_a, read_keys(inst, "out_a"));
  check_sorted_permutation(keys_b, read_keys(inst, "out_b"));
  EXPECT_EQ(inst.server().directory_size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(inst.lfs(i).core().file_count(), 4u) << "lfs " << i;
  }
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

/// Only `name`'s blocks remain: one Bridge file, one constituent per LFS,
/// and every LFS passes its integrity walk.
void expect_only(BridgeInstance& inst, std::uint32_t p) {
  EXPECT_EQ(inst.server().directory_size(), 1u);
  for (std::uint32_t i = 0; i < p; ++i) {
    EXPECT_EQ(inst.lfs(i).core().file_count(), 1u) << "lfs " << i;
  }
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(SortTool, FailedSortLeavesNoDebris) {
  // Each LFS holds 40 input records.  With c >= 40 a token-tree local sort
  // writes its run directly, and the rank sort keeps the records in core.
  // The token local phase needs 80 data blocks per LFS (input + run) and a
  // token pass 120 (input, its inputs and its output), so a 100-block disk
  // fails in a token pass and a 60-block one in the local phase.  The rank
  // scatter needs 80 (input + dst): a 64-block disk runs out of space while
  // dst is appended, with parcels in flight, and every worker is released.
  // With c = 16 the rank local sort writes temps and a run, and a 60-block
  // disk fails before any worker reports its keys.
  struct Case {
    const char* phase;
    SortMerge merge;
    std::uint32_t blocks_per_lfs;
    std::uint32_t in_core;
    std::vector<const char*> workers;  ///< every worker name spawned
  };
  for (const Case& c :
       {Case{"token merge", SortMerge::kTokenTree, 100, 64,
             {"lsort@", "merge-wr"}},
        Case{"rank scatter", SortMerge::kRank, 64, 64, {"rank@"}},
        Case{"token local", SortMerge::kTokenTree, 60, 64, {"lsort@"}},
        Case{"rank local", SortMerge::kRank, 60, 16, {"rank@"}}}) {
    SCOPED_TRACE(c.phase);
    BridgeInstance inst(cfg(4, c.blocks_per_lfs));
    make_keyed_file(inst, "input", random_keys(160, 5));
    inst.runtime().tracer().enable();  // names every process it spawns
    inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
      SortOptions options;
      options.merge = c.merge;
      options.tuning.in_core_records = c.in_core;
      auto result = run_sort_tool(ctx, client, "input", "sorted", options);
      EXPECT_EQ(result.status().code(), util::ErrorCode::kOutOfSpace)
          << result.status().to_string();
    });
    inst.run();
    ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
    std::string trace = inst.runtime().tracer().chrome_trace_json();
    for (const char* worker : {"lsort@", "merge-wr", "rank@"}) {
      bool expected = std::find_if(c.workers.begin(), c.workers.end(),
                                   [&](const char* spawned) {
                                     return std::string(spawned) == worker;
                                   }) != c.workers.end();
      EXPECT_EQ(trace.find(worker) != std::string::npos, expected) << worker;
    }
    // dst, its runs and its private files are gone; only the input remains.
    expect_only(inst, 4);
  }
}

TEST(SortTool, RankWorkerThatFailsBeforeItsReportReleasesTheOthers) {
  // LFS 2's local block 1 is overwritten with its local block 0, so its
  // rank worker fails in its local sort, before it reports its keys.  The
  // other three report and park on their plans; the controller releases
  // them with the error, and nothing is left behind.
  BridgeInstance inst(cfg(4));
  make_keyed_file(inst, "input", random_keys(80, 7));
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    auto open = client.open("input");
    ASSERT_TRUE(open.is_ok());
    ASSERT_EQ(open.value().meta.start_lfs, 0u);
    efs::FileId id = open.value().meta.lfs_file_id;
    auto env = discover(client);
    ASSERT_TRUE(env.is_ok());
    auto lfs = env.value().make_lfs_clients(client.rpc());
    auto local0 = lfs[2]->read(id, 0);
    ASSERT_TRUE(local0.is_ok());
    ASSERT_TRUE(lfs[2]->write(id, 1, local0.value()).is_ok());

    SortOptions options;
    options.tuning.in_core_records = 64;
    auto result = run_sort_tool(ctx, client, "input", "sorted", options);
    EXPECT_EQ(result.status().code(), util::ErrorCode::kCorrupt)
        << result.status().to_string();
  });
  inst.run();
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
  expect_only(inst, 4);
}

TEST(SortTool, DiskFailureDuringTheScatterFailsTheSort) {
  // A first sort measures the phases; a second, identical one loses LFS
  // 1's disk halfway through its scatter.  LFS 1's next disk access fails,
  // its worker fails, the controller releases the other workers, and the
  // sort returns the disk's error.  The disk comes back right after that
  // first failed request, before the controller cleans up, so nothing is
  // left behind.
  constexpr std::uint32_t kP = 4;
  auto sort_once = [&](std::optional<sim::SimTime> fail_at,
                       SortReport* report) {
    BridgeInstance inst(cfg(kP));
    make_keyed_file(inst, "input", random_keys(800, 13));
    if (fail_at) {
      // LFS 1 runs on node 1; the disk returns once LFS 1 has replied
      // with its first error.
      obs::Counter& errors =
          inst.runtime().metrics().counter("rpc.n1.error_replies");
      inst.runtime().spawn(0, "fault", [&](sim::Context& ctx) {
        ctx.sleep(*fail_at);
        std::uint64_t before = errors.value();
        inst.lfs(1).disk().fail();
        while (errors.value() == before) ctx.sleep(sim::usec(100));
        inst.lfs(1).disk().repair();
      });
    }
    util::Status status = util::ok_status();
    inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
      SortOptions options;
      options.tuning.in_core_records = 256;
      auto result = run_sort_tool(ctx, client, "input", "sorted", options);
      status = result.status();
      if (result.is_ok()) *report = result.value();
    });
    inst.run();
    EXPECT_FALSE(inst.runtime().scheduler().deadlocked());
    if (fail_at) {
      EXPECT_EQ(status.code(), util::ErrorCode::kUnavailable)
          << status.to_string();
      expect_only(inst, kP);
    } else {
      EXPECT_TRUE(status.is_ok()) << status.to_string();
    }
  };
  SortReport healthy;
  sort_once(std::nullopt, &healthy);
  ASSERT_GT(healthy.merge_phase.us(), 0);
  SortReport unused;
  sort_once(healthy.local_phase + sim::usec(healthy.merge_phase.us() / 2),
            &unused);
}

TEST(SortTool, RejectsMisplacedSourceBlock) {
  // LFS 0's local block 1 (global block 4) is overwritten with its local
  // block 0: a checksum-valid record in the wrong place.  The sort must
  // fail rather than sort a duplicate in, and leave nothing behind.
  BridgeInstance inst(cfg(4));
  make_keyed_file(inst, "input", random_keys(80, 7));
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    auto open = client.open("input");
    ASSERT_TRUE(open.is_ok());
    ASSERT_EQ(open.value().meta.start_lfs, 0u);
    efs::FileId id = open.value().meta.lfs_file_id;
    auto env = discover(client);
    ASSERT_TRUE(env.is_ok());
    auto lfs = env.value().make_lfs_clients(client.rpc());
    auto local0 = lfs[0]->read(id, 0);
    ASSERT_TRUE(local0.is_ok());
    ASSERT_TRUE(lfs[0]->write(id, 1, local0.value()).is_ok());

    SortOptions options;
    options.tuning.in_core_records = 8;
    auto result = run_sort_tool(ctx, client, "input", "sorted", options);
    EXPECT_EQ(result.status().code(), util::ErrorCode::kCorrupt)
        << result.status().to_string();
  });
  inst.run();
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
  // dst, its runs and every temp are gone; only the input remains.
  EXPECT_EQ(inst.server().directory_size(), 1u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(inst.lfs(i).core().file_count(), 1u) << "lfs " << i;
  }
}

TEST(SortTool, BridgeTrafficIsThreeRequests) {
  // Get Info, Open src and Create dst, whatever the width and the merge:
  // sizes are computed, never asked for, and the runs and merge outputs are
  // tool-private.  Width 5 carries a run into a later token pass; width 1
  // sorts straight into dst.
  for (SortMerge merge : kBothMerges) {
    for (std::uint32_t p : {8u, 5u, 1u}) {
      SCOPED_TRACE(std::string(merge_name(merge)) + " p=" + std::to_string(p));
      BridgeInstance inst(cfg(p));
      make_keyed_file(inst, "input", random_keys(16 * p, 3));
      std::uint64_t before = inst.server().stats().requests;
      sort_with(inst, merge, 8);
      EXPECT_EQ(inst.server().stats().requests - before, 3u);
      check_sorted_permutation(random_keys(16 * p, 3),
                               read_keys(inst, "sorted"));
      EXPECT_EQ(inst.server().directory_size(), 2u);
      for (std::uint32_t i = 0; i < p; ++i) {
        EXPECT_EQ(inst.lfs(i).core().file_count(), 2u) << "lfs " << i;
      }
    }
  }
}

TEST(SortTool, DestinationIsCreatedThroughTheTree) {
  // The sort's three Bridge requests (Get Info, Open src, Create dst) spend
  // Open's and Create's CPU on the server.  At p=8 a sequential width-8
  // Create charges 8 dispatch and 8 reply costs, the embedded tree
  // ceil(log2 9) = 4 of each.
  BridgeInstance inst(cfg(8));
  make_keyed_file(inst, "input", random_keys(64, 5));
  const core::BridgeConfig& bridge = inst.config().bridge;
  auto per_lfs = (bridge.create_dispatch_cpu + bridge.create_reply_cpu).us();
  auto base = (bridge.open_cpu + bridge.create_base_cpu).us();
  const obs::Histogram* service = inst.runtime().metrics().find_histogram(
      "bridge.n" + std::to_string(inst.config().bridge_node()) + ".service_us");
  ASSERT_NE(service, nullptr);
  std::uint64_t before = service->sum();
  sort_with(inst, SortMerge::kRank, 8);
  auto spent = static_cast<std::int64_t>(service->sum() - before);
  EXPECT_GE(spent, base + 4 * per_lfs);
  EXPECT_LT(spent, base + 8 * per_lfs);
}

/// Occurrences of `needle` in `haystack`.
std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(SortTool, LocalPhaseMovesAWindowPerRequest) {
  // p=2, c=8: LFS 0 sorts 38 records and LFS 1 37.  Each forms runs of 8,
  // 8, 8, 8 and r (6 or 5) in temps, then merges them 2 ways in three
  // passes: 8+8 twice (r carries), 16+16 (r carries), and 32+r into the
  // run.  Every stream moves ceil(blocks / 8) blocks per LFS request: the
  // source, each run and merge output written, each merge input read.
  BridgeInstance inst(cfg(2));
  make_keyed_file(inst, "input", random_keys(75, 11));
  auto windows = [](std::uint64_t blocks) {
    return (blocks + kSortWindow - 1) / kSortWindow;
  };
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  inst.run_client("lsort", [&](sim::Context& ctx, BridgeClient& client) {
    auto open = client.open("input");
    ASSERT_TRUE(open.is_ok());
    const core::FileMeta& src = open.value().meta;
    ASSERT_EQ(src.start_lfs, 0u);
    auto env = discover(client);
    ASSERT_TRUE(env.is_ok());
    auto lfs = env.value().make_lfs_clients(client.rpc());
    auto run_id = tool_private_file_id(src.id, 0);
    ASSERT_TRUE(run_id.is_ok());
    inst.runtime().tracer().enable();
    for (std::uint32_t j = 0; j < 2; ++j) {
      ASSERT_TRUE(lfs[j]->create(run_id.value()).is_ok());
      LocalSortTask task;
      task.lfs_service = env.value().lfs_service(j);
      task.lfs_index = j;
      task.offset = j;
      task.src = src;
      task.run.width = 1;
      task.run.start_lfs = j;
      task.run.lfs_file_id = run_id.value();
      task.run.size_blocks = j == 0 ? 38 : 37;
      task.owner = src.id;
      task.tuning.in_core_records = 8;
      auto sorted = run_local_sort(ctx, task);
      ASSERT_TRUE(sorted.is_ok()) << sorted.status().to_string();
      EXPECT_EQ(sorted.value().merge_passes, 3u);
      std::uint64_t n = task.run.size_blocks;
      std::uint64_t r = n - 32;
      reads += windows(n) + 4 * windows(8) + 2 * windows(16) + windows(32) +
               windows(r);
      writes += 4 * windows(8) + windows(r) + 2 * windows(16) + windows(32) +
                windows(n);
    }
  });
  inst.run();
  EXPECT_EQ(reads, 36u);
  EXPECT_EQ(writes, 36u);
  std::string trace = inst.runtime().tracer().chrome_trace_json();
  // Two creates are the runs'; each local sort created 8 temps and removed
  // them all.
  EXPECT_EQ(count_of(trace, "\"efs.ReadMany\""), reads);
  EXPECT_EQ(count_of(trace, "\"efs.WriteMany\""), writes);
  EXPECT_EQ(count_of(trace, "\"efs.Create\""), 2u + 2 * 8);
  EXPECT_EQ(count_of(trace, "\"efs.Delete\""), 2u * 8);
}

TEST(SortTool, RankMergeMatchesTokenTree) {
  // Distinct keys: both merges write byte-identical dst blocks, headers
  // included, at every width, for sizes that are no multiple of the width
  // and for an empty file.  At 33p + 2 records (101 at p=3) each gather
  // worker walks three rounds of ranks, the last one partial.
  for (std::uint32_t p : {1u, 2u, 3u, 5u, 8u}) {
    for (std::uint32_t n : {0u, 4 * p + 1, 13 * p + p / 2 + 3, 33 * p + 2}) {
      SCOPED_TRACE("p=" + std::to_string(p) + " n=" + std::to_string(n));
      std::vector<std::uint64_t> keys(n);
      for (std::uint32_t i = 0; i < n; ++i) keys[i] = 7 * i + 3;
      sim::Rng rng(100 + n);
      for (std::uint32_t i = n; i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.next_u64() % i]);
      }
      std::vector<std::vector<std::vector<std::byte>>> dst;
      for (SortMerge merge : kBothMerges) {
        BridgeInstance inst(cfg(p));
        make_keyed_file(inst, "input", keys);
        sort_with(inst, merge, 8);
        dst.push_back(raw_blocks(inst, "sorted"));
        EXPECT_TRUE(inst.verify_all_lfs().is_ok());
      }
      EXPECT_EQ(dst[0].size(), n);
      EXPECT_EQ(dst[0], dst[1]);
    }
  }

  // Duplicate keys: both merges give the same key sequence and the same
  // multiset of records.  The local sort is stable and the rank merge
  // orders equal keys by (run, local index), so its output is the input
  // stably sorted by (key, i mod w, i div w).
  for (std::uint32_t p : {3u, 4u}) {
    SCOPED_TRACE("duplicates p=" + std::to_string(p));
    std::vector<std::vector<std::byte>> input;
    sim::Rng rng(77 + p);
    for (std::uint64_t i = 0; i < 90; ++i) {
      input.push_back(tagged_record(rng.next_u64() % 6, i));
    }
    std::vector<std::vector<std::vector<std::byte>>> out;
    for (SortMerge merge : kBothMerges) {
      BridgeInstance inst(cfg(p));
      make_file(inst, "input", input);
      sort_with(inst, merge, 8);
      out.push_back(read_records(inst, "sorted"));
    }
    const auto& token = out[0];
    const auto& rank = out[1];
    ASSERT_EQ(token.size(), input.size());
    ASSERT_EQ(rank.size(), input.size());
    for (std::size_t g = 0; g < input.size(); ++g) {
      EXPECT_EQ(record_key(token[g]), record_key(rank[g])) << "rank " << g;
    }
    // Tags are distinct, so ordering by tag puts each multiset in one order.
    auto by_tag = [](const auto& a, const auto& b) {
      return record_tag(a) < record_tag(b);
    };
    auto token_set = token;
    auto rank_set = rank;
    std::sort(token_set.begin(), token_set.end(), by_tag);
    std::sort(rank_set.begin(), rank_set.end(), by_tag);
    EXPECT_EQ(token_set, rank_set);

    std::vector<std::uint64_t> expected(input.size());
    for (std::uint64_t i = 0; i < expected.size(); ++i) expected[i] = i;
    auto order = [&](std::uint64_t i) {
      return std::tuple(record_key(input[i]), i % p, i / p);
    };
    std::sort(expected.begin(), expected.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                return order(a) < order(b);
              });
    for (std::size_t g = 0; g < rank.size(); ++g) {
      EXPECT_EQ(record_tag(rank[g]), expected[g]) << "rank " << g;
    }
  }
}

TEST(SortTool, MissingInputFails) {
  BridgeInstance inst(cfg(2));
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    EXPECT_EQ(run_sort_tool(ctx, client, "ghost", "out").status().code(),
              util::ErrorCode::kNotFound);
  });
  inst.run();
}

}  // namespace
}  // namespace bridge::tools
