// Create, Delete and Open fan out only to the LFSs a file spans.
//
// §4.5: "the Create operation must create an LFS file on each disk".  A file
// of width w only ever holds blocks on its w LFSs, so those are the disks
// its Create, Delete and Open (the size refresh) touch; a linked file may
// scatter anywhere and spans all p.  Each of those ops sends exactly one EFS
// message type, so the per-LFS scheduler enqueue count across one op is its
// per-LFS kCreate / kDelete / kInfo count.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/core/instance.hpp"
#include "src/efs/client.hpp"

namespace bridge::core {
namespace {

constexpr std::uint32_t kP = 8;

/// Per-LFS message counts: 1 on each listed LFS, 0 elsewhere.
std::vector<std::uint64_t> on(std::initializer_list<std::uint32_t> lfs) {
  std::vector<std::uint64_t> mask(kP, 0);
  for (auto i : lfs) mask[i] = 1;
  return mask;
}
const std::vector<std::uint64_t> kAll(kP, 1);

struct SpanCase {
  std::string name;
  CreateOptions options;
  std::vector<std::uint64_t> span;  ///< 1 on each LFS the file spans
};

/// Width p first, so its Create runs on a fresh machine exactly as it did
/// when every Create touched all p LFSs.
std::vector<SpanCase> span_cases() {
  CreateOptions one;
  one.width = 1;
  one.start_lfs = 3;
  CreateOptions wrap;
  wrap.width = 4;
  wrap.start_lfs = 6;
  CreateOptions linked;
  linked.distribution = Distribution::kLinked;
  linked.width = 2;
  linked.start_lfs = 5;
  return {{"full", CreateOptions{}, kAll},
          {"one", one, on({3})},
          {"wrap", wrap, on({6, 7, 0, 1})},
          {"linked", linked, kAll}};
}

/// Messages each LFS server has taken off its mailbox during `op`.
std::vector<std::uint64_t> per_lfs_messages(BridgeInstance& inst,
                                            const std::function<void()>& op) {
  std::vector<std::uint64_t> before(kP);
  for (std::uint32_t i = 0; i < kP; ++i) {
    before[i] = inst.lfs(i).sched_stats().enqueued;
  }
  op();
  std::vector<std::uint64_t> delta(kP);
  for (std::uint32_t i = 0; i < kP; ++i) {
    delta[i] = inst.lfs(i).sched_stats().enqueued - before[i];
  }
  return delta;
}

/// Per-LFS EfsCore create or delete counters.
std::vector<std::uint64_t> efs_counts(BridgeInstance& inst, bool creates) {
  std::vector<std::uint64_t> counts(kP);
  for (std::uint32_t i = 0; i < kP; ++i) {
    const auto& stats = inst.lfs(i).core().op_stats();
    counts[i] = creates ? stats.creates : stats.deletes;
  }
  return counts;
}

std::vector<std::uint64_t> minus(std::vector<std::uint64_t> a,
                                 const std::vector<std::uint64_t>& b) {
  for (std::uint32_t i = 0; i < kP; ++i) a[i] -= b[i];
  return a;
}

/// Which LFSs hold a constituent (directory entry) for `lfs_file_id`.
std::vector<std::uint64_t> constituents(BridgeInstance& inst,
                                        BridgeClient& client,
                                        std::uint32_t lfs_file_id) {
  std::vector<std::uint64_t> held(kP, 0);
  for (std::uint32_t i = 0; i < kP; ++i) {
    efs::EfsClient lfs(client.rpc(), inst.lfs(i).address());
    auto info = lfs.info(lfs_file_id);
    if (info.is_ok()) {
      held[i] = 1;
    } else {
      EXPECT_EQ(info.status().code(), util::ErrorCode::kNotFound);
    }
  }
  return held;
}

TEST(CreateSpan, CreateOpenDeleteTouchOnlyTheSpan) {
  BridgeInstance inst(SystemConfig::paper_profile(kP, 256));
  const std::vector<std::uint64_t> none(kP, 0);
  inst.run_client("c", [&](sim::Context& ctx, BridgeClient& client) {
    // Two rounds of the same four files: the first is deleted one Delete
    // at a time, the second by one DeleteMany that mixes the widths.
    for (int round = 0; round < 2; ++round) {
      std::vector<std::string> names;
      std::vector<std::uint64_t> delete_many_expected(kP, 0);
      for (const auto& c : span_cases()) {
        std::string name = c.name + std::to_string(round);
        names.push_back(name);
        SCOPED_TRACE(name);

        auto creates_before = efs_counts(inst, /*creates=*/true);
        sim::SimTime t0 = ctx.now();
        auto created = per_lfs_messages(inst, [&] {
          ASSERT_TRUE(client.create(name, c.options).is_ok());
        });
        sim::SimTime create_latency = ctx.now() - t0;
        EXPECT_EQ(created, c.span);
        EXPECT_EQ(minus(efs_counts(inst, true), creates_before), c.span);
        if (round == 0 && c.name == "full") {
          // Width p: 136 + 8 * (9 + 8) ms of server CPU plus the LFS
          // creates, unchanged from when every Create touched all p.
          EXPECT_EQ(create_latency.us(), 273'321);
        }

        std::uint32_t lfs_file_id = 0;
        auto opened = per_lfs_messages(inst, [&] {
          auto open = client.open(name);
          ASSERT_TRUE(open.is_ok());
          lfs_file_id = open.value().meta.lfs_file_id;
        });
        EXPECT_EQ(opened, c.span);
        EXPECT_EQ(constituents(inst, client, lfs_file_id), c.span);

        if (round == 0) {
          auto deletes_before = efs_counts(inst, /*creates=*/false);
          auto deleted = per_lfs_messages(
              inst, [&] { ASSERT_TRUE(client.remove(name).is_ok()); });
          EXPECT_EQ(deleted, c.span);
          EXPECT_EQ(minus(efs_counts(inst, false), deletes_before), c.span);
          EXPECT_EQ(constituents(inst, client, lfs_file_id), none);
        } else {
          for (std::uint32_t i = 0; i < kP; ++i) {
            delete_many_expected[i] += c.span[i];
          }
        }
      }
      if (round == 1) {
        auto deletes_before = efs_counts(inst, /*creates=*/false);
        auto deleted = per_lfs_messages(
            inst, [&] { ASSERT_TRUE(client.remove_many(names).is_ok()); });
        EXPECT_EQ(deleted, delete_many_expected);
        EXPECT_EQ(minus(efs_counts(inst, false), deletes_before),
                  delete_many_expected);
      }
    }
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

/// Virtual latency of one Create of `width` on a fresh p=8 machine, through
/// the embedded tree if `tree`.
std::int64_t create_latency_us(bool tree, std::uint32_t width) {
  BridgeInstance inst(SystemConfig::paper_profile(kP, 256));
  std::int64_t latency = -1;
  inst.run_client("c", [&](sim::Context& ctx, BridgeClient& client) {
    CreateOptions options;
    options.width = width;
    options.tree = tree;
    sim::SimTime t0 = ctx.now();
    ASSERT_TRUE(client.create("f", options).is_ok());
    latency = (ctx.now() - t0).us();
  });
  inst.run();
  return latency;
}

TEST(CreateSpan, TreeCreateLevelsComeFromTheSpanWidth) {
  // A one-LFS tree is one level: one dispatch and one reply charge, the
  // same as the flat fan-out.  Levels taken from p=8 would charge four.
  EXPECT_EQ(create_latency_us(/*tree=*/true, 1),
            create_latency_us(/*tree=*/false, 1));
  // Width 3 is two levels against three flat dispatches and replies.
  EXPECT_LT(create_latency_us(/*tree=*/true, 3),
            create_latency_us(/*tree=*/false, 3));
  // Wider spans cost more in either mode.
  EXPECT_LT(create_latency_us(/*tree=*/false, 1),
            create_latency_us(/*tree=*/false, kP));
  EXPECT_LT(create_latency_us(/*tree=*/true, 1),
            create_latency_us(/*tree=*/true, kP));
}

TEST(CreateSpan, TreeIsChosenPerRequest) {
  // One machine, one config: a naive Create keeps §4.5's sequential cost and
  // the next one, with the tree bit, costs the tree's.
  BridgeInstance inst(SystemConfig::paper_profile(kP, 256));
  std::int64_t naive = -1;
  std::int64_t tree = -1;
  inst.run_client("c", [&](sim::Context& ctx, BridgeClient& client) {
    auto timed = [&](const std::string& name, bool tree_bit) {
      CreateOptions options;
      options.tree = tree_bit;
      sim::SimTime t0 = ctx.now();
      EXPECT_TRUE(client.create(name, options).is_ok());
      return (ctx.now() - t0).us();
    };
    naive = timed("naive", false);
    tree = timed("tree", true);
  });
  inst.run();
  EXPECT_EQ(naive, 273'321);
  EXPECT_EQ(tree, 206'635);
  // Width 8 is ceil(log2 9) = 4 tree levels against 8 sequential dispatch
  // and reply charges: four fewer of each (4 x 17 ms), less the LFS latency
  // the sequential loop hid behind its later dispatches.
  EXPECT_GT(naive - tree, 3 * (9'000 + 8'000));
  EXPECT_LE(naive - tree, 4 * (9'000 + 8'000));
}

}  // namespace
}  // namespace bridge::core
