// Direct tests of the Figure-4 token-passing merge: unequal input widths,
// empty inputs, ordering invariants, and worker accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/instance.hpp"
#include "src/tools/sort/token_merge.hpp"

namespace bridge::tools {
namespace {

using core::BridgeClient;
using core::BridgeInstance;
using core::CreateOptions;
using core::FileMeta;

core::SystemConfig cfg(std::uint32_t p) {
  return core::SystemConfig::paper_profile(p, 1024);
}

std::vector<std::byte> keyed_record(std::uint64_t key) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  util::Writer w;
  w.u64(key);
  std::copy(w.buffer().begin(), w.buffer().end(), data.begin());
  return data;
}

/// Create a sorted width-`w` file at `start` holding `keys` (presorted by
/// the caller) and return its meta.
FileMeta make_sorted_file(BridgeInstance& inst, const std::string& name,
                          std::uint32_t width, std::uint32_t start,
                          std::vector<std::uint64_t> keys) {
  FileMeta meta;
  inst.run_client("mk-" + name, [&](sim::Context&, BridgeClient& client) {
    CreateOptions options;
    options.width = width;
    options.start_lfs = start;
    ASSERT_TRUE(client.create(name, options).is_ok());
    auto open = client.open(name);
    ASSERT_TRUE(open.is_ok());
    for (auto key : keys) {
      ASSERT_TRUE(client.seq_write(open.value().session, keyed_record(key))
                      .is_ok());
    }
    auto reopen = client.open(name);
    ASSERT_TRUE(reopen.is_ok());
    meta = reopen.value().meta;
  });
  inst.run();
  return meta;
}

/// Run one TokenMerge of `a` and `b` into `dst_name`; returns output keys.
std::vector<std::uint64_t> merge_and_read(BridgeInstance& inst, FileMeta a,
                                          FileMeta b,
                                          const std::string& dst_name) {
  auto keys = std::make_shared<std::vector<std::uint64_t>>();
  inst.run_client("merge-driver", [&, keys](sim::Context& ctx,
                                            BridgeClient& client) {
    auto env = discover(client);
    ASSERT_TRUE(env.is_ok());
    CreateOptions options;
    options.width = a.width + b.width;
    options.start_lfs = a.start_lfs;
    ASSERT_TRUE(client.create(dst_name, options).is_ok());
    auto dst_open = client.open(dst_name);
    ASSERT_TRUE(dst_open.is_ok());

    WorkerGroup<MergeWorkerResult> group(ctx, FanOutConfig{});
    TokenMerge merge(ctx, env.value(), a, b, dst_open.value().meta,
                     SortTuning{});
    merge.launch(group);
    ctx.sleep(sim::msec(1));
    merge.kick(ctx);
    auto merged = group.wait_all();
    ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();

    auto reopen = client.open(dst_name);
    ASSERT_TRUE(reopen.is_ok());
    for (std::uint64_t i = 0; i < reopen.value().meta.size_blocks; ++i) {
      auto r = client.seq_read(reopen.value().session);
      ASSERT_TRUE(r.is_ok());
      util::Reader key_reader(
          std::span<const std::byte>(r.value().data).subspan(0, 8));
      keys->push_back(key_reader.u64());
    }
  });
  inst.run();
  return *keys;
}

TEST(TokenMerge, EqualWidthMerge) {
  BridgeInstance inst(cfg(4));
  auto a = make_sorted_file(inst, "a", 2, 0, {1, 3, 5, 7, 9, 11});
  auto b = make_sorted_file(inst, "b", 2, 2, {2, 4, 6, 8, 10, 12});
  auto out = merge_and_read(inst, a, b, "out");
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                             11, 12}));
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
}

TEST(TokenMerge, UnequalWidths) {
  // Merging a 2-wide file with a 1-wide file into a 3-wide destination —
  // the non-power-of-two case the sort tool hits with odd run counts.
  BridgeInstance inst(cfg(4));
  auto a = make_sorted_file(inst, "a", 2, 0, {10, 20, 30, 40});
  auto b = make_sorted_file(inst, "b", 1, 2, {5, 25, 45});
  auto out = merge_and_read(inst, a, b, "out");
  EXPECT_EQ(out, (std::vector<std::uint64_t>{5, 10, 20, 25, 30, 40, 45}));
}

TEST(TokenMerge, OneEmptyInput) {
  BridgeInstance inst(cfg(4));
  auto a = make_sorted_file(inst, "a", 2, 0, {});
  auto b = make_sorted_file(inst, "b", 2, 2, {4, 8, 15});
  auto out = merge_and_read(inst, a, b, "out");
  EXPECT_EQ(out, (std::vector<std::uint64_t>{4, 8, 15}));
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
}

TEST(TokenMerge, BothEmpty) {
  BridgeInstance inst(cfg(4));
  auto a = make_sorted_file(inst, "a", 2, 0, {});
  auto b = make_sorted_file(inst, "b", 2, 2, {});
  auto out = merge_and_read(inst, a, b, "out");
  EXPECT_TRUE(out.empty());
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
}

TEST(TokenMerge, AllOfOneFileSmaller) {
  // Every key of A below every key of B: the token streams A end-to-end
  // first, then B via the end-flagged token.
  BridgeInstance inst(cfg(4));
  auto a = make_sorted_file(inst, "a", 2, 0, {1, 2, 3, 4});
  auto b = make_sorted_file(inst, "b", 2, 2, {100, 200, 300, 400});
  auto out = merge_and_read(inst, a, b, "out");
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 2, 3, 4, 100, 200, 300, 400}));
}

TEST(TokenMerge, DuplicateKeysAcrossFiles) {
  BridgeInstance inst(cfg(4));
  auto a = make_sorted_file(inst, "a", 2, 0, {5, 5, 7});
  auto b = make_sorted_file(inst, "b", 2, 2, {5, 6, 7});
  auto out = merge_and_read(inst, a, b, "out");
  EXPECT_EQ(out, (std::vector<std::uint64_t>{5, 5, 5, 6, 7, 7}));
}

TEST(TokenMerge, LargeInterleavedMergeSortedAndComplete) {
  BridgeInstance inst(cfg(8));
  std::vector<std::uint64_t> ka, kb;
  sim::Rng rng(31);
  for (int i = 0; i < 60; ++i) ka.push_back(rng.next_below(1000));
  for (int i = 0; i < 44; ++i) kb.push_back(rng.next_below(1000));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  auto a = make_sorted_file(inst, "a", 4, 0, ka);
  auto b = make_sorted_file(inst, "b", 4, 4, kb);
  auto out = merge_and_read(inst, a, b, "out");
  ASSERT_EQ(out.size(), ka.size() + kb.size());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  std::vector<std::uint64_t> expect = ka;
  expect.insert(expect.end(), kb.begin(), kb.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out, expect);
}

}  // namespace
}  // namespace bridge::tools
