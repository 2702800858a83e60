// Copy tool + filter family: correctness, locality (messages stay on-node),
// speedup with p, scan-only summaries, and error paths.
#include <gtest/gtest.h>

#include "src/core/instance.hpp"
#include "src/tools/copy.hpp"

namespace bridge::tools {
namespace {

using core::BridgeClient;
using core::BridgeInstance;
using core::SystemConfig;

SystemConfig cfg(std::uint32_t p, std::uint32_t blocks_per_lfs = 1024) {
  return SystemConfig::paper_profile(p, blocks_per_lfs);
}

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  const char* text = "The quick brown fox jumps over the lazy dog\n";
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(text[(tag + i) % 44]));
  }
  return data;
}

void make_file(BridgeInstance& inst, const std::string& name, std::uint32_t n) {
  inst.run_client("mkfile", [&, n](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create(name).is_ok());
    auto open = client.open(name);
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
  });
  inst.run();
}

void expect_file_equals(BridgeInstance& inst, const std::string& name,
                        std::uint32_t n,
                        std::function<std::vector<std::byte>(std::uint32_t)> want) {
  int matched = 0;
  inst.run_client("check", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open(name);
    ASSERT_TRUE(open.is_ok());
    ASSERT_EQ(open.value().meta.size_blocks, n);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto r = client.seq_read(open.value().session);
      ASSERT_TRUE(r.is_ok());
      if (r.value().data == want(i)) ++matched;
    }
  });
  inst.run();
  EXPECT_EQ(matched, static_cast<int>(n));
}

TEST(CopyTool, CopiesEveryBlock) {
  BridgeInstance inst(cfg(4));
  make_file(inst, "src", 37);  // deliberately not a multiple of p
  CopyReport report;
  inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
    auto result = run_copy_tool(ctx, client, "src", "dst");
    ASSERT_TRUE(result.is_ok());
    report = result.value();
  });
  inst.run();
  EXPECT_EQ(report.blocks, 37u);
  EXPECT_EQ(report.workers, 4u);
  expect_file_equals(inst, "dst", 37, record);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(CopyTool, CopyTrafficStaysLocal) {
  // The ecopy inner loop is node-local: remote traffic (startup, directory
  // chatter) must not scale with file size.
  BridgeInstance inst(cfg(4));
  make_file(inst, "src", 64);
  auto remote_before = inst.runtime().message_stats().remote_bytes;
  inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
    ASSERT_TRUE(run_copy_tool(ctx, client, "src", "dst").is_ok());
  });
  inst.run();
  auto remote_copy = inst.runtime().message_stats().remote_bytes - remote_before;
  // 64 blocks = 64KB of data; remote traffic should be far below one pass of
  // the data over the interconnect.
  EXPECT_LT(remote_copy, 16'000u);
}

TEST(CopyTool, NearLinearSpeedup) {
  // Large enough that per-block work dominates the fixed startup cost (the
  // paper's sequential create initiation plus two directory opens, ~400 ms
  // regardless of file size): the extent layout roughly halved the p=2
  // per-block cost, so small files under-report the scaling.
  constexpr std::uint32_t kBlocks = 1024;
  auto time_for = [&](std::uint32_t p) {
    BridgeInstance inst(cfg(p, 1280));
    make_file(inst, "src", kBlocks);
    sim::SimTime elapsed{};
    inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
      auto result = run_copy_tool(ctx, client, "src", "dst");
      ASSERT_TRUE(result.is_ok());
      elapsed = result.value().elapsed;
    });
    inst.run();
    return elapsed;
  };
  auto t2 = time_for(2);
  auto t8 = time_for(8);
  double speedup = static_cast<double>(t2.us()) / static_cast<double>(t8.us());
  EXPECT_GT(speedup, 2.8) << "t2=" << t2.to_string() << " t8=" << t8.to_string();
  EXPECT_LT(speedup, 4.5);
}

TEST(CopyTool, DestinationIsCreatedThroughTheTree) {
  // Startup is Get Info, Open src and Create dst; dst is never Opened.  At
  // p=8 a sequential width-8 Create charges 8 dispatch and 8 reply costs,
  // the embedded tree ceil(log2 9) = 4 of each.
  BridgeInstance inst(cfg(8));
  make_file(inst, "src", 16);
  const core::BridgeConfig& bridge = inst.config().bridge;
  sim::SimTime per_lfs = bridge.create_dispatch_cpu + bridge.create_reply_cpu;
  std::uint64_t requests_before = inst.server().stats().requests;
  CopyReport report;
  inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
    auto result = run_copy_tool(ctx, client, "src", "dst");
    ASSERT_TRUE(result.is_ok());
    report = result.value();
  });
  inst.run();
  EXPECT_EQ(inst.server().stats().requests - requests_before, 3u);
  sim::SimTime base = bridge.open_cpu + bridge.create_base_cpu;
  EXPECT_GE(report.startup, base + 4 * per_lfs);
  EXPECT_LT(report.startup, base + 8 * per_lfs);
  EXPECT_LT(report.startup, report.elapsed);
  expect_file_equals(inst, "dst", 16, record);
}

TEST(CopyTool, Rot13IsSelfInverse) {
  BridgeInstance inst(cfg(3));
  make_file(inst, "src", 12);
  CopyOptions rot;
  rot.filter_factory = [] {
    return std::unique_ptr<BlockFilter>(std::make_unique<Rot13Filter>());
  };
  inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
    ASSERT_TRUE(run_copy_tool(ctx, client, "src", "enc", rot).is_ok());
    ASSERT_TRUE(run_copy_tool(ctx, client, "enc", "dec", rot).is_ok());
  });
  inst.run();
  expect_file_equals(inst, "dec", 12, record);
  // And the intermediate is NOT the plaintext.
  int same = 0;
  inst.run_client("check2", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open("enc");
    ASSERT_TRUE(open.is_ok());
    auto r = client.seq_read(open.value().session);
    ASSERT_TRUE(r.is_ok());
    if (r.value().data == record(0)) ++same;
  });
  inst.run();
  EXPECT_EQ(same, 0);
}

TEST(CopyTool, XorEncryptionRoundTrips) {
  BridgeInstance inst(cfg(4));
  make_file(inst, "src", 16);
  CopyOptions enc;
  enc.filter_factory = [] {
    return std::unique_ptr<BlockFilter>(std::make_unique<XorEncryptFilter>());
  };
  inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
    ASSERT_TRUE(run_copy_tool(ctx, client, "src", "enc", enc).is_ok());
    ASSERT_TRUE(run_copy_tool(ctx, client, "enc", "dec", enc).is_ok());
  });
  inst.run();
  expect_file_equals(inst, "dec", 16, record);
}

TEST(CopyTool, UppercaseTransformApplies) {
  BridgeInstance inst(cfg(2));
  make_file(inst, "src", 6);
  CopyOptions upper;
  upper.filter_factory = [] {
    return std::unique_ptr<BlockFilter>(std::make_unique<UppercaseFilter>());
  };
  inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
    ASSERT_TRUE(run_copy_tool(ctx, client, "src", "up", upper).is_ok());
  });
  inst.run();
  expect_file_equals(inst, "up", 6, [](std::uint32_t i) {
    auto data = record(i);
    for (auto& b : data) {
      auto c = static_cast<unsigned char>(b);
      if (c >= 'a' && c <= 'z') b = std::byte(c - 'a' + 'A');
    }
    return data;
  });
}

TEST(ScanTool, GrepCountsMatches) {
  BridgeInstance inst(cfg(4));
  make_file(inst, "src", 20);
  std::uint64_t matches = 0;
  inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
    CopyOptions grep;
    grep.filter_factory = [] {
      return std::unique_ptr<BlockFilter>(
          std::make_unique<GrepFilter>("fox"));
    };
    auto result = run_scan_tool(ctx, client, "src", grep);
    ASSERT_TRUE(result.is_ok());
    matches = result.value().summary;
  });
  inst.run();
  // Every block contains the repeating pangram; "fox" appears ~960/44 times
  // per block.
  EXPECT_GT(matches, 20u * 15u);
  EXPECT_LT(matches, 20u * 30u);
}

TEST(ScanTool, LexCountsLinesAndWords) {
  BridgeInstance inst(cfg(2));
  make_file(inst, "src", 4);
  std::uint64_t summary = 0;
  inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
    CopyOptions lex;
    lex.filter_factory = [] {
      return std::unique_ptr<BlockFilter>(std::make_unique<LexFilter>());
    };
    auto result = run_scan_tool(ctx, client, "src", lex);
    ASSERT_TRUE(result.is_ok());
    summary = result.value().summary;
  });
  inst.run();
  std::uint64_t lines = summary >> 32;
  std::uint64_t words = summary & 0xFFFFFFFF;
  EXPECT_GT(lines, 4u * 15u);
  EXPECT_GT(words, lines * 5);
}

TEST(ScanTool, ChecksumMatchesBetweenCopies) {
  BridgeInstance inst(cfg(3));
  make_file(inst, "src", 15);
  std::uint64_t sum_src = 0, sum_dst = 1;
  inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
    ASSERT_TRUE(run_copy_tool(ctx, client, "src", "dst").is_ok());
    CopyOptions ck;
    ck.filter_factory = [] {
      return std::unique_ptr<BlockFilter>(std::make_unique<ChecksumFilter>());
    };
    auto a = run_scan_tool(ctx, client, "src", ck);
    auto b = run_scan_tool(ctx, client, "dst", ck);
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    sum_src = a.value().summary;
    sum_dst = b.value().summary;
  });
  inst.run();
  EXPECT_EQ(sum_src, sum_dst);
}

TEST(CopyTool, RejectsMisplacedSourceBlock) {
  // LFS 0's local block 1 (global block 4) is overwritten with its local
  // block 0: a checksum-valid block in the wrong place.  The server refuses
  // to read it, and so must the copy: it may not re-stamp it as dst's
  // block 4.
  BridgeInstance inst(cfg(4));
  make_file(inst, "src", 16);
  inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
    auto open = client.open("src");
    ASSERT_TRUE(open.is_ok());
    ASSERT_EQ(open.value().meta.start_lfs, 0u);
    efs::FileId id = open.value().meta.lfs_file_id;
    auto env = discover(client);
    ASSERT_TRUE(env.is_ok());
    auto lfs = env.value().make_lfs_clients(client.rpc());
    auto local0 = lfs[0]->read(id, 0);
    ASSERT_TRUE(local0.is_ok());
    ASSERT_TRUE(lfs[0]->write(id, 1, local0.value()).is_ok());
    EXPECT_EQ(client.random_read(open.value().meta.id, 4).status().code(),
              util::ErrorCode::kCorrupt);

    auto copied = run_copy_tool(ctx, client, "src", "dst");
    EXPECT_EQ(copied.status().code(), util::ErrorCode::kCorrupt)
        << copied.status().to_string();
    auto dst = client.open("dst");
    if (dst.is_ok()) {
      EXPECT_FALSE(client.random_read(dst.value().meta.id, 4).is_ok());
    } else {
      EXPECT_EQ(dst.status().code(), util::ErrorCode::kNotFound);
    }
  });
  inst.run();
}

TEST(CopyTool, MissingSourceFails) {
  BridgeInstance inst(cfg(2));
  inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
    EXPECT_EQ(run_copy_tool(ctx, client, "nope", "dst").status().code(),
              util::ErrorCode::kNotFound);
    EXPECT_EQ(run_copy_tool(ctx, client, "nope", "").status().code(),
              util::ErrorCode::kInvalidArgument);
  });
  inst.run();
}

TEST(CopyTool, EmptySourceCopiesEmptily) {
  BridgeInstance inst(cfg(2));
  make_file(inst, "src", 0);
  inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
    auto result = run_copy_tool(ctx, client, "src", "dst");
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result.value().blocks, 0u);
  });
  inst.run();
}

TEST(CopyTool, SequentialFanoutAlsoWorks) {
  BridgeInstance inst(cfg(4));
  make_file(inst, "src", 16);
  CopyOptions seq;
  seq.fanout.tree = false;
  inst.run_client("tool", [&](sim::Context& ctx, BridgeClient& client) {
    auto result = run_copy_tool(ctx, client, "src", "dst", seq);
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result.value().blocks, 16u);
  });
  inst.run();
  expect_file_equals(inst, "dst", 16, record);
}

}  // namespace
}  // namespace bridge::tools
