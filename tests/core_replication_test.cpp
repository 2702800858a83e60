// Fault-tolerance extensions: mirroring and parity under single-LFS failure,
// plus DeleteMany and analysis-model sanity.
#include <gtest/gtest.h>

#include <map>

#include "src/core/analysis.hpp"
#include "src/core/instance.hpp"
#include "src/core/replication.hpp"

namespace bridge::core {
namespace {

SystemConfig cfg(std::uint32_t p) {
  return SystemConfig::paper_profile(p, 1024);
}

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 7 + i * 3));
  }
  return data;
}

TEST(MirroredFile, SurvivesSingleLfsFailure) {
  BridgeInstance inst(cfg(4));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t i = 0; i < 24; ++i) {
      ASSERT_TRUE(file.value().append(record(i)).is_ok());
    }
  });
  inst.run();

  inst.lfs(2).disk().fail();
  int recovered = 0, correct = 0;
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 24u);
    for (std::uint32_t i = 0; i < 24; ++i) {
      bool used_mirror = false;
      auto r = file.value().read(i, &used_mirror);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      if (r.value() == record(i)) ++correct;
      if (used_mirror) ++recovered;
    }
  });
  inst.run();
  EXPECT_EQ(correct, 24);
  EXPECT_EQ(recovered, 6);  // every 4th block lived on LFS 2
}

TEST(MirroredFile, MirrorPlacementAvoidsPrimaryLfs) {
  BridgeInstance inst(cfg(4));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(file.value().append(record(i)).is_ok());
    }
  });
  inst.run();
  // Primary holds 2 blocks per LFS; mirror adds 2 more: 4 appends per LFS.
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(inst.lfs(i).core().op_stats().appends, 4u) << "lfs " << i;
  }
}

TEST(MirroredFile, NeedsTwoLfs) {
  BridgeInstance inst(cfg(1));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    EXPECT_EQ(MirroredFile::open(ctx, client, "m").status().code(),
              util::ErrorCode::kInvalidArgument);
  });
  inst.run();
}

TEST(ParityFile, ReconstructsFailedLfsBlocks) {
  BridgeInstance inst(cfg(5));  // 4 data + 1 parity
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    EXPECT_EQ(file.value().data_width(), 4u);
    for (std::uint32_t stripe = 0; stripe < 6; ++stripe) {
      std::vector<std::vector<std::byte>> blocks;
      for (std::uint32_t i = 0; i < 4; ++i) {
        blocks.push_back(record(stripe * 4 + i));
      }
      ASSERT_TRUE(file.value().append_stripe(blocks).is_ok());
    }
  });
  inst.run();

  inst.lfs(1).disk().fail();
  int reconstructed = 0, correct = 0;
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t i = 0; i < 24; ++i) {
      bool rebuilt = false;
      auto r = file.value().read(i, &rebuilt);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      // Reconstructed blocks come back padded to the full user-data size.
      auto want = record(i);
      ASSERT_GE(r.value().size(), want.size());
      EXPECT_TRUE(std::equal(want.begin(), want.end(), r.value().begin()))
          << "block " << i;
      if (std::equal(want.begin(), want.end(), r.value().begin())) ++correct;
      if (rebuilt) ++reconstructed;
    }
  });
  inst.run();
  EXPECT_EQ(correct, 24);
  EXPECT_EQ(reconstructed, 6);  // LFS 1 held every 4th data block
}

TEST(ParityFile, DoubleFailureIsDetected) {
  BridgeInstance inst(cfg(5));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> blocks;
    for (std::uint32_t i = 0; i < 4; ++i) blocks.push_back(record(i));
    ASSERT_TRUE(file.value().append_stripe(blocks).is_ok());
  });
  inst.run();
  inst.lfs(0).disk().fail();
  inst.lfs(1).disk().fail();
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    auto r = file.value().read(0);
    EXPECT_EQ(r.status().code(), util::ErrorCode::kUnavailable);
  });
  inst.run();
}

std::vector<std::byte> short_record(std::uint32_t tag, std::size_t len) {
  auto data = record(tag);
  data.resize(len);
  return data;
}

TEST(MirroredFile, AppendManyMatchesPerBlockAppends) {
  BridgeInstance inst(cfg(4));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    // A 13-block run through the vectored pipeline: spans every LFS with
    // uneven group sizes (13 mod 4 != 0).
    std::vector<std::vector<std::byte>> run;
    for (std::uint32_t i = 0; i < 13; ++i) run.push_back(record(i));
    ASSERT_TRUE(file.value().append_many(run).is_ok());
    EXPECT_EQ(file.value().size_blocks(), 13u);
  });
  inst.run();
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    EXPECT_EQ(file.value().size_blocks(), 13u);
    for (std::uint32_t i = 0; i < 13; ++i) {
      bool used_mirror = true;
      auto r = file.value().read(i, &used_mirror);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
      EXPECT_FALSE(used_mirror);
    }
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(MirroredFile, TornAppendRollsBackBothConstituents) {
  BridgeInstance inst(cfg(4));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(file.value().append(record(i)).is_ok());
    }
  });
  inst.run();

  // LFS 1 dies; an 8-block run touches every LFS, so the append must fail
  // and every surviving constituent must roll back to its pre-run length.
  inst.lfs(1).disk().fail();
  inst.run_client("torn-writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> run;
    for (std::uint32_t i = 0; i < 8; ++i) run.push_back(record(100 + i));
    EXPECT_EQ(file.value().append_many(run).code(),
              util::ErrorCode::kUnavailable);
    EXPECT_EQ(file.value().size_blocks(), 10u);
  });
  inst.run();

  // A reopen (degraded) must agree on the rolled-back size and still serve
  // every block through the mirrors.
  inst.run_client("degraded-reader", [&](sim::Context& ctx,
                                         BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 10u);
    for (std::uint32_t i = 0; i < 10; ++i) {
      auto r = file.value().read(i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
    }
  });
  inst.run();
}

TEST(MirroredFile, RebuildRestoresFailedLfs) {
  BridgeInstance inst(cfg(4));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> run;
    for (std::uint32_t i = 0; i < 25; ++i) run.push_back(record(i));
    ASSERT_TRUE(file.value().append_many(run).is_ok());
  });
  inst.run();

  // LFS 2 fails and is replaced by a blank-for-our-purposes disk (the
  // rebuild discards the old constituents, so surviving stale content
  // cannot mask a broken reconstruction).
  inst.lfs(2).disk().fail();
  inst.lfs(2).disk().repair();
  inst.run_client("rebuilder", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    RebuildOptions options;
    options.window_blocks = 4;
    auto report = file.value().rebuild_lfs(2, options);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    // Of 25 blocks, LFS 2 (offset 2) homed 6 primaries, and its mirror
    // constituent held copies of LFS 0's 7 primaries: 6 + 7 = 13.
    EXPECT_EQ(report.value().blocks_rebuilt, 13u);
    EXPECT_GE(report.value().windows, 2u);
  });
  inst.run();

  // After the rebuild every read must be served by the primary again.
  int mirror_reads = 0;
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 25u);
    for (std::uint32_t i = 0; i < 25; ++i) {
      bool used_mirror = false;
      auto r = file.value().read(i, &used_mirror);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
      if (used_mirror) ++mirror_reads;
    }
  });
  inst.run();
  EXPECT_EQ(mirror_reads, 0);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(ParityFile, ShortBlockReconstructionIsByteIdentical) {
  BridgeInstance inst(cfg(5));
  // Final stripe holds short blocks of distinct lengths; reconstruction
  // must recover the exact bytes AND the exact lengths (not zero-padding).
  const std::vector<std::size_t> lens = {1, 137, 500, 960};
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> full, stub;
    for (std::uint32_t i = 0; i < 4; ++i) full.push_back(record(i));
    ASSERT_TRUE(file.value().append_stripe(full).is_ok());
    for (std::uint32_t i = 0; i < 4; ++i) {
      stub.push_back(short_record(4 + i, lens[i]));
    }
    ASSERT_TRUE(file.value().append_stripe(stub).is_ok());
  });
  inst.run();

  for (std::uint32_t victim = 0; victim < 4; ++victim) {
    inst.lfs(victim).disk().fail();
    inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
      auto file = ParityFile::open(ctx, client, "pfile");
      ASSERT_TRUE(file.is_ok()) << file.status().to_string();
      ASSERT_EQ(file.value().size_blocks(), 8u);
      for (std::uint32_t i = 0; i < 8; ++i) {
        bool reconstructed = false;
        auto r = file.value().read(i, &reconstructed);
        ASSERT_TRUE(r.is_ok()) << "block " << i;
        auto want = i < 4 ? record(i) : short_record(i, lens[i - 4]);
        EXPECT_EQ(r.value(), want) << "block " << i << " victim " << victim;
      }
    });
    inst.run();
    inst.lfs(victim).disk().repair();
  }
}

TEST(ParityFile, ReopenDerivesSizeWithShortFinalStripe) {
  BridgeInstance inst(cfg(5));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t stripe = 0; stripe < 3; ++stripe) {
      std::vector<std::vector<std::byte>> blocks;
      for (std::uint32_t i = 0; i < 4; ++i) {
        blocks.push_back(record(stripe * 4 + i));
      }
      ASSERT_TRUE(file.value().append_stripe(blocks).is_ok());
    }
    // Short final stripe: only 2 of 4 slots.
    std::vector<std::vector<std::byte>> tail = {record(12), record(13)};
    ASSERT_TRUE(file.value().append_stripe(tail).is_ok());
  });
  inst.run();

  // Healthy reopen: size from the data constituents.
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 14u);
    for (std::uint32_t i = 0; i < 14; ++i) {
      auto r = file.value().read(i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
    }
  });
  inst.run();

  // Degraded reopen: LFS 0 held 4 blocks of the 14; its count is gone, so
  // the size must come from the parity constituent's fill word.
  inst.lfs(0).disk().fail();
  inst.run_client("degraded-reader", [&](sim::Context& ctx,
                                         BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok()) << file.status().to_string();
    ASSERT_EQ(file.value().size_blocks(), 14u);
    for (std::uint32_t i = 0; i < 14; ++i) {
      auto r = file.value().read(i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
    }
  });
  inst.run();
  inst.lfs(0).disk().repair();
}

TEST(ParityFile, TornStripeRollsBackAndRecovers) {
  BridgeInstance inst(cfg(5));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t stripe = 0; stripe < 2; ++stripe) {
      std::vector<std::vector<std::byte>> blocks;
      for (std::uint32_t i = 0; i < 4; ++i) {
        blocks.push_back(record(stripe * 4 + i));
      }
      ASSERT_TRUE(file.value().append_stripe(blocks).is_ok());
    }
  });
  inst.run();

  // Mid-stripe failure: LFS 3 dies, the stripe write fails, and the
  // surviving constituents (which DID take their blocks) roll back.
  inst.lfs(3).disk().fail();
  inst.run_client("torn-writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> blocks;
    for (std::uint32_t i = 0; i < 4; ++i) blocks.push_back(record(100 + i));
    EXPECT_EQ(file.value().append_stripe(blocks).code(),
              util::ErrorCode::kUnavailable);
    EXPECT_EQ(file.value().size_blocks(), 8u);
    // Degraded reads of the intact stripes still work.
    for (std::uint32_t i = 0; i < 8; ++i) {
      auto r = file.value().read(i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
    }
  });
  inst.run();

  // Repair + rebuild, then appends proceed as if nothing happened.
  inst.lfs(3).disk().repair();
  inst.run_client("rebuilder", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 8u);
    auto report = file.value().rebuild_lfs(3);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report.value().blocks_rebuilt, 2u);  // offset 3 of 8 blocks
    std::vector<std::vector<std::byte>> blocks;
    for (std::uint32_t i = 8; i < 12; ++i) blocks.push_back(record(i));
    ASSERT_TRUE(file.value().append_stripe(blocks).is_ok());
  });
  inst.run();

  int reconstructed_reads = 0;
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 12u);
    for (std::uint32_t i = 0; i < 12; ++i) {
      bool reconstructed = false;
      auto r = file.value().read(i, &reconstructed);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
      if (reconstructed) ++reconstructed_reads;
    }
  });
  inst.run();
  EXPECT_EQ(reconstructed_reads, 0);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(ParityFile, RebuildParityLfsRestoresProtection) {
  BridgeInstance inst(cfg(5));
  const std::vector<std::size_t> lens = {960, 100, 7};
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> full, stub;
    for (std::uint32_t i = 0; i < 4; ++i) full.push_back(record(i));
    ASSERT_TRUE(file.value().append_stripe(full).is_ok());
    for (std::uint32_t i = 0; i < 3; ++i) {
      stub.push_back(short_record(4 + i, lens[i]));
    }
    ASSERT_TRUE(file.value().append_stripe(stub).is_ok());
  });
  inst.run();

  // The parity LFS (index 4) dies and is replaced; recompute its blocks —
  // including the length/fill header words — from the data constituents.
  inst.lfs(4).disk().fail();
  inst.lfs(4).disk().repair();
  inst.run_client("rebuilder", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    auto report = file.value().rebuild_lfs(4);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report.value().blocks_rebuilt, 2u);  // one parity per stripe
  });
  inst.run();

  // Proof the rebuilt parity works: fail a data LFS and read everything
  // (short blocks byte-identical) through reconstruction.
  inst.lfs(1).disk().fail();
  inst.run_client("degraded-reader", [&](sim::Context& ctx,
                                         BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok()) << file.status().to_string();
    ASSERT_EQ(file.value().size_blocks(), 7u);
    for (std::uint32_t i = 0; i < 7; ++i) {
      auto r = file.value().read(i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      auto want = i < 4 ? record(i) : short_record(i, lens[i - 4]);
      EXPECT_EQ(r.value(), want) << "block " << i;
    }
  });
  inst.run();
}

template <typename File>
util::Result<RebuildReport> open_and_rebuild(sim::Context& ctx,
                                             BridgeClient& client,
                                             const std::string& name,
                                             std::uint32_t failed,
                                             RebuildOptions options) {
  auto file = File::open(ctx, client, name);
  if (!file.is_ok()) return file.status();
  return file.value().rebuild_lfs(failed, options);
}

/// Append `stripes` full stripes of record(i) to the 4-wide parity file.
void write_stripes(BridgeInstance& inst, std::uint32_t stripes) {
  inst.run_client("writer", [&, stripes](sim::Context& ctx,
                                          BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t stripe = 0; stripe < stripes; ++stripe) {
      std::vector<std::vector<std::byte>> blocks;
      for (std::uint32_t i = 0; i < 4; ++i) {
        blocks.push_back(record(stripe * 4 + i));
      }
      ASSERT_TRUE(file.value().append_stripe(blocks).is_ok());
    }
  });
  inst.run();
}

TEST(ParityFile, VectoredAndPerBlockRebuildProduceIdenticalDisks) {
  // Two bit-deterministic instances take the same writes and the same
  // failure; one rebuilds through the vectored pipeline, the other through
  // the per-block reference path.  The resulting machines must be
  // indistinguishable on disk, for every kind of victim the engine serves:
  // a parity data LFS, the parity LFS and a mirrored file's LFS.
  enum class Victim { kParityData, kParityLfs, kMirror };
  auto build = [](Victim victim, bool vectored, RebuildReport& report) {
    auto inst = std::make_unique<BridgeInstance>(cfg(5));
    const bool mirrored = victim == Victim::kMirror;
    const std::uint32_t failed = victim == Victim::kParityLfs ? 4 : 2;
    inst->run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
      if (mirrored) {
        auto file = MirroredFile::open(ctx, client, "m");
        ASSERT_TRUE(file.is_ok());
        std::vector<std::vector<std::byte>> run;
        for (std::uint32_t i = 0; i < 22; ++i) run.push_back(record(i));
        run.push_back(short_record(22, 300));
        ASSERT_TRUE(file.value().append_many(run).is_ok());
        return;
      }
      auto file = ParityFile::open(ctx, client, "pfile");
      ASSERT_TRUE(file.is_ok());
      for (std::uint32_t stripe = 0; stripe < 5; ++stripe) {
        std::vector<std::vector<std::byte>> blocks;
        for (std::uint32_t i = 0; i < 4; ++i) {
          blocks.push_back(record(stripe * 4 + i));
        }
        ASSERT_TRUE(file.value().append_stripe(blocks).is_ok());
      }
      std::vector<std::vector<std::byte>> tail = {short_record(20, 300)};
      ASSERT_TRUE(file.value().append_stripe(tail).is_ok());
    });
    inst->run();
    inst->lfs(failed).disk().fail();
    inst->lfs(failed).disk().repair();
    inst->run_client("rebuilder", [&](sim::Context& ctx,
                                      BridgeClient& client) {
      RebuildOptions options;
      options.vectored = vectored;
      options.window_blocks = 3;
      auto rebuilt = mirrored ? open_and_rebuild<MirroredFile>(
                                    ctx, client, "m", failed, options)
                              : open_and_rebuild<ParityFile>(
                                    ctx, client, "pfile", failed, options);
      ASSERT_TRUE(rebuilt.is_ok()) << rebuilt.status().to_string();
      report = rebuilt.value();
      // Flush every LFS cache so the disk images are comparable.
      auto env = tools::discover(client);
      ASSERT_TRUE(env.is_ok());
      auto lfs = env.value().make_lfs_clients(client.rpc());
      for (auto& c : lfs) ASSERT_TRUE(c->sync().is_ok());
    });
    inst->run();
    return inst;
  };

  for (auto victim :
       {Victim::kParityData, Victim::kParityLfs, Victim::kMirror}) {
    SCOPED_TRACE(static_cast<int>(victim));
    RebuildReport report_a, report_b;
    auto a = build(victim, /*vectored=*/true, report_a);
    auto b = build(victim, /*vectored=*/false, report_b);
    EXPECT_GT(report_a.blocks_rebuilt, 0u);
    EXPECT_EQ(report_a.blocks_rebuilt, report_b.blocks_rebuilt);
    EXPECT_EQ(report_a.blocks_read, report_b.blocks_read);
    EXPECT_EQ(report_a.windows, report_b.windows);
    for (std::uint32_t i = 0; i < a->num_lfs(); ++i) {
      auto capacity = a->lfs(i).disk().geometry().capacity_blocks();
      std::uint32_t mismatches = 0;
      for (std::uint32_t addr = 0; addr < capacity; ++addr) {
        auto pa = a->lfs(i).disk().peek(addr);
        auto pb = b->lfs(i).disk().peek(addr);
        ASSERT_TRUE(pa.has_value() && pb.has_value());
        if (!std::equal(pa->begin(), pa->end(), pb->begin(), pb->end())) {
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0u) << "lfs " << i;
    }
    EXPECT_TRUE(a->verify_all_lfs().is_ok());
  }
}

TEST(Replication, ReadsAndRebuildRejectMisplacedBlock) {
  // On LFS 0, local block 1 of a parity file (global block 4) and of a
  // mirrored file's primary is overwritten with its local block 0: a
  // checksum-valid block in the wrong place.  No read may return it, no
  // reconstruction may fold it in, and rebuilding LFS 2 (which streams
  // both from LFS 0) must refuse it, in both engine modes.
  BridgeInstance inst(cfg(5));
  write_stripes(inst, 3);
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(file.value().append(record(i)).is_ok());
    }
  });
  inst.run();
  std::map<std::string, std::uint64_t> victim;  // global block at LFS 0, local 1
  inst.run_client("misplacer", [&](sim::Context&, BridgeClient& client) {
    auto env = tools::discover(client);
    ASSERT_TRUE(env.is_ok());
    auto lfs = env.value().make_lfs_clients(client.rpc());
    for (const char* name : {"pfile", "m"}) {
      auto open = client.open(name);
      ASSERT_TRUE(open.is_ok());
      const FileMeta& meta = open.value().meta;
      auto local0 = lfs[0]->read(meta.lfs_file_id, 0);
      ASSERT_TRUE(local0.is_ok());
      ASSERT_TRUE(lfs[0]->write(meta.lfs_file_id, 1, local0.value()).is_ok());
      victim[name] = striped_global(0, 1, meta.width, meta.start_lfs, 5);
    }
  });
  inst.run();

  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto parity = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(parity.is_ok());
    ASSERT_EQ(victim["pfile"], 4u);
    EXPECT_EQ(parity.value().read(4).status().code(),
              util::ErrorCode::kCorrupt);
    auto mirrored = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(mirrored.is_ok());
    EXPECT_EQ(mirrored.value().read(victim["m"]).status().code(),
              util::ErrorCode::kCorrupt);
  });
  inst.run();

  // Block 5 lives on LFS 1; its reconstruction folds stripe 1's block 4.
  inst.lfs(1).disk().fail();
  inst.run_client("degraded-reader", [&](sim::Context& ctx,
                                         BridgeClient& client) {
    auto parity = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(parity.is_ok());
    bool reconstructed = false;
    EXPECT_EQ(parity.value().read(5, &reconstructed).status().code(),
              util::ErrorCode::kCorrupt);
    EXPECT_TRUE(reconstructed);
  });
  inst.run();
  inst.lfs(1).disk().repair();

  inst.lfs(2).disk().fail();
  inst.lfs(2).disk().repair();
  inst.run_client("rebuilder", [&](sim::Context& ctx, BridgeClient& client) {
    for (bool vectored : {true, false}) {
      RebuildOptions options;
      options.vectored = vectored;
      EXPECT_EQ(open_and_rebuild<ParityFile>(ctx, client, "pfile", 2, options)
                    .status()
                    .code(),
                util::ErrorCode::kCorrupt)
          << "parity, vectored " << vectored;
      EXPECT_EQ(open_and_rebuild<MirroredFile>(ctx, client, "m", 2, options)
                    .status()
                    .code(),
                util::ErrorCode::kCorrupt)
          << "mirror, vectored " << vectored;
    }
  });
  inst.run();
}

TEST(ParityFile, RebuildRollsBackWindowThatRunsOutOfSpace) {
  // The spare at LFS 2 has room for one window of three blocks but not two,
  // so window 1's kWriteMany fails with kOutOfSpace.  The rebuild must
  // report it, leave the constituent at the window-1 boundary, and succeed
  // once the space is freed.
  BridgeInstance inst(cfg(5));
  write_stripes(inst, 8);  // LFS 2 holds 8 data blocks
  inst.lfs(2).disk().fail();
  inst.lfs(2).disk().repair();
  inst.run_client("rebuilder", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 32u);
    auto open = client.open("pfile");
    ASSERT_TRUE(open.is_ok());
    efs::FileId id = open.value().meta.lfs_file_id;
    auto env = tools::discover(client);
    ASSERT_TRUE(env.is_ok());
    auto lfs = env.value().make_lfs_clients(client.rpc());
    efs::EfsClient& spare = *lfs[2];

    // Blank the spare's constituent, then fill the disk until 5 blocks stay
    // free: window 0's three blocks and their extent table fit, window 1's
    // three do not.
    constexpr efs::FileId kFiller = 0xF111;
    ASSERT_TRUE(spare.truncate(id, 0).is_ok());
    ASSERT_TRUE(spare.create(kFiller).is_ok());
    for (std::uint32_t next = 0;;) {
      auto info = spare.info(kFiller);
      ASSERT_TRUE(info.is_ok());
      if (info.value().free_blocks <= 5) break;
      std::uint32_t n = std::min(16u, info.value().free_blocks - 5);
      std::vector<efs::BlockWrite> run;
      for (std::uint32_t i = 0; i < n; ++i) {
        run.push_back({next++, std::vector<std::byte>(efs::kEfsDataBytes)});
      }
      ASSERT_TRUE(spare.write_many(kFiller, std::move(run)).is_ok());
    }

    RebuildOptions options;
    options.window_blocks = 3;
    auto failed = file.value().rebuild_lfs(2, options);
    EXPECT_EQ(failed.status().code(), util::ErrorCode::kOutOfSpace);
    auto torn = spare.info(id);
    ASSERT_TRUE(torn.is_ok());
    EXPECT_EQ(torn.value().size_blocks, 3u);

    ASSERT_TRUE(spare.remove(kFiller).is_ok());
    auto report = file.value().rebuild_lfs(2, options);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report.value().blocks_rebuilt, 8u);
  });
  inst.run();

  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 32u);
    for (std::uint32_t i = 0; i < 32; ++i) {
      bool reconstructed = true;
      auto r = file.value().read(i, &reconstructed);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
      EXPECT_FALSE(reconstructed) << "block " << i;
    }
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(DeleteMany, RemovesBatchAndOverlapsWork) {
  BridgeInstance inst(cfg(4));
  inst.run_client("setup", [&](sim::Context&, BridgeClient& client) {
    for (int f = 0; f < 3; ++f) {
      std::string name = "f" + std::to_string(f);
      ASSERT_TRUE(client.create(name).is_ok());
      auto open = client.open(name);
      ASSERT_TRUE(open.is_ok());
      for (std::uint32_t i = 0; i < 16; ++i) {
        ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
      }
    }
  });
  inst.run();
  EXPECT_EQ(inst.server().directory_size(), 3u);

  sim::SimTime batch_time{};
  inst.run_client("deleter", [&](sim::Context& ctx, BridgeClient& client) {
    auto start = ctx.now();
    ASSERT_TRUE(client.remove_many({"f0", "f1", "f2"}).is_ok());
    batch_time = ctx.now() - start;
  });
  inst.run();
  EXPECT_EQ(inst.server().directory_size(), 0u);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
  // Overlapped: 3 files x 4 blocks/LFS at ~20ms each would be ~240ms+
  // sequential per-file; the batch must beat 3x the single-file cost
  // (conservative bound: under 2.5x of one file's delete).
  EXPECT_LT(batch_time.ms(), 700.0);
}

TEST(DeleteMany, MissingFileFailsCleanly) {
  BridgeInstance inst(cfg(2));
  inst.run_client("deleter", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("real").is_ok());
    EXPECT_EQ(client.remove_many({"real", "ghost"}).code(),
              util::ErrorCode::kNotFound);
  });
  inst.run();
}

TEST(DeleteMany, NameListedTwiceIsRemovedOnce) {
  // Each constituent gets one kDelete however often its name is listed, so
  // the batch succeeds and the directory entry goes with it.
  BridgeInstance inst(cfg(4));
  inst.run_client("deleter", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("dup").is_ok());
    ASSERT_TRUE(client.create("other").is_ok());
    auto st = client.remove_many({"dup", "other", "dup"});
    EXPECT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(client.open("dup").status().code(), util::ErrorCode::kNotFound);
    EXPECT_EQ(client.remove("dup").code(), util::ErrorCode::kNotFound);
    ASSERT_TRUE(client.create("dup").is_ok());
    EXPECT_TRUE(client.remove("dup").is_ok());
  });
  inst.run();
  EXPECT_EQ(inst.server().directory_size(), 0u);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(AnalysisModel, CopyPredictionIsNearLinear) {
  CostModel model;
  double t2 = predicted_copy_seconds(10240, 2, model);
  double t32 = predicted_copy_seconds(10240, 32, model);
  EXPECT_GT(t2 / t32, 12.0);
  EXPECT_LT(t2 / t32, 16.0);
}

TEST(AnalysisModel, SortPredictionIsSuperLinear) {
  CostModel model;
  auto total = [&](std::uint32_t p) {
    return predicted_local_sort_seconds(10240, p, 512, false, 4.4, model) +
           predicted_merge_seconds(10240, p, model);
  };
  double speedup = total(2) / total(32);
  EXPECT_GT(speedup, 16.0) << "sort model should be super-linear";
}

TEST(AnalysisModel, HintedLocalMergeRemovesAnomaly) {
  CostModel model;
  double unhinted = predicted_local_sort_seconds(10240, 2, 512, false, 4.4, model);
  double hinted = predicted_local_sort_seconds(10240, 2, 512, true, 4.4, model);
  EXPECT_GT(unhinted, 3.0 * hinted);
}

TEST(AnalysisModel, TokenRingWidthIsSeveralDozen) {
  CostModel model;
  double width = max_useful_merge_width(model);
  EXPECT_GT(width, 24.0);   // "several dozen" (§6)
  EXPECT_LT(width, 200.0);
}

}  // namespace
}  // namespace bridge::core
