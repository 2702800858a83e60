// BridgeClient over a multi-server BridgeInstance: directory partitioning,
// session/job routing, id-space disjointness, and tools running unchanged
// against the distributed configuration.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "src/analysis/race.hpp"
#include "src/core/instance.hpp"
#include "src/tools/copy.hpp"
#include "src/tools/sort/sort_tool.hpp"

namespace bridge::core {
namespace {

SystemConfig cfg(std::uint32_t p, std::uint32_t servers) {
  auto config = SystemConfig::paper_profile(p, 2048);
  config.num_bridge_servers = servers;
  return config;
}

/// First name of the form `prefix<i>` whose directory home is `home`.
std::string name_with_home(const std::string& prefix, std::uint32_t home,
                           std::uint32_t k) {
  for (int i = 0;; ++i) {
    std::string name = prefix + std::to_string(i);
    if (directory_home(name, k) == home) return name;
  }
}

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 11 + i));
  }
  return data;
}

TEST(RoutedClient, FilesSpreadAcrossServers) {
  BridgeInstance inst(cfg(4, 3));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    for (int f = 0; f < 12; ++f) {
      ASSERT_TRUE(client.create("file" + std::to_string(f)).is_ok());
    }
  });
  inst.run();
  std::size_t total = 0;
  std::size_t nonempty_servers = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    std::size_t n = inst.server(s).directory_size();
    total += n;
    if (n > 0) ++nonempty_servers;
  }
  EXPECT_EQ(total, 12u);
  EXPECT_GE(nonempty_servers, 2u);  // the hash actually partitions
}

TEST(RoutedClient, EndToEndReadWriteAcrossPartitions) {
  BridgeInstance inst(cfg(4, 2));
  int verified = 0;
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    for (int f = 0; f < 6; ++f) {
      std::string name = "data" + std::to_string(f);
      ASSERT_TRUE(client.create(name).is_ok());
      auto open = client.open(name);
      ASSERT_TRUE(open.is_ok());
      for (std::uint32_t i = 0; i < 8; ++i) {
        ASSERT_TRUE(
            client.seq_write(open.value().session, record(f * 100 + i)).is_ok());
      }
    }
    for (int f = 0; f < 6; ++f) {
      std::string name = "data" + std::to_string(f);
      auto open = client.open(name);
      ASSERT_TRUE(open.is_ok());
      EXPECT_EQ(open.value().meta.size_blocks, 8u);
      for (std::uint32_t i = 0; i < 8; ++i) {
        auto r = client.seq_read(open.value().session);
        ASSERT_TRUE(r.is_ok());
        if (r.value().data == record(f * 100 + i)) ++verified;
      }
      // Random access routes by the tagged file id.
      auto rr = client.random_read(open.value().meta.id, 3);
      ASSERT_TRUE(rr.is_ok());
      EXPECT_EQ(rr.value(), record(f * 100 + 3));
    }
  });
  inst.run();
  EXPECT_EQ(verified, 48);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(RoutedClient, LfsFileIdsDisjointAcrossServers) {
  BridgeInstance inst(cfg(4, 3));
  std::vector<BridgeFileId> ids;
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    for (int f = 0; f < 9; ++f) {
      auto id = client.create("x" + std::to_string(f));
      ASSERT_TRUE(id.is_ok());
      ids.push_back(id.value());
    }
  });
  inst.run();
  std::set<BridgeFileId> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), ids.size()) << "file id collision across servers";
}

TEST(RoutedClient, RemoveManyPartitionsBatch) {
  BridgeInstance inst(cfg(4, 2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    std::vector<std::string> names;
    for (int f = 0; f < 8; ++f) {
      names.push_back("t" + std::to_string(f));
      ASSERT_TRUE(client.create(names.back()).is_ok());
    }
    ASSERT_TRUE(client.remove_many(names).is_ok());
  });
  inst.run();
  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(inst.server(s).directory_size(), 0u);
  }
}

TEST(RoutedClient, CopyToolRunsAgainstRoutedDirectory) {
  BridgeInstance inst(cfg(4, 2));
  std::uint64_t copied = 0;
  inst.run_client("tool", [&](sim::Context& ctx,
                                     BridgeClient& client) {
    ASSERT_TRUE(client.create("src").is_ok());
    auto open = client.open("src");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    auto result = tools::run_copy_tool(ctx, client, "src", "dst");
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    copied = result.value().blocks;
    // src and dst may live on different servers; both must read back.
    auto check = client.open("dst");
    ASSERT_TRUE(check.is_ok());
    EXPECT_EQ(check.value().meta.size_blocks, 20u);
    for (std::uint32_t i = 0; i < 20; ++i) {
      auto r = client.seq_read(check.value().session);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().data, record(i));
    }
  });
  inst.run();
  EXPECT_EQ(copied, 20u);
}

TEST(RoutedClient, SortToolRunsAgainstRoutedDirectory) {
  BridgeInstance inst(cfg(4, 3));
  inst.run_client("tool", [&](sim::Context& ctx,
                                     BridgeClient& client) {
    ASSERT_TRUE(client.create("input").is_ok());
    auto open = client.open("input");
    ASSERT_TRUE(open.is_ok());
    sim::Rng rng(5);
    for (std::uint32_t i = 0; i < 40; ++i) {
      std::vector<std::byte> data(efs::kUserDataBytes);
      util::Writer w;
      w.u64(rng.next_u64() % 1000);
      std::copy(w.buffer().begin(), w.buffer().end(), data.begin());
      ASSERT_TRUE(client.seq_write(open.value().session, data).is_ok());
    }
    tools::SortOptions options;
    options.tuning.in_core_records = 8;
    auto result = tools::run_sort_tool(ctx, client, "input", "sorted", options);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();

    auto check = client.open("sorted");
    ASSERT_TRUE(check.is_ok());
    std::uint64_t previous = 0;
    for (std::uint32_t i = 0; i < 40; ++i) {
      auto r = check.is_ok() ? client.seq_read(check.value().session)
                             : util::Result<SeqReadResponse>(
                                   util::internal_error("no session"));
      ASSERT_TRUE(r.is_ok());
      util::Reader key_reader(
          std::span<const std::byte>(r.value().data).subspan(0, 8));
      std::uint64_t key = key_reader.u64();
      EXPECT_GE(key, previous);
      previous = key;
    }
  });
  inst.run();
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

/// Every distribution, widths below, at and past p, starts past p.
std::vector<CreateOptions> create_variants() {
  std::vector<CreateOptions> variants;
  for (auto dist : {Distribution::kRoundRobin, Distribution::kChunked,
                    Distribution::kHashed, Distribution::kLinked}) {
    for (std::uint32_t width : {0u, 1u, 3u, 9u}) {
      CreateOptions options;
      options.distribution = dist;
      options.width = width;
      options.start_lfs = width * 2 + 1;  // 1, 3, 7, 19: some wrap past p
      options.chunk_blocks = dist == Distribution::kChunked ? 16 : 0;
      options.hash_seed = dist == Distribution::kHashed ? 77 : 0;
      variants.push_back(options);
    }
  }
  return variants;
}

void expect_created_meta_matches_open(BridgeClient& client) {
  auto variants = create_variants();
  for (std::size_t i = 0; i < variants.size(); ++i) {
    std::string name = "made" + std::to_string(i);
    auto id = client.create(name, variants[i]);
    ASSERT_TRUE(id.is_ok()) << id.status().to_string();
    FileMeta made = created_file_meta(name, id.value(), variants[i], 4);
    auto open = client.open(name);
    ASSERT_TRUE(open.is_ok());
    const FileMeta& meta = open.value().meta;
    EXPECT_EQ(made.id, meta.id) << name;
    EXPECT_EQ(made.name, meta.name) << name;
    EXPECT_EQ(made.distribution, meta.distribution) << name;
    EXPECT_EQ(made.width, meta.width) << name;
    EXPECT_EQ(made.start_lfs, meta.start_lfs) << name;
    EXPECT_EQ(made.chunk_blocks, meta.chunk_blocks) << name;
    EXPECT_EQ(made.size_blocks, meta.size_blocks) << name;
    EXPECT_EQ(made.lfs_file_id, meta.lfs_file_id) << name;
  }
}

TEST(CreatedFileMeta, EqualsOpenOnSingleAndRoutedMachines) {
  BridgeInstance single(cfg(4, 1));
  single.run_client("c", [&](sim::Context&, BridgeClient& client) {
    expect_created_meta_matches_open(client);
  });
  single.run();

  BridgeInstance routed(cfg(4, 2));
  routed.run_client("c", [&](sim::Context&, BridgeClient& client) {
    expect_created_meta_matches_open(client);
  });
  routed.run();
  std::set<std::uint32_t> homes;
  for (std::size_t i = 0; i < create_variants().size(); ++i) {
    homes.insert(directory_home("made" + std::to_string(i), 2));
  }
  EXPECT_EQ(homes.size(), 2u);  // both servers minted some of the files
}

TEST(RoutedClient, CollidingLocalIdsRouteByHomeTag) {
  // Regression for the id_home_ clobber bug: the first file created on each
  // server gets local id 1000, so the low 24 bits of the two Bridge ids
  // collide.  The old client-side id->home map keyed by the raw id clobbered
  // one entry and routed its reads to the wrong server; ids tagged with
  // their home byte route correctly with no client state at all.
  BridgeInstance inst(cfg(4, 2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    std::string n0 = name_with_home("collide", 0, 2);
    std::string n1 = name_with_home("collide", 1, 2);
    auto id0 = client.create(n0);
    auto id1 = client.create(n1);
    ASSERT_TRUE(id0.is_ok() && id1.is_ok());
    ASSERT_EQ(id0.value() & kFileIdLocalMask, id1.value() & kFileIdLocalMask);
    ASSERT_NE(file_id_home(id0.value()), file_id_home(id1.value()));
    auto s0 = client.open(n0);
    auto s1 = client.open(n1);
    ASSERT_TRUE(s0.is_ok() && s1.is_ok());
    ASSERT_TRUE(client.seq_write(s0.value().session, record(1)).is_ok());
    ASSERT_TRUE(client.seq_write(s1.value().session, record(2)).is_ok());
    auto r0 = client.random_read(id0.value(), 0);
    auto r1 = client.random_read(id1.value(), 0);
    ASSERT_TRUE(r0.is_ok() && r1.is_ok());
    EXPECT_EQ(r0.value(), record(1));
    EXPECT_EQ(r1.value(), record(2));
  });
  inst.run();
}

TEST(RoutedClient, StaleIdAfterRemoveAndRecreateIsNotFound) {
  BridgeInstance inst(cfg(4, 2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("victim").is_ok());
    auto open = client.open("victim");
    ASSERT_TRUE(open.is_ok());
    ASSERT_TRUE(client.seq_write(open.value().session, record(7)).is_ok());
    BridgeFileId stale = open.value().meta.id;
    ASSERT_TRUE(client.remove("victim").is_ok());
    ASSERT_TRUE(client.create("victim").is_ok());
    auto fresh = client.open("victim");
    ASSERT_TRUE(fresh.is_ok());
    ASSERT_TRUE(client.seq_write(fresh.value().session, record(8)).is_ok());
    EXPECT_NE(fresh.value().meta.id, stale);
    // The stale id routes to its (correct) home server and fails loudly
    // there, instead of surviving in a client-side cache and reading the
    // recreated file's blocks.
    auto r = client.random_read(stale, 0);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::kNotFound);
    auto ok = client.random_read(fresh.value().meta.id, 0);
    ASSERT_TRUE(ok.is_ok());
    EXPECT_EQ(ok.value(), record(8));
  });
  inst.run();
}

TEST(RoutedClient, OutOfRangeTagIsNotFoundNotMasked) {
  BridgeInstance inst(cfg(2, 2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    // A corrupt session/job tag must fail, not silently route to tag % k.
    std::uint64_t bogus_session = (200ull << 56) | 1ull;
    auto r = client.seq_read(bogus_session);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::kNotFound);
    auto j = client.parallel_read(bogus_session);
    ASSERT_FALSE(j.is_ok());
    EXPECT_EQ(j.status().code(), util::ErrorCode::kNotFound);
    // Same rule for file ids homed past the end of the group.
    BridgeFileId bogus_id = (200u << kFileIdHomeShift) | 1000u;
    auto rr = client.random_read(bogus_id, 0);
    ASSERT_FALSE(rr.is_ok());
    EXPECT_EQ(rr.status().code(), util::ErrorCode::kNotFound);
    auto t = client.truncate(bogus_id, 0);
    ASSERT_FALSE(t.is_ok());
    EXPECT_EQ(t.status().code(), util::ErrorCode::kNotFound);
  });
  inst.run();
}

TEST(RoutedClient, RemoveManyAggregatesStatusesAcrossServers) {
  BridgeInstance inst(cfg(4, 2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    std::string present0 = name_with_home("p0_", 0, 2);
    std::string present1 = name_with_home("p1_", 1, 2);
    std::string missing0 = name_with_home("m0_", 0, 2);
    ASSERT_NE(missing0, present0);
    ASSERT_TRUE(client.create(present0).is_ok());
    ASSERT_TRUE(client.create(present1).is_ok());
    auto st = client.remove_many({present0, present1, missing0});
    ASSERT_FALSE(st.is_ok());
    EXPECT_EQ(st.code(), util::ErrorCode::kNotFound);
  });
  inst.run();
  // Both partitions were in flight concurrently: server 1's (all present)
  // committed even though server 0's failed on the missing name.
  EXPECT_EQ(inst.server(1).directory_size(), 0u);
  EXPECT_EQ(inst.server(0).directory_size(), 1u);
}

TEST(RoutedClient, RenameWithinOneHomeKeepsIdAndSessions) {
  BridgeInstance inst(cfg(4, 2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    std::string from = name_with_home("local_from", 0, 2);
    std::string to = name_with_home("local_to", 0, 2);
    auto id = client.create(from);
    ASSERT_TRUE(id.is_ok());
    auto open = client.open(from);
    ASSERT_TRUE(open.is_ok());
    ASSERT_TRUE(client.seq_write(open.value().session, record(3)).is_ok());
    auto renamed = client.rename(from, to);
    ASSERT_TRUE(renamed.is_ok()) << renamed.status().to_string();
    EXPECT_EQ(renamed.value(), id.value());  // same home: the id survives
    // The open session followed the file to its new name.
    ASSERT_TRUE(client.seq_write(open.value().session, record(4)).is_ok());
    EXPECT_FALSE(client.open(from).is_ok());
    auto reopen = client.open(to);
    ASSERT_TRUE(reopen.is_ok());
    EXPECT_EQ(reopen.value().meta.size_blocks, 2u);
    auto r = client.random_read(renamed.value(), 1);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), record(4));
  });
  inst.run();
  EXPECT_EQ(inst.server(0).stats().renames_local, 1u);
}

TEST(RoutedClient, CrossServerRenameMovesHomeAndKeepsData) {
  BridgeInstance inst(cfg(4, 2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    std::string from = name_with_home("xfrom", 0, 2);
    std::string to = name_with_home("xto", 1, 2);
    auto id = client.create(from);
    ASSERT_TRUE(id.is_ok());
    auto open = client.open(from);
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(10 + i)).is_ok());
    }
    auto renamed = client.rename(from, to);
    ASSERT_TRUE(renamed.is_ok()) << renamed.status().to_string();
    // The record moved to the new name's home: new id from that server's
    // slice; the old name and the old id are dead everywhere.
    EXPECT_EQ(file_id_home(renamed.value()), 1u);
    EXPECT_NE(renamed.value(), id.value());
    EXPECT_FALSE(client.open(from).is_ok());
    EXPECT_FALSE(client.random_read(id.value(), 0).is_ok());
    // The constituent LFS files never moved, so the data reads back intact
    // through the new home.
    auto reopen = client.open(to);
    ASSERT_TRUE(reopen.is_ok());
    EXPECT_EQ(reopen.value().meta.size_blocks, 6u);
    for (std::uint32_t i = 0; i < 6; ++i) {
      auto r = client.seq_read(reopen.value().session);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().data, record(10 + i));
    }
    auto rr = client.random_read(renamed.value(), 2);
    ASSERT_TRUE(rr.is_ok());
    EXPECT_EQ(rr.value(), record(12));
    // And the moved file stays fully writable on its new home.
    ASSERT_TRUE(client.random_write(renamed.value(), 6, record(99)).is_ok());
  });
  inst.run();
  EXPECT_EQ(inst.server(0).stats().renames_out, 1u);
  EXPECT_EQ(inst.server(1).stats().renames_in, 1u);
  EXPECT_EQ(inst.server(0).stats().rename_aborts, 0u);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(RoutedClient, CrossServerRenameAbortsWhenTargetExists) {
  BridgeInstance inst(cfg(4, 2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    std::string from = name_with_home("abort_from", 0, 2);
    std::string to = name_with_home("abort_to", 1, 2);
    ASSERT_TRUE(client.create(from).is_ok());
    ASSERT_TRUE(client.create(to).is_ok());
    auto open = client.open(from);
    ASSERT_TRUE(open.is_ok());
    ASSERT_TRUE(client.seq_write(open.value().session, record(9)).is_ok());
    auto renamed = client.rename(from, to);
    ASSERT_FALSE(renamed.is_ok());
    EXPECT_EQ(renamed.status().code(), util::ErrorCode::kAlreadyExists);
    // The prepare was rolled back: the record is reinstated under its old
    // name with its data intact.
    auto reopen = client.open(from);
    ASSERT_TRUE(reopen.is_ok());
    auto r = client.seq_read(reopen.value().session);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().data, record(9));
  });
  inst.run();
  EXPECT_EQ(inst.server(0).stats().renames_out, 1u);
  EXPECT_EQ(inst.server(0).stats().rename_aborts, 1u);
  EXPECT_EQ(inst.server(1).stats().renames_in, 0u);
}

TEST(RoutedClient, CrossServerRenameDropsTheSourceSessionsAndJobs) {
  BridgeInstance inst(cfg(4, 2));
  sim::Mailbox worker(inst.runtime().scheduler(), inst.config().client_node());
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    std::string from = name_with_home("moved_from", 0, 2);
    std::string to = name_with_home("moved_to", 1, 2);
    ASSERT_TRUE(client.create(from).is_ok());
    auto old_session = client.open(from);
    ASSERT_TRUE(old_session.is_ok());
    auto old_job =
        client.parallel_open(old_session.value().session, {worker.address()});
    ASSERT_TRUE(old_job.is_ok());
    ASSERT_TRUE(client.rename(from, to).is_ok());
    // A new file takes the old name on the old home.
    ASSERT_TRUE(client.create(from).is_ok());
    auto writer = client.open(from);
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(client.seq_write(writer.value().session, record(7)).is_ok());
    // The session and the job belonged to the file that moved; the new
    // file's block must not be reachable through either.
    auto r = client.seq_read(old_session.value().session);
    EXPECT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::kNotFound);
    auto pr = client.parallel_read(old_job.value());
    EXPECT_FALSE(pr.is_ok());
    EXPECT_EQ(pr.status().code(), util::ErrorCode::kNotFound);
  });
  inst.run();
  EXPECT_EQ(worker.pending(), 0u);
}

TEST(RoutedClient, GlobalListingMergesSortedAcrossServers) {
  BridgeInstance inst(cfg(4, 3));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    for (int f = 0; f < 12; ++f) {
      ASSERT_TRUE(
          client.create("ls" + std::string(1, char('a' + f))).is_ok());
    }
    ASSERT_TRUE(client.create("other").is_ok());
    auto all = client.list("");
    ASSERT_TRUE(all.is_ok());
    ASSERT_EQ(all.value().size(), 13u);
    for (std::size_t i = 1; i < all.value().size(); ++i) {
      EXPECT_LT(all.value()[i - 1].name, all.value()[i].name);
    }
    auto filtered = client.list("ls");
    ASSERT_TRUE(filtered.is_ok());
    ASSERT_EQ(filtered.value().size(), 12u);
    // Every entry's id carries a home inside the group, so listing output
    // routes directly (no extra opens needed).
    for (const auto& entry : filtered.value()) {
      EXPECT_LT(file_id_home(entry.id), 3u);
    }
  });
  inst.run();
  std::uint64_t lists_served = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    lists_served += inst.server(s).stats().lists;
  }
  EXPECT_EQ(lists_served, 6u);  // 2 listings x 3 servers, all fanned out
}

/// Shared workload for the rename-race determinism test: two clients race
/// rename/open/remove over four routed servers, with overlapping rename
/// targets so both the commit and the abort paths run.
std::string rename_race_trace(std::uint64_t* access_count,
                              std::string* race_report) {
  BridgeInstance inst(cfg(4, 4));
  inst.runtime().enable_race_check();
  inst.runtime().tracer().enable();
  auto workload = [](std::uint32_t base) {
    return [base](sim::Context&, BridgeClient& client) {
      for (std::uint32_t i = 0; i < 4; ++i) {
        std::string from = "race_src_" + std::to_string(base + i);
        std::string to = "race_dst_" + std::to_string(i);  // shared targets
        if (!client.create(from).is_ok()) continue;
        auto open = client.open(from);
        if (open.is_ok()) {
          (void)client.seq_write(open.value().session, record(base + i));  // race workload; determinism is asserted via the trace digest
        }
        auto renamed = client.rename(from, to);
        if (renamed.is_ok()) {
          (void)client.random_read(renamed.value(), 0);  // race workload; determinism is asserted via the trace digest
          (void)client.open(to);  // race workload; determinism is asserted via the trace digest
        } else {
          (void)client.open(from);  // race workload; determinism is asserted via the trace digest
          (void)client.remove(from);  // race workload; determinism is asserted via the trace digest
        }
      }
    };
  };
  inst.run_client("racer-a", workload(0));
  inst.run_client("racer-b", workload(100));
  inst.run();
  *access_count = inst.runtime().race()->access_count();
  *race_report = inst.runtime().race()->report_text();
  return inst.runtime().tracer().chrome_trace_json();
}

TEST(RoutedClient, RenameRaceFreeAndTraceDeterministic) {
  std::uint64_t accesses1 = 0;
  std::uint64_t accesses2 = 0;
  std::string report1;
  std::string report2;
  std::string trace1 = rename_race_trace(&accesses1, &report1);
  std::string trace2 = rename_race_trace(&accesses2, &report2);
  // The prepare/commit handoff orders every cross-server placement access
  // with explicit message edges, so the detector must stay silent...
  EXPECT_GT(accesses1, 0u) << "instrumentation was not live";
  EXPECT_TRUE(report1.empty()) << report1;
  EXPECT_TRUE(report2.empty()) << report2;
  // ...and the whole racing schedule must be reproducible byte for byte.
  EXPECT_EQ(trace1, trace2) << "same-seed routed rename trace diverged";
  EXPECT_EQ(accesses1, accesses2);
}

TEST(RoutedClient, SingleServerDegeneratesToPlainClient) {
  BridgeInstance inst(cfg(2, 1));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    EXPECT_EQ(client.num_servers(), 1u);
    ASSERT_TRUE(client.create("f").is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    ASSERT_TRUE(client.seq_write(open.value().session, record(1)).is_ok());
    auto reopen = client.open("f");
    auto r = client.seq_read(reopen.value().session);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().data, record(1));
  });
  inst.run();
}

TEST(RoutedClient, SingleServerRejectsAForeignHomeTagWithoutARoundTrip) {
  BridgeInstance inst(cfg(2, 1));
  std::uint64_t requests_before = 0;
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    requests_before = inst.server().stats().requests;
    // A one-server group has only home 0: any other tag is not_found here,
    // before a message is sent.
    auto r = client.seq_read((1ull << 56) | open.value().session);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::kNotFound);
    BridgeFileId foreign = (1u << kFileIdHomeShift) | open.value().meta.id;
    auto rr = client.random_read(foreign, 0);
    ASSERT_FALSE(rr.is_ok());
    EXPECT_EQ(rr.status().code(), util::ErrorCode::kNotFound);
  });
  inst.run();
  EXPECT_EQ(inst.server().stats().requests, requests_before);
}

TEST(RoutedClient, RunClientRoutesEveryNameToItsHome) {
  BridgeInstance inst(cfg(4, 2));
  std::string name = name_with_home("homed", 1, 2);
  inst.run_client("writer", [&](sim::Context&, BridgeClient& client) {
    EXPECT_EQ(client.num_servers(), 2u);
    ASSERT_TRUE(client.create(name).is_ok());
    auto open = client.open(name);
    ASSERT_TRUE(open.is_ok());
    ASSERT_TRUE(client.seq_write(open.value().session, record(5)).is_ok());
  });
  inst.run();
  EXPECT_EQ(inst.server(0).directory_size(), 0u);
  EXPECT_EQ(inst.server(1).directory_size(), 1u);
  // A second client finds the file at its home and lists it exactly once.
  inst.run_client("reader", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open(name);
    ASSERT_TRUE(open.is_ok()) << open.status().to_string();
    auto r = client.seq_read(open.value().session);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().data, record(5));
    auto listed = client.list("");
    ASSERT_TRUE(listed.is_ok());
    ASSERT_EQ(listed.value().size(), 1u);
    EXPECT_EQ(listed.value()[0].name, name);
  });
  inst.run();
}

/// Requests of op class `op` ("List", "DeleteMany", ...) the stage ledger
/// has completed.
std::uint64_t ledgered(BridgeInstance& inst, const std::string& op) {
  const obs::Histogram* total =
      inst.runtime().metrics().find_histogram("op." + op + ".total_us");
  return total == nullptr ? 0 : total->count();
}

/// Requests the stage ledger has completed over every client op class.
std::uint64_t ledgered_all(BridgeInstance& inst) {
  std::uint64_t n = 0;
  for (auto t = static_cast<std::uint32_t>(BridgeMsg::kCreate);
       t <= static_cast<std::uint32_t>(BridgeMsg::kList); ++t) {
    std::string name = bridge_msg_name(static_cast<BridgeMsg>(t));
    n += ledgered(inst, name.substr(std::string("bridge.").size()));
  }
  return n;
}

/// Ledger requests a k-server client's list and remove_many open, each.
std::pair<std::uint64_t, std::uint64_t> fan_out_requests(std::uint32_t k) {
  BridgeInstance inst(cfg(4, k));
  std::pair<std::uint64_t, std::uint64_t> added{99, 99};
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    for (int f = 0; f < 6; ++f) {
      ASSERT_TRUE(client.create("g" + std::to_string(f)).is_ok());
    }
    std::uint64_t before = ledgered_all(inst);
    std::uint64_t lists = ledgered(inst, "List");
    auto listed = client.list("");
    ASSERT_TRUE(listed.is_ok());
    ASSERT_EQ(listed.value().size(), 6u);
    ASSERT_EQ(ledgered_all(inst) - before, ledgered(inst, "List") - lists);
    added.first = ledgered(inst, "List") - lists;

    before = ledgered_all(inst);
    std::uint64_t deletes = ledgered(inst, "DeleteMany");
    ASSERT_TRUE(client.remove_many({"g0", "g1", "g2", "g3", "g4", "g5"})
                    .is_ok());
    ASSERT_EQ(ledgered_all(inst) - before,
              ledgered(inst, "DeleteMany") - deletes);
    added.second = ledgered(inst, "DeleteMany") - deletes;
  });
  inst.run();
  std::size_t left = 0;
  for (std::uint32_t s = 0; s < k; ++s) left += inst.server(s).directory_size();
  EXPECT_EQ(left, 0u);
  return added;
}

TEST(ClientLedger, OneServerListAndRemoveManyAreOneRequestEach) {
  auto [list, remove_many] = fan_out_requests(1);
  EXPECT_EQ(list, 1u);
  EXPECT_EQ(remove_many, 1u);
}

TEST(ClientLedger, MultiServerListAndRemoveManyOpenNoRequest) {
  auto [list, remove_many] = fan_out_requests(3);
  EXPECT_EQ(list, 0u);
  EXPECT_EQ(remove_many, 0u);
}

TEST(ClientLedger, EveryOtherRoutedCallIsOneRequest) {
  BridgeInstance inst(cfg(4, 3));
  sim::Mailbox worker(inst.runtime().scheduler(), inst.config().client_node());
  std::size_t checked = 0;
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    // One request of class `op`, and no other, per call.
    auto one = [&](const std::string& op, auto&& call) {
      std::uint64_t all = ledgered_all(inst);
      std::uint64_t mine = ledgered(inst, op);
      EXPECT_TRUE(call()) << op;
      EXPECT_EQ(ledgered(inst, op) - mine, 1u) << op;
      EXPECT_EQ(ledgered_all(inst) - all, 1u) << op;
      ++checked;
    };
    std::string from = name_with_home("lf", 1, 3);
    std::string to = name_with_home("lt", 2, 3);
    BridgeFileId id = 0;
    std::uint64_t session = 0;
    one("Create", [&] {
      auto r = client.create(from);
      id = r.is_ok() ? r.value() : 0;
      return r.is_ok();
    });
    one("Open", [&] {
      auto r = client.open(from);
      session = r.is_ok() ? r.value().session : 0;
      return r.is_ok();
    });
    one("SeqWrite",
        [&] { return client.seq_write(session, record(1)).is_ok(); });
    one("SeqWriteMany", [&] {
      return client.seq_write_many(session, {record(2), record(3)}).is_ok();
    });
    one("RandomWrite",
        [&] { return client.random_write(id, 3, record(4)).is_ok(); });
    one("SeqRead", [&] { return client.seq_read(session).is_ok(); });
    one("SeqReadMany", [&] { return client.seq_read_many(session, 2).is_ok(); });
    one("SeqSeek", [&] { return client.seq_seek(session, 0).is_ok(); });
    one("RandomRead", [&] { return client.random_read(id, 0).is_ok(); });
    one("RandomReadMany",
        [&] { return client.random_read_many(id, 0, 4).is_ok(); });
    one("Resolve", [&] { return client.resolve(id, 0, 4).is_ok(); });
    one("GetInfo", [&] { return client.get_info().is_ok(); });
    one("ParallelOpen", [&] {
      return client.parallel_open(session, {worker.address()}).is_ok();
    });
    one("Truncate", [&] { return client.truncate(id, 2).is_ok(); });
    one("Rename", [&] {
      auto r = client.rename(from, to);  // crosses from home 1 to home 2
      id = r.is_ok() ? r.value() : 0;
      return r.is_ok();
    });
    one("Delete", [&] { return client.remove(to).is_ok(); });
  });
  inst.run();
  EXPECT_EQ(checked, 16u);
  EXPECT_EQ(inst.server(1).stats().renames_out, 1u);
}

}  // namespace
}  // namespace bridge::core
