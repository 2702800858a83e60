// The asynchronous scatter-gather pipeline: vectored naive-view ops
// (kSeqReadMany / kSeqWriteMany / kRandomReadMany), the BufferedFileStream
// built on them, failure atomicity (failed runs leave cursors and sizes
// untouched), and the EFS-level vectored ops they ride on.
#include <gtest/gtest.h>

#include <string>

#include "src/core/buffered_stream.hpp"
#include "src/core/instance.hpp"
#include "src/efs/client.hpp"

namespace bridge::core {
namespace {

SystemConfig test_config(std::uint32_t p, std::uint32_t blocks = 512) {
  return SystemConfig::paper_profile(p, blocks);
}

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 31 + i));
  }
  return data;
}

TEST(Pipeline, VectoredReadSpansAllLfsInOrder) {
  // 20 blocks round-robin over 4 LFSs: one random_read_many touches every
  // LFS and must come back reassembled in global-block order.
  BridgeInstance inst(test_config(4));
  bool done = false;
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    auto id = client.create("wide");
    ASSERT_TRUE(id.is_ok());
    auto open = client.open("wide");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    auto many = client.random_read_many(id.value(), 0, 20);
    ASSERT_TRUE(many.is_ok());
    ASSERT_EQ(many.value().blocks.size(), 20u);
    for (std::uint32_t i = 0; i < 20; ++i) {
      EXPECT_EQ(many.value().blocks[i], record(i)) << "block " << i;
    }
    // A run that starts mid-file keeps the order too.
    auto tail = client.random_read_many(id.value(), 7, 9);
    ASSERT_TRUE(tail.is_ok());
    ASSERT_EQ(tail.value().blocks.size(), 9u);
    for (std::uint32_t i = 0; i < 9; ++i) {
      EXPECT_EQ(tail.value().blocks[i], record(7 + i));
    }
    // Out-of-range runs fail without I/O.
    EXPECT_EQ(client.random_read_many(id.value(), 15, 10).status().code(),
              util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(client.random_read_many(id.value(), 0, 0).status().code(),
              util::ErrorCode::kInvalidArgument);
    done = true;
  });
  inst.run();
  EXPECT_TRUE(done);
  // The 20-block run fanned out as one vectored batch (and the 9-block one
  // as another); every LFS served its share concurrently.
  EXPECT_GE(inst.server().stats().vectored_batches, 2u);
  EXPECT_GE(inst.server().stats().vectored_blocks, 29u);
}

TEST(Pipeline, SeqReadManyMatchesSingleBlockScan) {
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("scan").is_ok());
    auto open = client.open("scan");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 23; ++i) {  // deliberately not a multiple
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    // Windowed scan: 8 + 8 + 7, then a pure-EOF reply.
    auto s = client.open("scan");
    ASSERT_TRUE(s.is_ok());
    std::uint64_t next = 0;
    while (true) {
      auto run = client.seq_read_many(s.value().session, 8);
      ASSERT_TRUE(run.is_ok());
      EXPECT_EQ(run.value().first_block_no, next);
      for (std::size_t j = 0; j < run.value().blocks.size(); ++j) {
        EXPECT_EQ(run.value().blocks[j],
                  record(static_cast<std::uint32_t>(next + j)));
      }
      next += run.value().blocks.size();
      if (run.value().eof) break;
    }
    EXPECT_EQ(next, 23u);
    // At EOF the vectored read keeps answering eof, like seq_read.
    auto again = client.seq_read_many(s.value().session, 8);
    ASSERT_TRUE(again.is_ok());
    EXPECT_TRUE(again.value().eof);
    EXPECT_TRUE(again.value().blocks.empty());
    // A window larger than the file drains it in one call.
    auto w = client.open("scan");
    auto whole = client.seq_read_many(w.value().session, 200);
    ASSERT_TRUE(whole.is_ok());
    EXPECT_EQ(whole.value().blocks.size(), 23u);
    EXPECT_TRUE(whole.value().eof);
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Pipeline, SeqWriteManyReadsBackAndInterleaves) {
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("bulk").is_ok());
    auto open = client.open("bulk");
    ASSERT_TRUE(open.is_ok());
    // Two vectored runs plus a single append, sizes not multiples of p.
    std::vector<std::vector<std::byte>> run1, run2;
    for (std::uint32_t i = 0; i < 10; ++i) run1.push_back(record(i));
    for (std::uint32_t i = 10; i < 17; ++i) run2.push_back(record(i));
    auto w1 = client.seq_write_many(open.value().session, run1);
    ASSERT_TRUE(w1.is_ok());
    EXPECT_EQ(w1.value().first_block_no, 0u);
    EXPECT_EQ(w1.value().count, 10u);
    auto w2 = client.seq_write_many(open.value().session, run2);
    ASSERT_TRUE(w2.is_ok());
    EXPECT_EQ(w2.value().first_block_no, 10u);
    ASSERT_TRUE(client.seq_write(open.value().session, record(17)).is_ok());
    // Single-block reads see exactly what a synchronous writer would have
    // produced.
    auto s = client.open("bulk");
    ASSERT_TRUE(s.is_ok());
    EXPECT_EQ(s.value().meta.size_blocks, 18u);
    for (std::uint32_t i = 0; i < 18; ++i) {
      auto r = client.seq_read(s.value().session);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().block_no, i);
      EXPECT_EQ(r.value().data, record(i));
    }
    // Empty and oversized runs are rejected up front.
    EXPECT_EQ(client.seq_write_many(open.value().session, {}).status().code(),
              util::ErrorCode::kInvalidArgument);
  });
  inst.run();
  // 18 blocks round-robin over 4 LFSs.
  EXPECT_EQ(inst.lfs(0).core().op_stats().appends, 5u);
  EXPECT_EQ(inst.lfs(1).core().op_stats().appends, 5u);
  EXPECT_EQ(inst.lfs(2).core().op_stats().appends, 4u);
  EXPECT_EQ(inst.lfs(3).core().op_stats().appends, 4u);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Pipeline, VectoredOpsWorkOnEveryDistribution) {
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    struct Case {
      const char* name;
      CreateOptions options;
    };
    CreateOptions chunked;
    chunked.distribution = Distribution::kChunked;
    chunked.chunk_blocks = 64;
    CreateOptions hashed;
    hashed.distribution = Distribution::kHashed;
    hashed.hash_seed = 7;
    CreateOptions linked;
    linked.distribution = Distribution::kLinked;
    linked.hash_seed = 3;
    for (const Case& c : {Case{"rr", {}}, Case{"ch", chunked},
                          Case{"ha", hashed}, Case{"li", linked}}) {
      auto id = client.create(c.name, c.options);
      ASSERT_TRUE(id.is_ok()) << c.name;
      auto open = client.open(c.name);
      ASSERT_TRUE(open.is_ok());
      std::vector<std::vector<std::byte>> run;
      for (std::uint32_t i = 0; i < 15; ++i) run.push_back(record(i));
      ASSERT_TRUE(client.seq_write_many(open.value().session, run).is_ok())
          << c.name;
      auto many = client.random_read_many(id.value(), 0, 15);
      ASSERT_TRUE(many.is_ok()) << c.name;
      for (std::uint32_t i = 0; i < 15; ++i) {
        EXPECT_EQ(many.value().blocks[i], record(i)) << c.name << " " << i;
      }
    }
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Pipeline, PartialFailureLeavesCursorIntact) {
  // Corrupt one constituent block mid-file through the tool view, then ask
  // for a window that covers it: the vectored read must fail whole, and the
  // session cursor must not advance — the next single-block read still
  // returns block 0.
  BridgeInstance inst(test_config(4));
  inst.run_client("setup", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("frag").is_ok());
    auto open = client.open("frag");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    // Global block 5 lives on LFS 1 (round-robin p=4), local block 1.
    // Overwrite it with garbage directly at the LFS level.
    auto info = client.get_info();
    ASSERT_TRUE(info.is_ok());
    efs::EfsClient lfs1(client.rpc(), info.value().lfs_services[1]);
    std::vector<std::byte> garbage(efs::kEfsDataBytes, std::byte{0xEE});
    ASSERT_TRUE(
        lfs1.write(open.value().meta.lfs_file_id, 1, garbage).is_ok());
  });
  inst.run();

  inst.run_client("reader", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open("frag");
    ASSERT_TRUE(open.is_ok());
    auto run = client.seq_read_many(open.value().session, 12);
    EXPECT_EQ(run.status().code(), util::ErrorCode::kCorrupt);
    // Cursor unchanged: single-block reads resume from block 0 and succeed
    // up to the corrupted block.
    for (std::uint32_t i = 0; i < 5; ++i) {
      auto r = client.seq_read(open.value().session);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().block_no, i);
      EXPECT_EQ(r.value().data, record(i));
    }
    EXPECT_EQ(client.seq_read(open.value().session).status().code(),
              util::ErrorCode::kCorrupt);
    // random_read_many of a clean range still works.
    auto clean = client.random_read_many(open.value().meta.id, 8, 4);
    ASSERT_TRUE(clean.is_ok());
    EXPECT_EQ(clean.value().blocks[0], record(8));
  });
  inst.run();
}

TEST(Pipeline, OutOfSpaceRunRollsBackWhole) {
  // Two tiny disks; a run that cannot fit must fail as a unit: size
  // unchanged, no physical blocks stranded, and the file still readable.
  BridgeInstance inst(test_config(2, /*blocks=*/24));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("tight").is_ok());
    auto open = client.open("tight");
    ASSERT_TRUE(open.is_ok());
    std::vector<std::vector<std::byte>> small;
    for (std::uint32_t i = 0; i < 6; ++i) small.push_back(record(i));
    ASSERT_TRUE(client.seq_write_many(open.value().session, small).is_ok());
    // 64 more blocks cannot fit on 2 x 24-block disks.
    std::vector<std::vector<std::byte>> huge;
    for (std::uint32_t i = 0; i < 64; ++i) huge.push_back(record(100 + i));
    auto w = client.seq_write_many(open.value().session, huge);
    EXPECT_EQ(w.status().code(), util::ErrorCode::kOutOfSpace);
    // The failed run moved nothing: size still 6, and the write cursor is
    // still at 6, so the next append lands at block 6.
    auto reopen = client.open("tight");
    ASSERT_TRUE(reopen.is_ok());
    EXPECT_EQ(reopen.value().meta.size_blocks, 6u);
    auto w2 = client.seq_write(open.value().session, record(6));
    ASSERT_TRUE(w2.is_ok());
    EXPECT_EQ(w2.value(), 6u);
    auto check = client.open("tight");
    ASSERT_TRUE(check.is_ok());
    for (std::uint32_t i = 0; i < 7; ++i) {
      auto r = client.seq_read(check.value().session);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().data, record(i));
    }
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Pipeline, LinkedScatterOutOfSpaceRollsBack) {
  // Linked distribution scatters appends unevenly, so one LFS can fill while
  // the other still has room — exactly the case where a torn run would
  // strand blocks.  The preflight must fail the run whole.
  BridgeInstance inst(test_config(2, /*blocks=*/24));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    CreateOptions linked;
    linked.distribution = Distribution::kLinked;
    linked.hash_seed = 5;
    ASSERT_TRUE(client.create("scatter", linked).is_ok());
    auto open = client.open("scatter");
    ASSERT_TRUE(open.is_ok());
    std::vector<std::vector<std::byte>> small;
    for (std::uint32_t i = 0; i < 6; ++i) small.push_back(record(i));
    ASSERT_TRUE(client.seq_write_many(open.value().session, small).is_ok());
    std::uint64_t appends_before =
        inst.lfs(0).core().op_stats().appends +
        inst.lfs(1).core().op_stats().appends;
    std::vector<std::vector<std::byte>> huge;
    for (std::uint32_t i = 0; i < 64; ++i) huge.push_back(record(100 + i));
    auto w = client.seq_write_many(open.value().session, huge);
    EXPECT_EQ(w.status().code(), util::ErrorCode::kOutOfSpace);
    // Nothing was physically appended anywhere (preflight fired first).
    EXPECT_EQ(inst.lfs(0).core().op_stats().appends +
                  inst.lfs(1).core().op_stats().appends,
              appends_before);
    auto reopen = client.open("scatter");
    ASSERT_TRUE(reopen.is_ok());
    EXPECT_EQ(reopen.value().meta.size_blocks, 6u);
    for (std::uint32_t i = 0; i < 6; ++i) {
      auto r = client.seq_read(reopen.value().session);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().data, record(i));
    }
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Pipeline, SingleBlockAppendRollbackRegression) {
  // The original write_block bug class: an append that fails at the LFS must
  // roll the directory's size back, or the next open sees a phantom block.
  BridgeInstance inst(test_config(2, /*blocks=*/24));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("fill").is_ok());
    auto open = client.open("fill");
    ASSERT_TRUE(open.is_ok());
    // Append one block at a time until the machine is full.
    std::uint64_t written = 0;
    while (true) {
      auto w = client.seq_write(open.value().session,
                                record(static_cast<std::uint32_t>(written)));
      if (!w.is_ok()) {
        EXPECT_EQ(w.status().code(), util::ErrorCode::kOutOfSpace);
        break;
      }
      ++written;
      ASSERT_LT(written, 100u);  // sanity: tiny disks must fill
    }
    // The failed append did not change the observable size, and every
    // written block reads back.
    auto reopen = client.open("fill");
    ASSERT_TRUE(reopen.is_ok());
    EXPECT_EQ(reopen.value().meta.size_blocks, written);
    for (std::uint64_t i = 0; i < written; ++i) {
      auto r = client.seq_read(reopen.value().session);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().data, record(static_cast<std::uint32_t>(i)));
    }
    auto r = client.seq_read(reopen.value().session);
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(r.value().eof);
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Pipeline, BufferedStreamMatchesSynchronousClient) {
  // Drive the same pseudo-random mix of writes and reads through a
  // BufferedFileStream and through plain single-block calls; the observable
  // sequences must be identical.
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("buffered").is_ok());
    ASSERT_TRUE(client.create("plain").is_ok());
    auto ob = client.open("buffered");
    auto op = client.open("plain");
    ASSERT_TRUE(ob.is_ok());
    ASSERT_TRUE(op.is_ok());
    BufferedStreamOptions opts;
    opts.read_window = 5;  // deliberately odd vs the write pattern
    opts.write_batch = 3;
    BufferedFileStream stream(client, ob.value().session, opts);

    std::uint32_t tag = 0;
    std::uint64_t reads = 0;
    for (std::uint32_t step = 0; step < 120; ++step) {
      // Deterministic but scrambled op pattern: ~2/3 writes, 1/3 reads.
      bool do_write = (step * 2654435761u) % 3u != 0u || tag == 0;
      if (do_write) {
        ASSERT_TRUE(stream.write(record(tag)).is_ok());
        ASSERT_TRUE(
            client.seq_write(op.value().session, record(tag)).is_ok());
        ++tag;
      } else {
        auto rb = stream.read();
        auto rp = client.seq_read(op.value().session);
        ASSERT_TRUE(rb.is_ok());
        ASSERT_TRUE(rp.is_ok());
        EXPECT_EQ(rb.value().eof, rp.value().eof) << "step " << step;
        EXPECT_EQ(rb.value().block_no, rp.value().block_no) << "step " << step;
        EXPECT_EQ(rb.value().data, rp.value().data) << "step " << step;
        if (!rb.value().eof) ++reads;
      }
    }
    ASSERT_TRUE(stream.flush().is_ok());
    // Drain both to EOF; they must agree block for block.
    while (true) {
      auto rb = stream.read();
      auto rp = client.seq_read(op.value().session);
      ASSERT_TRUE(rb.is_ok());
      ASSERT_TRUE(rp.is_ok());
      EXPECT_EQ(rb.value().eof, rp.value().eof);
      if (rb.value().eof || rp.value().eof) break;
      EXPECT_EQ(rb.value().block_no, rp.value().block_no);
      EXPECT_EQ(rb.value().data, rp.value().data);
      ++reads;
    }
    EXPECT_EQ(reads, tag);
    // Both files ended up the same size.
    auto cb = client.open("buffered");
    auto cp = client.open("plain");
    EXPECT_EQ(cb.value().meta.size_blocks, cp.value().meta.size_blocks);
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Pipeline, BufferedStreamRejectsOversizedRecord) {
  BridgeInstance inst(test_config(2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    BufferedFileStream stream(client, open.value().session);
    std::vector<std::byte> big(efs::kUserDataBytes + 1);
    EXPECT_EQ(stream.write(big).code(), util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(stream.pending_writes(), 0u);
  });
  inst.run();
}

TEST(Pipeline, SeqSeekRepositionsCursorWithClamp) {
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("seekable").is_ok());
    auto open = client.open("seekable");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    // Jump back: the next sequential read returns the target block.
    auto cur = client.seq_seek(open.value().session, 5);
    ASSERT_TRUE(cur.is_ok());
    EXPECT_EQ(cur.value(), 5u);
    auto r = client.seq_read(open.value().session);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().block_no, 5u);
    EXPECT_EQ(r.value().data, record(5));
    // Past-EOF seeks clamp to the file size (lseek-style): reads see EOF.
    cur = client.seq_seek(open.value().session, 1000);
    ASSERT_TRUE(cur.is_ok());
    EXPECT_EQ(cur.value(), 20u);
    r = client.seq_read(open.value().session);
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(r.value().eof);
    // And back to the start.
    ASSERT_TRUE(client.seq_seek(open.value().session, 0).is_ok());
    r = client.seq_read(open.value().session);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().block_no, 0u);
    // Unknown sessions are rejected.
    EXPECT_EQ(client.seq_seek(0xDEAD, 0).status().code(),
              util::ErrorCode::kNotFound);
  });
  inst.run();
}

TEST(Pipeline, StreamSeekFlushesAndInvalidatesWindow) {
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("sk").is_ok());
    auto open = client.open("sk");
    ASSERT_TRUE(open.is_ok());
    BufferedStreamOptions opts;
    opts.read_window = 8;
    opts.write_batch = 8;
    BufferedFileStream stream(client, open.value().session, opts);
    for (std::uint32_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(stream.write(record(i)).is_ok());
    }
    EXPECT_EQ(stream.pending_writes(), 4u);  // 16 flushed, 4 pending
    // seek() must push the write-behind buffer first — otherwise the file
    // would still be 16 blocks and the target could not exist yet.
    auto cur = stream.seek(18);
    ASSERT_TRUE(cur.is_ok());
    EXPECT_EQ(cur.value(), 18u);
    EXPECT_EQ(stream.pending_writes(), 0u);
    auto r = stream.read();
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().block_no, 18u);
    EXPECT_EQ(r.value().data, record(18));
    // Seek discards prefetched-but-unconsumed blocks: after reading 19 the
    // window holds stale state unless invalidated; jumping to 3 must return
    // exactly block 3.
    cur = stream.seek(3);
    ASSERT_TRUE(cur.is_ok());
    r = stream.read();
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().block_no, 3u);
    EXPECT_EQ(r.value().data, record(3));
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Pipeline, AdaptiveWindowGrowsOnSequentialDrainShrinksOnSeek) {
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("ad").is_ok());
    auto open = client.open("ad");
    ASSERT_TRUE(open.is_ok());
    BufferedStreamOptions opts;
    opts.adaptive = true;
    opts.read_window = 4;
    opts.min_window = 2;
    opts.max_window = 16;
    BufferedFileStream stream(client, open.value().session, opts);
    for (std::uint32_t i = 0; i < 64; ++i) {
      ASSERT_TRUE(stream.write(record(i)).is_ok());
    }
    ASSERT_TRUE(stream.flush().is_ok());
    EXPECT_EQ(stream.current_window(), 4u);
    // Drain windows sequentially: 4, then 8, then 16, then capped at 16.
    std::uint64_t next = 0;
    auto read_n = [&](std::uint32_t n) {
      for (std::uint32_t i = 0; i < n; ++i) {
        auto r = stream.read();
        ASSERT_TRUE(r.is_ok());
        ASSERT_FALSE(r.value().eof);
        EXPECT_EQ(r.value().block_no, next);
        ++next;
      }
    };
    read_n(4);
    read_n(1);  // triggers the refill that doubles the window
    EXPECT_EQ(stream.current_window(), 8u);
    read_n(7);
    read_n(1);
    EXPECT_EQ(stream.current_window(), 16u);
    read_n(15);
    read_n(1);
    EXPECT_EQ(stream.current_window(), 16u);  // clamped at max_window
    // A seek is the random-access signal: collapse to min_window.
    ASSERT_TRUE(stream.seek(0).is_ok());
    EXPECT_EQ(stream.current_window(), 2u);
    auto r = stream.read();
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().block_no, 0u);
  });
  inst.run();
}

TEST(Pipeline, StreamMoveWriteRoundTrips) {
  BridgeInstance inst(test_config(2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("mv").is_ok());
    auto open = client.open("mv");
    ASSERT_TRUE(open.is_ok());
    BufferedFileStream stream(client, open.value().session);
    for (std::uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(stream.write(record(i)).is_ok());  // rvalue overload
    }
    std::vector<std::byte> big(efs::kUserDataBytes + 1);
    EXPECT_EQ(stream.write(std::move(big)).code(),
              util::ErrorCode::kInvalidArgument);
    ASSERT_TRUE(stream.flush().is_ok());
    auto check = client.open("mv");
    ASSERT_TRUE(check.is_ok());
    EXPECT_EQ(check.value().meta.size_blocks, 10u);
    for (std::uint32_t i = 0; i < 10; ++i) {
      auto r = client.seq_read(check.value().session);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().data, record(i));
    }
  });
  inst.run();
}

TEST(Pipeline, EfsVectoredOpsRoundTrip) {
  // Tool-view coverage of the LFS-level vectored ops themselves: scrambled
  // order, a gap inside a run, and the out-of-space preflight.
  BridgeInstance inst(test_config(2, /*blocks=*/24));
  inst.run_client("tool", [&](sim::Context&, BridgeClient& client) {
    auto info = client.get_info();
    ASSERT_TRUE(info.is_ok());
    efs::EfsClient lfs(client.rpc(), info.value().lfs_services[0]);
    ASSERT_TRUE(lfs.create(77).is_ok());
    // Vectored append of 6 blocks in one call.
    std::vector<efs::BlockWrite> blocks;
    for (std::uint32_t i = 0; i < 6; ++i) {
      blocks.push_back({i, std::vector<std::byte>(
                               efs::kEfsDataBytes,
                               std::byte(static_cast<std::uint8_t>(i)))});
    }
    ASSERT_TRUE(lfs.write_many(77, blocks).is_ok());
    // Read them back in scrambled order: request order is preserved.
    std::vector<std::uint32_t> scrambled{4, 0, 5, 2, 1, 3};
    auto r = lfs.read_many(77, scrambled);
    ASSERT_TRUE(r.is_ok());
    ASSERT_EQ(r.value().size(), 6u);
    for (std::size_t j = 0; j < scrambled.size(); ++j) {
      EXPECT_EQ(r.value()[j][0],
                std::byte(static_cast<std::uint8_t>(scrambled[j])));
    }
    // A run that would leave a gap is rejected.
    EXPECT_EQ(lfs.write_many(77, {{7, blocks[0].data}, {8, blocks[0].data}})
                  .code(),
              util::ErrorCode::kInvalidArgument);
    // A vectored append beyond the free space fails whole: nothing written.
    std::uint64_t appends_before = inst.lfs(0).core().op_stats().appends;
    std::vector<efs::BlockWrite> big;
    for (std::uint32_t i = 0; i < 40; ++i) {
      big.push_back(
          {6 + i, std::vector<std::byte>(efs::kEfsDataBytes, std::byte{0x42})});
    }
    EXPECT_EQ(lfs.write_many(77, big).code(), util::ErrorCode::kOutOfSpace);
    EXPECT_EQ(inst.lfs(0).core().op_stats().appends, appends_before);
    auto after = lfs.info(77);
    ASSERT_TRUE(after.is_ok());
    EXPECT_EQ(after.value().size_blocks, 6u);
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(Pipeline, RoutedClientSpeaksVectoredOps) {
  // The distributed-directory configuration forwards the vectored ops to the
  // file's home server.
  auto cfg = test_config(4);
  cfg.num_bridge_servers = 2;
  BridgeInstance inst(cfg);
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    for (const char* name : {"alpha", "beta", "gamma"}) {
      auto id = client.create(name);
      ASSERT_TRUE(id.is_ok()) << name;
      auto open = client.open(name);
      ASSERT_TRUE(open.is_ok());
      std::vector<std::vector<std::byte>> run;
      for (std::uint32_t i = 0; i < 9; ++i) run.push_back(record(i));
      ASSERT_TRUE(client.seq_write_many(open.value().session, run).is_ok())
          << name;
      auto back = client.seq_read_many(open.value().session, 16);
      ASSERT_TRUE(back.is_ok());
      ASSERT_EQ(back.value().blocks.size(), 9u);
      for (std::uint32_t i = 0; i < 9; ++i) {
        EXPECT_EQ(back.value().blocks[i], record(i)) << name << " " << i;
      }
      auto rr = client.random_read_many(open.value().meta.id, 3, 4);
      ASSERT_TRUE(rr.is_ok());
      EXPECT_EQ(rr.value().blocks[0], record(3));
    }
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

}  // namespace
}  // namespace bridge::core
