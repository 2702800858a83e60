// Protocol robustness: malformed payloads, unknown message types, stale
// sessions, and interleaved session use must yield clean error replies and
// leave the servers serving.
#include <gtest/gtest.h>

#include "src/core/instance.hpp"
#include "src/efs/client.hpp"

namespace bridge::core {
namespace {

SystemConfig cfg(std::uint32_t p) {
  return SystemConfig::paper_profile(p, 512);
}

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag ^ i));
  }
  return data;
}

TEST(ProtocolRobustness, GarbagePayloadGetsErrorReply) {
  BridgeInstance inst(cfg(2));
  inst.start();
  sim::Address server = inst.bridge_address();
  bool server_alive_after = false;
  inst.runtime().spawn(
      inst.config().client_node(), "attacker", [&](sim::Context& ctx) {
        sim::RpcClient rpc(ctx);
        // Truncated / garbage payloads for several message types.
        std::vector<std::byte> junk{std::byte{0xDE}, std::byte{0xAD}};
        for (std::uint32_t type : {0x200u, 0x202u, 0x203u, 0x205u, 0x207u}) {
          auto reply = rpc.call(server, type, junk);
          EXPECT_FALSE(reply.is_ok()) << "type " << type;
        }
        // Unknown message type.
        auto reply = rpc.call(server, 0x9999, junk);
        EXPECT_FALSE(reply.is_ok());
        EXPECT_EQ(reply.status().code(), util::ErrorCode::kInvalidArgument);
        // The server must still serve real requests afterwards.
        BridgeClient client(ctx, server);
        server_alive_after = client.create("post-attack").is_ok();
      });
  inst.run();
  EXPECT_TRUE(server_alive_after);
}

TEST(ProtocolRobustness, EfsServerSurvivesGarbage) {
  BridgeInstance inst(cfg(2));
  inst.start();
  sim::Address lfs = inst.lfs(0).address();
  bool alive = false;
  inst.runtime().spawn(inst.config().client_node(), "attacker",
                       [&](sim::Context& ctx) {
                         sim::RpcClient rpc(ctx);
                         std::vector<std::byte> junk(3, std::byte{0x77});
                         for (std::uint32_t type = 0x100; type <= 0x108; ++type) {
                           (void)rpc.call(lfs, type, junk);  // fuzzing: any non-crash reply (incl. errors) is a pass
                         }
                         // The retired single-block read/write types are
                         // unknown now, not aliases of the vectored ops.
                         for (std::uint32_t type : {0x103u, 0x104u}) {
                           auto reply = rpc.call(lfs, type, junk);
                           EXPECT_EQ(reply.status().code(),
                                     util::ErrorCode::kInvalidArgument)
                               << "type " << type;
                         }
                         efs::EfsClient efs(rpc, lfs);
                         alive = efs.create(12345).is_ok();
                       });
  inst.run();
  EXPECT_TRUE(alive);
}

/// 12-byte payload: `lead_bytes` of id/session fields, then a vector count
/// of 0xFFFFFFFF, zero-padded.  Decoding it would ask for 16-96 GiB if the
/// count were trusted.
std::vector<std::byte> oversized_count(std::size_t lead_bytes) {
  util::Writer w;
  for (std::size_t i = 0; i < lead_bytes; ++i) w.u8(1);
  w.u32(0xFFFFFFFFu);
  while (w.size() < 12) w.u8(0);
  return std::move(w).take();
}

TEST(ProtocolRobustness, OversizedVectorCountsAreCorrupt) {
  BridgeInstance inst(cfg(2));
  inst.start();
  sim::Address lfs = inst.lfs(0).address();
  sim::Address bridge = inst.bridge_address();
  bool lfs_alive = false;
  bool bridge_alive = false;
  inst.runtime().spawn(
      inst.config().client_node(), "attacker", [&](sim::Context& ctx) {
        sim::RpcClient rpc(ctx);
        for (auto type : {efs::MsgType::kReadMany, efs::MsgType::kWriteMany}) {
          auto reply = rpc.call(lfs, static_cast<std::uint32_t>(type),
                                oversized_count(4));
          EXPECT_EQ(reply.status().code(), util::ErrorCode::kCorrupt)
              << efs::efs_msg_name(type);
        }
        efs::EfsClient efs(rpc, lfs);
        lfs_alive = efs.create(4242).is_ok();

        // Bridge requests whose vector count follows a u64 session, and
        // kDeleteMany, whose count leads the payload.
        for (auto type : {BridgeMsg::kSeqWriteMany, BridgeMsg::kParallelOpen}) {
          auto reply = rpc.call(bridge, static_cast<std::uint32_t>(type),
                                oversized_count(8));
          EXPECT_EQ(reply.status().code(), util::ErrorCode::kCorrupt)
              << static_cast<std::uint32_t>(type);
        }
        auto reply = rpc.call(bridge,
                              static_cast<std::uint32_t>(BridgeMsg::kDeleteMany),
                              oversized_count(0));
        EXPECT_EQ(reply.status().code(), util::ErrorCode::kCorrupt);
        BridgeClient client(ctx, bridge);
        auto id = client.create("after");
        bridge_alive = id.is_ok();
        // A resolve of 0xFFFFFFFF blocks of a real file fails at EOF
        // without reserving room for the whole range first.
        ASSERT_TRUE(id.is_ok());
        EXPECT_FALSE(client.resolve(id.value(), 0, 0xFFFFFFFFu).is_ok());
      });
  inst.run();
  EXPECT_TRUE(lfs_alive);
  EXPECT_TRUE(bridge_alive);
}

TEST(ProtocolRobustness, SessionOutlivesFileDeletionGracefully) {
  BridgeInstance inst(cfg(2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    ASSERT_TRUE(client.seq_write(open.value().session, record(1)).is_ok());
    ASSERT_TRUE(client.remove("f").is_ok());
    // The session survives as soft state but its file is gone.
    auto r = client.seq_read(open.value().session);
    EXPECT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::kNotFound);
    auto w = client.seq_write(open.value().session, record(2));
    EXPECT_FALSE(w.is_ok());
  });
  inst.run();
}

TEST(ProtocolRobustness, SessionDoesNotFollowItsNameToANewFile) {
  BridgeInstance inst(cfg(2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("a").is_ok());
    auto old_session = client.open("a");
    ASSERT_TRUE(old_session.is_ok());
    ASSERT_TRUE(client.remove("a").is_ok());
    ASSERT_TRUE(client.create("a").is_ok());
    auto writer = client.open("a");
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(client.seq_write(writer.value().session, record(7)).is_ok());
    // The old session belonged to the first "a"; the second one's block
    // must not be readable through it.
    auto r = client.seq_read(old_session.value().session);
    EXPECT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::kNotFound);
  });
  inst.run();
}

TEST(ProtocolRobustness, UnknownDistributionIsRejectedBeforeAnyLfs) {
  BridgeInstance inst(cfg(4));
  inst.start();
  sim::Address server = inst.bridge_address();
  inst.runtime().spawn(
      inst.config().client_node(), "c", [&](sim::Context& ctx) {
        sim::RpcClient rpc(ctx);
        for (std::uint8_t dist : {std::uint8_t{9},
                                  std::uint8_t{9 | kCreateTreeBit}}) {
          CreateFileRequest req;
          req.name = "bad";
          req.distribution = dist;
          auto reply =
              rpc.call(server, static_cast<std::uint32_t>(BridgeMsg::kCreate),
                       util::encode_to_bytes(req));
          EXPECT_FALSE(reply.is_ok()) << int(dist);
          EXPECT_EQ(reply.status().code(), util::ErrorCode::kInvalidArgument);
        }
        BridgeClient client(ctx, server);
        EXPECT_EQ(client.open("bad").status().code(),
                  util::ErrorCode::kNotFound);
      });
  inst.run();
  EXPECT_EQ(inst.server().directory_size(), 0u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(inst.lfs(i).core().file_count(), 0u) << "lfs " << i;
  }
}

TEST(ProtocolRobustness, TwoSessionsOnOneFileAreIndependent) {
  BridgeInstance inst(cfg(2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
    auto writer = client.open("f");
    ASSERT_TRUE(writer.is_ok());
    for (std::uint32_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(client.seq_write(writer.value().session, record(i)).is_ok());
    }
    auto s1 = client.open("f");
    auto s2 = client.open("f");
    ASSERT_TRUE(s1.is_ok());
    ASSERT_TRUE(s2.is_ok());
    // Interleave reads on the two sessions; cursors must not interfere.
    for (std::uint32_t i = 0; i < 6; ++i) {
      auto r1 = client.seq_read(s1.value().session);
      ASSERT_TRUE(r1.is_ok());
      EXPECT_EQ(r1.value().block_no, i);
      if (i % 2 == 0) {
        auto r2 = client.seq_read(s2.value().session);
        ASSERT_TRUE(r2.is_ok());
        EXPECT_EQ(r2.value().block_no, i / 2);
      }
    }
  });
  inst.run();
}

TEST(ProtocolRobustness, WriterAppendsVisibleToLaterSessionsOnly) {
  BridgeInstance inst(cfg(2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
    auto early = client.open("f");  // size snapshot: 0
    ASSERT_TRUE(early.is_ok());
    auto writer = client.open("f");
    for (std::uint32_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(client.seq_write(writer.value().session, record(i)).is_ok());
    }
    // The early session's reads see the CURRENT directory size (sessions
    // hold cursors, not snapshots): 4 blocks are readable.
    int readable = 0;
    while (true) {
      auto r = client.seq_read(early.value().session);
      ASSERT_TRUE(r.is_ok());
      if (r.value().eof) break;
      ++readable;
    }
    EXPECT_EQ(readable, 4);
  });
  inst.run();
}

TEST(ProtocolRobustness, ResolveRejectsBadRanges) {
  BridgeInstance inst(cfg(2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    auto id = client.create("f");
    ASSERT_TRUE(id.is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(client.seq_write(open.value().session, record(0)).is_ok());
    // In-range resolve works.
    auto ok = client.resolve(id.value(), 0, 1);
    ASSERT_TRUE(ok.is_ok());
    EXPECT_EQ(ok.value().placements.size(), 1u);
    // Past-EOF resolve fails cleanly.
    EXPECT_FALSE(client.resolve(id.value(), 0, 5).is_ok());
    EXPECT_FALSE(client.resolve(9999999, 0, 1).is_ok());
  });
  inst.run();
}

}  // namespace
}  // namespace bridge::core
