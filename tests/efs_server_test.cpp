// EFS server + client over the RPC layer: end-to-end local file system
// behaviour as seen across the interconnect, including extent-map lookups
// and several clients sharing one server.
#include <gtest/gtest.h>

#include "src/efs/client.hpp"
#include "src/efs/server.hpp"

namespace bridge::efs {
namespace {

disk::Geometry geo() {
  disk::Geometry g;
  g.num_tracks = 256;
  g.blocks_per_track = 4;
  return g;
}

std::vector<std::byte> payload(std::uint32_t tag) {
  std::vector<std::byte> data(kEfsDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 13 + i));
  }
  return data;
}

TEST(EfsServer, RemoteCreateWriteReadDelete) {
  sim::Runtime rt(2);
  EfsServer server(rt, 0, geo(), disk::LatencyModel{}, EfsConfig{});
  server.start();
  bool done = false;
  rt.spawn(1, "client", [&](sim::Context& ctx) {
    sim::RpcClient rpc(ctx);
    EfsClient efs(rpc, server.address());
    ASSERT_TRUE(efs.create(31).is_ok());
    for (std::uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(efs.write(31, i, payload(i)).is_ok());
    }
    auto info = efs.info(31);
    ASSERT_TRUE(info.is_ok());
    EXPECT_EQ(info.value().size_blocks, 10u);
    for (std::uint32_t i = 0; i < 10; ++i) {
      auto r = efs.read(31, i);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value(), payload(i));
    }
    ASSERT_TRUE(efs.remove(31).is_ok());
    EXPECT_EQ(efs.info(31).status().code(), util::ErrorCode::kNotFound);
    done = true;
  });
  rt.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(server.core().verify_integrity().is_ok());
}

TEST(EfsServer, ExtentMapKeepsLookupsFlat) {
  sim::Runtime rt(2);
  EfsServer server(rt, 0, geo(), disk::LatencyModel{}, EfsConfig{});
  server.start();
  rt.spawn(1, "client", [&](sim::Context& ctx) {
    sim::RpcClient rpc(ctx);
    EfsClient efs(rpc, server.address());
    ASSERT_TRUE(efs.create(5).is_ok());
    for (std::uint32_t i = 0; i < 120; ++i) {
      ASSERT_TRUE(efs.write(5, i, payload(i)).is_ok());
    }
    for (std::uint32_t i = 0; i < 120; ++i) {
      ASSERT_TRUE(efs.read(5, i).is_ok());
    }
  });
  rt.run();
  // One map lookup per read, none per append: no chain walking, and no
  // per-file state on either side of the wire.
  EXPECT_EQ(server.core().op_stats().extent_lookups, 120u);
  // A contiguous sequential file stays one extent.
  EXPECT_EQ(server.core().op_stats().extents_allocated, 1u);
}

TEST(EfsServer, ErrorsCrossTheWire) {
  sim::Runtime rt(1);
  EfsServer server(rt, 0, geo(), disk::LatencyModel{}, EfsConfig{});
  server.start();
  rt.spawn(0, "client", [&](sim::Context& ctx) {
    sim::RpcClient rpc(ctx);
    EfsClient efs(rpc, server.address());
    EXPECT_EQ(efs.read(99, 0).status().code(), util::ErrorCode::kNotFound);
    ASSERT_TRUE(efs.create(99).is_ok());
    EXPECT_EQ(efs.create(99).code(), util::ErrorCode::kAlreadyExists);
    EXPECT_EQ(efs.read(99, 0).status().code(), util::ErrorCode::kInvalidArgument);
  });
  rt.run();
}

TEST(EfsServer, TwoClientsShareOneServer) {
  sim::Runtime rt(3);
  EfsServer server(rt, 0, geo(), disk::LatencyModel{}, EfsConfig{});
  server.start();
  int completed = 0;
  for (int c = 0; c < 2; ++c) {
    rt.spawn(1 + c, "client" + std::to_string(c), [&, c](sim::Context& ctx) {
      sim::RpcClient rpc(ctx);
      EfsClient efs(rpc, server.address());
      FileId id = 100 + static_cast<FileId>(c);
      ASSERT_TRUE(efs.create(id).is_ok());
      for (std::uint32_t i = 0; i < 20; ++i) {
        ASSERT_TRUE(efs.write(id, i, payload(c * 50 + i)).is_ok());
      }
      for (std::uint32_t i = 0; i < 20; ++i) {
        auto r = efs.read(id, i);
        ASSERT_TRUE(r.is_ok());
        EXPECT_EQ(r.value(), payload(c * 50 + i));
      }
      ++completed;
    });
  }
  rt.run();
  EXPECT_EQ(completed, 2);
  EXPECT_TRUE(server.core().verify_integrity().is_ok());
}

TEST(EfsServer, TruncateOverRpc) {
  sim::Runtime rt(2);
  EfsServer server(rt, 0, geo(), disk::LatencyModel{}, EfsConfig{});
  server.start();
  rt.spawn(1, "client", [&](sim::Context& ctx) {
    sim::RpcClient rpc(ctx);
    EfsClient efs(rpc, server.address());
    ASSERT_TRUE(efs.create(17).is_ok());
    for (std::uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(efs.write(17, i, payload(i)).is_ok());
    }
    auto t = efs.truncate(17, 6);
    ASSERT_TRUE(t.is_ok());
    EXPECT_EQ(t.value().size_blocks, 6u);
    // The kept prefix still reads back.
    auto r = efs.read(17, 5);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), payload(5));
    EXPECT_EQ(efs.read(17, 6).status().code(),
              util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(efs.truncate(17, 9).status().code(),
              util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(efs.truncate(44, 0).status().code(),
              util::ErrorCode::kNotFound);
  });
  rt.run();
  EXPECT_TRUE(server.core().verify_integrity().is_ok());
}

TEST(EfsServer, LocalClientCheaperThanRemote) {
  // A client co-located with the server (a Bridge tool worker) should finish
  // the same scan sooner than a remote client, because intra-node messages
  // are cheaper — the core claim behind exporting code to the data.
  auto measure = [&](bool local) {
    sim::Runtime rt(2);
    EfsServer server(rt, 0, geo(), disk::LatencyModel{}, EfsConfig{});
    server.start();
    sim::SimTime elapsed{};
    rt.spawn(local ? 0 : 1, "client", [&](sim::Context& ctx) {
      sim::RpcClient rpc(ctx);
      EfsClient efs(rpc, server.address());
      ASSERT_TRUE(efs.create(1).is_ok());
      for (std::uint32_t i = 0; i < 50; ++i) {
        ASSERT_TRUE(efs.write(1, i, payload(i)).is_ok());
      }
      auto start = ctx.now();
      for (std::uint32_t i = 0; i < 50; ++i) {
        ASSERT_TRUE(efs.read(1, i).is_ok());
      }
      elapsed = ctx.now() - start;
    });
    rt.run();
    return elapsed;
  };
  sim::SimTime local_time = measure(true);
  sim::SimTime remote_time = measure(false);
  EXPECT_LT(local_time.us(), remote_time.us());
}

TEST(EfsServer, AppendEstimatesTheTrackOfTheFilesLastBlock) {
  // SCAN orders queued requests by estimated track.  An append grows the
  // file from its last block, so that block's track — not the head's — is
  // where the disk will go.
  sim::Runtime rt(1);
  EfsServer server(rt, 0, geo(), disk::LatencyModel{}, EfsConfig{});
  rt.spawn(0, "writer", [&](sim::Context& ctx) {
    EfsCore& core = server.core();
    ASSERT_TRUE(core.create(ctx, 3).is_ok());
    ASSERT_TRUE(core.create(ctx, 4).is_ok());
    for (std::uint32_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(core.write(ctx, 3, i, payload(i)).is_ok());
    }
  });
  rt.run();
  const auto& g = server.disk().geometry();
  std::uint32_t head = g.track_of(server.core().peek_head(3));
  std::uint32_t tail = g.track_of(server.core().peek_block_addr(3, 39));
  ASSERT_NE(head, tail);
  auto envelope = [](MsgType type, const auto& req) {
    sim::Envelope env;
    env.type = static_cast<std::uint32_t>(type);
    env.payload = util::encode_to_bytes(req);
    return env;
  };
  auto append = WriteManyRequest::one(3, 40, payload(40));
  EXPECT_EQ(server.estimate_track(envelope(MsgType::kWriteMany, append)), tail);
  EXPECT_EQ(server.estimate_track(
                envelope(MsgType::kReadMany, ReadManyRequest{3, {0, 1}})),
            head);
  // An empty file has no track: no preference, the head stays put.
  EXPECT_EQ(server.estimate_track(envelope(
                MsgType::kWriteMany, WriteManyRequest::one(4, 0, payload(0)))),
            server.disk().current_track());
}

}  // namespace
}  // namespace bridge::efs
