// RPC layer: request/reply matching, status propagation, async calls with
// out-of-order replies, and traffic accounting.
#include <gtest/gtest.h>

#include <memory>

#include <string>

#include "src/sim/rpc.hpp"

namespace bridge::sim {
namespace {

using util::ErrorCode;
using util::Reader;
using util::Writer;

constexpr std::uint32_t kEcho = 1;
constexpr std::uint32_t kFail = 2;
constexpr std::uint32_t kSlowDouble = 3;

/// Spawns a trivial service on `node` that echoes, fails, or doubles.
Address spawn_test_server(Runtime& rt, NodeId node, Mailbox& box) {
  rt.spawn(node, "server", [&box](Context& ctx) {
    ctx.set_daemon();
    while (true) {
      Envelope env = box.recv();
      switch (env.type) {
        case kEcho:
          send_reply(ctx, env, util::ok_status(), env.payload);
          break;
        case kFail:
          send_reply(ctx, env, util::not_found("no such thing"));
          break;
        case kSlowDouble: {
          Reader r(env.payload);
          std::uint64_t v = r.u64();
          ctx.charge(msec(static_cast<double>(v)));
          Writer w;
          w.u64(v * 2);
          send_reply(ctx, env, util::ok_status(), w.buffer());
          break;
        }
        default:
          send_reply(ctx, env, util::invalid_argument("bad type"));
      }
    }
  });
  return box.address();
}

TEST(Rpc, EchoRoundTrip) {
  Runtime rt(2);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  std::string got;
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    Writer w;
    w.str("ping");
    auto result = cli.call(svc, kEcho, w.buffer());
    ASSERT_TRUE(result.is_ok());
    Reader r(result.value());
    got = r.str();
  });
  rt.run();
  EXPECT_EQ(got, "ping");
}

TEST(Rpc, ErrorStatusPropagates) {
  Runtime rt(1);
  Mailbox box(rt.scheduler(), 0);
  Address svc = spawn_test_server(rt, 0, box);
  util::Status status;
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    auto result = cli.call(svc, kFail, {});
    status = result.status();
  });
  rt.run();
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(status.message(), "no such thing");
}

TEST(Rpc, RoundTripTakesTwoMessageLatencies) {
  Topology topo;
  topo.remote_latency = usec(1000);
  topo.remote_us_per_byte = 0.0;
  Runtime rt(2, topo);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  SimTime done{-1};
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    auto result = cli.call(svc, kEcho, {});
    ASSERT_TRUE(result.is_ok());
    done = ctx.now();
  });
  rt.run();
  EXPECT_EQ(done.us(), 2'000);
}

TEST(Rpc, AsyncRepliesMatchedOutOfOrder) {
  Runtime rt(2);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  std::uint64_t first = 0, second = 0;
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    // The 20ms job is issued first, the 1ms job second; the second reply
    // arrives first.  wait_reply must still match correctly.
    Writer slow;
    slow.u64(20);
    Writer fast;
    fast.u64(1);
    auto c1 = cli.call_async(svc, kSlowDouble, slow.buffer());
    auto c2 = cli.call_async(svc, kSlowDouble, fast.buffer());
    auto r1 = cli.wait_reply(c1);
    auto r2 = cli.wait_reply(c2);
    ASSERT_TRUE(r1.is_ok());
    ASSERT_TRUE(r2.is_ok());
    first = Reader(r1.value()).u64();
    second = Reader(r2.value()).u64();
  });
  rt.run();
  EXPECT_EQ(first, 40u);
  EXPECT_EQ(second, 2u);
}

TEST(Rpc, ManyOutstandingCallsInterleavedAndReversed) {
  // Eight concurrent calls whose service times are arranged so replies
  // arrive in exactly reversed order; the caller then waits in scrambled
  // order.  Every reply must route to its own correlation — no drops, no
  // cross-matched payloads.
  Runtime rt(2);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  std::vector<std::uint64_t> results(8, 0);
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    std::vector<std::uint64_t> corr(8);
    for (std::uint64_t i = 0; i < 8; ++i) {
      // Call i takes (80 - 10i) ms: the first issued replies last.
      Writer w;
      w.u64(80 - 10 * i);
      corr[i] = cli.call_async(svc, kSlowDouble, w.buffer());
    }
    // Wait in a scrambled order (neither issue nor arrival order).
    for (std::uint64_t i : {3u, 7u, 0u, 5u, 1u, 6u, 2u, 4u}) {
      auto r = cli.wait_reply(corr[i]);
      ASSERT_TRUE(r.is_ok());
      results[i] = Reader(r.value()).u64();
    }
  });
  rt.run();
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(results[i], 2 * (80 - 10 * i)) << "call " << i;
  }
}

TEST(Rpc, AsyncBatchCollectsInIssueOrder) {
  // AsyncBatch over calls that complete in reverse: wait_all returns the
  // results in issue order and drains every reply even when some fail.
  Runtime rt(2);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  bool checked = false;
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    AsyncBatch batch(cli);
    for (std::uint64_t i = 0; i < 4; ++i) {
      Writer w;
      w.u64(40 - 10 * i);
      batch.call(svc, kSlowDouble, w.buffer());
    }
    batch.call(svc, kFail, {});
    EXPECT_EQ(batch.size(), 5u);
    auto replies = batch.wait_all();
    ASSERT_EQ(replies.size(), 5u);
    for (std::uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(replies[i].is_ok());
      EXPECT_EQ(Reader(replies[i].value()).u64(), 2 * (40 - 10 * i));
    }
    EXPECT_EQ(replies[4].status().code(), ErrorCode::kNotFound);
    // The batch is reusable after wait_all, and wait_all_ok surfaces the
    // first error while still draining the rest.
    batch.call(svc, kFail, {});
    Writer w;
    w.u64(1);
    batch.call(svc, kSlowDouble, w.buffer());
    auto status = batch.wait_all_ok();
    EXPECT_EQ(status.code(), ErrorCode::kNotFound);
    // No stray replies left behind: a fresh call still matches cleanly.
    auto echo = cli.call(svc, kEcho, {});
    EXPECT_TRUE(echo.is_ok());
    checked = true;
  });
  rt.run();
  EXPECT_TRUE(checked);
}

TEST(Rpc, AsyncBatchCompletionsRunInIssueOrder) {
  // Replies arrive in reverse (call 4 first), yet the completions run in
  // issue order, and only once every reply is in.  Each completion sees its
  // own reply or error; wait_all_ok reports the first failure among replies
  // and completions.
  Runtime rt(2);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  bool checked = false;
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    AsyncBatch batch(cli);
    std::vector<std::string> seen;
    auto slow = [](std::uint64_t ms) {
      Writer w;
      w.u64(ms);
      return std::move(w).take();
    };
    auto doubled = [&](std::string tag, util::Status result) {
      return [&, tag, result](AsyncBatch::Reply reply) {
        EXPECT_GE(ctx.now().ms(), 40.0) << tag << " ran before the last reply";
        seen.push_back(tag + "=" +
                       (reply.is_ok()
                            ? std::to_string(Reader(reply.value()).u64())
                            : reply.status().to_string()));
        return result;
      };
    };
    batch.call(svc, kSlowDouble, slow(40), doubled("0", util::ok_status()));
    batch.call(svc, kFail, {}, doubled("1", util::ok_status()));
    batch.call(svc, kSlowDouble, slow(20), doubled("2", util::corrupt("no")));
    batch.call(svc, kFail, {});  // no completion: its error stands
    batch.call(svc, kSlowDouble, slow(10), doubled("4", util::ok_status()));
    auto status = batch.wait_all_ok();
    EXPECT_EQ(status.code(), ErrorCode::kCorrupt);
    std::string not_found = util::not_found("no such thing").to_string();
    EXPECT_EQ(seen, (std::vector<std::string>{"0=80", "1=" + not_found,
                                              "2=40", "4=20"}));

    // A failed reply ahead of a failed completion is the one reported, and
    // wait_all shows each completion's status in its call's slot.
    seen.clear();
    batch.call(svc, kFail, {});
    batch.call(svc, kSlowDouble, slow(1), doubled("b", util::corrupt("no")));
    batch.call(svc, kSlowDouble, slow(1), doubled("c", util::ok_status()));
    EXPECT_EQ(batch.wait_all_ok().code(), ErrorCode::kNotFound);
    EXPECT_EQ(seen, (std::vector<std::string>{"b=2", "c=2"}));
    batch.call(svc, kSlowDouble, slow(1), doubled("d", util::corrupt("no")));
    auto replies = batch.wait_all();
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].status().code(), ErrorCode::kCorrupt);
    checked = true;
  });
  rt.run();
  EXPECT_TRUE(checked);
}

TEST(Rpc, AsyncBatchDrainsWhenDestroyed) {
  // A batch that goes out of scope with a call in flight waits for its
  // reply, so the reply never lands in a mailbox whose owner has moved on.
  Runtime rt(2);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  SimTime after_scope{0};
  bool checked = false;
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    {
      AsyncBatch batch(cli);
      Writer w;
      w.u64(30);
      batch.call(svc, kSlowDouble, w.buffer());
    }
    after_scope = ctx.now();
    // Outlive the slow reply either way, so it never meets a dead mailbox.
    ctx.sleep(msec(100));
    checked = cli.call(svc, kEcho, {}).is_ok();
  });
  rt.run();
  EXPECT_TRUE(checked);
  EXPECT_GE(after_scope.ms(), 30.0);
}

TEST(Rpc, AsyncBatchParkedAtTeardownUnwinds) {
  // Processes parked on a batch when the Runtime is destroyed unwind: one
  // in wait_all, whose batch's destructor must not park again, and one in
  // that destructor's own drain, which the teardown must leave.
  std::vector<bool> unwound(2, false);
  {
    Runtime rt(2);
    Mailbox silent(rt.scheduler(), 1);  // nobody serves it
    for (int i = 0; i < 2; ++i) {
      rt.spawn(0, "client" + std::to_string(i), [&, i](Context& ctx) {
        struct Flag {
          std::vector<bool>* set;
          int i;
          ~Flag() { (*set)[i] = true; }
        } flag{&unwound, i};
        RpcClient cli(ctx);
        {
          AsyncBatch batch(cli);
          batch.call(silent.address(), kEcho, {});
          if (i == 0) (void)batch.wait_all();  // never returns
        }
        ADD_FAILURE() << "client " << i << " got past its batch";
      });
    }
    rt.run();
    EXPECT_EQ(unwound, (std::vector<bool>{false, false}));
  }
  EXPECT_EQ(unwound, (std::vector<bool>{true, true}));
}

TEST(Rpc, ManyClientsOneServer) {
  Runtime rt(4);
  Mailbox box(rt.scheduler(), 0);
  Address svc = spawn_test_server(rt, 0, box);
  int ok_count = 0;
  for (int i = 0; i < 12; ++i) {
    rt.spawn(1 + (i % 3), "client" + std::to_string(i), [&, i](Context& ctx) {
      RpcClient cli(ctx);
      Writer w;
      w.u64(static_cast<std::uint64_t>(i));
      auto result = cli.call(svc, kEcho, w.buffer());
      if (result.is_ok() && Reader(result.value()).u64() == static_cast<std::uint64_t>(i)) {
        ++ok_count;
      }
    });
  }
  rt.run();
  EXPECT_EQ(ok_count, 12);
}

TEST(Rpc, ReplyPayloadRoundTrip) {
  auto payload = make_reply_payload(util::ok_status(),
                                    std::vector<std::byte>{std::byte{1}, std::byte{2}});
  auto parsed = parse_reply_payload(payload);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().size(), 2u);

  auto err = make_reply_payload(util::out_of_space("disk full"));
  auto parsed_err = parse_reply_payload(err);
  EXPECT_FALSE(parsed_err.is_ok());
  EXPECT_EQ(parsed_err.status().code(), ErrorCode::kOutOfSpace);
  EXPECT_EQ(parsed_err.status().message(), "disk full");
}

/// A slow call to one server and a fast one to another, awaited in issue
/// order; returns the wakes the run scheduled.
std::uint64_t two_server_fan_out_wakes(bool own) {
  Runtime rt(3);
  Mailbox slow_box(rt.scheduler(), 1);
  Mailbox fast_box(rt.scheduler(), 2);
  Address slow = spawn_test_server(rt, 1, slow_box);
  Address fast = spawn_test_server(rt, 2, fast_box);
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    Writer w20;
    w20.u64(20);
    Writer w1;
    w1.u64(1);
    auto c1 = cli.call_async(slow, kSlowDouble, w20.buffer());
    auto c2 = cli.call_async(fast, kSlowDouble, w1.buffer());
    // The fast reply lands while the caller waits for the slow one.
    auto r1 = own ? cli.wait_own_reply(c1) : cli.wait_reply(c1);
    auto r2 = own ? cli.wait_own_reply(c2) : cli.wait_reply(c2);
    ASSERT_TRUE(r1.is_ok() && r2.is_ok());
    EXPECT_EQ(Reader(r1.value()).u64(), 40u);
    EXPECT_EQ(Reader(r2.value()).u64(), 2u);
  });
  rt.run();
  return rt.scheduler().stats().wakes_scheduled;
}

TEST(Rpc, WaitOwnReplyIsNotWokenByAnotherCallsReply) {
  // wait_reply parks twice (woken by the fast reply, then by its own);
  // wait_own_reply parks once, as with one reply box per server.
  EXPECT_EQ(two_server_fan_out_wakes(/*own=*/true) + 1,
            two_server_fan_out_wakes(/*own=*/false));
}

/// Three calls to three servers whose replies arrive in reverse issue
/// order (30, 20 and 10 ms of work), collected by an AsyncBatch or by hand
/// in issue order; returns the wakes the run scheduled.
std::uint64_t reverse_fan_out_wakes(bool batch, bool own) {
  Runtime rt(4);
  std::vector<std::unique_ptr<Mailbox>> boxes;
  std::vector<Address> servers;
  for (NodeId n = 1; n <= 3; ++n) {
    boxes.push_back(std::make_unique<Mailbox>(rt.scheduler(), n));
    servers.push_back(spawn_test_server(rt, n, *boxes.back()));
  }
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    std::vector<std::uint64_t> doubled;
    if (batch) {
      AsyncBatch fan_out(cli);
      for (std::uint64_t i = 0; i < 3; ++i) {
        Writer w;
        w.u64(30 - 10 * i);
        fan_out.call(servers[i], kSlowDouble, w.buffer());
      }
      for (auto& reply : fan_out.wait_all()) {
        ASSERT_TRUE(reply.is_ok());
        doubled.push_back(Reader(reply.value()).u64());
      }
    } else {
      std::vector<std::uint64_t> calls;
      for (std::uint64_t i = 0; i < 3; ++i) {
        Writer w;
        w.u64(30 - 10 * i);
        calls.push_back(cli.call_async(servers[i], kSlowDouble, w.buffer()));
      }
      for (auto call : calls) {
        auto reply = own ? cli.wait_own_reply(call) : cli.wait_reply(call);
        ASSERT_TRUE(reply.is_ok());
        doubled.push_back(Reader(reply.value()).u64());
      }
    }
    EXPECT_EQ(doubled, (std::vector<std::uint64_t>{60, 40, 20}));
  });
  rt.run();
  return rt.scheduler().stats().wakes_scheduled;
}

TEST(Rpc, AsyncBatchIsWokenOnlyByTheReplyItAwaits) {
  // The two later-issued replies land while the batch waits for the first:
  // with wait_reply each would wake it once more.
  std::uint64_t own = reverse_fan_out_wakes(/*batch=*/false, /*own=*/true);
  EXPECT_EQ(reverse_fan_out_wakes(/*batch=*/true, /*own=*/false), own);
  EXPECT_EQ(reverse_fan_out_wakes(/*batch=*/false, /*own=*/false), own + 2);
}

}  // namespace
}  // namespace bridge::sim
