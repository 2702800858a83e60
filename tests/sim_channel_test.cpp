// Channel semantics: FIFO ordering by delivery time, latency modeling,
// blocking receive, multiple producers/consumers, try_recv.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/sim/runtime.hpp"

namespace bridge::sim {
namespace {

TEST(Channel, DeliveryRespectsLatency) {
  Runtime rt(2);
  auto chan = rt.make_channel<int>(1);
  SimTime recv_time{-1};
  rt.spawn(0, "sender", [&](Context& ctx) {
    chan->send(42, msec(7));
    (void)ctx;
  });
  rt.spawn(1, "receiver", [&](Context& ctx) {
    int v = chan->recv();
    EXPECT_EQ(v, 42);
    recv_time = ctx.now();
  });
  rt.run();
  EXPECT_EQ(recv_time.us(), 7'000);
}

TEST(Channel, ReceiverBlocksUntilSend) {
  Runtime rt(1);
  auto chan = rt.make_channel<std::string>(0);
  std::string got;
  SimTime recv_time{-1};
  rt.spawn(0, "receiver", [&](Context& ctx) {
    got = chan->recv();
    recv_time = ctx.now();
  });
  rt.spawn(0, "sender", [&](Context& ctx) {
    ctx.sleep(msec(50));
    chan->send("hello", usec(10));
  });
  rt.run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(recv_time.us(), 50'010);
}

TEST(Channel, FifoOrderForSameLatency) {
  Runtime rt(1);
  auto chan = rt.make_channel<int>(0);
  std::vector<int> got;
  rt.spawn(0, "sender", [&](Context&) {
    for (int i = 0; i < 10; ++i) chan->send(i, msec(1));
  });
  rt.spawn(0, "receiver", [&](Context&) {
    for (int i = 0; i < 10; ++i) got.push_back(chan->recv());
  });
  rt.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Channel, FastMessageFromAnotherSenderOvertakes) {
  // Messages from DIFFERENT senders may arrive out of send order when their
  // latencies differ (independent paths through the interconnect).
  Runtime rt(1);
  auto chan = rt.make_channel<int>(0);
  std::vector<int> got;
  rt.spawn(0, "slow-sender", [&](Context&) { chan->send(1, msec(100)); });
  rt.spawn(0, "fast-sender", [&](Context& ctx) {
    ctx.sleep(msec(1));
    chan->send(2, msec(10));
  });
  rt.spawn(0, "receiver", [&](Context&) {
    got.push_back(chan->recv());
    got.push_back(chan->recv());
  });
  rt.run();
  EXPECT_EQ(got, (std::vector<int>{2, 1}));
}

TEST(Channel, SameSenderIsFifoEvenWithSmallerLatency) {
  // Per-sender FIFO: a small (low-latency) message sent after a large one
  // must not overtake it — it is queued behind it on the same source link.
  Runtime rt(1);
  auto chan = rt.make_channel<int>(0);
  std::vector<int> got;
  std::vector<std::int64_t> at_us;
  rt.spawn(0, "sender", [&](Context& ctx) {
    chan->send(1, msec(100));
    ctx.sleep(msec(1));
    chan->send(2, msec(10));  // would land at 11ms; held until 100ms
  });
  rt.spawn(0, "receiver", [&](Context& ctx) {
    for (int i = 0; i < 2; ++i) {
      got.push_back(chan->recv());
      at_us.push_back(ctx.now().us());
    }
  });
  rt.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_EQ(at_us, (std::vector<std::int64_t>{100'000, 100'000}));
}

TEST(Channel, MultipleReceiversEachGetOneItem) {
  Runtime rt(4);
  auto chan = rt.make_channel<int>(0);
  std::vector<int> got;
  for (int i = 0; i < 3; ++i) {
    rt.spawn(i + 1, "rx" + std::to_string(i), [&](Context&) {
      got.push_back(chan->recv());
    });
  }
  rt.spawn(0, "tx", [&](Context& ctx) {
    ctx.sleep(msec(1));
    chan->send(7, usec(5));
    chan->send(8, usec(5));
    chan->send(9, usec(5));
  });
  rt.run();
  ASSERT_EQ(got.size(), 3u);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int>{7, 8, 9}));
}

TEST(Channel, TryRecvOnlySeesDeliveredItems) {
  Runtime rt(1);
  auto chan = rt.make_channel<int>(0);
  std::vector<std::optional<int>> observations;
  rt.spawn(0, "p", [&](Context& ctx) {
    observations.push_back(chan->try_recv());  // nothing yet
    chan->send(5, msec(10));
    observations.push_back(chan->try_recv());  // in flight, not delivered
    ctx.sleep(msec(10));
    observations.push_back(chan->try_recv());  // delivered now
  });
  rt.run();
  ASSERT_EQ(observations.size(), 3u);
  EXPECT_FALSE(observations[0].has_value());
  EXPECT_FALSE(observations[1].has_value());
  ASSERT_TRUE(observations[2].has_value());
  EXPECT_EQ(*observations[2], 5);
}

TEST(Channel, ContextSendUsesTopologyLatency) {
  Topology topo;
  topo.local_latency = usec(100);
  topo.remote_latency = usec(2000);
  topo.remote_us_per_byte = 1.0;
  Runtime rt(2, topo);
  auto local = rt.make_channel<int>(0);
  auto remote = rt.make_channel<int>(1);
  SimTime local_at{-1}, remote_at{-1};
  rt.spawn(0, "tx", [&](Context& ctx) {
    ctx.send(*local, 1, 100);   // same node: 100us flat
    ctx.send(*remote, 2, 100);  // cross node: 2000 + 100*1.0 us
  });
  rt.spawn(0, "rx-local", [&](Context& ctx) {
    local->recv();
    local_at = ctx.now();
  });
  rt.spawn(1, "rx-remote", [&](Context& ctx) {
    remote->recv();
    remote_at = ctx.now();
  });
  rt.run();
  EXPECT_EQ(local_at.us(), 100);
  EXPECT_EQ(remote_at.us(), 2'100);
  EXPECT_EQ(rt.message_stats().local_messages, 1u);
  EXPECT_EQ(rt.message_stats().remote_messages, 1u);
  EXPECT_EQ(rt.message_stats().remote_bytes, 100u);
}

TEST(Channel, RecvForTimesOutWhenNothingArrives) {
  Runtime rt(1);
  auto chan = rt.make_channel<int>(0);
  std::optional<int> got = 42;
  SimTime woke{-1};
  rt.spawn(0, "rx", [&](Context& ctx) {
    got = chan->recv_for(msec(25));
    woke = ctx.now();
  });
  rt.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(woke.us(), 25'000);
}

TEST(Channel, RecvForReturnsEarlyOnDelivery) {
  Runtime rt(1);
  auto chan = rt.make_channel<int>(0);
  std::optional<int> got;
  SimTime woke{-1};
  rt.spawn(0, "rx", [&](Context& ctx) {
    got = chan->recv_for(msec(100));
    woke = ctx.now();
  });
  rt.spawn(0, "tx", [&](Context& ctx) {
    ctx.sleep(msec(10));
    chan->send(7, usec(5));
  });
  rt.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
  EXPECT_EQ(woke.us(), 10'005);
}

TEST(Channel, RecvForConsumesAlreadyDeliveredImmediately) {
  Runtime rt(1);
  auto chan = rt.make_channel<int>(0);
  std::optional<int> got;
  SimTime woke{-1};
  rt.spawn(0, "rx", [&](Context& ctx) {
    chan->send(3, SimTime(0));
    got = chan->recv_for(msec(50));
    woke = ctx.now();
  });
  rt.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(woke.us(), 0);
}

TEST(Channel, RecvForZeroTimeoutIsTryRecv) {
  Runtime rt(1);
  auto chan = rt.make_channel<int>(0);
  std::optional<int> got = 1;
  rt.spawn(0, "rx", [&](Context&) { got = chan->recv_for(SimTime(0)); });
  rt.run();
  EXPECT_FALSE(got.has_value());
}

TEST(Channel, PendingCountsInFlight) {
  Runtime rt(1);
  auto chan = rt.make_channel<int>(0);
  std::size_t pending_mid = 0;
  rt.spawn(0, "p", [&](Context&) {
    chan->send(1, msec(5));
    chan->send(2, msec(5));
    pending_mid = chan->pending();
    chan->recv();
    chan->recv();
  });
  rt.run();
  EXPECT_EQ(pending_mid, 2u);
  EXPECT_EQ(chan->pending(), 0u);
}

TEST(Channel, RecvWokenByParksThroughOtherItems) {
  // Item 1 lands at 5 ms but does not wake the receiver; item 2 does, at
  // 20 ms.  Items that have arrived are still returned in delivery order.
  // The receiver parks before the sends, or after them with both in flight.
  for (std::int64_t park_at_us : {0, 1'000}) {
    Runtime rt(1);
    auto chan = rt.make_channel<int>(0);
    std::vector<int> got;
    std::vector<std::int64_t> at_us;
    rt.spawn(0, "receiver", [&](Context& ctx) {
      ctx.sleep(usec(park_at_us));
      std::function<bool(const int&)> two = [](const int& v) {
        return v == 2;
      };
      for (int i = 0; i < 2; ++i) {
        got.push_back(chan->recv_woken_by(two));
        at_us.push_back(ctx.now().us());
      }
    });
    rt.spawn(0, "sender", [&](Context&) {
      chan->send(1, msec(5));
      chan->send(2, msec(20));
    });
    rt.run();
    EXPECT_EQ(got, (std::vector<int>{1, 2})) << park_at_us;
    EXPECT_EQ(at_us, (std::vector<std::int64_t>{20'000, 20'000}))
        << park_at_us;
  }
}

}  // namespace
}  // namespace bridge::sim
