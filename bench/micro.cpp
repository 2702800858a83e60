// Ablation A6: google-benchmark microbenchmarks of the pure-logic hot paths
// (real CPU time, not simulated time): interleave math, serde, checksums,
// placement maps, and the DES scheduler/channel machinery itself.
#include <benchmark/benchmark.h>

#include "src/core/bridge_block.hpp"
#include "src/core/distribution.hpp"
#include "src/core/interleave.hpp"
#include "src/sim/runtime.hpp"
#include "src/util/hash.hpp"
#include "src/util/serde.hpp"

namespace {

void BM_InterleavePlacement(benchmark::State& state) {
  std::uint64_t n = 0;
  for (auto _ : state) {
    auto placement = bridge::core::striped_placement(n++, 16, 3, 32);
    benchmark::DoNotOptimize(placement);
  }
}
BENCHMARK(BM_InterleavePlacement);

void BM_InterleaveRoundTrip(benchmark::State& state) {
  std::uint64_t n = 0;
  for (auto _ : state) {
    auto placement = bridge::core::striped_placement(n, 8, 1, 8);
    auto back = bridge::core::striped_global(placement.lfs_index,
                                             placement.local_block, 8, 1, 8);
    benchmark::DoNotOptimize(back);
    ++n;
  }
}
BENCHMARK(BM_InterleaveRoundTrip);

void BM_PlacementMapHashedAppend(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    bridge::core::PlacementMap map(bridge::core::Distribution::kHashed, 32, 0,
                                   32, 0, 7);
    state.ResumeTiming();
    for (int i = 0; i < 1024; ++i) benchmark::DoNotOptimize(map.append());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_PlacementMapHashedAppend);

void BM_SerdeWriteRequest(benchmark::State& state) {
  std::vector<std::byte> payload(1000);
  for (auto _ : state) {
    bridge::util::Writer w(1100);
    w.u32(17);
    w.u32(12345);
    w.u32(0xFFFFFFFF);
    w.bytes(payload);
    benchmark::DoNotOptimize(w.buffer().data());
  }
  state.SetBytesProcessed(state.iterations() * 1012);
}
BENCHMARK(BM_SerdeWriteRequest);

void BM_BridgeBlockWrapUnwrap(benchmark::State& state) {
  std::vector<std::byte> data(960, std::byte{0x5A});
  bridge::core::BlockOwner owner{9, 1, 0};
  for (auto _ : state) {
    auto wrapped = bridge::core::wrap_block(owner, 0, data);
    auto unwrapped = bridge::core::unwrap_block(wrapped.value(), 9, 0);
    benchmark::DoNotOptimize(unwrapped.value().user_data.data());
  }
  state.SetBytesProcessed(state.iterations() * 960);
}
BENCHMARK(BM_BridgeBlockWrapUnwrap);

void BM_Fnv1a(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)),
                              std::byte{0x42});
  for (auto _ : state) {
    benchmark::DoNotOptimize(bridge::util::fnv1a_32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fnv1a)->Arg(64)->Arg(960);

void BM_SchedulerSleepEvents(benchmark::State& state) {
  // Cost of one simulated event (park + dispatch handshake).
  for (auto _ : state) {
    state.PauseTiming();
    bridge::sim::Runtime rt(1);
    state.ResumeTiming();
    rt.spawn(0, "p", [](bridge::sim::Context& ctx) {
      for (int i = 0; i < 1000; ++i) ctx.sleep(bridge::sim::usec(1));
    });
    rt.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerSleepEvents);

void BM_ChannelPingPong(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    bridge::sim::Runtime rt(2);
    auto ping = rt.make_channel<int>(0);
    auto pong = rt.make_channel<int>(1);
    state.ResumeTiming();
    rt.spawn(0, "ping", [&](bridge::sim::Context& ctx) {
      for (int i = 0; i < 500; ++i) {
        ctx.send(*pong, i, 16);
        ping->recv();
      }
    });
    rt.spawn(1, "pong", [&](bridge::sim::Context& ctx) {
      for (int i = 0; i < 500; ++i) {
        pong->recv();
        ctx.send(*ping, i, 16);
      }
    });
    rt.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ChannelPingPong);

}  // namespace

BENCHMARK_MAIN();
