// Ablation A2: the parallel-open view and virtual parallelism (§4.1, §6).
//
// "The parallel-open access method offers true parallelism up to the
// interleaving breadth of the Bridge file or the bandwidth of interprocessor
// communication, whichever is least.  It also offers virtual parallelism to
// any reasonable degree."  And: "specifying too many workers ... cannot
// cause incorrect results, but it may lead to unexpected performance" (the
// lock-step rounds).
//
// Sweep the worker count t on a fixed p-LFS machine and measure whole-file
// parallel-read time; t = 1 degenerates to the naive interface's behaviour.
#include <cstdio>

#include "bench/bench_util.hpp"

namespace bridge::bench {
namespace {

double measure(std::uint32_t p, std::uint32_t t, std::uint64_t records) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(records / p + records + 64));
  core::BridgeInstance inst(cfg);
  fill_random_file(inst, "f", records, 5);

  std::vector<sim::Address> workers(t);
  for (std::uint32_t w = 0; w < t; ++w) {
    inst.runtime().spawn(w % p, "worker" + std::to_string(w),
                         [&workers, w](sim::Context& ctx) {
                           core::ParallelWorker worker(ctx);
                           workers[w] = worker.address();
                           while (!worker.next_block().eof) {
                           }
                         });
  }
  double elapsed = 0;
  inst.run_client("controller", [&](sim::Context& ctx,
                                    core::BridgeClient& client) {
    ctx.sleep(sim::msec(1));
    auto open = client.open("f");
    if (!open.is_ok()) return;
    auto job = client.parallel_open(open.value().session, workers);
    if (!job.is_ok()) return;
    auto start = ctx.now();
    while (true) {
      auto resp = client.parallel_read(job.value());
      if (!resp.is_ok() || resp.value().eof) break;
    }
    elapsed = (ctx.now() - start).sec();
  });
  inst.run();
  return elapsed;
}

}  // namespace
}  // namespace bridge::bench

int main(int argc, char** argv) {
  using namespace bridge::bench;
  std::uint64_t records = flag_value(argc, argv, "records", 512);
  std::uint32_t p = static_cast<std::uint32_t>(flag_value(argc, argv, "p", 8));
  JsonReporter json(argc, argv);

  print_header("Ablation A2: parallel open - workers vs LFS count");
  std::printf("p = %u LFS nodes, %llu records; sweep worker count t\n\n", p,
              static_cast<unsigned long long>(records));
  std::printf("%4s | %10s | %10s | %9s | %s\n", "t", "time", "rec/sec",
              "speedup", "regime");
  std::printf("-----+------------+------------+-----------+------------------\n");
  double base = 0;
  for (std::uint32_t t : {1u, 2u, 4u, 8u, 16u, 32u}) {
    double sec = measure(p, t, records);
    if (t == 1) base = sec;
    const char* regime = t < p ? "under-subscribed"
                         : t == p ? "matched (t = p)"
                                  : "virtual parallelism";
    std::printf("%4u | %8.2f s | %10.0f | %8.2fx | %s\n", t, sec,
                static_cast<double>(records) / sec, base / sec, regime);
    json.emit("ablation_parallel_open",
              {{"p", p},
               {"records", static_cast<double>(records)},
               {"t", t},
               {"time_sec", sec},
               {"speedup", base / sec}});
  }
  std::printf(
      "\nshape checks: throughput grows until t = p, then flattens - extra\n"
      "workers only add lock-step rounds over the same p disks (the hidden\n"
      "serialization of section 4.1).\n");
  return 0;
}
