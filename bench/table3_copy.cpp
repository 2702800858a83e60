// Reproduces Table 3 + the copy-tool figure: "Copy Tool Performance
// (10 Mbyte file)".
//
//   Processors   Copy Time          and the records/second speedup figure
//        2       311.6 sec          (~475 records/sec at p = 32, nearly
//        4       156.0 sec           linear speedup as processors are added)
//        8        79.3 sec
//       16        41.0 sec
//       32        21.6 sec
//
// The copy tool is O(n/p + log p): each ecopy worker copies its node's
// constituent file with purely node-local traffic.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/tools/copy.hpp"

namespace bridge::bench {
namespace {

struct PaperRow {
  std::uint32_t p;
  double copy_sec;
};
constexpr PaperRow kPaper[] = {
    {2, 311.6}, {4, 156.0}, {8, 79.3}, {16, 41.0}, {32, 21.6}};

}  // namespace
}  // namespace bridge::bench

int main(int argc, char** argv) {
  using namespace bridge::bench;
  std::uint64_t records = flag_value(argc, argv, "records", 10240);
  JsonReporter json(argc, argv);
  ObsOptions trace(argc, argv);

  print_header("Table 3: Copy tool performance (10 Mbyte file)");
  std::printf("file: %llu one-block records\n\n",
              static_cast<unsigned long long>(records));
  std::printf("%4s | %12s %12s | %9s %10s | %10s %10s | %9s %9s\n", "p",
              "copy time", "(paper)", "startup", "transfer", "rec/sec",
              "(paper)", "speedup", "(paper)");
  std::printf("-----+---------------------------+----------------------+"
              "-----------------------+--------------------\n");

  double base_sec = 0;
  for (const auto& paper : kPaper) {
    std::uint32_t p = paper.p;
    // Disk must hold src + dst constituents.
    auto cfg = bridge::core::SystemConfig::paper_profile(
        p, static_cast<std::uint32_t>(2 * records / p + 128));
    bridge::core::BridgeInstance inst(cfg);
    trace.arm(inst);
    fill_random_file(inst, "src", records, /*seed=*/42 + p);

    bridge::tools::CopyReport report;
    inst.run_client("copy-tool", [&](bridge::sim::Context& ctx,
                                     bridge::core::BridgeClient& client) {
      auto result = bridge::tools::run_copy_tool(ctx, client, "src", "dst");
      if (!result.is_ok()) {
        std::fprintf(stderr, "copy failed: %s\n",
                     result.status().to_string().c_str());
        return;
      }
      report = result.value();
    });
    inst.run();
    if (report.blocks != records) {
      std::fprintf(stderr, "p=%u: copied %llu of %llu blocks\n", p,
                   static_cast<unsigned long long>(report.blocks),
                   static_cast<unsigned long long>(records));
      return 1;
    }

    double sec = report.elapsed.sec();
    double startup = report.startup.sec();
    if (p == 2) base_sec = sec;
    double paper_base = kPaper[0].copy_sec;
    std::printf("%4u | %10.1f s %10.1f s | %7.2f s %8.1f s | %8.0f %8.0f "
                "| %7.2fx %7.2fx\n",
                p, sec, paper.copy_sec, startup, sec - startup,
                static_cast<double>(records) / sec,
                static_cast<double>(records) / paper.copy_sec,
                base_sec / sec, paper_base / paper.copy_sec);
    json.emit("table3_copy",
              {{"p", p},
               {"records", static_cast<double>(records)},
               {"copy_sec", sec},
               {"startup_sec", startup},
               {"transfer_sec", sec - startup},
               {"records_per_sec", static_cast<double>(records) / sec},
               {"speedup", base_sec / sec}},
              inst.metrics_summary_json());
    trace.capture();
  }
  std::printf(
      "\nshape check: near-linear speedup 2 -> 32 processors (paper: 14.4x\n"
      "over a 16x node increase).\n");
  return 0;
}
