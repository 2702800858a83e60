// Reproduces the two inline speedup figures of §5: records/second versus
// processors for the copy tool and the merge-sort tool, with the analytic
// model's prediction overlaid (the paper notes its analysis "agrees quite
// nicely with empirical data").  The sort runs twice: with the paper's
// token-tree merge (fig_speedup_sort rows) and with the one-pass rank merge
// that is the tool's default (fig_speedup_sort_rank).
//
// The paper's figures plot the Table 3/4 runs (10 Mbyte file, ~475 copy
// records/sec at p=32; ~35 sort records/sec).  Run with --records=10240 to
// regenerate at full scale; the default is smaller so this figure bench
// stays quick next to the table benches.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/core/analysis.hpp"
#include "src/tools/copy.hpp"
#include "src/tools/sort/sort_tool.hpp"

namespace bridge::bench {
namespace {

tools::CopyReport run_copy(std::uint32_t p, std::uint64_t records,
                           ObsOptions& trace, std::string& metrics) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(2 * records / p + 128));
  core::BridgeInstance inst(cfg);
  trace.arm(inst);
  fill_random_file(inst, "src", records, 11 + p);
  tools::CopyReport report;
  inst.run_client("copy", [&](sim::Context& ctx, core::BridgeClient& client) {
    auto result = tools::run_copy_tool(ctx, client, "src", "dst");
    if (result.is_ok()) report = result.value();
  });
  inst.run();
  metrics = inst.metrics_summary_json();
  trace.capture();
  return report;
}

/// One sort at width p with `merge`; `bridge_requests` counts what the sort
/// asked of the Bridge Server.
tools::SortReport run_sort(std::uint32_t p, std::uint64_t records,
                           std::uint32_t c, tools::SortMerge merge,
                           ObsOptions& trace, std::string& metrics,
                           std::uint64_t& bridge_requests) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(4 * records / p + 256));
  core::BridgeInstance inst(cfg);
  trace.arm(inst);
  fill_random_file(inst, "input", records, 13 + p);
  tools::SortReport report;
  std::uint64_t requests_before = inst.server().stats().requests;
  inst.run_client("sort", [&](sim::Context& ctx, core::BridgeClient& client) {
    tools::SortOptions options;
    options.tuning.in_core_records = c;
    options.merge = merge;
    auto result = tools::run_sort_tool(ctx, client, "input", "sorted", options);
    if (result.is_ok()) report = result.value();
  });
  inst.run();
  bridge_requests = inst.server().stats().requests - requests_before;
  metrics = inst.metrics_summary_json();
  trace.capture();
  return report;
}

}  // namespace
}  // namespace bridge::bench

int main(int argc, char** argv) {
  using namespace bridge::bench;
  using bridge::core::CostModel;
  std::uint64_t records = flag_value(argc, argv, "records", 4096);
  auto c = static_cast<std::uint32_t>(
      flag_value(argc, argv, "in-core", records / 20 + 16));
  // --max-p caps the processor sweep (CI perf-smoke runs p<=16 so the
  // ucontext-switch comparison stays fast); default covers the full figure.
  auto max_p = static_cast<std::uint32_t>(flag_value(argc, argv, "max-p", 64));
  JsonReporter json(argc, argv);
  ObsOptions trace(argc, argv);

  CostModel model;  // defaults match the paper profile's Table 2 regime

  print_header("Figure: copy tool records/second vs processors");
  std::printf("file: %llu records; model overlay: O(n/p + log p)\n\n",
              static_cast<unsigned long long>(records));
  std::printf("%4s | %10s | %10s | %10s | %10s | %10s %10s\n", "p", "time",
              "startup", "transfer", "rec/sec", "speedup", "(model)");
  std::printf("-----+------------+------------+------------+------------+-----"
              "-----------------\n");
  double copy_base = 0, copy_model_base = 0;
  for (std::uint32_t p : {2u, 4u, 8u, 16u, 32u, 64u}) {
    if (p > max_p) break;
    std::string metrics;
    auto report = run_copy(p, records, trace, metrics);
    double sec = report.elapsed.sec();
    double startup = report.startup.sec();
    double model_sec = bridge::core::predicted_copy_seconds(records, p, model);
    if (p == 2) {
      copy_base = sec;
      copy_model_base = model_sec;
    }
    std::printf("%4u | %8.2f s | %8.3f s | %8.2f s | %10.0f | %9.2fx %9.2fx\n",
                p, sec, startup, sec - startup, records / sec, copy_base / sec,
                copy_model_base / model_sec);
    std::fflush(stdout);
    json.emit("fig_speedup_copy",
              {{"p", p},
               {"records", static_cast<double>(records)},
               {"copy_sec", sec},
               {"startup_sec", startup},
               {"transfer_sec", sec - startup},
               {"speedup", copy_base / sec},
               {"model_speedup", copy_model_base / model_sec}},
              metrics, trace.timeseries_json());
  }

  // The paper's token-tree merge, then the one-pass rank merge; both
  // overlay the token-merge model.
  for (auto merge : {bridge::tools::SortMerge::kTokenTree,
                     bridge::tools::SortMerge::kRank}) {
    bool rank = merge == bridge::tools::SortMerge::kRank;
    print_header(rank ? "Figure: sort tool (rank merge) records/second vs "
                        "processors"
                      : "Figure: sort tool records/second vs processors");
    std::printf("file: %llu records, c = %u; model: local phase + token merge\n",
                static_cast<unsigned long long>(records), c);
    std::printf("max useful merge width (token circulation, section 6): %.0f "
                "processes\n\n",
                bridge::core::max_useful_merge_width(model));
    std::printf("%4s | %10s | %10s | %10s | %6s | %10s | %10s %10s\n", "p",
                "time", "local", "merge", "passes", "rec/sec", "speedup",
                "(model)");
    std::printf("-----+------------+------------+------------+--------+-------"
                "-----+----------------------\n");
    double sort_base = 0, sort_model_base = 0;
    for (std::uint32_t p : {2u, 4u, 8u, 16u, 32u, 64u}) {
      if (p > max_p) break;
      std::string metrics;
      std::uint64_t bridge_requests = 0;
      auto report =
          run_sort(p, records, c, merge, trace, metrics, bridge_requests);
      double sec = report.total.sec();
      // hinted_reads = true: model the layout-v2 extent map (no chain
      // walk).  Pass false with walk_step_ms = 4.4 to model the 1988
      // prototype's anomalously super-linear curve instead.
      double model_sec =
          bridge::core::predicted_local_sort_seconds(records, p, c, true, 0.0,
                                                     model) +
          bridge::core::predicted_merge_seconds(records, p, model);
      if (p == 2) {
        sort_base = sec;
        sort_model_base = model_sec;
      }
      std::printf("%4u | %8.1f s | %8.1f s | %8.1f s | %6u | %10.1f | %9.2fx "
                  "%9.2fx\n",
                  p, sec, report.local_phase.sec(), report.merge_phase.sec(),
                  report.merge_passes, records / sec, sort_base / sec,
                  sort_model_base / model_sec);
      std::fflush(stdout);
      json.emit(rank ? "fig_speedup_sort_rank" : "fig_speedup_sort",
                {{"p", p},
                 {"records", static_cast<double>(records)},
                 {"sort_sec", sec},
                 {"local_sec", report.local_phase.sec()},
                 {"merge_sec", report.merge_phase.sec()},
                 {"merge_passes", static_cast<double>(report.merge_passes)},
                 {"bridge_requests", static_cast<double>(bridge_requests)},
                 {"speedup", sort_base / sec},
                 {"model_speedup", sort_model_base / model_sec}},
                metrics, trace.timeseries_json());
    }
  }
  std::printf(
      "\nshape checks: copy speedup near-linear; sort speedup rises through\n"
      "p = 64 with either merge.  A sort makes 3 Bridge requests at every p\n"
      "(bridge_requests): Get Info, Open src and Create dst.  Sizes are\n"
      "computed, dst's metadata comes from its Create, and the runs and\n"
      "merge outputs are tool-private LFS files, created one batch at a\n"
      "time.  Both sort tables overlay the token-merge model.  The token\n"
      "tree makes ceil(log2 p) passes and falls below the model as p grows.\n"
      "The rank merge makes one pass: the controller ranks every record and\n"
      "each dst constituent gathers its own.  Its curve runs above the\n"
      "model and is super-linear because the local phase is: each doubling\n"
      "of p halves the per-node data and removes a local merge pass.  At\n"
      "p = 64 its local phase is the longer one.  The 1988 prototype's chain\n"
      "walk, which made its local merges slow, is gone since layout v2\n"
      "(section 5.2's cure; ablation A9 shows the anomaly and its\n"
      "disappearance side by side).\n");
  return 0;
}
