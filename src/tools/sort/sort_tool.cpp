#include "src/tools/sort/sort_tool.hpp"

#include <memory>
#include <vector>

#include "src/tools/sort/local_sort.hpp"
#include "src/tools/sort/token_merge.hpp"

namespace bridge::tools {

namespace {

util::Status first_error(const std::vector<MergeWorkerResult>& results) {
  for (const auto& r : results) {
    if (r.error != util::ErrorCode::kOk) {
      return util::Status(r.error, r.message);
    }
  }
  return util::ok_status();
}

}  // namespace

util::Result<SortReport> run_sort_tool(sim::Context& ctx,
                                       core::BridgeApi& client,
                                       const std::string& src,
                                       const std::string& dst,
                                       SortOptions options) {
  sim::SimTime t0 = ctx.now();
  auto env = discover(client);
  if (!env.is_ok()) return env.status();

  auto src_open = client.open(src);
  if (!src_open.is_ok()) return src_open.status();
  core::FileMeta src_meta = src_open.value().meta;
  if (static_cast<core::Distribution>(src_meta.distribution) !=
      core::Distribution::kRoundRobin) {
    return util::invalid_argument("sort tool requires an interleaved source");
  }
  std::uint32_t p = env.value().num_lfs();
  std::uint32_t w = src_meta.width;

  SortReport report;
  report.records = src_meta.size_blocks;

  // --- Phase 1: local external sorts, one worker per constituent LFS. ---
  std::vector<core::FileMeta> runs;
  {
    WorkerGroup<LocalSortResult> group(ctx, options.fanout);
    std::vector<std::string> run_names;
    for (std::uint32_t j = 0; j < w; ++j) {
      std::uint32_t lfs = (src_meta.start_lfs + j) % p;
      std::string run_name = dst + "#run" + std::to_string(j);
      core::CreateOptions create;
      create.width = 1;
      create.start_lfs = lfs;
      if (auto created = client.create(run_name, create); !created.is_ok()) {
        return created.status();
      }
      auto run_open = client.open(run_name);
      if (!run_open.is_ok()) return run_open.status();

      LocalSortTask task;
      task.lfs_service = env.value().lfs_service(lfs);
      task.lfs_index = lfs;
      task.offset = j;
      task.local_count =
          src_meta.size_blocks / w + (j < src_meta.size_blocks % w ? 1 : 0);
      task.src = src_meta;
      task.run = run_open.value().meta;
      task.tuning = options.tuning;
      group.spawn(env.value().lfs_node(lfs), "lsort@" + std::to_string(lfs),
                  [task](sim::Context& worker_ctx) {
                    return run_local_sort(worker_ctx, task);
                  });
      run_names.push_back(run_name);
    }
    for (const auto& result : group.wait_all()) {
      if (result.error != util::ErrorCode::kOk) {
        return util::Status(result.error, result.message);
      }
    }
    // Re-open the runs so the Bridge directory learns their sizes.
    for (const auto& name : run_names) {
      auto open = client.open(name);
      if (!open.is_ok()) return open.status();
      runs.push_back(open.value().meta);
    }
  }
  report.local_phase = ctx.now() - t0;

  // --- Phase 2: log-depth tree of parallel token merges. ---
  sim::SimTime merge_start = ctx.now();
  std::uint32_t pass = 0;
  if (runs.size() == 1) {
    // A width-1 source sorts into a single run: that run is the result.
    auto renamed = client.rename(runs[0].name, dst);
    if (!renamed.is_ok()) return renamed.status();
  }
  while (runs.size() > 1) {
    ++pass;
    bool final_pass = runs.size() == 2;
    std::vector<core::FileMeta> next_runs;
    std::vector<std::string> consumed;
    WorkerGroup<MergeWorkerResult> group(ctx, options.fanout);
    std::vector<std::unique_ptr<TokenMerge>> merges;

    std::size_t pair_count = runs.size() / 2;
    for (std::size_t j = 0; j < pair_count; ++j) {
      const core::FileMeta& a = runs[2 * j];
      const core::FileMeta& b = runs[2 * j + 1];
      std::string out_name = final_pass
                                 ? dst
                                 : dst + "#m" + std::to_string(pass) + "_" +
                                       std::to_string(j);
      core::CreateOptions create;
      create.width = a.width + b.width;
      create.start_lfs = a.start_lfs;
      if (auto created = client.create(out_name, create); !created.is_ok()) {
        return created.status();
      }
      auto out_open = client.open(out_name);
      if (!out_open.is_ok()) return out_open.status();

      merges.push_back(std::make_unique<TokenMerge>(
          ctx, env.value(), a, b, out_open.value().meta, options.tuning));
      merges.back()->launch(group);
      consumed.push_back(a.name);
      consumed.push_back(b.name);
      next_runs.push_back(out_open.value().meta);
    }
    if (runs.size() % 2 == 1) next_runs.push_back(runs.back());

    // Give every worker a head start, then inject the start tokens.
    ctx.sleep(sim::msec(1));
    for (auto& merge : merges) merge->kick(ctx);
    auto results = group.wait_all();
    if (auto st = first_error(results); !st.is_ok()) return st;

    // "Discard the old files in parallel."
    if (auto st = client.remove_many(consumed); !st.is_ok()) return st;
    // Refresh sizes of the newly written merge outputs.
    for (auto& meta : next_runs) {
      auto open = client.open(meta.name);
      if (!open.is_ok()) return open.status();
      meta = open.value().meta;
    }
    runs = std::move(next_runs);
  }
  report.merge_passes = pass;
  report.merge_phase = ctx.now() - merge_start;
  report.total = ctx.now() - t0;
  return report;
}

}  // namespace bridge::tools
