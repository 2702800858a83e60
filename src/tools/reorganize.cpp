#include "src/tools/reorganize.hpp"

#include "src/core/bridge_block.hpp"
#include "src/core/interleave.hpp"
#include "src/efs/client.hpp"

namespace bridge::tools {

namespace {

/// One block this worker must move: where it comes from.
struct MoveTask {
  std::uint64_t global_no;
  std::uint32_t src_lfs;
  std::uint32_t src_local;
};

struct WorkerResult {
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
};

}  // namespace

util::Result<ReorganizeReport> run_reorganize_tool(sim::Context& ctx,
                                                   core::BridgeClient& client,
                                                   const std::string& src,
                                                   const std::string& dst,
                                                   FanOutConfig fanout) {
  sim::SimTime start = ctx.now();
  auto env = discover(client);
  if (!env.is_ok()) return env.status();
  std::uint32_t p = env.value().num_lfs();

  auto src_open = client.open(src);
  if (!src_open.is_ok()) return src_open.status();
  core::FileMeta src_meta = src_open.value().meta;
  std::uint64_t n = src_meta.size_blocks;

  // Resolve the whole source placement map through the server (chunked
  // pages to bound message sizes; the server charges ~2us/entry).
  std::vector<core::Placement> placements;
  placements.reserve(n);
  constexpr std::uint32_t kPage = 1024;
  for (std::uint64_t first = 0; first < n; first += kPage) {
    auto count = static_cast<std::uint32_t>(std::min<std::uint64_t>(kPage, n - first));
    auto page = client.resolve(src_meta.id, first, count);
    if (!page.is_ok()) return page.status();
    placements.insert(placements.end(), page.value().placements.begin(),
                      page.value().placements.end());
  }

  // Create the strictly interleaved destination.
  core::CreateOptions create;
  create.distribution = core::Distribution::kRoundRobin;
  create.width = p;
  create.start_lfs = 0;
  create.tree = true;
  auto created = client.create(dst, create);
  if (!created.is_ok()) return created.status();
  core::FileMeta dst_meta =
      core::created_file_meta(dst, created.value(), create, p);

  // Partition the moves by destination LFS (global block g lands on LFS
  // g mod p at local g div p, so each list is in local order).
  std::vector<std::vector<MoveTask>> tasks(p);
  for (std::uint64_t g = 0; g < n; ++g) {
    tasks[g % p].push_back(
        MoveTask{g, placements[g].lfs_index, placements[g].local_block});
  }

  WorkerGroup<WorkerResult> group(ctx, fanout);
  for (std::uint32_t j = 0; j < p; ++j) {
    if (tasks[j].empty()) continue;
    group.spawn(
        env.value().lfs_node(j), "reorg@" + std::to_string(j),
        [my_tasks = std::move(tasks[j]), tool_env = env.value(), my_lfs = j,
         src_meta, dst_meta](sim::Context& worker_ctx)
            -> util::Result<WorkerResult> {
          WorkerResult result;
          sim::RpcClient rpc(worker_ctx);
          auto lfs = tool_env.make_lfs_clients(rpc);
          ConstituentWriter out(*lfs[my_lfs], dst_meta.owner(), my_lfs);
          for (const auto& task : my_tasks) {
            auto read = lfs[task.src_lfs]->read(src_meta.lfs_file_id,
                                                task.src_local);
            if (!read.is_ok()) return read.status();
            if (task.src_lfs == my_lfs) {
              ++result.local_reads;
            } else {
              ++result.remote_reads;
            }
            auto unwrapped = core::unwrap_block(
                read.value(), src_meta.lfs_file_id, task.global_no);
            if (!unwrapped.is_ok()) return unwrapped.status();
            if (auto st = out.put(unwrapped.value().user_data); !st.is_ok()) {
              return st;
            }
          }
          return result;
        });
  }

  ReorganizeReport report;
  report.blocks = n;
  report.workers = group.spawned();
  auto results = group.wait_all();
  if (!results.is_ok()) return results.status();
  for (const auto& result : results.value()) {
    report.local_reads += result.local_reads;
    report.remote_reads += result.remote_reads;
  }
  report.elapsed = ctx.now() - start;
  return report;
}

}  // namespace bridge::tools
