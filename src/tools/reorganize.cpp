#include "src/tools/reorganize.hpp"

#include "src/core/bridge_block.hpp"
#include "src/core/interleave.hpp"
#include "src/efs/client.hpp"

namespace bridge::tools {

namespace {

/// One block this worker must move: where it comes from and where it lands.
struct MoveTask {
  std::uint64_t global_no;
  std::uint32_t src_lfs;
  std::uint32_t src_local;
  std::uint32_t dst_local;
};

struct WorkerResult {
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
  util::ErrorCode error = util::ErrorCode::kOk;
  std::string message;
};

}  // namespace

util::Result<ReorganizeReport> run_reorganize_tool(sim::Context& ctx,
                                                   core::BridgeApi& client,
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
  if (auto created = client.create(dst, create); !created.is_ok()) {
    return created.status();
  }
  auto dst_open = client.open(dst);
  if (!dst_open.is_ok()) return dst_open.status();
  core::FileMeta dst_meta = dst_open.value().meta;

  // Partition the moves by destination LFS (global block g lands on LFS
  // g mod p at local g div p).
  std::vector<std::vector<MoveTask>> tasks(p);
  for (std::uint64_t g = 0; g < n; ++g) {
    auto dst_place = core::striped_placement(g, p, 0, p);
    tasks[dst_place.lfs_index].push_back(
        MoveTask{g, placements[g].lfs_index, placements[g].local_block,
                 dst_place.local_block});
  }

  WorkerGroup<WorkerResult> group(ctx, fanout);
  for (std::uint32_t j = 0; j < p; ++j) {
    if (tasks[j].empty()) continue;
    auto my_tasks = std::move(tasks[j]);
    sim::Address my_service = env.value().lfs_service(j);
    std::vector<sim::Address> services;
    for (std::uint32_t i = 0; i < p; ++i) {
      services.push_back(env.value().lfs_service(i));
    }
    std::uint32_t my_lfs = j;
    group.spawn(
        env.value().lfs_node(j), "reorg@" + std::to_string(j),
        [my_tasks = std::move(my_tasks), services, my_service, my_lfs,
         src_meta, dst_meta](sim::Context& worker_ctx) -> WorkerResult {
          WorkerResult result;
          sim::RpcClient rpc(worker_ctx);
          std::vector<std::unique_ptr<efs::EfsClient>> lfs;
          for (const auto& service : services) {
            lfs.push_back(std::make_unique<efs::EfsClient>(rpc, service));
          }
          efs::EfsClient mine(rpc, my_service);
          // Destination blocks must be appended in local order; tasks are
          // already sorted by dst_local (ascending global order).
          for (const auto& task : my_tasks) {
            auto read = lfs[task.src_lfs]->read(src_meta.lfs_file_id,
                                                task.src_local);
            if (!read.is_ok()) {
              result.error = read.status().code();
              result.message = read.status().message();
              return result;
            }
            if (task.src_lfs == my_lfs) {
              ++result.local_reads;
            } else {
              ++result.remote_reads;
            }
            auto unwrapped = core::unwrap_block(read.value());
            if (!unwrapped.is_ok()) {
              result.error = unwrapped.status().code();
              result.message = unwrapped.status().message();
              return result;
            }
            core::BridgeBlockHeader header;
            header.file_id = dst_meta.lfs_file_id;
            header.global_block_no = task.global_no;
            header.width = dst_meta.width;
            header.start_lfs = dst_meta.start_lfs;
            auto wrapped =
                core::wrap_block(header, unwrapped.value().user_data);
            if (!wrapped.is_ok()) {
              result.error = wrapped.status().code();
              result.message = wrapped.status().message();
              return result;
            }
            auto write =
                mine.write(dst_meta.lfs_file_id, task.dst_local,
                           wrapped.value());
            if (!write.is_ok()) {
              result.error = write.code();
              result.message = write.message();
              return result;
            }
          }
          return result;
        });
  }

  ReorganizeReport report;
  report.blocks = n;
  report.workers = group.spawned();
  for (auto& result : group.wait_all()) {
    if (result.error != util::ErrorCode::kOk) {
      return util::Status(result.error, std::move(result.message));
    }
    report.local_reads += result.local_reads;
    report.remote_reads += result.remote_reads;
  }
  report.elapsed = ctx.now() - start;
  return report;
}

}  // namespace bridge::tools
