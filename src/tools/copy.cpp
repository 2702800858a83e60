#include "src/tools/copy.hpp"

#include <optional>

#include "src/efs/client.hpp"

namespace bridge::tools {

namespace {

struct EcopyResult {
  std::uint64_t blocks = 0;
  std::uint64_t summary = 0;
};

struct EcopyTask {
  sim::Address lfs_service;
  std::uint32_t offset = 0;        ///< this worker's position in the stripe
  std::uint64_t local_count = 0;   ///< constituent blocks to process
  core::FileMeta src;
  core::FileMeta dst;              ///< dst.id == 0 means scan-only
};

/// Blocks per vectored LFS request in the ecopy hot loop.  Each worker's
/// traffic is node-local, so the window trades RPC round trips (and their
/// fixed CPU cost) against buffering — eight 1K blocks is plenty.
constexpr std::uint32_t kEcopyWindow = 8;

/// The per-LFS worker: "Send Read to LFS; while not end of file: transform,
/// Send Write to LFS; Send Read to LFS" — entirely node-local traffic.
/// Blocks move through the LFS a window at a time (kReadMany/kWriteMany),
/// so one round trip per window replaces one per block.
util::Result<EcopyResult> ecopy(sim::Context& ctx, const EcopyTask& task,
                                BlockFilter& filter) {
  EcopyResult result;
  sim::RpcClient rpc(ctx);
  efs::EfsClient efs(rpc, task.lfs_service);
  ConstituentReader in(efs, task.src.lfs_file_id, task.local_count,
                       task.src.width, task.offset, kEcopyWindow);
  std::optional<ConstituentWriter> out;
  if (task.dst.id != 0) {
    out.emplace(efs, task.dst.owner(), task.offset, kEcopyWindow);
  }
  while (!in.exhausted()) {
    std::uint64_t global_no = in.next_global();
    auto block = in.next();
    if (!block.is_ok()) return block.status();
    ctx.charge(filter.cpu_per_block());
    auto output = filter.apply(block.value(), global_no);
    if (out) {
      if (auto st = out->put(output); !st.is_ok()) return st;
    }
    ++result.blocks;
  }
  if (out) {
    if (auto st = out->finish(); !st.is_ok()) return st;
  }
  result.summary = filter.summary();
  return result;
}

util::Result<CopyReport> run_filter_tool(sim::Context& ctx,
                                         core::BridgeApi& client,
                                         const std::string& src,
                                         const std::string& dst,
                                         CopyOptions options) {
  sim::SimTime start = ctx.now();
  auto env = discover(client);
  if (!env.is_ok()) return env.status();

  auto src_open = client.open(src);
  if (!src_open.is_ok()) return src_open.status();
  core::FileMeta src_meta = src_open.value().meta;
  if (static_cast<core::Distribution>(src_meta.distribution) !=
      core::Distribution::kRoundRobin) {
    return util::invalid_argument(
        "copy tool requires a round-robin interleaved source");
  }

  std::uint32_t p = env.value().num_lfs();
  core::FileMeta dst_meta;  // id 0 = scan-only
  if (!dst.empty()) {
    core::CreateOptions create;
    create.width = src_meta.width;
    create.start_lfs = src_meta.start_lfs;
    create.tree = true;
    auto created = client.create(dst, create);
    if (!created.is_ok()) return created.status();
    dst_meta = core::created_file_meta(dst, created.value(), create, p);
  }
  sim::SimTime startup = ctx.now() - start;

  auto factory = options.filter_factory;
  if (!factory) {
    factory = [] {
      return std::unique_ptr<BlockFilter>(std::make_unique<IdentityFilter>());
    };
  }

  std::uint32_t w = src_meta.width;
  WorkerGroup<EcopyResult> group(ctx, options.fanout);
  for (std::uint32_t j = 0; j < w; ++j) {
    std::uint32_t lfs = (src_meta.start_lfs + j) % p;
    EcopyTask task;
    task.lfs_service = env.value().lfs_service(lfs);
    task.offset = j;
    task.local_count =
        src_meta.size_blocks / w + (j < src_meta.size_blocks % w ? 1 : 0);
    task.src = src_meta;
    task.dst = dst_meta;
    group.spawn(env.value().lfs_node(lfs), "ecopy@" + std::to_string(lfs),
                [task, factory](sim::Context& worker_ctx) {
                  auto filter = factory();
                  return ecopy(worker_ctx, task, *filter);
                });
  }

  CopyReport report;
  report.startup = startup;
  report.workers = group.spawned();
  auto results = group.wait_all();
  if (!results.is_ok()) return results.status();
  for (const auto& result : results.value()) {
    report.blocks += result.blocks;
    report.summary += result.summary;
  }
  report.elapsed = ctx.now() - start;
  return report;
}

}  // namespace

util::Result<CopyReport> run_copy_tool(sim::Context& ctx,
                                       core::BridgeApi& client,
                                       const std::string& src,
                                       const std::string& dst,
                                       CopyOptions options) {
  if (dst.empty()) return util::invalid_argument("copy needs a destination");
  return run_filter_tool(ctx, client, src, dst, std::move(options));
}

util::Result<CopyReport> run_scan_tool(sim::Context& ctx,
                                       core::BridgeApi& client,
                                       const std::string& src,
                                       CopyOptions options) {
  return run_filter_tool(ctx, client, src, "", std::move(options));
}

}  // namespace bridge::tools
