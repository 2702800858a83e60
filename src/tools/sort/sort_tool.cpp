#include "src/tools/sort/sort_tool.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "src/tools/sort/local_sort.hpp"
#include "src/tools/sort/token_merge.hpp"

namespace bridge::tools {

namespace {

/// Everything one sort has made and not yet discarded: dst (a Bridge file)
/// and the tool-private runs and merge outputs (LFS files with no directory
/// entry, recognisable by their empty name).  Inputs leave as
/// each pass consumes them; after an error, discard_all() takes back the
/// rest so a failed sort leaves nothing behind.
class SortFiles {
 public:
  SortFiles(sim::Context& ctx, core::BridgeApi& client, const ToolEnv& env)
      : client_(client), rpc_(ctx), lfs_(env.make_lfs_clients(rpc_)) {}

  void hold(const core::FileMeta& meta) { held_.push_back(meta); }

  /// Create the constituents of tool-private `outputs`: one batch of EFS
  /// kCreate across every LFS they span.
  util::Status create_private(const std::vector<core::FileMeta>& outputs) {
    sim::AsyncBatch batch(rpc_);
    for (const auto& meta : outputs) {
      for (auto* lfs : constituents(meta)) lfs->create(batch, meta.lfs_file_id);
      hold(meta);
    }
    return batch.wait_all_ok();
  }

  /// Discard `files`: named ones through one Bridge remove_many, overlapped
  /// with one batch of EFS kDelete for the private ones.  They leave the
  /// held set even if that fails: a delete that failed once (a dead disk)
  /// would fail again.
  util::Status discard(const std::vector<core::FileMeta>& files) {
    sim::AsyncBatch batch(rpc_);
    std::vector<std::string> names;
    for (const auto& meta : files) {
      std::erase_if(held_, [&](const core::FileMeta& held) {
        return held.lfs_file_id == meta.lfs_file_id &&
               held.start_lfs == meta.start_lfs;
      });
      if (meta.name.empty()) {
        for (auto* lfs : constituents(meta)) {
          lfs->remove(batch, meta.lfs_file_id);
        }
      } else {
        names.push_back(meta.name);
      }
    }
    util::Status removed =
        names.empty() ? util::ok_status() : client_.remove_many(names);
    util::Status deleted = batch.wait_all_ok();
    return removed.is_ok() ? deleted : removed;
  }

  /// After an error: discard everything still held.  Best effort — the
  /// sort reports its first error whatever this returns.
  void discard_all() {
    (void)discard(std::vector(held_));  // the sort's first error stands
  }

 private:
  /// The EFS clients of the LFSs `meta` spans, in stripe order.
  std::vector<efs::EfsClient*> constituents(const core::FileMeta& meta) {
    std::vector<efs::EfsClient*> spanned;
    for (std::uint32_t i = 0; i < meta.width; ++i) {
      spanned.push_back(lfs_[(meta.start_lfs + i) % lfs_.size()].get());
    }
    return spanned;
  }

  core::BridgeApi& client_;
  sim::RpcClient rpc_;
  std::vector<std::unique_ptr<efs::EfsClient>> lfs_;
  std::vector<core::FileMeta> held_;
};

/// What the local phase leaves: the runs and, for the rank merge, each
/// run's keys in run order.
struct LocalRuns {
  std::vector<core::FileMeta> runs;
  std::vector<std::vector<std::uint64_t>> keys;
};

/// Phase 1: one local external sort per constituent LFS.  Run j is a
/// tool-private width-1 file on the source's j-th LFS and holds the records
/// of src's constituent there.  The runs are merge "pass 0": they share one
/// id, because they sit on disjoint LFSs, and are created in one batch.  A
/// width-1 source sorts straight into dst.
util::Result<LocalRuns> sort_locally(sim::Context& ctx, const ToolEnv& env,
                                     const core::FileMeta& src,
                                     const core::FileMeta& dst,
                                     const SortOptions& options,
                                     SortFiles& files) {
  std::uint32_t w = src.width;
  bool keep_keys = options.merge == SortMerge::kRank && w > 1;
  std::vector<core::FileMeta> runs(w, dst);
  if (w > 1) {
    auto run_id = tool_private_file_id(dst.id, 0);
    if (!run_id.is_ok()) return run_id.status();
    for (std::uint32_t j = 0; j < w; ++j) {
      runs[j] = core::FileMeta{};
      runs[j].width = 1;
      runs[j].start_lfs = (src.start_lfs + j) % env.num_lfs();
      runs[j].lfs_file_id = run_id.value();
    }
    if (auto st = files.create_private(runs); !st.is_ok()) return st;
  }

  WorkerGroup<LocalSortResult> group(ctx, options.fanout);
  for (std::uint32_t j = 0; j < w; ++j) {
    std::uint32_t lfs = (src.start_lfs + j) % env.num_lfs();
    runs[j].size_blocks =
        src.size_blocks / w + (j < src.size_blocks % w ? 1 : 0);
    LocalSortTask task;
    task.lfs_service = env.lfs_service(lfs);
    task.lfs_index = lfs;
    task.offset = j;
    task.src = src;
    task.run = runs[j];
    task.owner = dst.id;
    task.keep_keys = keep_keys;
    task.tuning = options.tuning;
    group.spawn(env.lfs_node(lfs), "lsort@" + std::to_string(lfs),
                [task](sim::Context& worker_ctx) {
                  return run_local_sort(worker_ctx, task);
                });
  }
  auto sorted = group.wait_all();
  if (!sorted.is_ok()) return sorted.status();
  LocalRuns local{std::move(runs), {}};
  if (keep_keys) {
    local.keys.resize(w);
    for (auto& result : sorted.value()) {
      local.keys[result.offset] = std::move(result.keys);
    }
  }
  return local;
}

/// Phase 2: the log-depth tree of token merges; returns the pass count.
/// Every output but the final dst is tool-private.  One id, slot k, serves
/// all the outputs of pass k, because a pass's outputs span disjoint LFSs.
util::Result<std::uint32_t> merge_runs(sim::Context& ctx, const ToolEnv& env,
                                       std::vector<core::FileMeta> runs,
                                       const core::FileMeta& dst,
                                       const SortOptions& options,
                                       SortFiles& files) {
  std::uint32_t pass = 0;
  while (runs.size() > 1) {
    ++pass;
    bool final_pass = runs.size() == 2;
    std::size_t pair_count = runs.size() / 2;
    auto private_id = tool_private_file_id(dst.id, pass);
    if (!private_id.is_ok()) return private_id.status();

    std::vector<core::FileMeta> outputs;
    for (std::size_t j = 0; j < pair_count; ++j) {
      const core::FileMeta& a = runs[2 * j];
      const core::FileMeta& b = runs[2 * j + 1];
      core::FileMeta out = dst;
      if (!final_pass) {
        out = core::FileMeta{};
        out.width = a.width + b.width;
        out.start_lfs = a.start_lfs;
        out.lfs_file_id = private_id.value();
      }
      out.size_blocks = a.size_blocks + b.size_blocks;
      outputs.push_back(std::move(out));
    }
    if (!final_pass) {
      if (auto st = files.create_private(outputs); !st.is_ok()) return st;
    }

    WorkerGroup<MergeWorkerResult> group(ctx, options.fanout);
    std::vector<std::unique_ptr<TokenMerge>> merges;
    for (std::size_t j = 0; j < pair_count; ++j) {
      merges.push_back(std::make_unique<TokenMerge>(
          ctx, env, runs[2 * j], runs[2 * j + 1], outputs[j], options.tuning));
      merges.back()->launch(group);
    }
    // Give every worker a head start, then inject the start tokens.
    ctx.sleep(sim::msec(1));
    for (auto& merge : merges) merge->kick(ctx);
    if (auto merged = group.wait_all(); !merged.is_ok()) {
      return merged.status();
    }

    // "Discard the old files in parallel."
    std::vector<core::FileMeta> consumed(runs.begin(),
                                         runs.begin() + 2 * pair_count);
    if (auto st = files.discard(consumed); !st.is_ok()) return st;
    if (runs.size() % 2 == 1) outputs.push_back(runs.back());
    runs = std::move(outputs);
  }
  return pass;
}

/// Ranks per gather round: two windows.  A worker holds at most two
/// rounds, the one it appends and the one in flight.
constexpr std::size_t kGatherRound = 2 * kSortWindow;

/// Phase 2, rank arm: one pass; returns the pass count.  The controller
/// stable-sorts every record's (key, run, local index), built run-major so
/// equal keys keep (run, local) order.  Rank g goes to dst constituent
/// g mod w at local block g div w, so worker m, on dst's m-th LFS, is
/// handed the run of each of its ranks and, per run, the locals it needs,
/// which ascend.  It walks its ranks in rounds: the list-mode kReadMany of
/// round k+1, one per run it touches and window, go out in one batch
/// before round k's records are appended in rank order.
util::Result<std::uint32_t> rank_merge(sim::Context& ctx, const ToolEnv& env,
                                       LocalRuns local,
                                       const core::FileMeta& dst,
                                       const SortOptions& options,
                                       SortFiles& files) {
  auto w = static_cast<std::uint32_t>(local.runs.size());
  if (w <= 1) return 0u;  // a width-1 source sorted straight into dst
  struct Entry {
    std::uint64_t key;
    std::uint32_t run;
    std::uint32_t local;
  };
  std::vector<Entry> entries;
  for (std::uint32_t run = 0; run < w; ++run) {
    const auto& keys = local.keys[run];
    for (std::uint32_t l = 0; l < keys.size(); ++l) {
      entries.push_back({keys[l], run, l});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.key < b.key; });
  double nlogw = static_cast<double>(entries.size()) * std::log2(w);
  ctx.charge(options.tuning.compare_cpu * static_cast<std::int64_t>(nlogw));

  struct Plan {
    std::vector<std::uint32_t> run_of_rank;
    std::vector<std::vector<std::uint32_t>> locals;  ///< per run
  };
  std::vector<Plan> plans(w);
  for (Plan& plan : plans) plan.locals.resize(w);
  for (std::size_t g = 0; g < entries.size(); ++g) {
    Plan& plan = plans[g % w];
    plan.run_of_rank.push_back(entries[g].run);
    plan.locals[entries[g].run].push_back(entries[g].local);
  }

  const std::vector<core::FileMeta>& runs = local.runs;
  WorkerGroup<std::uint64_t> group(ctx, options.fanout);
  for (std::uint32_t m = 0; m < w; ++m) {
    std::uint32_t lfs = (dst.start_lfs + m) % env.num_lfs();
    // The plan travels 8 B per rank: its run and its local index.
    std::size_t plan_bytes = plans[m].run_of_rank.size() * 8;
    group.spawn(
        env.lfs_node(lfs), "gather@" + std::to_string(lfs),
        [&env, &runs, dst, m, lfs, record_cpu = options.tuning.record_cpu,
         plan = std::move(plans[m])](
            sim::Context& worker_ctx) mutable -> util::Result<std::uint64_t> {
          sim::RpcClient rpc(worker_ctx);
          auto lfs_clients = env.make_lfs_clients(rpc);
          std::vector<ConstituentReader> readers;
          for (std::size_t run = 0; run < runs.size(); ++run) {
            readers.emplace_back(*lfs_clients[runs[run].start_lfs],
                                 runs[run].lfs_file_id,
                                 std::move(plan.locals[run]), 1, 0,
                                 kSortWindow);
          }
          ConstituentWriter out(*lfs_clients[lfs], dst.owner(), m,
                                kSortWindow);
          const std::vector<std::uint32_t>& order = plan.run_of_rank;
          // The batch in flight: each call's completion buffers its blocks
          // in its run's reader.
          sim::AsyncBatch batch(rpc);
          std::vector<std::uint64_t> demand(runs.size(), 0);
          auto post_round = [&](std::size_t first) {
            std::size_t last = std::min(first + kGatherRound, order.size());
            for (std::size_t g = first; g < last; ++g) ++demand[order[g]];
            for (std::size_t g = first; g < last; ++g) {
              std::uint32_t run = order[g];
              std::size_t n = 0;
              while (demand[run] > 0 &&
                     (n = readers[run].post(batch, demand[run])) > 0) {
                demand[run] -= n;
              }
            }
          };
          auto append_round = [&](std::size_t first) -> util::Status {
            std::size_t last = std::min(first + kGatherRound, order.size());
            for (std::size_t g = first; g < last; ++g) {
              auto record = readers[order[g]].next();
              if (!record.is_ok()) return record.status();
              worker_ctx.charge(record_cpu);
              if (auto st = out.put(record.value()); !st.is_ok()) return st;
            }
            return util::ok_status();
          };
          post_round(0);
          for (std::size_t first = 0; first < order.size();
               first += kGatherRound) {
            if (auto st = batch.wait_all_ok(); !st.is_ok()) return st;
            post_round(first + kGatherRound);  // none past the last round
            if (auto st = append_round(first); !st.is_ok()) return st;
          }
          if (auto st = out.finish(); !st.is_ok()) return st;
          return out.written();
        },
        plan_bytes);
  }
  if (auto gathered = group.wait_all(); !gathered.is_ok()) {
    return gathered.status();
  }
  if (auto st = files.discard(runs); !st.is_ok()) return st;
  return 1u;
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

  // dst is created first, where the merge tree's root lands: the source's
  // width, starting on its first LFS, through the embedded tree.
  core::CreateOptions dst_create;
  dst_create.width = src_meta.width;
  dst_create.start_lfs = src_meta.start_lfs;
  dst_create.tree = true;
  auto dst_id = client.create(dst, dst_create);
  if (!dst_id.is_ok()) return dst_id.status();
  core::FileMeta dst_meta =
      core::created_file_meta(dst, dst_id.value(), dst_create, p);
  SortFiles files(ctx, client, env.value());
  files.hold(dst_meta);

  SortReport report;
  report.records = src_meta.size_blocks;
  auto local =
      sort_locally(ctx, env.value(), src_meta, dst_meta, options, files);
  if (!local.is_ok()) {
    files.discard_all();
    return local.status();
  }
  report.local_phase = ctx.now() - t0;

  sim::SimTime merge_start = ctx.now();
  auto passes =
      options.merge == SortMerge::kRank
          ? rank_merge(ctx, env.value(), std::move(local).value(), dst_meta,
                       options, files)
          : merge_runs(ctx, env.value(), std::move(local.value().runs),
                       dst_meta, options, files);
  if (!passes.is_ok()) {
    files.discard_all();
    return passes.status();
  }
  report.merge_passes = passes.value();
  report.merge_phase = ctx.now() - merge_start;
  report.total = ctx.now() - t0;
  return report;
}

}  // namespace bridge::tools
