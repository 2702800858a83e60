#include "src/tools/sort/sort_tool.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <span>
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
  SortFiles(sim::Context& ctx, core::BridgeClient& client, const ToolEnv& env)
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

  core::BridgeClient& client_;
  sim::RpcClient rpc_;
  std::vector<std::unique_ptr<efs::EfsClient>> lfs_;
  std::vector<core::FileMeta> held_;
};

/// Records of src's j-th constituent.
std::uint64_t local_count(const core::FileMeta& src, std::uint32_t j) {
  return src.size_blocks / src.width + (j < src.size_blocks % src.width ? 1 : 0);
}

/// Phase 1 of the token tree: one local external sort per constituent LFS.
/// Run j is a tool-private width-1 file on the source's j-th LFS and holds
/// the records of src's constituent there.  The runs are merge "pass 0":
/// they share one id, because they sit on disjoint LFSs, and are created in
/// one batch.  A width-1 source sorts straight into dst.
util::Result<std::vector<core::FileMeta>> sort_locally(
    sim::Context& ctx, const ToolEnv& env, const core::FileMeta& src,
    const core::FileMeta& dst, const SortOptions& options, SortFiles& files) {
  std::uint32_t w = src.width;
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
    runs[j].size_blocks = local_count(src, j);
    LocalSortTask task;
    task.lfs_service = env.lfs_service(lfs);
    task.lfs_index = lfs;
    task.offset = j;
    task.src = src;
    task.run = runs[j];
    task.owner = dst.id;
    task.tuning = options.tuning;
    group.spawn(env.lfs_node(lfs), "lsort@" + std::to_string(lfs),
                [task](sim::Context& worker_ctx) {
                  return run_local_sort(worker_ctx, task);
                });
  }
  if (auto sorted = group.wait_all(); !sorted.is_ok()) return sorted.status();
  return runs;
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

/// Ranks per dst constituent in one scatter round: four windows, so every
/// round appends four kWriteMany on each dst LFS.
constexpr std::uint64_t kScatterRound = 4 * kSortWindow;

/// A rank worker's report: its run's keys in run order, 8 B each.
struct RunKeys {
  std::vector<std::uint64_t> keys;

  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    return keys.size() * sizeof(std::uint64_t);
  }
};

/// A rank worker's plan: 4 B per record of its run and per rank it owns.
struct ScatterPlan {
  std::uint64_t records = 0;          ///< n, the records of every run
  std::vector<std::uint32_t> rank_of;  ///< rank of each record of its run
  std::vector<std::uint32_t> run_of;   ///< run of each rank it owns, in order

  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    return sizeof(records) + (rank_of.size() + run_of.size()) * 4;
  }
};

/// One scatter message: the records run `run` sends one dst constituent in
/// round `round`, each u32-length-prefixed, back to back.  A parcel whose
/// status is an error instead tells its worker to stop.
struct Parcel {
  util::Status status = util::ok_status();
  std::uint32_t run = 0;
  std::uint64_t round = 0;
  std::vector<std::byte> records;
};

using RankGroup = WorkerGroup<std::uint64_t, RunKeys, ScatterPlan>;
/// One per rank worker, on its node; they outlive the workers.
using Inboxes = std::deque<sim::Channel<Parcel>>;

/// Rank every record once and plan the scatter.  The controller
/// stable-sorts every record's (key, run, local index), built run-major so
/// equal keys keep (run, local) order.  Rank g goes to dst constituent
/// g mod w at local block g div w.
std::vector<ScatterPlan> plan_scatter(sim::Context& ctx,
                                      const std::vector<RunKeys>& runs,
                                      const SortTuning& tuning) {
  auto w = static_cast<std::uint32_t>(runs.size());
  struct Entry {
    std::uint64_t key;
    std::uint32_t run;
    std::uint32_t local;
  };
  std::vector<Entry> entries;
  for (std::uint32_t run = 0; run < w; ++run) {
    const auto& keys = runs[run].keys;
    for (std::uint32_t l = 0; l < keys.size(); ++l) {
      entries.push_back({keys[l], run, l});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.key < b.key; });
  double nlogw = static_cast<double>(entries.size()) * std::log2(w);
  ctx.charge(tuning.compare_cpu * static_cast<std::int64_t>(nlogw));

  std::vector<ScatterPlan> plans(w);
  for (std::uint32_t run = 0; run < w; ++run) {
    plans[run].records = entries.size();
    plans[run].rank_of.resize(runs[run].keys.size());
  }
  for (std::uint32_t g = 0; g < entries.size(); ++g) {
    plans[entries[g].run].rank_of[entries[g].local] = g;
    plans[g % w].run_of.push_back(entries[g].run);
  }
  return plans;
}

/// Rank worker m, on the m-th LFS of src and of dst: sort src's constituent
/// there, report its keys, and, once the plan comes down, scatter its
/// records to their dst constituents and append the ones its own dst
/// constituent gets.  Rank g falls in round (g div w) div kScatterRound.  In
/// round k the worker sends the slice of its run whose ranks fall in round
/// k, one parcel per dst constituent, then appends round k-1's records in
/// rank order.  Appending round k-1 waits for every run's round k-1, so no
/// worker is more than one round ahead of another, and a worker buffers
/// about three rounds.
util::Result<std::uint64_t> rank_worker(sim::Context& ctx,
                                        const LocalSortTask& task,
                                        const core::FileMeta& dst,
                                        std::uint32_t m, RankGroup& group,
                                        Inboxes& inboxes) {
  auto local = run_local_sort(ctx, task);
  if (!local.is_ok()) return local.status();
  LocalSortResult& sorted = local.value();
  auto planned = group.exchange(ctx, m, RunKeys{std::move(sorted.keys)});
  if (!planned.is_ok()) return planned.status();
  const ScatterPlan& plan = planned.value();
  auto w = static_cast<std::uint32_t>(inboxes.size());

  sim::RpcClient rpc(ctx);
  efs::EfsClient lfs(rpc, task.lfs_service);
  // The run's records in order: kept in core, or streamed from its file.
  ConstituentReader run(lfs, task.run.lfs_file_id,
                        sorted.sorted.empty() ? sorted.records : 0, 1, 0,
                        kSortWindow);
  std::size_t sent = 0;  ///< records of the run sent so far
  std::vector<util::Writer> outgoing(w);
  auto send_round = [&](std::uint64_t k) -> util::Status {
    std::uint64_t end = (k + 1) * kScatterRound * w;  // past round k's ranks
    for (; sent < plan.rank_of.size() && plan.rank_of[sent] < end; ++sent) {
      util::Writer& parcel = outgoing[plan.rank_of[sent] % w];
      if (!sorted.sorted.empty()) {
        InCoreRecord at = sorted.sorted[sent];
        parcel.bytes(std::span(sorted.in_core).subspan(at.begin, at.size));
        continue;
      }
      auto record = run.next();
      if (!record.is_ok()) return record.status();
      parcel.bytes(record.value());
    }
    for (std::uint32_t d = 0; d < w; ++d) {
      if (outgoing[d].size() == 0) continue;
      std::size_t bytes = outgoing[d].size();
      Parcel parcel{util::ok_status(), m, k, std::move(outgoing[d]).take()};
      outgoing[d] = util::Writer();
      ctx.send(inboxes[d], std::move(parcel), bytes);
    }
    return util::ok_status();
  };

  ConstituentWriter out(lfs, dst.owner(), m, kSortWindow);
  std::vector<Parcel> early;              ///< parcels of later rounds
  std::vector<Parcel> from(w);            ///< this round's parcel per run
  std::vector<std::size_t> taken(w, 0);   ///< bytes of it appended
  std::vector<bool> awaited(w, false);    ///< runs this round draws on
  auto append_round = [&](std::uint64_t k) -> util::Status {
    std::size_t first = k * kScatterRound;
    std::size_t last = std::min(first + kScatterRound, plan.run_of.size());
    std::size_t missing = 0;
    for (std::size_t l = first; l < last; ++l) {
      if (!awaited[plan.run_of[l]]) {
        awaited[plan.run_of[l]] = true;
        ++missing;
      }
    }
    auto take = [&](Parcel& parcel) {
      taken[parcel.run] = 0;
      from[parcel.run] = std::move(parcel);
      --missing;
    };
    for (auto it = early.begin(); it != early.end();) {
      if (it->round != k) {
        ++it;
        continue;
      }
      take(*it);
      it = early.erase(it);
    }
    while (missing > 0) {
      Parcel parcel = inboxes[m].recv();
      if (!parcel.status.is_ok()) return parcel.status;
      if (parcel.round == k) {
        take(parcel);
      } else {
        early.push_back(std::move(parcel));
      }
    }
    for (std::size_t l = first; l < last; ++l) {
      std::uint32_t r = plan.run_of[l];
      util::Reader reader(std::span(from[r].records).subspan(taken[r]));
      std::span<const std::byte> record = reader.raw(reader.u32());
      taken[r] += sizeof(std::uint32_t) + record.size();
      ctx.charge(task.tuning.record_cpu);
      if (auto st = out.put(record); !st.is_ok()) return st;
    }
    for (std::size_t l = first; l < last; ++l) {
      from[plan.run_of[l]] = Parcel{};
      awaited[plan.run_of[l]] = false;
    }
    return util::ok_status();
  };

  std::uint64_t per_writer = (plan.records + w - 1) / w;
  std::uint64_t rounds = (per_writer + kScatterRound - 1) / kScatterRound;
  for (std::uint64_t k = 0; k <= rounds; ++k) {
    if (k < rounds) {
      if (auto st = send_round(k); !st.is_ok()) return st;
    }
    if (k > 0) {
      if (auto st = append_round(k - 1); !st.is_ok()) return st;
    }
  }
  if (auto st = out.finish(); !st.is_ok()) return st;
  return out.written();
}

/// The rank sort of a source of width w > 1, in one pass: one worker per
/// LFS sorts its constituent, reports its keys and scatters its records
/// (rank_worker).  Only a constituent above c records gets a run file; the
/// runs share one id (merge "pass 0") and are created in one batch.  The
/// local phase ends when every key has arrived.
util::Status rank_sort(sim::Context& ctx, const ToolEnv& env,
                       const core::FileMeta& src, const core::FileMeta& dst,
                       const SortOptions& options, SortFiles& files,
                       sim::SimTime t0, SortReport& report) {
  std::uint32_t w = src.width;
  auto run_id = tool_private_file_id(dst.id, 0);
  if (!run_id.is_ok()) return run_id.status();
  std::vector<LocalSortTask> tasks(w);
  std::vector<core::FileMeta> runs;
  Inboxes inboxes;
  for (std::uint32_t j = 0; j < w; ++j) {
    std::uint32_t lfs = (src.start_lfs + j) % env.num_lfs();
    LocalSortTask& task = tasks[j];
    task.lfs_service = env.lfs_service(lfs);
    task.lfs_index = lfs;
    task.offset = j;
    task.src = src;
    task.run.width = 1;
    task.run.start_lfs = lfs;
    task.run.size_blocks = local_count(src, j);
    task.owner = dst.id;
    task.rank = true;
    task.tuning = options.tuning;
    if (task.run.size_blocks > options.tuning.in_core()) {
      task.run.lfs_file_id = run_id.value();
      runs.push_back(task.run);
    }
    inboxes.emplace_back(ctx.runtime().scheduler(), env.lfs_node(lfs));
  }
  if (!runs.empty()) {
    if (auto st = files.create_private(runs); !st.is_ok()) return st;
  }

  RankGroup group(ctx, options.fanout);
  for (std::uint32_t j = 0; j < w; ++j) {
    group.spawn(env.lfs_node(tasks[j].lfs_index),
                "rank@" + std::to_string(tasks[j].lfs_index),
                [&group, &inboxes, &dst, j, task = tasks[j]](
                    sim::Context& worker_ctx) {
                  return rank_worker(worker_ctx, task, dst, j, group, inboxes);
                });
  }
  auto keys = group.reports();
  report.local_phase = ctx.now() - t0;
  if (!keys.is_ok()) {
    group.send_plans(keys.status());  // release the workers that reported
    (void)group.wait_all();           // the first failure stands
    return keys.status();
  }
  group.send_plans(plan_scatter(ctx, keys.value(), options.tuning));
  // A worker that fails stops sending, so release every worker that may
  // wait for its parcels.
  auto written = group.wait_all([&](const util::Status& failed) {
    for (auto& inbox : inboxes) {
      ctx.send(inbox, Parcel{failed, 0, 0, {}}, RankGroup::kResultWireBytes);
    }
  });
  if (!written.is_ok()) return written.status();
  return runs.empty() ? util::ok_status() : files.discard(runs);
}

}  // namespace

util::Result<SortReport> run_sort_tool(sim::Context& ctx,
                                       core::BridgeClient& client,
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
  util::Status sorted = util::ok_status();
  if (options.merge == SortMerge::kRank && src_meta.width > 1) {
    sorted = rank_sort(ctx, env.value(), src_meta, dst_meta, options, files,
                       t0, report);
    report.merge_passes = 1;
  } else {
    // The token tree, and a width-1 source, which sorts straight into dst.
    auto runs =
        sort_locally(ctx, env.value(), src_meta, dst_meta, options, files);
    report.local_phase = ctx.now() - t0;
    auto passes = runs.is_ok() ? merge_runs(ctx, env.value(),
                                            std::move(runs).value(), dst_meta,
                                            options, files)
                               : util::Result<std::uint32_t>(runs.status());
    sorted = passes.status();
    if (passes.is_ok()) report.merge_passes = passes.value();
  }
  if (!sorted.is_ok()) {
    files.discard_all();
    return sorted;
  }
  report.total = ctx.now() - t0;
  report.merge_phase = report.total - report.local_phase;
  return report;
}

}  // namespace bridge::tools
