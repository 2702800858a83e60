#include "src/tools/sort/local_sort.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <vector>

#include "src/core/bridge_block.hpp"
#include "src/efs/client.hpp"
#include "src/tools/tool_base.hpp"

namespace bridge::tools {

namespace {

struct Run {
  efs::FileId file = 0;      ///< LFS-local temp file (or 0 when direct)
  std::uint64_t records = 0;
};

/// Streaming reader over a temp run file (or the final run target).
class RunReader {
 public:
  RunReader(efs::EfsClient& efs, efs::FileId file, std::uint64_t count)
      : efs_(efs), file_(file), count_(count) {}

  [[nodiscard]] bool exhausted() const noexcept { return next_ >= count_; }

  /// Read the next record's user payload; advances the cursor.
  util::Result<std::vector<std::byte>> next() {
    auto read = efs_.read(file_, static_cast<std::uint32_t>(next_));
    if (!read.is_ok()) return read.status();
    ++next_;
    auto unwrapped = core::unwrap_block(read.value());
    if (!unwrapped.is_ok()) return unwrapped.status();
    return std::move(unwrapped.value().user_data);
  }

 private:
  efs::EfsClient& efs_;
  efs::FileId file_;
  std::uint64_t count_;
  std::uint64_t next_ = 0;
};

struct Sink {
  efs::FileId file;
  std::uint32_t header_file_id;   ///< Bridge header file id to stamp
  std::uint32_t header_width;
  std::uint32_t header_start;
  std::uint64_t written = 0;
};

util::Status write_record(sim::Context& ctx, efs::EfsClient& efs, Sink& sink,
                          std::span<const std::byte> payload,
                          const SortTuning& tuning) {
  core::BridgeBlockHeader header;
  header.file_id = sink.header_file_id;
  header.global_block_no = sink.written;
  header.width = sink.header_width;
  header.start_lfs = sink.header_start;
  auto wrapped = core::wrap_block(header, payload);
  if (!wrapped.is_ok()) return wrapped.status();
  ctx.charge(tuning.record_cpu);
  auto write = efs.write(sink.file, static_cast<std::uint32_t>(sink.written),
                         wrapped.value());
  if (!write.is_ok()) return write;
  ++sink.written;
  return util::ok_status();
}

}  // namespace

LocalSortResult run_local_sort(sim::Context& ctx, const LocalSortTask& task) {
  LocalSortResult result;
  sim::RpcClient rpc(ctx);
  efs::EfsClient efs(rpc, task.lfs_service);
  const std::uint32_t c = std::max<std::uint32_t>(task.tuning.in_core_records, 2);
  std::uint32_t temp_seq = 0;
  auto temp_id = [&](std::uint32_t seq) {
    return tool_private_file_id(task.owner, kPrivateTempSlot0 + seq);
  };
  auto fail = [&](const util::Status& status) {
    // Take back every temp this worker made, best effort: the sort
    // reports `status` whatever the removes return.
    for (std::uint32_t seq = 0; seq < temp_seq; ++seq) {
      if (auto id = temp_id(seq); id.is_ok()) {
        (void)efs.remove(id.value());  // already-discarded temps: kNotFound
      }
    }
    result.error = status.code();
    result.message = status.message();
    return result;
  };
  // Where a sorted run goes: the width-1 run file itself, or the next temp,
  // created on this LFS.
  auto next_sink = [&](bool to_run) -> util::Result<Sink> {
    if (to_run) {
      return Sink{task.run.lfs_file_id, task.run.lfs_file_id, task.run.width,
                  task.run.start_lfs};
    }
    auto temp = temp_id(temp_seq);
    if (!temp.is_ok()) return temp.status();
    ++temp_seq;
    if (auto st = efs.create(temp.value()); !st.is_ok()) return st;
    return Sink{temp.value(), temp.value(), 1, task.lfs_index};
  };

  // --- Run formation: read c records, sort in core, emit a sorted run. ---
  std::deque<Run> runs;
  std::uint64_t consumed = 0;
  bool single_run = task.local_count <= c;
  while (consumed < task.local_count) {
    std::uint64_t batch =
        std::min<std::uint64_t>(c, task.local_count - consumed);
    std::vector<std::vector<std::byte>> records;
    records.reserve(batch);
    for (std::uint64_t i = 0; i < batch; ++i) {
      auto read = efs.read(task.src.lfs_file_id,
                           static_cast<std::uint32_t>(consumed + i));
      if (!read.is_ok()) return fail(read.status());
      auto unwrapped = core::unwrap_block(read.value());
      if (!unwrapped.is_ok()) return fail(unwrapped.status());
      records.push_back(std::move(unwrapped.value().user_data));
    }
    // In-core sort: n log n comparisons plus a copy per record.
    std::stable_sort(records.begin(), records.end(),
                     [](const auto& a, const auto& b) {
                       return record_key(a) < record_key(b);
                     });
    double nlogn = static_cast<double>(batch) *
                   std::log2(std::max<double>(2.0, static_cast<double>(batch)));
    ctx.charge(task.tuning.compare_cpu * static_cast<std::int64_t>(nlogn));

    // Small portion: write the sorted records straight into the run file.
    auto next = next_sink(single_run);
    if (!next.is_ok()) return fail(next.status());
    Sink sink = next.value();
    for (const auto& record : records) {
      if (auto st = write_record(ctx, efs, sink, record, task.tuning);
          !st.is_ok()) {
        return fail(st);
      }
    }
    if (!single_run) runs.push_back(Run{sink.file, sink.written});
    consumed += batch;
  }
  result.records = task.local_count;
  if (single_run) return result;

  // --- Merge passes: k-way merges (k = local_merge_fanin, 2 in the
  // prototype) until one group remains, which is merged straight into the
  // final width-1 run file. ---
  const std::uint32_t fanin =
      std::max<std::uint32_t>(2, task.tuning.local_merge_fanin);
  while (runs.size() > 1) {
    std::deque<Run> next_runs;
    ++result.merge_passes;
    while (runs.size() > 1) {
      std::size_t k = std::min<std::size_t>(fanin, runs.size());
      bool is_final = next_runs.empty() && runs.size() == k;

      std::vector<Run> group;
      for (std::size_t i = 0; i < k; ++i) {
        group.push_back(runs.front());
        runs.pop_front();
      }

      auto next = next_sink(is_final);
      if (!next.is_ok()) return fail(next.status());
      Sink sink = next.value();

      // k-way merge with a linear min scan (k is small; a loser tree would
      // only change the CPU constant we charge anyway).
      std::vector<std::unique_ptr<RunReader>> readers;
      std::vector<std::vector<std::byte>> heads(k);
      std::vector<bool> live(k, false);
      for (std::size_t i = 0; i < k; ++i) {
        readers.push_back(
            std::make_unique<RunReader>(efs, group[i].file, group[i].records));
        if (group[i].records > 0) {
          auto first = readers[i]->next();
          if (!first.is_ok()) return fail(first.status());
          heads[i] = std::move(first).value();
          live[i] = true;
        }
      }
      while (true) {
        std::size_t best = k;
        std::uint64_t best_key = 0;
        for (std::size_t i = 0; i < k; ++i) {
          if (!live[i]) continue;
          std::uint64_t key = record_key(heads[i]);
          if (best == k || key < best_key) {
            best = i;
            best_key = key;
          }
        }
        if (best == k) break;  // all runs drained
        ctx.charge(task.tuning.compare_cpu *
                   static_cast<std::int64_t>(k > 1 ? k - 1 : 1));
        if (auto st = write_record(ctx, efs, sink, heads[best], task.tuning);
            !st.is_ok()) {
          return fail(st);
        }
        if (readers[best]->exhausted()) {
          live[best] = false;
          heads[best].clear();
        } else {
          auto next = readers[best]->next();
          if (!next.is_ok()) return fail(next.status());
          heads[best] = std::move(next).value();
        }
      }

      // "Discard the old files": the prototype's EFS frees block by block.
      for (const auto& run : group) {
        if (auto st = efs.remove(run.file); !st.is_ok()) return fail(st);
      }
      if (!is_final) next_runs.push_back(Run{sink.file, sink.written});
    }
    // Odd run carries over to the next pass.
    while (!runs.empty()) {
      next_runs.push_back(runs.front());
      runs.pop_front();
    }
    runs = std::move(next_runs);
  }
  return result;
}

}  // namespace bridge::tools
