#include "src/tools/sort/local_sort.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <span>
#include <vector>

#include "src/efs/client.hpp"
#include "src/tools/tool_base.hpp"

namespace bridge::tools {

util::Result<LocalSortResult> run_local_sort(sim::Context& ctx,
                                             const LocalSortTask& task) {
  LocalSortResult result;
  if (task.rank) result.keys.reserve(task.run.size_blocks);
  sim::RpcClient rpc(ctx);
  efs::EfsClient efs(rpc, task.lfs_service);
  const std::uint32_t c = task.tuning.in_core();
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
    return status;
  };
  // Where a sorted run goes: the width-1 run file itself, or the next temp,
  // created on this LFS.
  auto next_sink = [&](bool to_run) -> util::Result<ConstituentWriter> {
    if (to_run) {
      return ConstituentWriter(efs, task.run.owner(), 0, kSortWindow);
    }
    auto temp = temp_id(temp_seq);
    if (!temp.is_ok()) return temp.status();
    ++temp_seq;
    if (auto st = efs.create(temp.value()); !st.is_ok()) return st;
    return ConstituentWriter(efs, {temp.value(), 1, task.lfs_index}, 0,
                             kSortWindow);
  };

  // --- Run formation: read c records, sort in core, emit a sorted run. ---
  // The run's records sit back to back in one buffer, sorted through an
  // index.  A sorted temp is held as the writer that filled it: its file
  // and length.
  struct Slot {
    std::uint64_t key;
    std::size_t begin;
    std::size_t size;
  };
  std::deque<ConstituentWriter> runs;
  ConstituentReader src(efs, task.src.lfs_file_id, task.run.size_blocks,
                        task.src.width, task.offset, kSortWindow);
  bool single_run = task.run.size_blocks <= c;
  std::vector<std::byte> in_core;
  in_core.reserve(std::min<std::uint64_t>(c, task.run.size_blocks) *
                  efs::kUserDataBytes);
  std::vector<Slot> index;
  while (!src.exhausted()) {
    in_core.clear();
    index.clear();
    while (index.size() < c && !src.exhausted()) {
      auto record = src.next();
      if (!record.is_ok()) return fail(record.status());
      index.push_back({record_key(record.value()), in_core.size(),
                       record.value().size()});
      in_core.insert(in_core.end(), record.value().begin(),
                     record.value().end());
    }
    // In-core sort: n log n comparisons plus a copy per record.
    std::stable_sort(index.begin(), index.end(),
                     [](const Slot& a, const Slot& b) { return a.key < b.key; });
    double nlogn = static_cast<double>(index.size()) *
                   std::log2(std::max<double>(
                       2.0, static_cast<double>(index.size())));
    ctx.charge(task.tuning.compare_cpu * static_cast<std::int64_t>(nlogn));

    // Small portion for the rank merge: keep the sorted records in core.
    if (single_run && task.rank) {
      for (const Slot& slot : index) {
        result.keys.push_back(slot.key);
        result.sorted.push_back({slot.begin, slot.size});
      }
      result.in_core = std::move(in_core);
      break;
    }
    // Small portion: write the sorted records straight into the run file.
    auto sink = next_sink(single_run);
    if (!sink.is_ok()) return fail(sink.status());
    for (const Slot& slot : index) {
      ctx.charge(task.tuning.record_cpu);
      auto record = std::span(in_core).subspan(slot.begin, slot.size);
      if (auto st = sink.value().put(record); !st.is_ok()) return fail(st);
    }
    if (auto st = sink.value().finish(); !st.is_ok()) return fail(st);
    if (!single_run) runs.push_back(std::move(sink).value());
  }
  result.records = task.run.size_blocks;
  if (single_run) return result;

  // --- Merge passes: k-way merges (k = local_merge_fanin, 2 in the
  // prototype) until one group remains, which is merged straight into the
  // final width-1 run file. ---
  const std::uint32_t fanin =
      std::max<std::uint32_t>(2, task.tuning.local_merge_fanin);
  while (runs.size() > 1) {
    std::deque<ConstituentWriter> next_runs;
    ++result.merge_passes;
    while (runs.size() > 1) {
      std::size_t k = std::min<std::size_t>(fanin, runs.size());
      bool is_final = next_runs.empty() && runs.size() == k;

      std::vector<ConstituentWriter> group;
      for (std::size_t i = 0; i < k; ++i) {
        group.push_back(runs.front());
        runs.pop_front();
      }

      auto sink = next_sink(is_final);
      if (!sink.is_ok()) return fail(sink.status());

      // k-way merge with a linear min scan (k is small; a loser tree would
      // only change the CPU constant we charge anyway).
      std::vector<ConstituentReader> readers;
      for (const auto& run : group) {
        readers.emplace_back(efs, run.file(), run.written(), 1, 0,
                             kSortWindow);
        if (auto st = readers.back().advance(); !st.is_ok()) return fail(st);
      }
      while (true) {
        std::size_t best = k;
        std::uint64_t best_key = 0;
        for (std::size_t i = 0; i < k; ++i) {
          if (readers[i].head() == nullptr) continue;
          std::uint64_t key = record_key(*readers[i].head());
          if (best == k || key < best_key) {
            best = i;
            best_key = key;
          }
        }
        if (best == k) break;  // all runs drained
        ctx.charge(task.tuning.compare_cpu *
                   static_cast<std::int64_t>(k > 1 ? k - 1 : 1));
        ctx.charge(task.tuning.record_cpu);
        if (is_final && task.rank) result.keys.push_back(best_key);
        if (auto st = sink.value().put(*readers[best].head()); !st.is_ok()) {
          return fail(st);
        }
        if (auto st = readers[best].advance(); !st.is_ok()) return fail(st);
      }
      if (auto st = sink.value().finish(); !st.is_ok()) return fail(st);

      // "Discard the old files": the prototype's EFS frees block by block.
      for (const auto& run : group) {
        if (auto st = efs.remove(run.file()); !st.is_ok()) return fail(st);
      }
      if (!is_final) next_runs.push_back(std::move(sink).value());
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
