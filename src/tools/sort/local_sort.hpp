// Phase 1 of the merge-sort tool: per-LFS external sort (§5.2).
//
// "In parallel perform local external sorts on each LFS.  Consider the
// resulting files to be 'interleaved' across only one processor."
//
// Each worker reads its node's constituent of the input file, forms sorted
// runs of c records in core, then 2-way-merges runs (all node-local traffic)
// until its portion is one sorted width-1 run: a tool-private LFS file, or
// dst itself when the source has width 1.  For the rank merge it also
// returns the run's keys, which it holds in core as it writes the run.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/protocol.hpp"
#include "src/sim/rpc.hpp"
#include "src/sim/runtime.hpp"
#include "src/tools/sort/sort_common.hpp"
#include "src/util/status.hpp"

namespace bridge::tools {

struct LocalSortTask {
  sim::Address lfs_service;
  std::uint32_t lfs_index = 0;
  std::uint32_t offset = 0;  ///< this constituent's position in src's stripe
  core::FileMeta src;
  core::FileMeta run;  ///< width-1 output on this LFS, sized to its src share
  core::BridgeFileId owner = 0;  ///< owns the temps' tool-private ids
  bool keep_keys = false;        ///< return the run's keys (rank merge)
  SortTuning tuning;
};

struct LocalSortResult {
  std::uint64_t records = 0;
  std::uint32_t merge_passes = 0;
  std::uint32_t offset = 0;          ///< the task's offset: which run this is
  std::vector<std::uint64_t> keys;   ///< keep_keys: the run's keys in order

  /// The keys travel back with the result: 8 B each.
  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    return keys.size() * sizeof(std::uint64_t);
  }
};

/// Run the local external sort on the current (LFS-resident) process.  A
/// failed sort removes the temps it made.
util::Result<LocalSortResult> run_local_sort(sim::Context& ctx,
                                             const LocalSortTask& task);

}  // namespace bridge::tools
