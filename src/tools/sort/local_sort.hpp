// Phase 1 of the merge-sort tool: per-LFS external sort (§5.2).
//
// "In parallel perform local external sorts on each LFS.  Consider the
// resulting files to be 'interleaved' across only one processor."
//
// Each worker reads its node's constituent of the input file, forms sorted
// runs of c records in core, then 2-way-merges runs (all node-local traffic)
// until its portion is one sorted width-1 run: a tool-private LFS file, or
// dst itself when the source has width 1.  For the rank merge it also
// returns the run's keys, which it holds in core as it writes the run, and
// a portion of at most c records is not written at all: its sorted records
// stay in core.
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
  /// Rank merge: return the run's keys, and keep a share of at most c
  /// records sorted in core instead of writing its run (which then need
  /// not exist).
  bool rank = false;
  SortTuning tuning;
};

/// Where one record sits in LocalSortResult::in_core.
struct InCoreRecord {
  std::size_t begin;
  std::size_t size;
};

struct LocalSortResult {
  std::uint64_t records = 0;
  std::uint32_t merge_passes = 0;
  std::vector<std::uint64_t> keys;  ///< rank: the run's keys in order
  /// rank, at most c records: the records back to back in input order, and
  /// `sorted`, where each sorted record sits in them.  Empty otherwise.
  std::vector<std::byte> in_core;
  std::vector<InCoreRecord> sorted;
};

/// Run the local external sort on the current (LFS-resident) process.  A
/// failed sort removes the temps it made.
util::Result<LocalSortResult> run_local_sort(sim::Context& ctx,
                                             const LocalSortTask& task);

}  // namespace bridge::tools
