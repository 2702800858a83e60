// The merge-sort tool (§5.2): local external sorts, then one of two merges.
//
// The paper's token tree is a log(p)-depth tree of token-passing parallel
// merges:
//
//   In parallel perform local external sorts on each LFS.
//   x := p
//   while x > 1
//     Merge pairs of files in parallel
//     x := x/2
//     Consider the new files to be interleaved across p/x processors
//     Discard the old files in parallel
//   endwhile
//
// The rank merge (the default) makes one pass.  One worker per LFS sorts
// its constituent, keeping it in core when it holds at most c records, and
// reports its keys.  The controller ranks every record once and sends each
// worker its plan.  The workers then scatter their sorted records to the
// dst constituents in lock-step rank rounds, one message per destination,
// and each appends what it receives in rank order.
#pragma once

#include <string>

#include "src/core/client.hpp"
#include "src/sim/runtime.hpp"
#include "src/tools/sort/sort_common.hpp"
#include "src/tools/tool_base.hpp"

namespace bridge::tools {

enum class SortMerge {
  kTokenTree,  ///< §5.2: log2(p) passes of token-passing pairwise merges
  kRank,       ///< one pass: rank at the controller, scatter to the writers
};

struct SortOptions {
  SortTuning tuning;
  FanOutConfig fanout;
  SortMerge merge = SortMerge::kRank;
};

struct SortReport {
  std::uint64_t records = 0;
  std::uint32_t merge_passes = 0;      ///< global (phase 2) passes; rank: 1
  sim::SimTime local_phase{};          ///< Table 4 "Local Sort"
  sim::SimTime merge_phase{};          ///< Table 4 "Merge"
  sim::SimTime total{};                ///< Table 4 "Total"
};

/// Sort Bridge file `src` (round-robin interleaved, record = block, key =
/// leading uint64) into a new p-way interleaved Bridge file `dst`.
util::Result<SortReport> run_sort_tool(sim::Context& ctx,
                                       core::BridgeClient& client,
                                       const std::string& src,
                                       const std::string& dst,
                                       SortOptions options = {});

}  // namespace bridge::tools
