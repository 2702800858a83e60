// The copy tool and its filter family (§5.1).
//
// "An ordinary file system can copy a file of length n in time O(n).  If the
// copy program is written as a Bridge tool, files can be copied in time
// O(n/p + log(p)) with p-way interleaving": one ecopy subprocess per LFS
// node copies that node's constituent file entirely locally.
//
// The same harness runs every one-to-one filter (character translation,
// encryption, lexical analysis) and, in scan-only mode, sequential searches
// and summaries — workers return a small summary value at completion.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "src/core/client.hpp"
#include "src/sim/runtime.hpp"
#include "src/tools/filters.hpp"
#include "src/tools/tool_base.hpp"

namespace bridge::tools {

struct CopyOptions {
  FanOutConfig fanout;
  /// One fresh filter per worker; defaults to the identity (plain copy).
  std::function<std::unique_ptr<BlockFilter>()> filter_factory;
};

struct CopyReport {
  std::uint64_t blocks = 0;       ///< blocks processed across all workers
  std::uint64_t summary = 0;      ///< sum of per-worker filter summaries
  sim::SimTime elapsed{};         ///< tool wall time (startup + work + join)
  sim::SimTime startup{};         ///< discover + Open src + Create dst
  std::uint32_t workers = 0;
};

/// Copy `src` to a freshly created `dst`, applying the filter to every
/// block.  Runs from a client process; blocks until the copy completes.
util::Result<CopyReport> run_copy_tool(sim::Context& ctx,
                                       core::BridgeClient& client,
                                       const std::string& src,
                                       const std::string& dst,
                                       CopyOptions options = {});

/// Scan-only variant: runs the filter over every block of `src` without
/// writing an output file (grep / word count / checksum tools).
util::Result<CopyReport> run_scan_tool(sim::Context& ctx,
                                       core::BridgeClient& client,
                                       const std::string& src,
                                       CopyOptions options);

}  // namespace bridge::tools
