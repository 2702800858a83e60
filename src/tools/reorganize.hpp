// Off-line reorganization tool (§3).
//
// "We are considering the relaxation of interleaving rules for a limited
// class of files, possibly with off-line reorganization" — and for chunked
// files, "significant changes in size ... require a global reorganization
// involving every LFS."
//
// This tool converts a file of ANY distribution (round-robin at any width,
// chunked, hashed, linked/disordered) into a fresh strictly round-robin
// interleaved file.  It resolves the source placement map through the Bridge
// Server, then runs one worker per destination LFS: each worker pulls the
// blocks it will own from their source LFSs (local when possible) and writes
// them to its own disk — the minimum data movement the new layout permits.
#pragma once

#include <string>

#include "src/core/client.hpp"
#include "src/sim/runtime.hpp"
#include "src/tools/tool_base.hpp"

namespace bridge::tools {

struct ReorganizeReport {
  std::uint64_t blocks = 0;          ///< blocks in the file
  std::uint64_t local_reads = 0;     ///< source block already on the worker's node
  std::uint64_t remote_reads = 0;    ///< source block pulled across the interconnect
  sim::SimTime elapsed{};
  std::uint32_t workers = 0;
};

util::Result<ReorganizeReport> run_reorganize_tool(sim::Context& ctx,
                                                   core::BridgeClient& client,
                                                   const std::string& src,
                                                   const std::string& dst,
                                                   FanOutConfig fanout = {});

}  // namespace bridge::tools
