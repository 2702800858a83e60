// Phase 2 of the merge-sort tool: the token-passing parallel merge of
// Figure 4.
//
// "The algorithm to merge two t/2-way interleaved files into one t-way
// interleaved file involves three sets of processes": readers for each input
// file and t writers for the destination.  A token circulates carrying the
// least unwritten key of the *other* input file, the name of the process
// holding that record, and the next destination sequence number.  Correctness
// invariants (§5.2): the token is never passed twice in a row without a
// record being written, and records are written in nondecreasing key order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/protocol.hpp"
#include "src/sim/channel.hpp"
#include "src/sim/runtime.hpp"
#include "src/tools/sort/sort_common.hpp"
#include "src/tools/tool_base.hpp"
#include "src/util/status.hpp"

namespace bridge::tools {

/// Figure 4's token: {StartFlag, EndFlag, Key, Originator, SeqNum}, plus a
/// shutdown flag used to terminate the remaining readers once the merge is
/// complete (the paper's "special cases ... to deal with termination").
struct MergeToken {
  bool start = false;
  bool end = false;
  bool shutdown = false;
  std::uint64_t key = 0;
  std::uint32_t originator = 0;  ///< global reader index
  std::uint64_t seq = 0;         ///< next destination record number
};

/// Message from a reader to a destination writer.
struct WriterMessage {
  bool end = false;
  std::uint64_t seq = 0;           ///< record: destination sequence number
  std::uint64_t final_seq = 0;     ///< end: total records in the merge
  std::vector<std::byte> payload;
};

/// Result returned by each merge worker process.
struct MergeWorkerResult {
  std::uint64_t records = 0;  ///< records read (readers) or written (writers)
};

/// One two-file merge.  Construction wires up channels; launch() spawns
/// readers and writers into the caller's WorkerGroup (so a pass can launch
/// several merges and wait for them together).  The controller must send the
/// start token via kick() after launching.
class TokenMerge {
 public:
  /// `a` and `b` are sorted Bridge files; `dst` is a freshly created file of
  /// width a.width + b.width whose stripe must cover both inputs' LFSs.
  TokenMerge(sim::Context& ctx, const ToolEnv& env, core::FileMeta a,
             core::FileMeta b, core::FileMeta dst, SortTuning tuning);

  /// Spawn all reader and writer processes.
  void launch(WorkerGroup<MergeWorkerResult>& group);

  /// Inject the start token (call after launch, before waiting).
  void kick(sim::Context& ctx);

  [[nodiscard]] std::uint32_t num_workers() const noexcept {
    return 2 * (a_.width + b_.width);
  }

 private:
  struct Shared;
  std::shared_ptr<Shared> shared_;
  const ToolEnv* env_;
  core::FileMeta a_, b_, dst_;
  SortTuning tuning_;
};

}  // namespace bridge::tools
