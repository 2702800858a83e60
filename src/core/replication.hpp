// Fault-tolerance extensions for interleaved files.
//
// §6: "interleaved files (like striped files and storage arrays) are
// inherently intolerant of faults.  A failure anywhere in the system is
// fatal; it ruins every file.  Replication helps, but only at very high
// cost.  Storage capacity must be doubled in order to tolerate single-drive
// failures.  One might hope to reduce the amount of space required by using
// an error-correcting scheme like that of the Connection Machine, but we see
// no obvious way to do so in a MIMD environment with block-level
// interleaving."
//
// This module builds both options the paper weighs, as tool-level access
// methods over the LFS layer:
//  - MirroredFile: every block is written to its round-robin home AND to a
//    mirror LFS offset by p/2; reads fall back to the mirror when the
//    primary is unavailable.  2x storage, tolerates any single failure.
//  - ParityFile: blocks are striped across p-1 data LFSs; the parity LFS
//    stores the XOR of each stripe.  1/(p-1) storage overhead; a failed
//    LFS's blocks are reconstructed from the surviving p-1.  (The paper saw
//    "no obvious way" to do this in 1988; this is the RAID-4 style answer.)
//
// Both run on the vectored I/O pipeline: appends fan one write per involved
// LFS out concurrently (sim::AsyncBatch over kWriteMany), degraded
// parity reads gather the whole surviving stripe in one round, and failed
// appends are compensated with the EFS kTruncate op so no torn stripe or
// half-mirrored block survives a mid-append fault.
//
// Both `rebuild_lfs` calls run on one recovery engine.  Each describes its
// work as sources (the surviving constituents to stream), targets (the
// constituents to re-create on the repaired or spare LFS mounted at the
// failed index) and a reconstruct step (mirroring re-wraps each surviving
// copy; parity XOR-folds each stripe).  The engine streams windows: one
// kReadMany per source, then one kWriteMany per target, and it rejects any
// surviving block whose header names the wrong global block.  A
// one-block-per-RPC reference mode exists for the recovery ablation bench.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/client.hpp"
#include "src/efs/client.hpp"
#include "src/tools/tool_base.hpp"

namespace bridge::core {

/// How `rebuild_lfs` streams the surviving data.
struct RebuildOptions {
  /// Local blocks (stripes) reconstructed per streaming round.  32 blocks
  /// is a full flight of 8 tracks — deep enough that each window's
  /// track-coalesced write overlaps the next window's reads.
  std::uint32_t window_blocks = 32;
  /// true: double-buffered kReadMany/kWriteMany windows, every source LFS
  /// in flight at once.  false: the reference path — one n=1 kReadMany or
  /// kWriteMany per block, strictly sequential, reading block l of every
  /// source before block l + 1 (kept for A10's per-block column).
  bool vectored = true;
};

struct RebuildReport {
  std::uint64_t blocks_rebuilt = 0;  ///< blocks written to the rebuilt LFS
  std::uint64_t blocks_read = 0;     ///< surviving blocks streamed in
  std::uint64_t windows = 0;         ///< streaming rounds executed
};

/// Mirrored interleaved file, accessed through the tool view.
/// Create via BridgeClient (two Bridge files: "<name>" and "<name>!mirror"),
/// then read/write through this wrapper from a client process.
class MirroredFile {
 public:
  /// Opens (creating if needed) the primary and mirror files.  The logical
  /// size is re-derived from the constituent files (appends bypass the
  /// Bridge Server, so its record may be stale); a single failed LFS is
  /// tolerated by counting the partner constituent instead.
  static util::Result<MirroredFile> open(sim::Context& ctx,
                                         BridgeClient& client,
                                         const std::string& name);

  /// Append `data` as the next block: one write to the primary home, one to
  /// the mirror home ((lfs + p/2) mod p), both in flight concurrently.  If
  /// either write fails the other constituent is rolled back with kTruncate
  /// so no half-mirrored block survives.
  util::Status append(std::span<const std::byte> data);

  /// Append a whole run of blocks through the vectored pipeline: the run is
  /// grouped per constituent and ships as one kWriteMany per LFS touched
  /// (primary and mirror fan out together).  All-or-nothing: any failure
  /// rolls every touched constituent back to its pre-run length.
  util::Status append_many(const std::vector<std::vector<std::byte>>& blocks);

  /// Read global block `n`; if the primary LFS is unavailable the mirror
  /// serves it.  `used_mirror` (optional) reports the fallback.
  util::Result<std::vector<std::byte>> read(std::uint64_t n,
                                            bool* used_mirror = nullptr);

  /// Recovery engine: re-create both constituents LFS `failed_idx` held (its
  /// primary blocks from their mirrors, its mirror blocks from their
  /// primaries) by streaming windows from the partner LFSs.  The disk at
  /// `failed_idx` must be back in service (repaired or a spare); whatever
  /// survives of the old constituents is discarded first.
  util::Result<RebuildReport> rebuild_lfs(std::uint32_t failed_idx,
                                          RebuildOptions options = {});

  [[nodiscard]] std::uint64_t size_blocks() const noexcept { return size_; }

 private:
  MirroredFile(sim::Context& ctx, tools::ToolEnv env, FileMeta primary,
               FileMeta mirror);

  /// Re-derive size_ from one concurrent kInfo round over both files'
  /// constituents; the mirror constituent stands in for any primary
  /// constituent whose LFS cannot answer.
  util::Status derive_size();

  sim::Context* ctx_;
  tools::ToolEnv env_;
  FileMeta primary_;
  FileMeta mirror_;
  std::uint64_t size_ = 0;
  std::unique_ptr<sim::RpcClient> rpc_;
  std::vector<std::unique_ptr<efs::EfsClient>> lfs_;
};

/// Parity-protected striped file (RAID-4 style): p-1 data LFSs + parity on
/// a dedicated LFS.  Appends are whole stripes; reads reconstruct through
/// parity when a data LFS has failed.
///
/// Each parity block's reserved header words carry the XOR of the stripe's
/// payload lengths (reserved0) and the stripe's fill count (reserved1), so
/// reconstruction recovers short (< kUserDataBytes) blocks byte-identical
/// instead of zero-padded, and a reopen can size the file even when a data
/// LFS is down.
class ParityFile {
 public:
  static util::Result<ParityFile> open(sim::Context& ctx, BridgeClient& client,
                                       const std::string& name);

  /// Append one stripe of up to data_width() blocks (all must be
  /// kUserDataBytes-sized or smaller; short stripes are allowed only as the
  /// final stripe).  The data writes and the parity write are all in flight
  /// together; on any failure every touched constituent is rolled back with
  /// kTruncate, so a mid-stripe fault never leaves a torn stripe.
  util::Status append_stripe(const std::vector<std::vector<std::byte>>& blocks);

  /// Read global block `n`; if its data LFS is failed, reconstructs the
  /// block by XOR of the stripe's surviving blocks + parity, gathered in one
  /// concurrent round.  Short blocks come back byte-identical (their true
  /// length is recovered from the parity header).
  util::Result<std::vector<std::byte>> read(std::uint64_t n,
                                            bool* reconstructed = nullptr);

  /// Recovery engine: re-create the constituent LFS `failed_idx` held.  For
  /// a data LFS, windows of the surviving data constituents and the parity
  /// constituent stream in concurrently and the lost blocks are re-derived
  /// by XOR; for the parity LFS, the parity blocks are recomputed from the
  /// data constituents.  The disk at `failed_idx` must be back in service.
  util::Result<RebuildReport> rebuild_lfs(std::uint32_t failed_idx,
                                          RebuildOptions options = {});

  [[nodiscard]] std::uint64_t size_blocks() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t data_width() const noexcept {
    return data_.width != 0 ? data_.width : env_.num_lfs() - 1;
  }
  /// The LFS index holding the parity constituent (honors the file's
  /// recorded start_lfs — a pre-existing parity file may live anywhere).
  [[nodiscard]] std::uint32_t parity_lfs_index() const noexcept {
    return parity_.start_lfs % env_.num_lfs();
  }

 private:
  ParityFile(sim::Context& ctx, tools::ToolEnv env, FileMeta data,
             FileMeta parity);

  /// Re-derive size_ from the data constituents; if one data LFS cannot
  /// answer, the exact size is recovered from the last parity block's fill
  /// count instead.
  util::Status derive_size();

  sim::Context* ctx_;
  tools::ToolEnv env_;
  FileMeta data_;
  FileMeta parity_;
  std::uint64_t size_ = 0;
  std::unique_ptr<sim::RpcClient> rpc_;
  std::vector<std::unique_ptr<efs::EfsClient>> lfs_;
};

}  // namespace bridge::core
