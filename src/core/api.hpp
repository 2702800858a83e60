// Abstract Bridge client API.
//
// Tools and applications program against this interface; it is implemented
// by BridgeClient (one centralized server, the paper's prototype) and by
// RoutedBridgeClient (a distributed collection of servers partitioning the
// directory by name — the scaling path §4.1 sketches: "If requests to the
// server are frequent enough to cause a bottleneck, the same functionality
// could be provided by a distributed collection of processes").
#pragma once

#include <string>
#include <vector>

#include "src/core/protocol.hpp"
#include "src/util/status.hpp"

namespace bridge::core {

struct CreateOptions {
  Distribution distribution = Distribution::kRoundRobin;
  std::uint32_t width = 0;  ///< 0 = interleave across all LFSs
  std::uint32_t start_lfs = 0;
  std::uint32_t chunk_blocks = 0;  ///< chunked distribution only
  std::uint64_t hash_seed = 0;     ///< hashed distribution only
  /// Fan the Create out through an embedded binary tree: dispatch and reply
  /// cost one charge per tree level instead of one per spanned LFS (§4.5).
  bool tree = false;
};

/// The FileMeta that Open would return for a file just made by
/// create(name, options) with Bridge id `id` on a machine of `num_lfs` LFSs,
/// so a creator need not Open it.  The placement is the one
/// BridgeServer::handle_create builds from the same options, the file is
/// empty, and a fresh file's lfs_file_id is its Bridge id.
inline FileMeta created_file_meta(const std::string& name, BridgeFileId id,
                                  const CreateOptions& options,
                                  std::uint32_t num_lfs) {
  std::uint32_t width = (options.width == 0 || options.width > num_lfs)
                            ? num_lfs
                            : options.width;
  PlacementMap placement(options.distribution, width, options.start_lfs,
                         num_lfs, options.chunk_blocks, options.hash_seed);
  FileMeta meta;
  meta.id = id;
  meta.name = name;
  meta.distribution = static_cast<std::uint8_t>(placement.distribution());
  meta.width = placement.width();
  meta.start_lfs = placement.start_lfs();
  meta.chunk_blocks = placement.chunk_blocks();
  meta.lfs_file_id = id;
  return meta;
}

class BridgeApi {
 public:
  virtual ~BridgeApi() = default;

  virtual util::Result<BridgeFileId> create(const std::string& name,
                                            CreateOptions options = {}) = 0;
  virtual util::Status remove(const std::string& name) = 0;
  virtual util::Status remove_many(const std::vector<std::string>& names) = 0;
  virtual util::Result<OpenResponse> open(const std::string& name) = 0;

  virtual util::Result<SeqReadResponse> seq_read(std::uint64_t session) = 0;
  virtual util::Result<std::uint64_t> seq_write(
      std::uint64_t session, std::span<const std::byte> data) = 0;
  virtual util::Result<std::vector<std::byte>> random_read(
      BridgeFileId id, std::uint64_t block_no) = 0;
  virtual util::Status random_write(BridgeFileId id, std::uint64_t block_no,
                                    std::span<const std::byte> data) = 0;

  // Vectored naive-view ops: one round trip moves a run of blocks and the
  // server keeps every involved LFS in flight concurrently.  Semantically
  // equivalent to a loop over the single-block ops, but a failed run leaves
  // the session cursor and file size exactly where they stood.
  virtual util::Result<SeqReadManyResponse> seq_read_many(
      std::uint64_t session, std::uint32_t max_blocks) = 0;
  virtual util::Result<SeqWriteManyResponse> seq_write_many(
      std::uint64_t session, std::vector<std::vector<std::byte>> blocks) = 0;
  virtual util::Result<RandomReadManyResponse> random_read_many(
      BridgeFileId id, std::uint64_t first_block, std::uint32_t count) = 0;

  /// Reposition a session's sequential read cursor (clamped to the file
  /// size).  Returns the cursor after the seek.
  virtual util::Result<std::uint64_t> seq_seek(std::uint64_t session,
                                               std::uint64_t block_no) = 0;

  /// Shrink file `id` to `new_size_blocks` (growing is an error; equal is a
  /// no-op).  The server fans per-constituent truncates to every involved
  /// LFS and clamps open-session cursors.  Rejected for members of a
  /// mirrored/parity group — their sizes are coupled invariants owned by the
  /// replicated access methods.
  virtual util::Result<std::uint64_t> truncate(
      BridgeFileId id, std::uint64_t new_size_blocks) = 0;

  virtual util::Result<std::uint64_t> parallel_open(
      std::uint64_t session, const std::vector<sim::Address>& workers) = 0;
  virtual util::Result<ParallelReadResponse> parallel_read(
      std::uint64_t job) = 0;
  virtual util::Result<ParallelWriteResponse> parallel_write(
      std::uint64_t job) = 0;

  /// Rename `from` to `to` (target must not exist; members of a
  /// mirrored/parity group are rejected).  Returns the file's id after the
  /// rename: under a routed directory the file may move to the home server
  /// of the new name, in which case a NEW id (tagged with the new home) is
  /// returned and the old id stops resolving.  Open sessions on the old
  /// server do not follow a cross-server move.
  virtual util::Result<BridgeFileId> rename(const std::string& from,
                                            const std::string& to) = 0;

  /// List directory entries whose name starts with `prefix` (empty = all),
  /// sorted by name.  Under a routed directory the listing fans out to every
  /// server concurrently and merges the sorted partitions deterministically.
  virtual util::Result<std::vector<ListEntry>> list(
      const std::string& prefix) = 0;

  virtual util::Result<GetInfoResponse> get_info() = 0;

  /// Resolve `count` placements starting at global block `first` of file
  /// `id` (needed for hashed/linked files whose placement lives only in the
  /// Bridge directory).
  virtual util::Result<ResolveResponse> resolve(BridgeFileId id,
                                                std::uint64_t first,
                                                std::uint32_t count) = 0;
};

}  // namespace bridge::core
