// File data-distribution strategies (§3).
//
// Bridge's default is strict round-robin interleaving.  The paper argues for
// it against two database-style alternatives — chunking and hashing — and
// mentions a linked "disordered" representation its prototype also supports.
// All four are implemented so the distribution ablation can measure the §3
// claims (consecutive-block parallelism, append cost, random access cost).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/interleave.hpp"
#include "src/util/serde.hpp"
#include "src/util/status.hpp"

namespace bridge::core {

enum class Distribution : std::uint8_t {
  kRoundRobin = 0,  ///< block n -> LFS (n+k) mod p  (Bridge default)
  kChunked = 1,     ///< p contiguous chunks, fixed capacity, Gamma-style
  kHashed = 2,      ///< LFS chosen by hash(block); local slots in hash order
  kLinked = 3,      ///< arbitrary scatter, placement recorded per block
};

const char* distribution_name(Distribution d) noexcept;

/// Computes and records block placements for one Bridge file.  RoundRobin
/// and Chunked are closed-form; Hashed and Linked keep a per-block table
/// (the directory-resident "explicit linked-list representation" of §3).
class PlacementMap {
 public:
  PlacementMap() = default;
  /// `width` LFSs are used, starting at `start_lfs`, on a machine with
  /// `total_lfs` LFS instances.
  PlacementMap(Distribution dist, std::uint32_t width, std::uint32_t start_lfs,
               std::uint32_t total_lfs, std::uint32_t chunk_blocks,
               std::uint64_t hash_seed);

  [[nodiscard]] Distribution distribution() const noexcept { return dist_; }
  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] std::uint32_t total_lfs() const noexcept { return total_lfs_; }
  [[nodiscard]] std::uint32_t start_lfs() const noexcept { return start_lfs_; }
  [[nodiscard]] std::uint32_t chunk_blocks() const noexcept {
    return chunk_blocks_;
  }
  [[nodiscard]] std::uint64_t size_blocks() const noexcept { return size_; }

  /// The LFS indices this file can hold blocks on, ascending: the `width`
  /// LFSs `(start_lfs + i) mod total_lfs` for round-robin, chunked and
  /// hashed files; every LFS for a linked file, which may scatter anywhere.
  /// Create, Delete and Open touch exactly these constituents.
  [[nodiscard]] std::vector<std::uint32_t> span() const;

  /// Placement of existing global block `n` (n < size_blocks()).
  [[nodiscard]] util::Result<Placement> place(std::uint64_t n) const;

  /// Assign a placement for the next appended block and grow the file.
  /// For Chunked, appending past p*chunk_blocks fails with kOutOfSpace —
  /// the caller must reorganize (the §3 criticism).
  util::Result<Placement> append();

  /// Linked files may scatter arbitrarily: record an explicit placement.
  util::Status append_linked(Placement placement);

  /// Next unused local block number on `lfs` (hashed/linked bookkeeping);
  /// callers picking scatter placements use this to stay gap-free.
  [[nodiscard]] std::uint32_t next_local(std::uint32_t lfs) const {
    return lfs < next_local_.size() ? next_local_[lfs] : 0;
  }
  [[nodiscard]] std::uint64_t hash_seed() const noexcept { return hash_seed_; }

  /// Grow chunk capacity (the "global reorganization" a chunked append
  /// overflow forces).  Returns the number of blocks that must move.
  std::uint64_t rechunk(std::uint32_t new_chunk_blocks);

  /// Truncate bookkeeping to `n` blocks (delete support).
  void truncate(std::uint64_t n);

  /// Refresh the logical size from externally observed state (tools write to
  /// the LFS level directly, so the Bridge directory learns new sizes at
  /// Open).  Only meaningful for closed-form distributions.
  void set_size_closed_form(std::uint64_t n) {
    if (dist_ == Distribution::kRoundRobin || dist_ == Distribution::kChunked) {
      size_ = n;
    }
  }

  void encode(util::Writer& w) const;
  static PlacementMap decode(util::Reader& r);

 private:
  Distribution dist_ = Distribution::kRoundRobin;
  std::uint32_t width_ = 1;
  std::uint32_t total_lfs_ = 1;
  std::uint32_t start_lfs_ = 0;
  std::uint32_t chunk_blocks_ = 0;
  std::uint64_t hash_seed_ = 0;
  std::uint64_t size_ = 0;
  /// Hashed/Linked: placement per block, in global order.
  std::vector<Placement> table_;
  /// Hashed: next free local slot per LFS.
  std::vector<std::uint32_t> next_local_;
};

}  // namespace bridge::core
