// Interleaved-file block placement (§3).
//
// "With p instances of the LFS, the nth block of an interleaved file will be
// block (n div p) in the constituent file on LFS (n mod p) ... If the
// round-robin distribution can start on any node, then the nth block will be
// found on processor ((n + k) mod p), where block zero belongs to LFS k."
//
// striped_placement is that formula for a file of any width; hashed_lfs
// serves the hashed distribution of the ablation (distribution.hpp builds
// every strategy on these).
#pragma once

#include <cstdint>

#include "src/util/hash.hpp"

namespace bridge::core {

struct Placement {
  std::uint32_t lfs_index = 0;   ///< which LFS holds the block
  std::uint32_t local_block = 0; ///< its block number within that LFS file

  friend bool operator==(const Placement&, const Placement&) = default;
};

/// General striping: a file interleaved across `width` consecutive LFSs of a
/// `total`-LFS machine, starting at LFS `start`.  The paper's p-way case is
/// width == total; the sort tool's intermediate files use width < total
/// ("consider the resulting files to be interleaved across p/x processors").
[[nodiscard]] constexpr Placement striped_placement(std::uint64_t n,
                                                    std::uint32_t width,
                                                    std::uint32_t start,
                                                    std::uint32_t total) {
  return Placement{
      static_cast<std::uint32_t>((start + n % width) % total),
      static_cast<std::uint32_t>(n / width)};
}

/// Inverse of striped_placement: global block number at (lfs, local).
[[nodiscard]] constexpr std::uint64_t striped_global(std::uint32_t lfs,
                                                     std::uint32_t local,
                                                     std::uint32_t width,
                                                     std::uint32_t start,
                                                     std::uint32_t total) {
  std::uint32_t offset = (lfs + total - start % total) % total;
  return static_cast<std::uint64_t>(local) * width + offset;
}

/// Hashed LFS choice for block `n` (local numbering is assignment-order and
/// tracked by the directory; see distribution.hpp).
[[nodiscard]] inline std::uint32_t hashed_lfs(std::uint64_t n, std::uint32_t p,
                                              std::uint64_t seed) {
  return static_cast<std::uint32_t>(util::mix64(n ^ seed) % p);
}

}  // namespace bridge::core
