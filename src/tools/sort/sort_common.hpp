// Shared types for the merge-sort tool (§5.2).
//
// "For the sake of simplicity we assume that the records to be sorted are
// the same size as a disk block": a record is one Bridge block whose user
// payload begins with a little-endian uint64 sort key.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/time.hpp"
#include "src/util/serde.hpp"

namespace bridge::tools {

/// Extract the sort key from a record's user payload.
inline std::uint64_t record_key(std::span<const std::byte> payload) {
  if (payload.size() < 8) return 0;
  util::Reader r(payload.subspan(0, 8));
  return r.u64();
}

/// Blocks per LFS request on the sort's streams: the local sort's source,
/// run, temp and merge streams, the rank merge's run readers and dst
/// writers, and the token merge's writers.  The token merge's readers stay
/// at one block, since a window there makes the token wait while its holder
/// refills.
inline constexpr std::uint32_t kSortWindow = 8;

/// Tuning for both sort phases.
struct SortTuning {
  /// c: records the local sort can hold in core (the prototype used 512).
  std::uint32_t in_core_records = 512;
  /// Fan-in of the local merge passes.  The prototype used 2-way merges;
  /// §5.2 predicts "with a faster (e.g. multi-way) local merge, this
  /// [super-linear speedup] anomaly should disappear" — raise this to test
  /// that claim (ablation_sort_anomaly).
  std::uint32_t local_merge_fanin = 2;
  /// CPU per key comparison in the in-core sort.
  sim::SimTime compare_cpu = sim::usec(4);
  /// CPU per record handled (copy in/out of buffers).
  sim::SimTime record_cpu = sim::usec(40);
  /// CPU to process one token at a merge reader.
  sim::SimTime token_cpu = sim::usec(60);

  /// c as the local sort uses it: at least 2.
  [[nodiscard]] std::uint32_t in_core() const noexcept {
    return in_core_records < 2 ? 2 : in_core_records;
  }
};

}  // namespace bridge::tools
