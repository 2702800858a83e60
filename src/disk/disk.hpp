// Simulated block storage device.
//
// The paper's prototype "simulates the disks in memory ... with a
// variable-length sleep interval to simulate seek and rotational delay",
// set to 15 ms to approximate a CDC Wren-class drive.  SimDisk reproduces
// exactly that: an in-memory array of fixed-size blocks where every
// positioning operation charges the configured access latency to the calling
// simulated process, plus a per-block transfer time.  Reading a whole track
// in one revolution (used by the EFS cache's full-track buffering) pays one
// positioning latency for blocks_per_track blocks.
#pragma once

#include <sys/mman.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/sim/runtime.hpp"
#include "src/sim/time.hpp"
#include "src/util/status.hpp"

namespace bridge::disk {

/// Disk block addresses; kNilAddr marks "no block" in chain pointers.
using BlockAddr = std::uint32_t;
inline constexpr BlockAddr kNilAddr = 0xFFFFFFFFu;

struct Geometry {
  std::uint32_t num_tracks = 1024;
  std::uint32_t blocks_per_track = 4;
  std::uint32_t block_size = 1024;

  [[nodiscard]] std::uint32_t capacity_blocks() const noexcept {
    return num_tracks * blocks_per_track;
  }
  [[nodiscard]] std::uint32_t track_of(BlockAddr addr) const noexcept {
    return addr / blocks_per_track;
  }
};

/// Latency model.  The paper profile is the default: one flat 15 ms
/// positioning delay per access plus a small transfer time per block.
struct LatencyModel {
  sim::SimTime access_latency = sim::msec(15.0);       ///< seek + rotation
  sim::SimTime transfer_per_block = sim::msec(0.5);    ///< media transfer
  /// Distance-dependent seek component added on top of access_latency:
  /// seek_per_track * |track - previous track|.  Zero (the default) keeps
  /// the paper's flat positioning charge; the scheduling ablation enables it
  /// so head-travel order becomes visible in the makespan.
  sim::SimTime seek_per_track{0};
  /// Head movement between adjacent tracks inside one multi-track sweep
  /// (read_tracks, write_tracks); far cheaper than a full positioning op,
  /// and capped at access_latency for devices where it is not.
  sim::SimTime track_switch = sim::msec(1.0);
};

struct DiskStats {
  std::uint64_t block_reads = 0;
  std::uint64_t block_writes = 0;
  std::uint64_t track_reads = 0;
  std::uint64_t track_writes = 0;
  std::uint64_t positioning_ops = 0;
  sim::SimTime busy_time{0};

  void reset() noexcept { *this = DiskStats{}; }

  /// Publish counters under `prefix`, plus a `<prefix>.utilization` gauge
  /// (busy_time / `elapsed` — pass the runtime's current virtual time).
  void publish(obs::MetricsRegistry& registry, const std::string& prefix,
               sim::SimTime elapsed) const;

  /// Phase delta: activity since `b` was captured.
  friend DiskStats operator-(DiskStats a, const DiskStats& b) noexcept {
    a.block_reads -= b.block_reads;
    a.block_writes -= b.block_writes;
    a.track_reads -= b.track_reads;
    a.track_writes -= b.track_writes;
    a.positioning_ops -= b.positioning_ops;
    a.busy_time -= b.busy_time;
    return a;
  }
};

/// One block of a write run (SimDisk::write_run, SimDisk::write_tracks).
struct WriteOp {
  BlockAddr addr = kNilAddr;
  std::span<const std::byte> data;
};

/// An in-memory simulated disk.  All timed operations must be invoked from a
/// simulated process (they charge virtual time through the Context).
/// A SimDisk is owned and accessed by exactly one server process, matching
/// the paper's one-disk-per-LFS-node structure, so no internal locking is
/// needed.  Request queueing lives one level up: the owning server drains
/// its mailbox into a disk::RequestScheduler (sched.hpp) and serves requests
/// in SCAN order, so the device itself stays a pure latency model.
class SimDisk {
 public:
  SimDisk(Geometry geometry, LatencyModel latency);

  [[nodiscard]] const Geometry& geometry() const noexcept { return geometry_; }
  [[nodiscard]] const LatencyModel& latency() const noexcept {
    return latency_;
  }
  /// Untimed reconfiguration of the latency model — bottleneck injection for
  /// tests/benches ("inflate this one disk's seek cost 10x").  Takes effect
  /// on the next access; past charges are unaffected.
  void set_latency(const LatencyModel& latency) noexcept {
    latency_ = latency;
  }
  [[nodiscard]] const DiskStats& stats() const noexcept { return stats_; }
  /// Zero the counters (phase measurement without rebuilding the instance).
  void reset_stats() noexcept { stats_.reset(); }

  /// Read one block.  Returns a copy of its contents.
  util::Result<std::vector<std::byte>> read(sim::Context& ctx, BlockAddr addr);

  /// Write one block (data must be exactly block_size bytes).
  util::Status write(sim::Context& ctx, BlockAddr addr,
                     std::span<const std::byte> data);

  /// Read every block of the track containing `addr` in one revolution:
  /// one positioning latency + blocks_per_track transfer times.  Returns the
  /// blocks in track order together with the address of the first one.
  util::Result<std::vector<std::vector<std::byte>>> read_track(
      sim::Context& ctx, BlockAddr addr, BlockAddr* track_start);

  /// Read `num_tracks` consecutive whole tracks starting with the one
  /// containing `addr`, in one sweep: one positioning latency, then each
  /// track streams past at transfer speed with a cheap track_switch hop
  /// between adjacent tracks.  Deep read-ahead uses this so prefetching N
  /// tracks costs far less than N independent read_track calls.  The count
  /// is clamped to the end of the device; blocks return in address order.
  util::Result<std::vector<std::vector<std::byte>>> read_tracks(
      sim::Context& ctx, BlockAddr addr, std::uint32_t num_tracks,
      BlockAddr* track_start);

  /// Write several blocks of ONE track in a single revolution: one
  /// positioning latency + one transfer time per block — the write-side
  /// mirror of read_track.  All ops must address the same track and carry
  /// exactly block_size bytes; violations fail before any time is charged
  /// or any byte lands.
  util::Status write_run(sim::Context& ctx, std::span<const WriteOp> ops);

  /// Write blocks spread over consecutive tracks in one sweep — the
  /// write-side mirror of read_tracks: one positioning latency, a cheap
  /// track_switch hop per extra track, and one transfer time per block.
  /// Addresses must strictly ascend, each on its predecessor's track or the
  /// next one, and every op must carry exactly block_size bytes; a gap, a
  /// descending address or a bad size fails before any time is charged or
  /// any byte lands.
  util::Status write_tracks(sim::Context& ctx, std::span<const WriteOp> ops);

  /// Track under the head after the last access (0 before any access).
  /// The request scheduler seeds its SCAN sweep from here.
  [[nodiscard]] std::uint32_t current_track() const noexcept {
    return last_addr_ == kNilAddr ? 0 : geometry_.track_of(last_addr_);
  }

  /// Fault injection: after fail(), every operation returns kUnavailable
  /// until repair() is called.  Used by the fault-tolerance benches.
  void fail() noexcept { failed_ = true; }
  void repair() noexcept { failed_ = false; }
  [[nodiscard]] bool is_failed() const noexcept { return failed_; }

  /// Untimed access for tests and integrity checkers (no latency charged,
  /// no stats).  Returns nullopt for an out-of-range address.
  [[nodiscard]] std::optional<std::span<const std::byte>> peek(BlockAddr addr) const;
  void poke(BlockAddr addr, std::span<const std::byte> data);

  /// Persist / restore the raw device image to a host file (untimed; models
  /// powering the machine down and back up).  load_image fails if the file
  /// is missing or its recorded geometry differs from this device's.
  util::Status save_image(const std::string& path) const;
  util::Status load_image(const std::string& path);

 private:
  util::Status check_addr(BlockAddr addr) const;
  /// Charge one sweep over `num_tracks` consecutive tracks and land `ops`
  /// (already validated).
  void land(sim::Context& ctx, std::span<const WriteOp> ops,
            std::uint32_t num_tracks, const char* trace_name);
  void charge_positioning(sim::Context& ctx, BlockAddr addr);
  /// Positioning cost to reach `addr` from the current head position:
  /// access_latency plus the distance-dependent seek component (if any).
  [[nodiscard]] sim::SimTime positioning_cost(BlockAddr addr) const;
  /// Head movement for `hops` adjacent-track switches inside one sweep:
  /// track_switch each, but never more than a fresh access_latency.
  [[nodiscard]] sim::SimTime track_hops(std::uint32_t hops) const;

  /// Block `addr` of the store (addr must be in range).
  [[nodiscard]] std::byte* block(BlockAddr addr) const noexcept {
    return store_.get() + static_cast<std::size_t>(addr) * geometry_.block_size;
  }
  [[nodiscard]] std::size_t store_bytes() const noexcept {
    return static_cast<std::size_t>(geometry_.capacity_blocks()) *
           geometry_.block_size;
  }

  /// A fresh anonymous mapping of `bytes`, or null for none.
  static std::byte* map_store(std::size_t bytes);
  struct FreeStore {
    std::size_t bytes = 0;
    void operator()(std::byte* store) const noexcept { ::munmap(store, bytes); }
  };

  Geometry geometry_;
  LatencyModel latency_;
  /// capacity_blocks * block_size, contiguous, mapped fresh: its pages are
  /// zero until written, so a large device is resident only where it has
  /// been written.  calloc gave a fresh mapping only while no free heap
  /// chunk fit the store; one carved from the heap was zero-filled, and so
  /// resident, at once.
  std::unique_ptr<std::byte, FreeStore> store_;
  DiskStats stats_;
  BlockAddr last_addr_ = kNilAddr;
  bool failed_ = false;
};

}  // namespace bridge::disk
