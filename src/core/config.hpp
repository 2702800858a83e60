// System-wide configuration: one struct that sizes and prices the whole
// simulated machine.
//
// The "paper1988" profile approximates the prototype's environment: Wren-
// class 15 ms disks, Butterfly/Chrysalis message costs, and per-request CPU
// overheads calibrated so the Table 2 basic operations land in the same
// regime as the paper's measurements (see EXPERIMENTS.md for the mapping).
#pragma once

#include <cstdint>

#include "src/disk/disk.hpp"
#include "src/efs/efs.hpp"
#include "src/sim/topology.hpp"

namespace bridge::core {

/// CPU cost knobs for the Bridge Server itself.
struct BridgeConfig {
  /// Decode/dispatch per incoming request.
  sim::SimTime request_cpu = sim::usec(300);
  /// Copying/forwarding one block of data through the server.
  sim::SimTime forward_cpu = sim::usec(250);
  /// Open: Bridge directory read + "setting up an optimized path" (§4.1).
  sim::SimTime open_cpu = sim::msec(77.0);
  /// Create: fixed directory/bookkeeping work (Chrysalis object management
  /// was expensive; the paper measured 145 ms + 17.5 ms per node).
  sim::SimTime create_base_cpu = sim::msec(136.0);
  /// Create: sequential initiation per LFS the file spans (§4.5: "the
  /// initiation and termination are sequential"), or per tree level when the
  /// request sets kCreateTreeBit.
  sim::SimTime create_dispatch_cpu = sim::msec(9.0);
  /// Create: completion processing, charged like create_dispatch_cpu.
  sim::SimTime create_reply_cpu = sim::msec(8.0);
};

struct SystemConfig {
  std::uint32_t num_lfs = 8;          ///< p: LFS node count
  /// Bridge Server instances.  1 = the paper's centralized prototype; more
  /// partition the directory by file-name hash (§4.1's distributed option).
  std::uint32_t num_bridge_servers = 1;
  disk::Geometry geometry;            ///< per-LFS disk geometry
  disk::LatencyModel disk_latency;    ///< Wren profile by default
  efs::EfsConfig efs;
  BridgeConfig bridge;
  sim::Topology topology;
  std::uint64_t seed = 1;

  /// Node map: LFS i on node i, Bridge Server s on node p+s, clients on
  /// node p+num_bridge_servers.
  [[nodiscard]] std::uint32_t bridge_node(std::uint32_t server = 0) const noexcept {
    return num_lfs + server;
  }
  [[nodiscard]] std::uint32_t client_node() const noexcept {
    return num_lfs + num_bridge_servers;
  }
  [[nodiscard]] std::uint32_t total_nodes() const noexcept {
    return num_lfs + num_bridge_servers + 1;
  }

  /// The calibrated 1988 profile.  `data_blocks_per_lfs` sizes each disk
  /// (rounded up to whole tracks) so benches can provision exactly what a
  /// workload needs.
  static SystemConfig paper_profile(std::uint32_t p,
                                    std::uint32_t data_blocks_per_lfs = 8192) {
    SystemConfig cfg;
    cfg.num_lfs = p;
    cfg.geometry.blocks_per_track = 4;
    // Reserve superblock + directory, then round up to whole tracks.
    std::uint32_t total_blocks = data_blocks_per_lfs + 16;
    cfg.geometry.num_tracks =
        (total_blocks + cfg.geometry.blocks_per_track - 1) /
        cfg.geometry.blocks_per_track;
    return cfg;
  }
};

}  // namespace bridge::core
