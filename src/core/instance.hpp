// BridgeInstance: boots a whole simulated Bridge machine.
//
// Figure 2's hardware layout: p processor+disk pairs run the LFS instances
// (nodes 0..p-1), the Bridge Server runs on node p, and "front-end" client
// programs run on node p+1.  This is the top-level object that tests,
// examples and benches construct.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/client.hpp"
#include "src/core/config.hpp"
#include "src/core/server.hpp"
#include "src/efs/server.hpp"
#include "src/sim/runtime.hpp"

namespace bridge::core {

class BridgeInstance {
 public:
  explicit BridgeInstance(SystemConfig config);

  BridgeInstance(const BridgeInstance&) = delete;
  BridgeInstance& operator=(const BridgeInstance&) = delete;

  /// Spawn all LFS servers and the Bridge Server.  Idempotent.
  void start();

  [[nodiscard]] sim::Runtime& runtime() noexcept { return *rt_; }
  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::Address bridge_address(std::uint32_t server = 0) noexcept {
    return bridges_[server]->address();
  }
  [[nodiscard]] std::vector<sim::Address> bridge_addresses() noexcept {
    std::vector<sim::Address> addresses;
    for (auto& server : bridges_) addresses.push_back(server->address());
    return addresses;
  }
  [[nodiscard]] BridgeServer& server(std::uint32_t i = 0) noexcept {
    return *bridges_[i];
  }
  [[nodiscard]] std::uint32_t num_servers() const noexcept {
    return static_cast<std::uint32_t>(bridges_.size());
  }
  [[nodiscard]] efs::EfsServer& lfs(std::uint32_t i) noexcept {
    return *lfs_servers_[i];
  }
  [[nodiscard]] std::uint32_t num_lfs() const noexcept {
    return config_.num_lfs;
  }

  /// Spawn a client program on the front-end node with a ready BridgeClient
  /// connected to every Bridge Server.
  sim::ProcessHandle run_client(
      const std::string& name,
      std::function<void(sim::Context&, BridgeClient&)> body);

  /// perfbench/ still calls this name; it goes when the benchmark stops.
  sim::ProcessHandle run_routed_client(
      const std::string& name,
      std::function<void(sim::Context&, BridgeClient&)> body) {
    return run_client(name, std::move(body));
  }

  /// Run the simulation until quiescent.
  void run() { rt_->run(); }

  /// Integrity check across every LFS (untimed).
  [[nodiscard]] util::Status verify_all_lfs() const;

  /// Human-readable machine report: per-LFS disk and cache statistics,
  /// interconnect traffic, server counters.  For examples and debugging.
  void print_stats(std::FILE* out) const;

  /// Push every subsystem's counters into the runtime's MetricsRegistry
  /// (disk.n<i>, cache.n<i>, efs.n<i>, bridge.n<node>, net.*).  Gauges such
  /// as disk utilization are computed against the current virtual time.
  void publish_metrics();

  /// publish_metrics() + full registry dump — the whole machine as one JSON
  /// object (counters, gauges, latency histograms per node).
  [[nodiscard]] std::string metrics_json();

  /// Compact summary for bench result rows: per-disk utilization, Bridge
  /// request service-time percentiles (merged across every Bridge server),
  /// aggregate cache hit rate.
  [[nodiscard]] std::string metrics_summary_json();

  /// Arm time-series telemetry: sample the standard probe set (per-disk
  /// busy time, per-LFS scheduler depth, per-server request counts, remote
  /// traffic, in-flight requests) every `interval_us` of virtual time.
  /// Call before run(); no-op under BRIDGE_OBS_DISABLED.
  void enable_timeseries(std::int64_t interval_us);

  /// publish_metrics() + the full observability document for offline
  /// analysis (tools/obs_report): metrics with histogram buckets, the
  /// slowest requests with stage breakdowns, the timeseries block, and the
  /// flight recorder state.  Schema "bridge.obs.v1"; deterministic.
  [[nodiscard]] std::string obs_json();

  /// Persist the whole machine to `directory_path` (one image per LFS disk
  /// plus a Bridge directory snapshot per server).  Call while the
  /// simulation is idle, after the relevant EFS caches were synced — an
  /// administrative shutdown.
  util::Status save_machine(const std::string& directory_path) const;
  /// Restore a machine saved by save_machine into THIS instance (it must
  /// have been built with the same SystemConfig).  Call before run().
  util::Status load_machine(const std::string& directory_path);

 private:
  SystemConfig config_;
  std::unique_ptr<sim::Runtime> rt_;
  std::vector<std::unique_ptr<efs::EfsServer>> lfs_servers_;
  std::vector<std::unique_ptr<BridgeServer>> bridges_;
  bool started_ = false;
};

}  // namespace bridge::core
