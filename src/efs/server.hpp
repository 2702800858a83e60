// EFS server process: one per LFS node, owning that node's disk.
//
// "The instances of EFS are self-sufficient, and operate in ignorance of one
// another" (§4.3).  Each server is a daemon process that drains its mailbox,
// executes requests against its EfsCore, and replies.  Requests from
// processes on the same node pay only the cheap local message latency —
// exactly the locality Bridge tools exploit.
#pragma once

#include <memory>

#include "src/disk/disk.hpp"
#include "src/disk/sched.hpp"
#include "src/efs/efs.hpp"
#include "src/efs/protocol.hpp"
#include "src/sim/rpc.hpp"
#include "src/sim/runtime.hpp"

namespace bridge::efs {

class EfsServer {
 public:
  /// Creates the disk + file system for `node` (formatted, empty).
  EfsServer(sim::Runtime& rt, sim::NodeId node, disk::Geometry geometry,
            disk::LatencyModel latency, EfsConfig config);

  /// Spawn the daemon service loop.  Call once, before Runtime::run.
  void start();

  [[nodiscard]] sim::Address address() noexcept { return mailbox_->address(); }
  [[nodiscard]] sim::NodeId node() const noexcept { return node_; }
  [[nodiscard]] EfsCore& core() noexcept { return *core_; }
  [[nodiscard]] const EfsCore& core() const noexcept { return *core_; }
  [[nodiscard]] disk::SimDisk& disk() noexcept { return *disk_; }
  [[nodiscard]] const disk::SchedStats& sched_stats() const noexcept {
    return sched_.stats();
  }
  /// Current disk-scheduler queue depth (time-series probe).
  [[nodiscard]] std::size_t sched_depth() const noexcept {
    return sched_.depth();
  }
  /// Estimate the disk track a queued request will touch (for SCAN
  /// ordering): the track of the request's first block, else (an append)
  /// the file's last block, else wherever the head currently sits.
  /// Untimed — only the RAM-resident extent maps are consulted.
  [[nodiscard]] std::uint32_t estimate_track(const sim::Envelope& env) const;

 private:
  void serve(sim::Context& ctx);
  void handle(sim::Context& ctx, const sim::Envelope& env);
  /// kWriteMany: a run of one writes through; longer runs are preflighted
  /// and staged in windows of consecutive tracks (EfsCore::write_run).
  util::Status write_many(sim::Context& ctx, const WriteManyRequest& req);

  sim::Runtime& rt_;
  sim::NodeId node_;
  std::unique_ptr<disk::SimDisk> disk_;
  std::unique_ptr<EfsCore> core_;
  std::unique_ptr<sim::Mailbox> mailbox_;
  disk::RequestScheduler sched_;
  bool started_ = false;
};

}  // namespace bridge::efs
