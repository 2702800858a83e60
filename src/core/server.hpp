// The Bridge Server: glue that makes p local file systems look like one.
//
// "The Bridge Server is the interface between the Bridge file system and
// user programs.  Its function is to glue the local file systems together
// into a single logical structure" (§4.1).  It implements the three system
// views: the naive sequential interface (requests transparently forwarded to
// the right LFS), the parallel-open interface (jobs moving t blocks per
// operation in lock step, with virtual parallelism when t > p), and Get Info
// for tools.  It is also the monitor around all directory operations —
// Create, Delete and Open happen only here (§4.2).
//
// Like the prototype it is a single centralized process with one CPU; the
// paper notes the same functionality could be distributed if it became a
// bottleneck.  What it does not do is sit idle on LFS round trips: each
// in-flight request runs on its own handler fiber, and a request waiting on
// its LFS replies lets the others use the CPU.  Every microsecond of CPU is
// still paid serially, but the CPU always runs the charge with the least
// time left, so a 0.3 ms decode does not wait out a 136 ms Create.
// Requests that name the same file are granted its monitor in arrival
// order — shared for reads that move no cursor, exclusive for everything
// else (docs/INTERNALS.md, "Bridge Server concurrency").
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/protocol.hpp"
#include "src/efs/client.hpp"
#include "src/sim/rpc.hpp"
#include "src/sim/runtime.hpp"

namespace bridge::core {

/// Race-detector anchor for per-file placement state.  Placement accesses are
/// keyed by (&kPlacementRaceAnchor, lfs_file_id) rather than the FileRecord's
/// own address so the pre- and post-rename copies of one file's placement —
/// which live in different BridgeServer directories — name the SAME logical
/// object.  The kRenameInstall/kRenameAck message edges are then exactly what
/// makes the ownership handoff race-free, and the detector verifies that
/// mechanically.  lfs_file_id works as the sub-key because servers mint from
/// disjoint id slices (it is unique machine-wide) and it survives rename.
inline constexpr char kPlacementRaceAnchor = 0;

struct BridgeServerStats {
  std::uint64_t requests = 0;
  std::uint64_t blocks_forwarded = 0;
  std::uint64_t parallel_rounds = 0;
  std::uint64_t vectored_batches = 0;  ///< multi-block runs served
  std::uint64_t vectored_blocks = 0;   ///< blocks moved by those runs
  std::uint64_t renames_local = 0;     ///< renames resolved within one home
  std::uint64_t renames_out = 0;       ///< cross-server renames coordinated
  std::uint64_t renames_in = 0;        ///< records installed for a peer
  std::uint64_t rename_aborts = 0;     ///< cross-server renames rolled back
  std::uint64_t lists = 0;             ///< directory listings served
  std::uint64_t cpu_busy_us = 0;       ///< CPU charges run to completion
  std::uint64_t cpu_preemptions = 0;   ///< charges preempted by shorter ones

  void reset() noexcept { *this = BridgeServerStats{}; }

  /// Publish counters under `prefix` (e.g. "bridge.n8").
  void publish(obs::MetricsRegistry& registry, const std::string& prefix) const;

  /// Phase delta: activity since `b` was captured.
  friend BridgeServerStats operator-(BridgeServerStats a,
                                     const BridgeServerStats& b) noexcept {
    a.requests -= b.requests;
    a.blocks_forwarded -= b.blocks_forwarded;
    a.parallel_rounds -= b.parallel_rounds;
    a.vectored_batches -= b.vectored_batches;
    a.vectored_blocks -= b.vectored_blocks;
    a.renames_local -= b.renames_local;
    a.renames_out -= b.renames_out;
    a.renames_in -= b.renames_in;
    a.rename_aborts -= b.rename_aborts;
    a.lists -= b.lists;
    a.cpu_busy_us -= b.cpu_busy_us;
    a.cpu_preemptions -= b.cpu_preemptions;
    return a;
  }
};

class BridgeServer {
 public:
  /// `lfs_services[i]` / `lfs_nodes[i]` locate LFS instance i.
  /// `file_id_base` partitions the LFS file-id space when several Bridge
  /// Servers share one machine (each needs disjoint constituent ids).
  BridgeServer(sim::Runtime& rt, sim::NodeId node, BridgeConfig config,
               std::vector<sim::Address> lfs_services,
               std::vector<std::uint32_t> lfs_nodes,
               BridgeFileId file_id_base = 1000);

  /// Spawn the daemon dispatcher.  Call once, before Runtime::run.
  void start();

  [[nodiscard]] sim::Address address() noexcept { return mailbox_->address(); }
  [[nodiscard]] std::uint32_t num_lfs() const noexcept {
    return static_cast<std::uint32_t>(lfs_services_.size());
  }
  [[nodiscard]] const BridgeServerStats& stats() const noexcept {
    return stats_;
  }
  /// Zero the counters (phase measurement without rebuilding the instance).
  void reset_stats() noexcept { stats_.reset(); }
  [[nodiscard]] sim::NodeId node() const noexcept { return node_; }
  /// Wire this server into a routed group: `peers[i]` is the service address
  /// of the Bridge Server homed at directory index i (`peers[home]` is this
  /// server).  Enables the cross-server rename path.  Call before start().
  void set_peers(std::vector<sim::Address> peers, std::uint32_t home) {
    peers_ = std::move(peers);
    home_ = home;
  }
  /// This server's home index within its routed group (0 when standalone).
  [[nodiscard]] std::uint32_t home() const noexcept { return home_; }
  /// Number of Bridge files currently in the directory (tests).
  [[nodiscard]] std::size_t directory_size() const noexcept {
    return directory_.size();
  }
  /// Number of open naive sessions (tests).
  [[nodiscard]] std::size_t session_count() const noexcept {
    return sessions_.size();
  }

  /// Serialize the durable server state — the directory (including
  /// hashed/linked placement tables) and the file-id allocator.  Sessions
  /// and jobs are deliberately excluded: they are soft state, consistent
  /// with the semi-stateless Open of §4.1.  Call while the simulation is
  /// idle (administrative shutdown).
  void encode_state(util::Writer& w) const;
  /// Restore state saved by encode_state.  Call before the server runs.
  util::Status decode_state(util::Reader& r);

 private:
  struct FileRecord {
    BridgeFileId id = 0;
    std::string name;
    efs::FileId lfs_file_id = 0;
    PlacementMap placement;
  };
  struct Session {
    std::string name;
    std::uint64_t read_cursor = 0;
    std::uint64_t write_cursor = 0;
  };
  struct Job {
    std::string name;
    std::vector<sim::Address> workers;
    std::uint64_t cursor = 0;
    bool writers_drained = false;
  };
  /// A cross-server rename parked between prepare and ack.  The record is
  /// DETACHED from directory_/id_index_ while parked, so at every instant
  /// exactly one server owns a mutable placement for the file; the prepare
  /// handler returns without waiting for the peer (and without holding any
  /// monitor), so opposing concurrent renames cannot deadlock.
  struct PendingRename {
    sim::Envelope client_env;  ///< reply target once the peer acks
    FileRecord record;
    std::string from;
    std::string to;
    sim::SimTime parked_at{0};  ///< prepare time, for handoff attribution
  };

  /// One handler fiber's resources, on its own stack.  The dispatcher hands
  /// an idle worker its next request through `inbox`; while the worker is
  /// busy, the same inbox carries its monitor grants and its CPU hand-offs
  /// and preemptions.
  struct Wire {
    sim::Context& ctx;
    sim::RpcClient& rpc;
    sim::Channel<sim::Envelope>& inbox;
    /// CPU and monitor waits of the current request: queueing,
    /// ledgered with the mailbox wait rather than as service.
    sim::SimTime waited{0};
  };

  /// Hand each request to an idle worker, spawning one when none is idle:
  /// the pool grows to the peak number of requests in flight.
  void dispatch();
  /// A worker's life: serve `first`, then each request the dispatcher hands
  /// it.
  void work(sim::Context& ctx, sim::Envelope first);
  /// One request, with its queue/service ledger split.
  void serve(Wire& wire, const sim::Envelope& env);
  void handle(Wire& wire, const sim::Envelope& env);
  /// Spend `d` of the server's one CPU, as one job of a preemptive
  /// shortest-remaining-charge-first CPU: the job with the least time left
  /// runs, ties go to the earlier arrival, and a strictly shorter arrival
  /// preempts.  Time spent not running is queueing.
  void cpu(Wire& wire, sim::SimTime d);
  /// LFS `i`'s EFS client, over the worker's RpcClient.
  efs::EfsClient lfs(Wire& wire, std::uint32_t i) const {
    return {wire.rpc, lfs_services_[i]};
  }

  /// A fresh file's lfs_file_id is its Bridge id; created_file_meta
  /// (client.hpp) relies on that to build a creator's FileMeta without an
  /// Open.
  void handle_create(Wire& wire, const sim::Envelope& env);
  void handle_delete(Wire& wire, const sim::Envelope& env);
  void handle_delete_many(Wire& wire, const sim::Envelope& env);
  void handle_open(Wire& wire, const sim::Envelope& env);
  void handle_seq_read(Wire& wire, const sim::Envelope& env);
  void handle_random_read(Wire& wire, const sim::Envelope& env);
  void handle_seq_write(Wire& wire, const sim::Envelope& env);
  void handle_random_write(Wire& wire, const sim::Envelope& env);
  void handle_seq_read_many(Wire& wire, const sim::Envelope& env);
  void handle_seq_write_many(Wire& wire, const sim::Envelope& env);
  void handle_random_read_many(Wire& wire, const sim::Envelope& env);
  void handle_truncate(Wire& wire, const sim::Envelope& env);
  void handle_seq_seek(Wire& wire, const sim::Envelope& env);
  void handle_parallel_open(Wire& wire, const sim::Envelope& env);
  void handle_parallel_read(Wire& wire, const sim::Envelope& env);
  void handle_parallel_write(Wire& wire, const sim::Envelope& env);
  void handle_get_info(Wire& wire, const sim::Envelope& env);
  void handle_resolve(Wire& wire, const sim::Envelope& env);
  void handle_rename(Wire& wire, const sim::Envelope& env);
  void handle_rename_install(Wire& wire, const sim::Envelope& env);
  void handle_rename_ack(Wire& wire, const sim::Envelope& env);
  void handle_list(Wire& wire, const sim::Envelope& env);

  /// read_run and write_run are the server's only block path: the naive
  /// view's handlers and every parallel-open round go through them.
  ///
  /// Scatter-gather read engine: place global blocks `first..first+count-1`,
  /// fan one vectored request out to every involved LFS concurrently, and
  /// reassemble the unwrapped user payloads in global-block order.  A block
  /// whose header names another file or block is kCorrupt.  All outstanding
  /// replies are drained even on error.
  util::Result<std::vector<std::vector<std::byte>>> read_run(
      Wire& wire, FileRecord& record, std::uint64_t first,
      std::uint32_t count);
  /// Scatter-gather write engine: place/append the whole run up front, fan
  /// the writes out concurrently, and on any failure roll the file's size
  /// bookkeeping back to its pre-run value (the run commits or fails whole).
  util::Status write_run(Wire& wire, FileRecord& record, std::uint64_t first,
                         std::span<const std::vector<std::byte>> user_blocks);

  /// The naive view's three routines, shared by each single-block handler
  /// and its `*Many` twin (a single block is a run of one).
  /// Sequential read of up to `max_blocks` blocks from the session's read
  /// cursor; at end of file the run is empty and `eof` is set.
  util::Result<SeqReadManyResponse> seq_read(Wire& wire, std::uint64_t session,
                                             std::uint32_t max_blocks);
  /// Append `blocks` at the session's write cursor; returns the first block
  /// number.  The run commits whole or the cursor stays put.
  util::Result<std::uint64_t> seq_write(
      Wire& wire, std::uint64_t session,
      std::span<const std::vector<std::byte>> blocks);
  /// Read `count` blocks of file `id` from `first`.
  util::Result<std::vector<std::vector<std::byte>>> random_read(
      Wire& wire, BridgeFileId id, std::uint64_t first, std::uint32_t count);
  /// Delete `names` from every LFS they span, then from the directory.  All
  /// names are looked up before any LFS is touched.
  util::Status delete_files(Wire& wire, std::span<const std::string> names);
  /// Refresh a record's size from the LFS instances (used by Open).
  util::Status refresh_size(Wire& wire, FileRecord& record);

  /// Per-file monitors.  A request names files by name, or through a
  /// session, job or file id that resolves to one; every name a request
  /// names is granted in arrival order.  kShared is for reads that move no
  /// cursor; anything that moves a cursor, changes placement or size, or
  /// changes the directory is kExclusive.
  enum class Access : std::uint8_t { kShared, kExclusive };
  struct FileMonitor {
    struct Waiter {
      Wire* wire;
      Access access;
      bool granted = false;
    };
    std::uint32_t readers = 0;
    bool writer = false;
    std::deque<Waiter*> queue;  ///< arrival order
  };
  /// The monitors one handler holds, all of one access mode; released when
  /// it goes out of scope.
  class Hold {
   public:
    Hold(BridgeServer& server, Wire& wire, Access access)
        : server_(server), wire_(wire), access_(access) {}
    ~Hold() { release(); }
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

    /// Wait for every name in `names`, one at a time in sorted order (so two
    /// multi-name holds cannot deadlock).
    void acquire(std::vector<std::string> names);
    void release();

   private:
    BridgeServer& server_;
    Wire& wire_;
    Access access_;
    std::vector<std::string> names_;
  };
  /// The zero-time directory monitor around the commits to directory_,
  /// id_index_, sessions_, jobs_, handles_, monitors_ and the CPU queue
  /// (see server.cpp).
  class DirectorySection;

  void lock(Wire& wire, const std::string& name, Access access);
  void unlock(const std::string& name, Access access);
  /// Hold the file a session, job or file id names: `name_of()` is the name
  /// it resolves to now, nullptr once it is gone.  A grant whose name moved
  /// while the handler waited (a rename) is given back and retried.  False,
  /// holding nothing, when the name is gone.
  template <typename NameOf>
  bool hold_named(Hold& hold, NameOf name_of);
  bool hold_session(Hold& hold, std::uint64_t session);
  bool hold_job(Hold& hold, std::uint64_t job);
  bool hold_id(Hold& hold, BridgeFileId id);

  /// The open file behind a session, or the not-found status to reply with.
  struct SessionFile {
    Session* session;
    FileRecord* record;
  };
  util::Result<SessionFile> session_file(std::uint64_t session);
  FileRecord* find_by_name(const std::string& name);
  FileRecord* find_by_id(BridgeFileId id);
  FileMeta meta_of(const FileRecord& record) const;

  sim::Runtime& rt_;
  sim::NodeId node_;
  BridgeConfig config_;
  std::vector<sim::Address> lfs_services_;
  std::vector<std::uint32_t> lfs_nodes_;
  std::unique_ptr<sim::Mailbox> mailbox_;
  /// Workers parked for their next request.
  std::vector<Wire*> idle_;
  obs::Histogram* queue_us_ = nullptr;
  obs::Histogram* service_us_ = nullptr;
  /// One cpu() call, on its handler's stack while it waits or runs.
  struct CpuJob {
    Wire* wire;
    sim::SimTime remaining;  ///< as of cpu_since_ while it runs
    std::uint64_t arrival;   ///< ties go to the earlier arrival
  };
  /// The CPU queue, touched only inside directory sections: the running
  /// job, when it last got the CPU, and the jobs waiting for it.
  CpuJob* cpu_running_ = nullptr;
  sim::SimTime cpu_since_{0};
  std::vector<CpuJob*> cpu_waiting_;
  std::uint64_t cpu_arrivals_ = 0;
  /// The directory monitor's one token.  Sections never park, so it is
  /// always there to take; it exists for the happens-before edge it carries
  /// from one section to the next.
  sim::Channel<std::uint8_t> directory_token_;
  /// Monitors of the names some request holds or waits for (idle ones are
  /// erased; never iterated, so hash order is unobservable).
  std::unordered_map<std::string, FileMonitor> monitors_;
  /// Per LFS, blocks that in-flight appending runs passed their preflight
  /// for but have not yet written: a concurrent preflight counts them used.
  std::vector<std::uint64_t> lfs_reserved_;

  std::unordered_map<std::string, FileRecord> directory_;
  std::unordered_map<BridgeFileId, std::string> id_index_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::unordered_map<std::uint64_t, Job> jobs_;
  /// The sessions and jobs open on each file name, so Delete, Truncate and
  /// Rename touch only their own file's entries.  Ids in creation order.
  struct OpenHandles {
    std::vector<std::uint64_t> sessions;
    std::vector<std::uint64_t> jobs;
  };
  std::unordered_map<std::string, OpenHandles> handles_;
  /// End every session and job of `name`: they go with the file.
  void drop_handles(const std::string& name);

  /// Routed group, indexed by home.  Empty = standalone (single server).
  std::vector<sim::Address> peers_;
  std::uint32_t home_ = 0;
  /// Outbound renames parked between prepare and ack, keyed by seq.
  std::unordered_map<std::uint64_t, PendingRename> pending_renames_;
  /// Names detached by an in-flight outbound rename: create/install into
  /// these is refused until the ack commits or reinstates the record (never
  /// iterated, so hash order is unobservable).
  std::unordered_set<std::string> pending_from_;
  std::uint64_t next_rename_seq_ = 1;

  BridgeFileId next_file_id_ = 1000;
  std::uint64_t next_session_ = 1;
  std::uint64_t next_job_ = 1;
  BridgeServerStats stats_;
  bool started_ = false;
};

}  // namespace bridge::core
