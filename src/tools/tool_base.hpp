// Tool framework.
//
// "Bridge tools are applications that become part of the file system. ...
// Typical interaction involves (1) a brief phase of communication with the
// Bridge Server to create and open files, and to learn the names of the LFS
// processes, (2) the creation of subprocesses on all the LFS nodes, and (3)
// a lengthy series of interactions between the subprocesses and the
// instances of LFS" (§4.2).
//
// WorkerGroup implements step (2): it spawns worker processes on the LFS
// nodes — sequentially or through an embedded binary tree (the §5.1
// "O(log p) startup and completion") — and collects one util::Result from
// each.  wait_all() drains every worker before it reports the first error,
// so a tool never cleans up after workers still running.
//
// ConstituentReader and ConstituentWriter are step (3): the one way a
// worker streams its LFS's share of a Bridge file.  Local block l of a
// constituent at stripe offset o of a width-w file is global block
// l * w + o; the reader checks every header against that (bridge_block.hpp)
// and the writer stamps it.  Both move `window` blocks per vectored LFS
// request; a reader can also post its windows, each with a completion that
// buffers its blocks, into a caller's batch, so one worker keeps several
// LFSs busy at once.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/client.hpp"
#include "src/core/protocol.hpp"
#include "src/efs/client.hpp"
#include "src/efs/layout.hpp"
#include "src/sim/runtime.hpp"

namespace bridge::tools {

struct FanOutConfig {
  /// Spawn workers through an embedded binary tree: startup latency grows
  /// with log2(t) instead of t.
  bool tree = true;
  /// Coordinator CPU (or per-tree-level latency) to create one subprocess.
  sim::SimTime spawn_cost = sim::msec(2.0);
};

/// Spawns workers and gathers one util::Result<R> from each.  R must be
/// copyable/movable; results are delivered through a channel on the
/// coordinator's node, each charged as a 64-B message plus, when R has
/// one, its wire_bytes().
template <typename R>
class WorkerGroup {
 public:
  static constexpr std::size_t kResultWireBytes = 64;

  WorkerGroup(sim::Context& ctx, FanOutConfig config)
      : ctx_(ctx),
        config_(config),
        results_(ctx.runtime().scheduler(), ctx.node()) {}

  /// Spawn the next worker on `node`.  `body` runs there and its result —
  /// a value or an error — is shipped back to the coordinator.  A worker
  /// handed `input_bytes` of input (a plan) starts later by their transfer
  /// time; the spawn message's fixed cost is in spawn_cost.
  void spawn(sim::NodeId node, const std::string& name,
             std::function<util::Result<R>(sim::Context&)> body,
             std::size_t input_bytes = 0) {
    const sim::Topology& topology = ctx_.runtime().topology();
    sim::SimTime delay =
        topology.message_latency(ctx_.node(), node, input_bytes) -
        topology.message_latency(ctx_.node(), node, 0);
    if (config_.tree) {
      // Worker i sits at depth floor(log2(i+1)) of the startup tree; each
      // level costs one spawn_cost of forwarding.
      auto depth = static_cast<std::int64_t>(
          std::floor(std::log2(static_cast<double>(spawned_ + 1))));
      delay += config_.spawn_cost * (depth + 1);
    } else {
      // Sequential initiation: the coordinator pays for each spawn in turn.
      ctx_.charge(config_.spawn_cost);
    }
    auto* results = &results_;
    ctx_.runtime().spawn(
        node, name,
        [results, body = std::move(body)](sim::Context& worker_ctx) {
          util::Result<R> result = body(worker_ctx);
          std::size_t bytes = kResultWireBytes;
          if constexpr (requires(const R& r) { r.wire_bytes(); }) {
            if (result.is_ok()) bytes += result.value().wire_bytes();
          }
          worker_ctx.send(*results, std::move(result), bytes);
        },
        delay);
    ++spawned_;
  }

  /// Block until every spawned worker has reported; returns the values in
  /// arrival order, or the first error to arrive.
  util::Result<std::vector<R>> wait_all() {
    std::vector<R> values;
    util::Status first_error = util::ok_status();
    for (std::uint32_t i = 0; i < spawned_; ++i) {
      util::Result<R> result = results_.recv();
      if (result.is_ok()) {
        values.push_back(std::move(result).value());
      } else if (first_error.is_ok()) {
        first_error = result.status();
      }
    }
    if (config_.tree && spawned_ > 0) {
      // Completion notifications funnel back up the tree.
      auto levels = static_cast<std::int64_t>(
          std::ceil(std::log2(static_cast<double>(spawned_) + 1.0)));
      ctx_.charge(config_.spawn_cost * levels);
    }
    if (!first_error.is_ok()) return first_error;
    return values;
  }

  [[nodiscard]] std::uint32_t spawned() const noexcept { return spawned_; }

 private:
  sim::Context& ctx_;
  FanOutConfig config_;
  sim::Channel<util::Result<R>> results_;
  std::uint32_t spawned_ = 0;
};

/// Streams a constituent — `count` local blocks on one LFS, local block l
/// holding global block l * stride + offset of file `file` — and returns
/// each block's user payload, `window` blocks per kReadMany.  A block whose
/// header names another file or global block is kCorrupt.  In list mode the
/// reader streams only the listed local blocks, in list order, so one
/// kReadMany names up to `window` blocks that need not be adjacent.
///
/// next() reads a window itself when none is buffered.  A caller that keeps
/// several readers busy at once instead post()s their windows into one
/// sim::AsyncBatch: each post's completion buffers its blocks when the
/// batch's wait_all() runs, and next() then returns them, checked as on the
/// blocking path.  A reader must stay put (not move) while a post of its is
/// in flight.
class ConstituentReader {
 public:
  ConstituentReader(efs::EfsClient& lfs, efs::FileId file, std::uint64_t count,
                    std::uint32_t stride, std::uint32_t offset,
                    std::uint32_t window = 1)
      : lfs_(&lfs),
        file_(file),
        count_(count),
        stride_(stride),
        offset_(offset),
        window_(window) {}

  /// List mode: stream local blocks `locals` only.
  ConstituentReader(efs::EfsClient& lfs, efs::FileId file,
                    std::vector<std::uint32_t> locals, std::uint32_t stride,
                    std::uint32_t offset, std::uint32_t window = 1)
      : ConstituentReader(lfs, file, locals.size(), stride, offset, window) {
    locals_ = std::move(locals);
  }

  [[nodiscard]] bool exhausted() const noexcept { return next_ >= count_; }
  /// Global block number of the block next() returns.
  [[nodiscard]] std::uint64_t next_global() const noexcept {
    return local(next_) * stride_ + offset_;
  }

  /// The next block's user payload; reads a window when none is buffered
  /// and none is posted.
  util::Result<std::vector<std::byte>> next() {
    if (exhausted()) return util::invalid_argument("constituent exhausted");
    if (taken_ == buffered_.size()) {
      if (in_flight_ > 0) {
        return util::invalid_argument("a posted window is in flight");
      }
      auto locals = ask(window_);
      std::size_t n = locals.size();
      if (auto st = buffer(lfs_->read_many(file_, std::move(locals)), n);
          !st.is_ok()) {
        return st;
      }
    }
    auto block = core::unwrap_block(buffered_[taken_], file_, next_global());
    buffered_[taken_++] = {};  // free the raw block
    if (!block.is_ok()) return block.status();
    ++next_;
    return std::move(block.value().user_data);
  }

  /// Post one kReadMany for the next min(limit, window) blocks not yet
  /// asked for into `batch`, without waiting for it; its blocks queue
  /// behind those already buffered once the batch is waited for.  Returns
  /// how many it named: 0, and nothing posted, once every block is asked
  /// for.
  std::size_t post(sim::AsyncBatch& batch, std::uint64_t limit) {
    auto locals = ask(std::min<std::uint64_t>(limit, window_));
    std::size_t n = locals.size();
    if (n == 0) return 0;
    ++in_flight_;
    lfs_->read_many(batch, file_, std::move(locals),
                    [this, n](util::Result<efs::EfsClient::Blocks> read) {
                      --in_flight_;
                      return buffer(std::move(read), n);
                    });
    return n;
  }

  /// Merge-style access: head() is the block the last advance() took, null
  /// once the constituent is exhausted.
  util::Status advance() {
    head_.reset();
    if (exhausted()) return util::ok_status();
    auto block = next();
    if (!block.is_ok()) return block.status();
    head_ = std::move(block).value();
    return util::ok_status();
  }
  [[nodiscard]] const std::vector<std::byte>* head() const noexcept {
    return head_ ? &*head_ : nullptr;
  }

 private:
  /// The local block number of the i-th block streamed.
  [[nodiscard]] std::uint64_t local(std::uint64_t i) const noexcept {
    return locals_.empty() ? i : locals_[i];
  }

  /// The locals of the next `n` blocks not yet asked for (fewer at the end),
  /// now asked for.
  std::vector<std::uint32_t> ask(std::uint64_t n) {
    n = std::min(n, count_ - asked_);
    std::vector<std::uint32_t> locals(n);
    for (std::uint64_t j = 0; j < n; ++j) {
      locals[j] = static_cast<std::uint32_t>(local(asked_ + j));
    }
    asked_ += n;
    return locals;
  }

  /// Queue a read reply of `n` blocks behind the buffered ones.
  util::Status buffer(util::Result<std::vector<std::vector<std::byte>>> read,
                      std::size_t n) {
    if (!read.is_ok()) return read.status();
    if (read.value().size() != n) {
      return util::corrupt("LFS returned a short vectored read");
    }
    if (taken_ == buffered_.size()) {
      buffered_.clear();
      taken_ = 0;
    }
    for (auto& block : read.value()) buffered_.push_back(std::move(block));
    return util::ok_status();
  }

  efs::EfsClient* lfs_;
  efs::FileId file_;
  std::uint64_t count_;
  std::uint32_t stride_;
  std::uint32_t offset_;
  std::uint32_t window_;
  std::vector<std::uint32_t> locals_;  ///< list mode: the locals to stream
  std::uint64_t next_ = 0;             ///< blocks returned by next()
  std::uint64_t asked_ = 0;            ///< blocks read or posted
  std::size_t in_flight_ = 0;          ///< posted reads not yet buffered
  std::vector<std::vector<std::byte>> buffered_;  ///< read blocks, in order
  std::size_t taken_ = 0;  ///< buffered_ entries next() has returned
  std::optional<std::vector<std::byte>> head_;
};

/// Appends a constituent — local block l is global block l * owner.width +
/// offset of `owner` — from local block 0, stamping each header, `window`
/// blocks per kWriteMany.  finish() writes a partial last window.
class ConstituentWriter {
 public:
  ConstituentWriter(efs::EfsClient& lfs, core::BlockOwner owner,
                    std::uint32_t offset, std::uint32_t window = 1)
      : lfs_(&lfs), owner_(owner), offset_(offset), window_(window) {}

  [[nodiscard]] efs::FileId file() const noexcept { return owner_.file_id; }
  /// Blocks written so far (put and flushed).
  [[nodiscard]] std::uint64_t written() const noexcept { return written_; }

  util::Status put(std::span<const std::byte> payload) {
    auto local = written_ + pending_.size();
    auto wrapped =
        core::wrap_block(owner_, local * owner_.width + offset_, payload);
    if (!wrapped.is_ok()) return wrapped.status();
    pending_.push_back(
        {static_cast<std::uint32_t>(local), std::move(wrapped).value()});
    return pending_.size() < window_ ? util::ok_status() : finish();
  }

  util::Status finish() {
    if (pending_.empty()) return util::ok_status();
    auto n = pending_.size();
    if (auto st = lfs_->write_many(owner_.file_id, std::move(pending_));
        !st.is_ok()) {
      return st;
    }
    pending_.clear();
    written_ += n;
    return util::ok_status();
  }

 private:
  efs::EfsClient* lfs_;
  core::BlockOwner owner_;
  std::uint32_t offset_;
  std::uint32_t window_;
  std::uint64_t written_ = 0;
  std::vector<efs::BlockWrite> pending_;
};

/// Everything a tool learns in its startup conversation with the server.
struct ToolEnv {
  core::GetInfoResponse info;

  [[nodiscard]] std::uint32_t num_lfs() const noexcept { return info.num_lfs; }
  [[nodiscard]] sim::Address lfs_service(std::uint32_t i) const {
    return info.lfs_services[i];
  }
  [[nodiscard]] sim::NodeId lfs_node(std::uint32_t i) const {
    return info.lfs_nodes[i];
  }

  /// One typed EFS client per LFS, all sharing the caller's RpcClient — the
  /// step-(3) endpoints every tool builds after discovery.
  [[nodiscard]] std::vector<std::unique_ptr<efs::EfsClient>> make_lfs_clients(
      sim::RpcClient& rpc) const {
    std::vector<std::unique_ptr<efs::EfsClient>> clients;
    clients.reserve(num_lfs());
    for (std::uint32_t i = 0; i < num_lfs(); ++i) {
      clients.push_back(std::make_unique<efs::EfsClient>(rpc, lfs_service(i)));
    }
    return clients;
  }
};

/// Step (1): Get Info from the Bridge Server.
inline util::Result<ToolEnv> discover(core::BridgeApi& client) {
  auto info = client.get_info();
  if (!info.is_ok()) return info.status();
  return ToolEnv{std::move(info).value()};
}

// --- Tool-private LFS files ---------------------------------------------------
//
// Files only a tool reads (the sort's runs, its local temps and its
// non-final merge outputs) are LFS files with no Bridge directory entry.  Their ids belong
// to the Bridge file the tool produces, its *owner*, so two tools running
// on one machine never collide:
//
//   bit  31      1: a Bridge id is home << 24 | local, clear on every
//                machine with at most 128 Bridge Servers
//   bits 30..26  owner's home server              (kPrivateOwnerHomes)
//   bits 25..12  owner's local id less 1000       (kPrivateOwnerLocals)
//   bits 11..0   slot, chosen by the tool         (kPrivateSlots)
//
// Past any limit tool_private_file_id returns an error, never a reused id.
// The sort gives its runs, merge "pass 0", slot 0 and merge pass k's outputs
// slot k (a 32-bit width needs at most 32 passes); the files of one pass
// sit on disjoint LFSs, so they share its slot.  Local temp n takes slot
// kPrivateTempSlot0 + n; a temp lives on one LFS, so every LFS reuses the
// same temp slots.
inline constexpr std::uint32_t kPrivateSlotBits = 12;
inline constexpr std::uint32_t kPrivateOwnerLocalBits = 14;
inline constexpr std::uint32_t kPrivateSlots = 1u << kPrivateSlotBits;
inline constexpr std::uint32_t kPrivateOwnerLocals = 1u << kPrivateOwnerLocalBits;
inline constexpr std::uint32_t kPrivateOwnerHomes = 32;
inline constexpr std::uint32_t kPrivateTempSlot0 = 33;

[[nodiscard]] inline util::Result<efs::FileId> tool_private_file_id(
    core::BridgeFileId owner, std::uint32_t slot) {
  std::uint32_t home = core::file_id_home(owner);
  std::uint32_t local =
      (owner & core::kFileIdLocalMask) - core::make_file_id_base(0);
  if (home >= kPrivateOwnerHomes || local >= kPrivateOwnerLocals) {
    return util::out_of_space("no tool-private ids for owner file " +
                              std::to_string(owner));
  }
  if (slot >= kPrivateSlots) {
    return util::out_of_space("tool-private slots exhausted for owner file " +
                              std::to_string(owner));
  }
  return efs::FileId{0x80000000u |
                     home << (kPrivateOwnerLocalBits + kPrivateSlotBits) |
                     local << kPrivateSlotBits | slot};
}

}  // namespace bridge::tools
