// Client-side API for the Bridge Server: the naive sequential view, the
// parallel-open view, and Get Info (the doorway to the tool view).
//
// One client serves both configurations of §4.1: the paper's one
// centralized Bridge Server (k = 1) and "a distributed collection of
// processes" (k > 1), where the Bridge directory is partitioned across the
// servers by a hash of the file name (directory_home, shared with the
// servers).  Each server owns its files' sessions and jobs outright, so the
// monitor property of §4.2 holds per partition.  Every id that crosses this
// interface carries its home server in its top byte: session and job ids via
// tag()/owner(), file ids minted by the server from its own slice
// (file_id_home).  Routing is therefore a pure function of the name or id,
// and the client holds no per-file state; a stale or corrupt id fails with
// not_found instead of landing on an arbitrary server.  With k = 1 every
// home is 0, so every request goes to the one server unchanged.
//
// Cross-server namespace ops are server-to-server protocols, not client
// loops: rename goes to the home of the OLD name, which either commits
// locally or runs the prepare/commit handoff with the new name's home
// (returning the file's post-rename id).  Only list and remove_many fan out
// from the client, one request per server.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/protocol.hpp"
#include "src/sim/rpc.hpp"
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

class BridgeClient {
 public:
  /// A client of the Bridge Servers at `servers` (k >= 1; server s is home
  /// to the names with directory_home(name, k) == s).
  BridgeClient(sim::Context& ctx, std::vector<sim::Address> servers)
      : rpc_(ctx), servers_(std::move(servers)) {}

  [[nodiscard]] std::size_t num_servers() const noexcept {
    return servers_.size();
  }

  util::Result<BridgeFileId> create(const std::string& name,
                                    CreateOptions options = {}) {
    CreateFileRequest req;
    req.name = name;
    req.distribution = static_cast<std::uint8_t>(options.distribution) |
                       (options.tree ? kCreateTreeBit : 0);
    req.width = options.width;
    req.start_lfs = options.start_lfs;
    req.chunk_blocks = options.chunk_blocks;
    req.hash_seed = options.hash_seed;
    auto resp =
        request<CreateFileResponse>(home(name), BridgeMsg::kCreate, req);
    if (!resp.is_ok()) return resp.status();
    return resp.value().id;
  }

  util::Status remove(const std::string& name) {
    return call(home(name), BridgeMsg::kDelete,
                util::encode_to_bytes(DeleteFileRequest{name}))
        .status();
  }

  /// Delete several files with their LFS work overlapped ("discard the old
  /// files in parallel", §5.2).  With k > 1 the batch is split by home and
  /// every server's part is in flight before any reply is awaited, so the
  /// servers overlap their LFS fan-outs; every reply is drained, and the
  /// first error is reported.
  util::Status remove_many(const std::vector<std::string>& names) {
    if (servers_.size() == 1) {
      return call(0, BridgeMsg::kDeleteMany,
                  util::encode_to_bytes(DeleteManyRequest{names}))
          .status();
    }
    std::vector<DeleteManyRequest> parts(servers_.size());
    for (const auto& name : names) parts[home(name)].names.push_back(name);
    std::vector<Leg> legs;
    for (std::size_t s = 0; s < parts.size(); ++s) {
      if (parts[s].names.empty()) continue;
      legs.emplace_back(s, util::encode_to_bytes(parts[s]));
    }
    for (const auto& reply : fan_out(BridgeMsg::kDeleteMany, legs)) {
      if (!reply.is_ok()) return reply.status();
    }
    return util::ok_status();
  }

  util::Result<OpenResponse> open(const std::string& name) {
    std::size_t s = home(name);
    auto resp =
        request<OpenResponse>(s, BridgeMsg::kOpen, OpenRequest{name});
    // Sessions are numbered per server, so their ids get the home tag here;
    // file ids already carry it (the server mints from its own slice).
    if (resp.is_ok()) resp.value().session = tag(s, resp.value().session);
    return resp;
  }

  util::Result<SeqReadResponse> seq_read(std::uint64_t session) {
    return request<SeqReadResponse>(owner(session), BridgeMsg::kSeqRead,
                                    SeqReadRequest{untag(session)});
  }

  util::Result<std::vector<std::byte>> random_read(BridgeFileId id,
                                                   std::uint64_t block_no) {
    auto resp = request<RandomReadResponse>(
        file_home(id), BridgeMsg::kRandomRead, RandomReadRequest{id, block_no});
    if (!resp.is_ok()) return resp.status();
    return std::move(resp.value().data);
  }

  util::Result<std::uint64_t> seq_write(std::uint64_t session,
                                        std::span<const std::byte> data) {
    SeqWriteRequest req;
    req.session = untag(session);
    req.data.assign(data.begin(), data.end());
    auto resp =
        request<SeqWriteResponse>(owner(session), BridgeMsg::kSeqWrite, req);
    if (!resp.is_ok()) return resp.status();
    return resp.value().block_no;
  }

  util::Status random_write(BridgeFileId id, std::uint64_t block_no,
                            std::span<const std::byte> data) {
    auto s = file_home(id);
    if (!s.is_ok()) return s.status();
    RandomWriteRequest req;
    req.id = id;
    req.block_no = block_no;
    req.data.assign(data.begin(), data.end());
    return call(s.value(), BridgeMsg::kRandomWrite, util::encode_to_bytes(req))
        .status();
  }

  // Vectored naive-view ops: one round trip moves a run of blocks and the
  // server keeps every involved LFS in flight concurrently.  Semantically
  // equivalent to a loop over the single-block ops, but a failed run leaves
  // the session cursor and file size exactly where they stood.

  util::Result<SeqReadManyResponse> seq_read_many(std::uint64_t session,
                                                  std::uint32_t max_blocks) {
    return request<SeqReadManyResponse>(
        owner(session), BridgeMsg::kSeqReadMany,
        SeqReadManyRequest{untag(session), max_blocks});
  }

  util::Result<SeqWriteManyResponse> seq_write_many(
      std::uint64_t session, std::vector<std::vector<std::byte>> blocks) {
    return request<SeqWriteManyResponse>(
        owner(session), BridgeMsg::kSeqWriteMany,
        SeqWriteManyRequest{untag(session), std::move(blocks)});
  }

  util::Result<RandomReadManyResponse> random_read_many(
      BridgeFileId id, std::uint64_t first_block, std::uint32_t count) {
    return request<RandomReadManyResponse>(
        file_home(id), BridgeMsg::kRandomReadMany,
        RandomReadManyRequest{id, first_block, count});
  }

  /// Reposition a session's sequential read cursor (clamped to the file
  /// size).  Returns the cursor after the seek.
  util::Result<std::uint64_t> seq_seek(std::uint64_t session,
                                       std::uint64_t block_no) {
    auto resp = request<SeqSeekResponse>(
        owner(session), BridgeMsg::kSeqSeek,
        SeqSeekRequest{untag(session), block_no});
    if (!resp.is_ok()) return resp.status();
    return resp.value().block_no;
  }

  /// Shrink file `id` to `new_size_blocks` (growing is an error; equal is a
  /// no-op).  The server fans per-constituent truncates to every involved
  /// LFS and clamps open-session cursors.  Rejected for members of a
  /// mirrored/parity group — their sizes are coupled invariants owned by the
  /// replicated access methods.
  util::Result<std::uint64_t> truncate(BridgeFileId id,
                                       std::uint64_t new_size_blocks) {
    auto resp = request<TruncateFileResponse>(
        file_home(id), BridgeMsg::kTruncate,
        TruncateFileRequest{id, new_size_blocks});
    if (!resp.is_ok()) return resp.status();
    return resp.value().size_blocks;
  }

  /// Group `workers` into a job on an open session; the caller becomes the
  /// job controller (§4.1).
  util::Result<std::uint64_t> parallel_open(
      std::uint64_t session, const std::vector<sim::Address>& workers) {
    auto s = owner(session);
    ParallelOpenRequest req;
    req.session = untag(session);
    req.workers = workers;
    auto resp =
        request<ParallelOpenResponse>(s, BridgeMsg::kParallelOpen, req);
    if (!resp.is_ok()) return resp.status();
    return tag(s.value(), resp.value().job);
  }

  /// Transfer one block to every worker (t blocks total, in groups of p).
  util::Result<ParallelReadResponse> parallel_read(std::uint64_t job) {
    return request<ParallelReadResponse>(owner(job), BridgeMsg::kParallelRead,
                                         ParallelReadRequest{untag(job)});
  }

  /// Collect one block from every worker and append them in worker order.
  util::Result<ParallelWriteResponse> parallel_write(std::uint64_t job) {
    return request<ParallelWriteResponse>(owner(job),
                                          BridgeMsg::kParallelWrite,
                                          ParallelWriteRequest{untag(job)});
  }

  /// Rename `from` to `to` (target must not exist; members of a
  /// mirrored/parity group are rejected).  Returns the file's id after the
  /// rename: with k > 1 the file may move to the home server of the new
  /// name, in which case a NEW id (tagged with the new home) is returned and
  /// the old id stops resolving.  Open sessions on the old server do not
  /// follow a cross-server move.
  util::Result<BridgeFileId> rename(const std::string& from,
                                    const std::string& to) {
    auto resp = request<RenameResponse>(home(from), BridgeMsg::kRename,
                                        RenameRequest{from, to});
    if (!resp.is_ok()) return resp.status();
    return resp.value().id;
  }

  /// List directory entries whose name starts with `prefix` (empty = all),
  /// sorted by name.  With k > 1 one kList goes to every server before any
  /// reply is awaited, and the sorted partitions are k-way merged by (name,
  /// server index) — a deterministic total order, since a name's home is a
  /// function of the name.
  util::Result<std::vector<ListEntry>> list(const std::string& prefix) {
    auto payload = util::encode_to_bytes(ListRequest{prefix});
    if (servers_.size() == 1) {
      auto reply = call(0, BridgeMsg::kList, payload);
      if (!reply.is_ok()) return reply.status();
      return util::decode_from_bytes<ListResponse>(reply.value()).entries;
    }
    std::vector<Leg> legs;
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      legs.emplace_back(s, payload);
    }
    std::vector<std::vector<ListEntry>> parts;
    std::size_t total = 0;
    for (const auto& reply : fan_out(BridgeMsg::kList, legs)) {
      if (!reply.is_ok()) return reply.status();
      parts.push_back(
          util::decode_from_bytes<ListResponse>(reply.value()).entries);
      total += parts.back().size();
    }

    std::vector<ListEntry> merged;
    merged.reserve(total);
    std::vector<std::size_t> cursor(parts.size(), 0);
    while (merged.size() < total) {
      std::size_t best = parts.size();
      for (std::size_t s = 0; s < parts.size(); ++s) {
        if (cursor[s] >= parts[s].size()) continue;
        if (best == parts.size() ||
            parts[s][cursor[s]].name < parts[best][cursor[best]].name) {
          best = s;
        }
      }
      merged.push_back(std::move(parts[best][cursor[best]]));
      ++cursor[best];
    }
    return merged;
  }

  /// Machine structure (the doorway to the tool view); every server gives
  /// the same answer, so server 0 is asked.
  util::Result<GetInfoResponse> get_info() {
    auto reply = call(0, BridgeMsg::kGetInfo, {});
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<GetInfoResponse>(reply.value());
  }

  /// Resolve `count` placements starting at global block `first` of file
  /// `id` (needed for hashed/linked files whose placement lives only in the
  /// Bridge directory).
  util::Result<ResolveResponse> resolve(BridgeFileId id, std::uint64_t first,
                                        std::uint32_t count) {
    return request<ResolveResponse>(file_home(id), BridgeMsg::kResolve,
                                    ResolveRequest{id, first, count});
  }

  /// The underlying RPC client, shared with EfsClient instances by tools
  /// that talk to the LFS level directly.
  [[nodiscard]] sim::RpcClient& rpc() noexcept { return rpc_; }

 private:
  /// Top byte of a session/job id carries its home server index.
  static constexpr std::uint64_t kTagShift = 56;

  [[nodiscard]] std::size_t home(const std::string& name) const {
    return directory_home(name, servers_.size());
  }
  static std::uint64_t tag(std::size_t server, std::uint64_t id) {
    return (static_cast<std::uint64_t>(server) << kTagShift) | id;
  }
  static std::uint64_t untag(std::uint64_t tagged) {
    return tagged & ((1ull << kTagShift) - 1);
  }
  /// Home server of a tagged session/job id.  A tag outside the group — a
  /// corrupt id, or one minted against a differently-sized group — is an
  /// error, NOT something to mask with a modulo: silently routing it to an
  /// arbitrary server turns a caller bug into wrong-file data access.
  [[nodiscard]] util::Result<std::size_t> owner(std::uint64_t tagged) const {
    return in_group(tagged >> kTagShift, "id", tagged);
  }
  /// Home server of a file id (its minting server's slice index), under the
  /// same no-masking rule as owner().
  [[nodiscard]] util::Result<std::size_t> file_home(BridgeFileId id) const {
    return in_group(file_id_home(id), "file id", id);
  }
  [[nodiscard]] util::Result<std::size_t> in_group(std::uint64_t server,
                                                   const char* what,
                                                   std::uint64_t id) const {
    if (server >= servers_.size()) {
      return util::not_found(std::string(what) + " " + std::to_string(id) +
                             " is homed on server " + std::to_string(server) +
                             " of " + std::to_string(servers_.size()));
    }
    return static_cast<std::size_t>(server);
  }

  /// One request to a routed server, its reply decoded as Response.
  template <typename Response, typename Body>
  util::Result<Response> request(const util::Result<std::size_t>& server,
                                 BridgeMsg type, const Body& req) {
    if (!server.is_ok()) return server.status();
    auto reply = call(server.value(), type, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<Response>(reply.value());
  }

  util::Result<std::vector<std::byte>> call(
      std::size_t server, BridgeMsg type, std::span<const std::byte> payload) {
    // Every one-round-trip client operation is one end-to-end request in
    // the stage ledger; the op class is the message name without its
    // "bridge." prefix ("Create", "SeqRead", ...).  Nested calls (a
    // composite op re-entering call) fold into the outer request
    // automatically.
    std::string_view op = bridge_msg_name(type);
    if (op.rfind("bridge.", 0) == 0) op.remove_prefix(7);
    sim::ScopedRequest ledger(rpc_.context(), op);
    return rpc_.call(servers_[server], static_cast<std::uint32_t>(type),
                     payload);
  }

  /// One leg of a fan-out: (server index, encoded request).
  using Leg = std::pair<std::size_t, std::vector<std::byte>>;

  /// A multi-server list or remove_many: every leg is posted before any
  /// reply is awaited, and every reply is collected, in leg order.  It is k
  /// round trips, not one, so it opens no ledger request.
  std::vector<util::Result<std::vector<std::byte>>> fan_out(
      BridgeMsg type, const std::vector<Leg>& legs) {
    std::vector<std::uint64_t> posted;
    for (const auto& [server, payload] : legs) {
      posted.push_back(rpc_.call_async(
          servers_[server], static_cast<std::uint32_t>(type), payload));
    }
    std::vector<util::Result<std::vector<std::byte>>> replies;
    for (std::uint64_t correlation : posted) {
      replies.push_back(rpc_.wait_own_reply(correlation));
    }
    return replies;
  }

  sim::RpcClient rpc_;
  std::vector<sim::Address> servers_;
};

/// Worker-side endpoint for parallel-open jobs.  A worker process creates
/// one, registers its address() via the controller's parallel_open, then
/// either consumes blocks (reads) or supplies them (writes).
class ParallelWorker {
 public:
  explicit ParallelWorker(sim::Context& ctx)
      : ctx_(ctx), box_(ctx.runtime().scheduler(), ctx.node()) {}

  [[nodiscard]] sim::Address address() noexcept { return box_.address(); }

  /// Block until the server delivers this worker's next block (or EOF).
  WorkerData next_block() {
    while (true) {
      sim::Envelope env = box_.recv();
      if (env.type == static_cast<std::uint32_t>(BridgeMsg::kWorkerData)) {
        util::Reader r(env.payload);
        return WorkerData::decode(r);
      }
      // A stray solicitation during a read job: report empty.
      reply_no_data(env);
    }
  }

  /// Block until the server solicits a block, then answer with `provider()`
  /// (nullopt = drained).  Returns false once drained.
  bool serve_give(
      const std::function<std::optional<std::vector<std::byte>>()>& provider) {
    sim::Envelope env = box_.recv();
    if (env.type != static_cast<std::uint32_t>(BridgeMsg::kWorkerGive)) {
      return true;  // ignore unexpected deliveries
    }
    auto data = provider();
    WorkerGiveResponse resp;
    resp.has_data = data.has_value();
    if (data) resp.data = std::move(*data);
    sim::send_reply(ctx_, env, util::ok_status(), util::encode_to_bytes(resp));
    return resp.has_data;
  }

 private:
  void reply_no_data(const sim::Envelope& env) {
    if (env.type == static_cast<std::uint32_t>(BridgeMsg::kWorkerGive)) {
      WorkerGiveResponse resp;
      sim::send_reply(ctx_, env, util::ok_status(), util::encode_to_bytes(resp));
    }
  }

  sim::Context& ctx_;
  sim::Mailbox box_;
};

}  // namespace bridge::core
