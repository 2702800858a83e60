// Client-side API for the Bridge Server: the naive sequential view, the
// parallel-open view, and Get Info (the doorway to the tool view).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/api.hpp"
#include "src/core/protocol.hpp"
#include "src/sim/rpc.hpp"
#include "src/util/status.hpp"

namespace bridge::core {

class BridgeClient final : public BridgeApi {
 public:
  BridgeClient(sim::Context& ctx, sim::Address server)
      : rpc_(ctx), server_(server) {}

  util::Result<BridgeFileId> create(const std::string& name,
                                    CreateOptions options = {}) override {
    CreateFileRequest req;
    req.name = name;
    req.distribution = static_cast<std::uint8_t>(options.distribution) |
                       (options.tree ? kCreateTreeBit : 0);
    req.width = options.width;
    req.start_lfs = options.start_lfs;
    req.chunk_blocks = options.chunk_blocks;
    req.hash_seed = options.hash_seed;
    auto reply = call(BridgeMsg::kCreate, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<CreateFileResponse>(reply.value()).id;
  }

  util::Status remove(const std::string& name) override {
    DeleteFileRequest req{name};
    return call(BridgeMsg::kDelete, util::encode_to_bytes(req)).status();
  }

  /// Delete several files with their LFS work overlapped ("discard the old
  /// files in parallel", §5.2).
  util::Status remove_many(const std::vector<std::string>& names) override {
    DeleteManyRequest req{names};
    return call(BridgeMsg::kDeleteMany, util::encode_to_bytes(req)).status();
  }

  util::Result<OpenResponse> open(const std::string& name) override {
    OpenRequest req{name};
    auto reply = call(BridgeMsg::kOpen, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<OpenResponse>(reply.value());
  }

  util::Result<SeqReadResponse> seq_read(std::uint64_t session) override {
    SeqReadRequest req{session};
    auto reply = call(BridgeMsg::kSeqRead, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<SeqReadResponse>(reply.value());
  }

  util::Result<std::vector<std::byte>> random_read(
      BridgeFileId id, std::uint64_t block_no) override {
    RandomReadRequest req{id, block_no};
    auto reply = call(BridgeMsg::kRandomRead, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<RandomReadResponse>(reply.value()).data;
  }

  util::Result<std::uint64_t> seq_write(
      std::uint64_t session, std::span<const std::byte> data) override {
    SeqWriteRequest req;
    req.session = session;
    req.data.assign(data.begin(), data.end());
    auto reply = call(BridgeMsg::kSeqWrite, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<SeqWriteResponse>(reply.value()).block_no;
  }

  util::Status random_write(BridgeFileId id, std::uint64_t block_no,
                            std::span<const std::byte> data) override {
    RandomWriteRequest req;
    req.id = id;
    req.block_no = block_no;
    req.data.assign(data.begin(), data.end());
    return call(BridgeMsg::kRandomWrite, util::encode_to_bytes(req)).status();
  }

  util::Result<SeqReadManyResponse> seq_read_many(
      std::uint64_t session, std::uint32_t max_blocks) override {
    SeqReadManyRequest req{session, max_blocks};
    auto reply = call(BridgeMsg::kSeqReadMany, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<SeqReadManyResponse>(reply.value());
  }

  util::Result<SeqWriteManyResponse> seq_write_many(
      std::uint64_t session,
      std::vector<std::vector<std::byte>> blocks) override {
    SeqWriteManyRequest req{session, std::move(blocks)};
    auto reply = call(BridgeMsg::kSeqWriteMany, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<SeqWriteManyResponse>(reply.value());
  }

  util::Result<RandomReadManyResponse> random_read_many(
      BridgeFileId id, std::uint64_t first_block,
      std::uint32_t count) override {
    RandomReadManyRequest req{id, first_block, count};
    auto reply = call(BridgeMsg::kRandomReadMany, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<RandomReadManyResponse>(reply.value());
  }

  util::Result<std::uint64_t> seq_seek(std::uint64_t session,
                                       std::uint64_t block_no) override {
    SeqSeekRequest req{session, block_no};
    auto reply = call(BridgeMsg::kSeqSeek, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<SeqSeekResponse>(reply.value()).block_no;
  }

  util::Result<std::uint64_t> truncate(BridgeFileId id,
                                       std::uint64_t new_size_blocks) override {
    TruncateFileRequest req{id, new_size_blocks};
    auto reply = call(BridgeMsg::kTruncate, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<TruncateFileResponse>(reply.value())
        .size_blocks;
  }

  /// Group `workers` into a job on an open session; the caller becomes the
  /// job controller (§4.1).
  util::Result<std::uint64_t> parallel_open(
      std::uint64_t session, const std::vector<sim::Address>& workers) override {
    ParallelOpenRequest req;
    req.session = session;
    req.workers = workers;
    auto reply = call(BridgeMsg::kParallelOpen, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<ParallelOpenResponse>(reply.value()).job;
  }

  /// Transfer one block to every worker (t blocks total, in groups of p).
  util::Result<ParallelReadResponse> parallel_read(std::uint64_t job) override {
    ParallelReadRequest req{job};
    auto reply = call(BridgeMsg::kParallelRead, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<ParallelReadResponse>(reply.value());
  }

  /// Collect one block from every worker and append them in worker order.
  util::Result<ParallelWriteResponse> parallel_write(std::uint64_t job) override {
    ParallelWriteRequest req{job};
    auto reply = call(BridgeMsg::kParallelWrite, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<ParallelWriteResponse>(reply.value());
  }

  util::Result<BridgeFileId> rename(const std::string& from,
                                    const std::string& to) override {
    RenameRequest req{from, to};
    auto reply = call(BridgeMsg::kRename, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<RenameResponse>(reply.value()).id;
  }

  util::Result<std::vector<ListEntry>> list(
      const std::string& prefix) override {
    ListRequest req{prefix};
    auto reply = call(BridgeMsg::kList, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<ListResponse>(reply.value()).entries;
  }

  util::Result<GetInfoResponse> get_info() override {
    auto reply = call(BridgeMsg::kGetInfo, {});
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<GetInfoResponse>(reply.value());
  }

  util::Result<ResolveResponse> resolve(BridgeFileId id, std::uint64_t first,
                                        std::uint32_t count) override {
    ResolveRequest req{id, first, count};
    auto reply = call(BridgeMsg::kResolve, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<ResolveResponse>(reply.value());
  }

  /// The underlying RPC client, shared with EfsClient instances by tools
  /// that talk to the LFS level directly.
  [[nodiscard]] sim::RpcClient& rpc() noexcept { return rpc_; }
  [[nodiscard]] sim::Address server() const noexcept { return server_; }

 private:
  util::Result<std::vector<std::byte>> call(BridgeMsg type,
                                            std::span<const std::byte> payload) {
    // Every client operation is one end-to-end request in the stage ledger;
    // the op class is the message name without its "bridge." prefix
    // ("Create", "SeqRead", ...).  Nested calls (a composite op re-entering
    // call) fold into the outer request automatically.
    std::string_view op = bridge_msg_name(type);
    if (op.rfind("bridge.", 0) == 0) op.remove_prefix(7);
    sim::ScopedRequest request(rpc_.context(), op);
    return rpc_.call(server_, static_cast<std::uint32_t>(type), payload);
  }

  sim::RpcClient rpc_;
  sim::Address server_;
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
