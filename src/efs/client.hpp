// Typed EFS client.
//
// Wraps an RpcClient with the EFS protocol, and is the one place that
// encodes an EFS request or decodes an EFS reply.  Each op comes in two
// forms built on the same codec:
//
// - blocking: send the request and wait for its decoded reply;
// - posted: put the same request bytes into a caller's sim::AsyncBatch,
//   with a typed completion `done` that receives the decoded reply (or the
//   call's error) once the batch's wait_all() has every reply in, and
//   returns the call's status.  `done` takes util::Result<T> for the reply
//   type T the blocking form returns, or util::Status for a bare-status
//   reply.  Where it is optional and left out, the call's status alone
//   joins the batch's.
//
// The client holds no per-file state: every request names its file and
// block numbers, and the LFS's extent maps locate the blocks.  Single-block
// read()/write() are runs of one on the vectored ops, so there is one data
// path on the wire.
#pragma once

#include <type_traits>

#include "src/efs/protocol.hpp"
#include "src/sim/rpc.hpp"
#include "src/util/status.hpp"

namespace bridge::efs {

class EfsClient {
 public:
  using Blocks = std::vector<std::vector<std::byte>>;
  /// The `done` of a posted call that has none.
  struct NoCompletion {};

  /// `service` is the EFS server's mailbox address.  The client uses the
  /// calling process's RpcClient (one per process), so several EfsClients —
  /// one per LFS the caller talks to — can share it.
  EfsClient(sim::RpcClient& rpc, sim::Address service)
      : rpc_(&rpc), service_(service) {}

  [[nodiscard]] sim::Address service() const noexcept { return service_; }

  util::Status create(FileId id) {
    return call<status_of>(MsgType::kCreate, CreateRequest{id});
  }
  template <typename Done = NoCompletion>
  void create(sim::AsyncBatch& batch, FileId id, Done done = {}) {
    post<status_of>(batch, MsgType::kCreate, CreateRequest{id},
                    std::move(done));
  }

  util::Status remove(FileId id) {
    return call<status_of>(MsgType::kDelete, DeleteRequest{id});
  }
  template <typename Done = NoCompletion>
  void remove(sim::AsyncBatch& batch, FileId id, Done done = {}) {
    post<status_of>(batch, MsgType::kDelete, DeleteRequest{id},
                    std::move(done));
  }

  util::Result<InfoResponse> info(FileId id) {
    return call<decoded<InfoResponse>>(MsgType::kInfo, InfoRequest{id});
  }
  template <typename Done>
  void info(sim::AsyncBatch& batch, FileId id, Done done) {
    post<decoded<InfoResponse>>(batch, MsgType::kInfo, InfoRequest{id},
                                std::move(done));
  }

  /// One block's payload (a vectored read of one).
  util::Result<std::vector<std::byte>> read(FileId id, std::uint32_t block_no) {
    auto blocks = read_many(id, {block_no});
    if (!blocks.is_ok()) return blocks.status();
    return ReadManyResponse{std::move(blocks).value()}.take_one();
  }

  /// Write one block (a vectored write of one; the LFS writes it through).
  util::Status write(FileId id, std::uint32_t block_no,
                     std::span<const std::byte> data) {
    std::vector<std::byte> payload(data.begin(), data.end());
    return call<status_of>(
        MsgType::kWriteMany,
        WriteManyRequest::one(id, block_no, std::move(payload)));
  }

  /// Vectored read: fetch `block_nos` (request order preserved) in one
  /// round trip.
  util::Result<Blocks> read_many(FileId id,
                                 std::vector<std::uint32_t> block_nos) {
    return call<blocks_of>(MsgType::kReadMany,
                           ReadManyRequest{id, std::move(block_nos)});
  }
  template <typename Done>
  void read_many(sim::AsyncBatch& batch, FileId id,
                 std::vector<std::uint32_t> block_nos, Done done) {
    post<blocks_of>(batch, MsgType::kReadMany,
                    ReadManyRequest{id, std::move(block_nos)},
                    std::move(done));
  }

  /// Vectored write: apply `writes` in order in one round trip.
  util::Status write_many(FileId id, std::vector<BlockWrite> writes) {
    return call<status_of>(MsgType::kWriteMany,
                           WriteManyRequest{id, std::move(writes)});
  }
  template <typename Done = NoCompletion>
  void write_many(sim::AsyncBatch& batch, FileId id,
                  std::vector<BlockWrite> writes, Done done = {}) {
    post<status_of>(batch, MsgType::kWriteMany,
                    WriteManyRequest{id, std::move(writes)}, std::move(done));
  }

  /// Truncate to `new_size_blocks` constituent blocks (the compensation op
  /// for torn multi-LFS appends).
  util::Result<TruncateResponse> truncate(FileId id,
                                          std::uint32_t new_size_blocks) {
    return call<decoded<TruncateResponse>>(
        MsgType::kTruncate, TruncateRequest{id, new_size_blocks});
  }
  template <typename Done = NoCompletion>
  void truncate(sim::AsyncBatch& batch, FileId id,
                std::uint32_t new_size_blocks, Done done = {}) {
    post<decoded<TruncateResponse>>(batch, MsgType::kTruncate,
                                    TruncateRequest{id, new_size_blocks},
                                    std::move(done));
  }

  util::Status sync() {
    return rpc_->call(service_, static_cast<std::uint32_t>(MsgType::kSync), {})
        .status();
  }

 private:
  using Reply = sim::AsyncBatch::Reply;

  // The reply decoders: one per reply shape.
  static util::Status status_of(Reply reply) { return reply.status(); }
  template <typename T>
  static util::Result<T> decoded(Reply reply) {
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<T>(reply.value());
  }
  static util::Result<Blocks> blocks_of(Reply reply) {
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<ReadManyResponse>(reply.value()).blocks;
  }

  template <auto Decode, typename Request>
  std::invoke_result_t<decltype(Decode), Reply> call(MsgType type,
                                                     const Request& req) {
    return Decode(rpc_->call(service_, static_cast<std::uint32_t>(type),
                             util::encode_to_bytes(req)));
  }

  template <auto Decode, typename Request, typename Done>
  void post(sim::AsyncBatch& batch, MsgType type, const Request& req,
            Done done) {
    sim::AsyncBatch::Completion completion;
    if constexpr (!std::is_same_v<Done, NoCompletion>) {
      completion = [done = std::move(done)](Reply reply) {
        return done(Decode(std::move(reply)));
      };
    }
    batch.call(service_, static_cast<std::uint32_t>(type),
               util::encode_to_bytes(req), std::move(completion));
  }

  sim::RpcClient* rpc_;
  sim::Address service_;
};

}  // namespace bridge::efs
