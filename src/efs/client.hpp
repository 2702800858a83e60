// Typed EFS client.
//
// Wraps an RpcClient with the EFS protocol.  The client holds no per-file
// state: every request names its file and block numbers, and the LFS's
// extent maps locate the blocks.  Single-block read()/write() are runs of
// one on the vectored ops, so there is one data path on the wire.
#pragma once

#include "src/efs/protocol.hpp"
#include "src/sim/rpc.hpp"
#include "src/util/status.hpp"

namespace bridge::efs {

class EfsClient {
 public:
  /// `service` is the EFS server's mailbox address.  The client uses the
  /// calling process's RpcClient (one per process), so several EfsClients —
  /// one per LFS the caller talks to — can share it.
  EfsClient(sim::RpcClient& rpc, sim::Address service)
      : rpc_(&rpc), service_(service) {}

  [[nodiscard]] sim::Address service() const noexcept { return service_; }

  util::Status create(FileId id) {
    return call(MsgType::kCreate, CreateRequest{id}).status();
  }

  util::Status remove(FileId id) {
    return call(MsgType::kDelete, DeleteRequest{id}).status();
  }

  util::Result<InfoResponse> info(FileId id) {
    auto reply = call(MsgType::kInfo, InfoRequest{id});
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<InfoResponse>(reply.value());
  }

  /// One block's payload (a vectored read of one).
  util::Result<std::vector<std::byte>> read(FileId id, std::uint32_t block_no) {
    auto reply = call(MsgType::kReadMany, ReadManyRequest{id, {block_no}});
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<ReadManyResponse>(reply.value()).take_one();
  }

  /// Write one block (a vectored write of one; the LFS writes it through).
  util::Status write(FileId id, std::uint32_t block_no,
                     std::span<const std::byte> data) {
    return call(MsgType::kWriteMany,
                WriteManyRequest::one(
                    id, block_no, std::vector<std::byte>(data.begin(), data.end())))
        .status();
  }

  /// Vectored read: fetch `block_nos` (request order preserved) in one
  /// round trip.
  util::Result<std::vector<std::vector<std::byte>>> read_many(
      FileId id, std::vector<std::uint32_t> block_nos) {
    auto reply =
        call(MsgType::kReadMany, ReadManyRequest{id, std::move(block_nos)});
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<ReadManyResponse>(reply.value()).blocks;
  }

  /// Vectored write: apply `writes` in order in one round trip.
  util::Status write_many(FileId id, std::vector<BlockWrite> writes) {
    return call(MsgType::kWriteMany, WriteManyRequest{id, std::move(writes)})
        .status();
  }

  /// Truncate to `new_size_blocks` constituent blocks (the compensation op
  /// for torn multi-LFS appends).
  util::Result<TruncateResponse> truncate(FileId id,
                                          std::uint32_t new_size_blocks) {
    auto reply = call(MsgType::kTruncate, TruncateRequest{id, new_size_blocks});
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<TruncateResponse>(reply.value());
  }

  util::Status sync() {
    return rpc_->call(service_, static_cast<std::uint32_t>(MsgType::kSync), {})
        .status();
  }

 private:
  template <typename Request>
  util::Result<std::vector<std::byte>> call(MsgType type, const Request& req) {
    return rpc_->call(service_, static_cast<std::uint32_t>(type),
                      util::encode_to_bytes(req));
  }

  sim::RpcClient* rpc_;
  sim::Address service_;
};

}  // namespace bridge::efs
