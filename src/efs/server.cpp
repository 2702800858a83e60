#include "src/efs/server.hpp"

#include <string>

#include "src/sim/race_annotate.hpp"
#include "src/util/logging.hpp"

namespace bridge::efs {

EfsServer::EfsServer(sim::Runtime& rt, sim::NodeId node, disk::Geometry geometry,
                     disk::LatencyModel latency, EfsConfig config)
    : rt_(rt), node_(node), sched_(config.sched) {
  disk_ = std::make_unique<disk::SimDisk>(geometry, latency);
  core_ = std::make_unique<EfsCore>(*disk_, config);
  core_->format();
  mailbox_ = std::make_unique<sim::Mailbox>(rt.scheduler(), node);
}

void EfsServer::start() {
  if (started_) return;
  started_ = true;
  rt_.spawn(node_, "efs@" + std::to_string(node_), [this](sim::Context& ctx) {
    ctx.set_daemon();
    serve(ctx);
  });
}

void EfsServer::serve(sim::Context& ctx) {
  std::string lane = "lfs.n" + std::to_string(node_);
  obs::Histogram& queue_us = rt_.metrics().histogram(lane + ".queue_us");
  obs::Histogram& service_us = rt_.metrics().histogram(lane + ".service_us");
  obs::Histogram& sched_wait_us =
      rt_.metrics().histogram(lane + ".sched_wait_us");
  obs::Gauge& depth_gauge = rt_.metrics().gauge(lane + ".sched_queue_depth");
  obs::Tracer& tracer = rt_.tracer();
  while (true) {
    // Refill: block for the first request, then drain every envelope already
    // delivered into the scheduler so overlapping runs can be reordered.
    // With the FIFO policy pop() returns strict arrival order — identical to
    // serving straight off the mailbox.
    if (sched_.empty()) {
      sim::Envelope first = mailbox_->recv();
      std::uint32_t track = estimate_track(first);
      BRIDGE_RACE_WRITE(ctx, &sched_, 0, "efs.sched_queue");
      sched_.push(std::move(first), track, ctx.now());
    }
    while (auto more = mailbox_->try_recv()) {
      std::uint32_t track = estimate_track(*more);
      BRIDGE_RACE_WRITE(ctx, &sched_, 0, "efs.sched_queue");
      sched_.push(std::move(*more), track, ctx.now());
    }
    depth_gauge.set(static_cast<double>(sched_.depth()));
    BRIDGE_RACE_WRITE(ctx, &sched_, 0, "efs.sched_queue");
    auto popped = sched_.pop(disk_->current_track());
    sched_wait_us.record(
        static_cast<std::uint64_t>((ctx.now() - popped.enqueued_at).us()));
    if (popped.aged) {
      rt_.flight().record(ctx.now().us(), node_, "sched.aged",
                          "track " + std::to_string(popped.track));
    }
    sim::Envelope env = std::move(popped.env);
    // Queue wait: wire latency + time the request sat behind earlier ones
    // (including its wait inside the disk scheduler).
    sim::SimTime queued = ctx.now() - env.sent_at;
    queue_us.record(static_cast<std::uint64_t>(queued.us()));
    rt_.stages().charge(env.trace.request_id, obs::Stage::kLfsQueue,
                        queued.us());
    if (tracer.enabled()) {
      tracer.complete(node_, ctx.pid(), "efs.queue", env.sent_at.us(),
                      queued.us(), env.trace);
    }
    sim::SimTime t0 = ctx.now();
    {
      // Adopt the originating request so disk stage charges attribute to it.
      sim::AdoptedRequest adopted(ctx, env.trace.request_id);
      // Service span parented under the caller's span via the envelope.
      sim::ScopedSpan span(ctx, efs_msg_name(static_cast<MsgType>(env.type)),
                           env.trace);
      handle(ctx, env);
    }
    sim::SimTime serviced = ctx.now() - t0;
    service_us.record(static_cast<std::uint64_t>(serviced.us()));
    rt_.stages().charge(env.trace.request_id, obs::Stage::kLfsSvc,
                        serviced.us());
  }
}

std::uint32_t EfsServer::estimate_track(const sim::Envelope& env) const {
  const auto& geom = disk_->geometry();
  // The RAM-resident extent maps answer "which track will this request
  // seek to" exactly, for free.  An append falls back to the file's last
  // block, where the allocator grows the file from; an empty or unknown
  // file to "no preference".
  auto track_of_block = [&](FileId file_id,
                            std::uint32_t block_no) -> std::uint32_t {
    BlockAddr addr = core_->peek_block_addr(file_id, block_no);
    if (addr == kNilAddr) addr = core_->peek_tail(file_id);
    if (addr != kNilAddr && addr < geom.capacity_blocks()) {
      return geom.track_of(addr);
    }
    return disk_->current_track();
  };
  // Cheap partial decode: every data request encodes file_id first.  A
  // malformed payload falls through to "no preference" and is rejected
  // later by handle().
  try {
    util::Reader r(env.payload);
    switch (static_cast<MsgType>(env.type)) {
      case MsgType::kReadMany:
      case MsgType::kWriteMany: {
        // Both encode (file_id, count, first block_no, ...).
        FileId file_id = r.u32();
        std::uint32_t count = r.u32();
        return track_of_block(file_id, count > 0 ? r.u32() : 0);
      }
      case MsgType::kDelete:
      case MsgType::kTruncate:
        return track_of_block(r.u32(), 0);
      default:
        break;
    }
  } catch (const util::StatusError&) {
    // Short payload: no track preference.
  }
  return disk_->current_track();
}

void EfsServer::handle(sim::Context& ctx, const sim::Envelope& env) {
  using util::Reader;
  using util::Writer;
  try {
    switch (static_cast<MsgType>(env.type)) {
      case MsgType::kCreate: {
        Reader r(env.payload);
        auto req = CreateRequest::decode(r);
        sim::send_reply(ctx, env, core_->create(ctx, req.file_id));
        return;
      }
      case MsgType::kDelete: {
        Reader r(env.payload);
        auto req = DeleteRequest::decode(r);
        sim::send_reply(ctx, env, core_->remove(ctx, req.file_id));
        return;
      }
      case MsgType::kInfo: {
        Reader r(env.payload);
        auto req = InfoRequest::decode(r);
        auto result = core_->info(ctx, req.file_id);
        if (!result.is_ok()) {
          sim::send_reply(ctx, env, result.status());
          return;
        }
        InfoResponse resp{result.value().size_blocks,
                          static_cast<std::uint32_t>(core_->free_block_count())};
        sim::send_reply(ctx, env, util::ok_status(),
                        util::encode_to_bytes(resp));
        return;
      }
      case MsgType::kReadMany: {
        Reader r(env.payload);
        auto req = ReadManyRequest::decode(r);
        auto result = core_->read_many(ctx, req.file_id, req.block_nos);
        if (!result.is_ok()) {
          sim::send_reply(ctx, env, result.status());
          return;
        }
        ReadManyResponse resp{std::move(result).value()};
        sim::send_reply(ctx, env, util::ok_status(),
                        util::encode_to_bytes(resp));
        return;
      }
      case MsgType::kWriteMany: {
        Reader r(env.payload);
        auto req = WriteManyRequest::decode(r);
        sim::send_reply(ctx, env, write_many(ctx, req));
        return;
      }
      case MsgType::kTruncate: {
        Reader r(env.payload);
        auto req = TruncateRequest::decode(r);
        auto st = core_->truncate(ctx, req.file_id, req.new_size_blocks);
        if (!st.is_ok()) {
          sim::send_reply(ctx, env, st);
          return;
        }
        auto info = core_->info(ctx, req.file_id);
        if (!info.is_ok()) {
          sim::send_reply(ctx, env, info.status());
          return;
        }
        TruncateResponse resp{info.value().size_blocks};
        sim::send_reply(ctx, env, util::ok_status(),
                        util::encode_to_bytes(resp));
        return;
      }
      case MsgType::kSync: {
        sim::send_reply(ctx, env, core_->sync(ctx));
        return;
      }
    }
    sim::send_reply(ctx, env,
                    util::invalid_argument("unknown EFS message type " +
                                           std::to_string(env.type)));
  } catch (const util::StatusError& e) {
    // Malformed payload (serde failure): report instead of dying.
    sim::send_reply(ctx, env, e.status());
  }
}

util::Status EfsServer::write_many(sim::Context& ctx,
                                   const WriteManyRequest& req) {
  // A run of one is a plain write-through: a single-block write either
  // happens whole or not at all, so it needs neither the append preflight
  // (nor the info() it costs) nor track staging.
  if (req.writes.size() == 1) {
    const BlockWrite& w = req.writes.front();
    return core_->write(ctx, req.file_id, w.block_no, w.data);
  }
  // Preflight appends against the allocation bitmap (counting worst-case
  // extent-table growth) so an out-of-space run fails whole: the caller's
  // bookkeeping rollback then matches the on-disk state exactly (no
  // orphaned tail blocks).
  auto info = core_->info(ctx, req.file_id);
  if (!info.is_ok()) return info.status();
  std::size_t appends = 0;
  for (const auto& w : req.writes) {
    if (w.block_no >= info.value().size_blocks) ++appends;
  }
  if (auto st = core_->preflight_appends(req.file_id, appends); !st.is_ok()) {
    return st;
  }
  return core_->write_run(ctx, req.file_id, req.writes);
}

}  // namespace bridge::efs
