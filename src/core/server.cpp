#include "src/core/server.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/bridge_block.hpp"
#include "src/sim/race_annotate.hpp"
#include "src/util/logging.hpp"

namespace bridge::core {

namespace {
constexpr std::uint32_t msg(BridgeMsg m) { return static_cast<std::uint32_t>(m); }

/// One-way delivery to a parallel-open worker.
void post_worker_data(const sim::Context& ctx, const sim::Address& worker,
                      const WorkerData& delivery) {
  sim::Envelope note;
  note.type = msg(BridgeMsg::kWorkerData);
  note.payload = util::encode_to_bytes(delivery);
  sim::post(ctx, worker, std::move(note));
}
}  // namespace

void BridgeServerStats::publish(obs::MetricsRegistry& registry,
                                const std::string& prefix) const {
  registry.counter(prefix + ".requests").set(requests);
  registry.counter(prefix + ".blocks_forwarded").set(blocks_forwarded);
  registry.counter(prefix + ".parallel_rounds").set(parallel_rounds);
  registry.counter(prefix + ".vectored_batches").set(vectored_batches);
  registry.counter(prefix + ".vectored_blocks").set(vectored_blocks);
  registry.counter(prefix + ".renames_local").set(renames_local);
  registry.counter(prefix + ".renames_out").set(renames_out);
  registry.counter(prefix + ".renames_in").set(renames_in);
  registry.counter(prefix + ".rename_aborts").set(rename_aborts);
  registry.counter(prefix + ".lists").set(lists);
  registry.counter(prefix + ".cpu_busy_us").set(cpu_busy_us);
  registry.counter(prefix + ".cpu_preemptions").set(cpu_preemptions);
}

BridgeServer::BridgeServer(sim::Runtime& rt, sim::NodeId node,
                           BridgeConfig config,
                           std::vector<sim::Address> lfs_services,
                           std::vector<std::uint32_t> lfs_nodes,
                           BridgeFileId file_id_base)
    : rt_(rt),
      node_(node),
      config_(config),
      lfs_services_(std::move(lfs_services)),
      lfs_nodes_(std::move(lfs_nodes)),
      directory_token_(rt.scheduler(), node),
      lfs_reserved_(lfs_services_.size(), 0) {
  next_file_id_ = file_id_base;
  home_ = file_id_home(file_id_base);
  mailbox_ = std::make_unique<sim::Mailbox>(rt.scheduler(), node);
  directory_token_.send(0);
}

void BridgeServer::start() {
  if (started_) return;
  started_ = true;
  rt_.spawn(node_, "bridge-server", [this](sim::Context& ctx) {
    ctx.set_daemon();
    dispatch();
  });
}

void BridgeServer::dispatch() {
  std::string lane = "bridge.n" + std::to_string(node_);
  queue_us_ = &rt_.metrics().histogram(lane + ".queue_us");
  service_us_ = &rt_.metrics().histogram(lane + ".service_us");
  while (true) {
    sim::Envelope env = mailbox_->recv();
    if (!idle_.empty()) {
      Wire* worker = idle_.back();
      idle_.pop_back();
      worker->inbox.send(std::move(env));
      continue;
    }
    rt_.spawn(node_, "bridge-worker",
              [this, env = std::move(env)](sim::Context& ctx) mutable {
                ctx.set_daemon();
                work(ctx, std::move(env));
              });
  }
}

void BridgeServer::work(sim::Context& ctx, sim::Envelope first) {
  sim::RpcClient rpc(ctx);
  sim::Channel<sim::Envelope> inbox(rt_.scheduler(), node_);
  Wire wire{ctx, rpc, inbox};
  sim::Envelope env = std::move(first);
  while (true) {
    serve(wire, env);
    idle_.push_back(&wire);
    env = inbox.recv();
  }
}

void BridgeServer::serve(Wire& wire, const sim::Envelope& env) {
  sim::Context& ctx = wire.ctx;
  ++stats_.requests;
  // Queue wait vs service split (the §5 server-bottleneck question):
  // sent_at -> dispatch is wire latency plus time parked behind earlier
  // requests; the handler's waits for the CPU and for file monitors are
  // queueing too.  The rest, up to the reply, is this server's service.
  sim::SimTime queued = ctx.now() - env.sent_at;
  obs::Tracer& tracer = rt_.tracer();
  if (tracer.enabled()) {
    tracer.complete(node_, ctx.pid(), "bridge.queue", env.sent_at.us(),
                    queued.us(), env.trace);
  }
  wire.waited = sim::SimTime(0);
  sim::SimTime t0 = ctx.now();
  {
    // Adopt the originating request for the handler's duration so every
    // downstream RPC and disk access charges the right ledger row.
    sim::AdoptedRequest adopted(ctx, env.trace.request_id);
    sim::ScopedSpan span(
        ctx, bridge_msg_name(static_cast<BridgeMsg>(env.type)), env.trace);
    handle(wire, env);
  }
  queued += wire.waited;
  sim::SimTime serviced = ctx.now() - t0 - wire.waited;
  queue_us_->record(static_cast<std::uint64_t>(queued.us()));
  service_us_->record(static_cast<std::uint64_t>(serviced.us()));
  rt_.stages().charge(env.trace.request_id, obs::Stage::kBridgeQueue,
                      queued.us());
  rt_.stages().charge(env.trace.request_id, obs::Stage::kBridgeSvc,
                      serviced.us());
}

/// A section takes the directory token and puts it back on exit.  Nothing
/// inside one parks, so sections are atomic by construction; the token is
/// what tells the race detector so: each section happens after the last.
/// A nested section finds no token and leaves the outer one to return it.
class BridgeServer::DirectorySection {
 public:
  explicit DirectorySection(BridgeServer& server)
      : token_(server.directory_token_),
        taken_(token_.try_recv().has_value()) {}
  ~DirectorySection() {
    if (taken_) token_.send(0);
  }
  DirectorySection(const DirectorySection&) = delete;
  DirectorySection& operator=(const DirectorySection&) = delete;

 private:
  sim::Channel<std::uint8_t>& token_;
  bool taken_;
};

void BridgeServer::cpu(Wire& wire, sim::SimTime d) {
  if (d <= sim::SimTime(0)) return;
  sim::Context& ctx = wire.ctx;
  sim::SimTime t0 = ctx.now();
  CpuJob self{&wire, d, cpu_arrivals_++};
  auto shorter = [](const CpuJob* a, const CpuJob* b) {
    return a->remaining != b->remaining ? a->remaining < b->remaining
                                        : a->arrival < b->arrival;
  };
  {
    DirectorySection section(*this);
    BRIDGE_RACE_WRITE(ctx, &cpu_waiting_, 0, "bridge.cpu");
    if (cpu_running_ == nullptr) {
      cpu_running_ = &self;
      cpu_since_ = t0;
    } else {
      cpu_running_->remaining -= t0 - cpu_since_;
      cpu_since_ = t0;
      if (shorter(&self, cpu_running_)) {
        // Preempt: the running job waits with what it has left, woken by
        // an empty envelope as a monitor grant wakes its waiter.
        cpu_waiting_.push_back(cpu_running_);
        cpu_running_->wire->inbox.send(sim::Envelope{});
        cpu_running_ = &self;
        ++stats_.cpu_preemptions;
      } else {
        cpu_waiting_.push_back(&self);
      }
    }
  }
  // Every hand-off and preemption sends exactly one envelope, and this loop
  // takes one per turn until the job is done: none is left for the idle
  // loop to serve as a request.
  while (true) {
    sim::SimTime left{0};
    {
      DirectorySection section(*this);
      BRIDGE_RACE_WRITE(ctx, &cpu_waiting_, 0, "bridge.cpu");
      if (cpu_running_ == &self) {
        left = self.remaining - (ctx.now() - cpu_since_);
        if (left <= sim::SimTime(0)) {
          stats_.cpu_busy_us += static_cast<std::uint64_t>(d.us());
          cpu_running_ = nullptr;
          if (!cpu_waiting_.empty()) {
            auto next = std::min_element(cpu_waiting_.begin(),
                                         cpu_waiting_.end(), shorter);
            cpu_running_ = *next;
            cpu_waiting_.erase(next);
            cpu_since_ = ctx.now();
            cpu_running_->wire->inbox.send(sim::Envelope{});
          }
          break;
        }
      }
    }
    if (left > sim::SimTime(0)) {
      (void)wire.inbox.recv_for(left);  // a preemption, or the charge spent
    } else {
      (void)wire.inbox.recv();  // the hand-off, or a preemption before it
    }
  }
  wire.waited += ctx.now() - t0 - d;
}

void BridgeServer::lock(Wire& wire, const std::string& name, Access access) {
  FileMonitor::Waiter self{&wire, access};
  {
    DirectorySection section(*this);
    FileMonitor& monitor = monitors_[name];
    bool free = monitor.queue.empty() && !monitor.writer &&
                (access == Access::kShared || monitor.readers == 0);
    if (free) {
      if (access == Access::kShared) {
        ++monitor.readers;
      } else {
        monitor.writer = true;
      }
      return;
    }
    monitor.queue.push_back(&self);
  }
  // Parked until unlock() grants the monitor through this worker's inbox.
  sim::SimTime t0 = wire.ctx.now();
  while (!self.granted) {
    (void)wire.inbox.recv();  // a grant carries nothing but its wake-up
  }
  wire.waited += wire.ctx.now() - t0;
}

void BridgeServer::unlock(const std::string& name, Access access) {
  DirectorySection section(*this);
  auto it = monitors_.find(name);
  FileMonitor& monitor = it->second;
  if (access == Access::kShared) {
    --monitor.readers;
  } else {
    monitor.writer = false;
  }
  // Grant the head of the queue: one writer, or every reader up to the next
  // writer.
  while (!monitor.queue.empty()) {
    FileMonitor::Waiter* next = monitor.queue.front();
    bool exclusive = next->access == Access::kExclusive;
    if (monitor.writer || (exclusive && monitor.readers > 0)) break;
    monitor.queue.pop_front();
    if (exclusive) {
      monitor.writer = true;
    } else {
      ++monitor.readers;
    }
    next->granted = true;
    next->wire->inbox.send(sim::Envelope{});
    if (exclusive) break;
  }
  if (monitor.readers == 0 && !monitor.writer && monitor.queue.empty()) {
    monitors_.erase(it);
  }
}

void BridgeServer::Hold::acquire(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  for (auto& name : names) {
    server_.lock(wire_, name, access_);
    names_.push_back(std::move(name));
  }
}

void BridgeServer::Hold::release() {
  for (const auto& name : names_) server_.unlock(name, access_);
  names_.clear();
}

template <typename NameOf>
bool BridgeServer::hold_named(Hold& hold, NameOf name_of) {
  while (true) {
    const std::string* name = name_of();
    if (name == nullptr) return false;
    std::string wanted = *name;
    hold.acquire({wanted});
    name = name_of();
    if (name != nullptr && *name == wanted) return true;
    hold.release();
  }
}

bool BridgeServer::hold_session(Hold& hold, std::uint64_t session) {
  return hold_named(hold, [this, session]() -> const std::string* {
    auto it = sessions_.find(session);
    return it == sessions_.end() ? nullptr : &it->second.name;
  });
}

bool BridgeServer::hold_job(Hold& hold, std::uint64_t job) {
  return hold_named(hold, [this, job]() -> const std::string* {
    auto it = jobs_.find(job);
    return it == jobs_.end() ? nullptr : &it->second.name;
  });
}

bool BridgeServer::hold_id(Hold& hold, BridgeFileId id) {
  return hold_named(hold, [this, id]() -> const std::string* {
    auto it = id_index_.find(id);
    return it == id_index_.end() ? nullptr : &it->second;
  });
}

void BridgeServer::handle(Wire& wire, const sim::Envelope& env) {
  cpu(wire, config_.request_cpu);
  try {
    switch (static_cast<BridgeMsg>(env.type)) {
      case BridgeMsg::kCreate: return handle_create(wire, env);
      case BridgeMsg::kDelete: return handle_delete(wire, env);
      case BridgeMsg::kOpen: return handle_open(wire, env);
      case BridgeMsg::kSeqRead: return handle_seq_read(wire, env);
      case BridgeMsg::kRandomRead: return handle_random_read(wire, env);
      case BridgeMsg::kSeqWrite: return handle_seq_write(wire, env);
      case BridgeMsg::kRandomWrite: return handle_random_write(wire, env);
      case BridgeMsg::kParallelOpen: return handle_parallel_open(wire, env);
      case BridgeMsg::kParallelRead: return handle_parallel_read(wire, env);
      case BridgeMsg::kParallelWrite: return handle_parallel_write(wire, env);
      case BridgeMsg::kGetInfo: return handle_get_info(wire, env);
      case BridgeMsg::kDeleteMany: return handle_delete_many(wire, env);
      case BridgeMsg::kResolve: return handle_resolve(wire, env);
      case BridgeMsg::kSeqReadMany: return handle_seq_read_many(wire, env);
      case BridgeMsg::kSeqWriteMany: return handle_seq_write_many(wire, env);
      case BridgeMsg::kRandomReadMany:
        return handle_random_read_many(wire, env);
      case BridgeMsg::kTruncate: return handle_truncate(wire, env);
      case BridgeMsg::kSeqSeek: return handle_seq_seek(wire, env);
      case BridgeMsg::kRename: return handle_rename(wire, env);
      case BridgeMsg::kList: return handle_list(wire, env);
      case BridgeMsg::kRenameInstall: return handle_rename_install(wire, env);
      case BridgeMsg::kRenameAck: return handle_rename_ack(wire, env);
      default: break;
    }
    if (env.reply_to.valid()) {
      sim::send_reply(wire.ctx, env,
                      util::invalid_argument("unknown Bridge message type"));
    }
  } catch (const util::StatusError& e) {
    // Posted notifications (peer acks) carry no reply address; a decode
    // failure on one has nobody to answer.
    if (env.reply_to.valid()) sim::send_reply(wire.ctx, env, e.status());
  }
}

BridgeServer::FileRecord* BridgeServer::find_by_name(const std::string& name) {
  auto it = directory_.find(name);
  return it == directory_.end() ? nullptr : &it->second;
}

BridgeServer::FileRecord* BridgeServer::find_by_id(BridgeFileId id) {
  auto it = id_index_.find(id);
  return it == id_index_.end() ? nullptr : find_by_name(it->second);
}

FileMeta BridgeServer::meta_of(const FileRecord& record) const {
  FileMeta meta;
  meta.id = record.id;
  meta.name = record.name;
  meta.distribution = static_cast<std::uint8_t>(record.placement.distribution());
  meta.width = record.placement.width();
  meta.start_lfs = record.placement.start_lfs();
  meta.chunk_blocks = record.placement.chunk_blocks();
  meta.size_blocks = record.placement.size_blocks();
  meta.lfs_file_id = record.lfs_file_id;
  return meta;
}

void BridgeServer::handle_create(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = CreateFileRequest::decode(r);
  if (req.name.empty()) {
    return sim::send_reply(wire.ctx, env, util::invalid_argument("empty name"));
  }
  Hold hold(*this, wire, Access::kExclusive);
  hold.acquire({req.name});
  if (find_by_name(req.name) != nullptr) {
    return sim::send_reply(wire.ctx, env,
                           util::already_exists("file " + req.name));
  }
  if (pending_from_.count(req.name) != 0) {
    // The name is detached by an in-flight outbound rename; creating it now
    // would collide with the reinstated record if the peer aborts.
    return sim::send_reply(
        wire.ctx, env,
        util::unavailable("file " + req.name + " has a rename in flight"));
  }
  if (file_id_home(next_file_id_) != home_) {
    return sim::send_reply(
        wire.ctx, env,
        util::out_of_space("bridge file-id slice exhausted on home " +
                           std::to_string(home_)));
  }
  std::uint32_t p = num_lfs();
  std::uint32_t width = (req.width == 0 || req.width > p) ? p : req.width;
  bool tree = (req.distribution & kCreateTreeBit) != 0;
  auto dist_bits =
      static_cast<std::uint8_t>(req.distribution & ~kCreateTreeBit);
  if (dist_bits > static_cast<std::uint8_t>(Distribution::kLinked)) {
    return sim::send_reply(
        wire.ctx, env,
        util::invalid_argument("unknown distribution " +
                               std::to_string(dist_bits)));
  }
  auto dist = static_cast<Distribution>(dist_bits);
  if (dist == Distribution::kChunked && req.chunk_blocks == 0) {
    return sim::send_reply(
        wire.ctx, env,
        util::invalid_argument("chunked file needs chunk_blocks"));
  }

  FileRecord record;
  record.id = next_file_id_++;
  record.name = req.name;
  record.lfs_file_id = record.id;
  record.placement = PlacementMap(dist, width, req.start_lfs, p,
                                  req.chunk_blocks, req.hash_seed);

  cpu(wire, config_.create_base_cpu);
  // "The Create operation must create an LFS file on each disk.  Bridge gets
  // some parallelism by starting all the LFS operations before waiting for
  // them, but the initiation and termination are sequential" (§4.5).  Each
  // disk here is one the file spans: a width-w file costs 145 + 17.5w ms,
  // the paper's 145 + 17.5p for the width-p files it measured.
  //
  // Every reply is waited for, even after an error, so none is left behind
  // in the server's reply stash.
  efs::CreateRequest lfs_req{record.lfs_file_id};
  auto payload = util::encode_to_bytes(lfs_req);
  auto span = record.placement.span();
  // A tree Create (kCreateTreeBit) fans out through an embedded binary tree:
  // dispatch and reply cost one charge per tree level rather than one per
  // node.
  auto levels = static_cast<std::int64_t>(
      std::ceil(std::log2(double(span.size()) + 1.0)));
  if (tree) cpu(wire, config_.create_dispatch_cpu * levels);
  std::vector<std::uint64_t> pending;
  pending.reserve(span.size());
  for (auto lfs : span) {
    if (!tree) cpu(wire, config_.create_dispatch_cpu);
    pending.push_back(wire.rpc.call_async(
        lfs_services_[lfs], static_cast<std::uint32_t>(efs::MsgType::kCreate),
        payload));
  }
  util::Status first_error = util::ok_status();
  for (auto corr : pending) {
    auto reply = wire.rpc.wait_reply(corr);
    if (!reply.is_ok() && first_error.is_ok()) first_error = reply.status();
    if (!tree) cpu(wire, config_.create_reply_cpu);
  }
  if (tree) cpu(wire, config_.create_reply_cpu * levels);
  if (!first_error.is_ok()) return sim::send_reply(wire.ctx, env, first_error);

  CreateFileResponse resp{record.id};
  {
    DirectorySection section(*this);
    BRIDGE_RACE_WRITE(wire.ctx, &directory_, 0, "bridge.directory");
    id_index_[record.id] = record.name;
    directory_[record.name] = std::move(record);
  }
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_delete(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = DeleteFileRequest::decode(r);
  sim::send_reply(wire.ctx, env, delete_files(wire, {&req.name, 1}));
}

void BridgeServer::handle_delete_many(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = DeleteManyRequest::decode(r);
  sim::send_reply(wire.ctx, env, delete_files(wire, req.names));
}

util::Status BridgeServer::delete_files(Wire& wire,
                                        std::span<const std::string> names) {
  Hold hold(*this, wire, Access::kExclusive);
  hold.acquire(std::vector<std::string>(names.begin(), names.end()));
  // A name listed twice is deleted once.
  std::vector<const FileRecord*> records;
  std::unordered_set<BridgeFileId> listed;
  records.reserve(names.size());
  for (const auto& name : names) {
    const FileRecord* record = find_by_name(name);
    if (record == nullptr) return util::not_found("file " + name);
    if (listed.insert(record->id).second) records.push_back(record);
  }
  // "The Delete operation runs in parallel on all instances of the LFS"
  // (§4.5): dispatch to every LFS each file spans, for EVERY file before
  // waiting for any, so the per-LFS work of different files overlaps (each
  // LFS serves its queue back to back instead of idling between sequential
  // Delete commands).
  sim::AsyncBatch batch(wire.rpc);
  for (const FileRecord* record : records) {
    for (auto i : record->placement.span()) {
      lfs(wire, i).remove(batch, record->lfs_file_id);
    }
  }
  if (auto st = batch.wait_all_ok(); !st.is_ok()) return st;
  DirectorySection section(*this);
  BRIDGE_RACE_WRITE(wire.ctx, &directory_, 0, "bridge.directory");
  for (const auto& name : names) {
    FileRecord* record = find_by_name(name);
    if (record != nullptr) {
      id_index_.erase(record->id);
      directory_.erase(name);
    }
  }
  // Sessions and parallel jobs name their file, so a later file of the same
  // name must not inherit them: they go with the file.
  for (const auto& name : names) drop_handles(name);
  return util::ok_status();
}

void BridgeServer::drop_handles(const std::string& name) {
  auto it = handles_.find(name);
  if (it == handles_.end()) return;
  for (auto sid : it->second.sessions) sessions_.erase(sid);
  for (auto jid : it->second.jobs) jobs_.erase(jid);
  handles_.erase(it);
}

util::Status BridgeServer::refresh_size(Wire& wire, FileRecord& record) {
  // Tools append to LFS files directly, so the authoritative size is the sum
  // of the constituent sizes ("initial reads of file header and directory
  // information" are part of what Open pays for, §4.5).
  std::uint64_t total = 0;
  sim::AsyncBatch batch(wire.rpc);
  for (auto i : record.placement.span()) {
    lfs(wire, i).info(batch, record.lfs_file_id,
                      [&total](util::Result<efs::InfoResponse> info) {
                        if (!info.is_ok()) return info.status();
                        total += info.value().size_blocks;
                        return util::ok_status();
                      });
  }
  if (auto st = batch.wait_all_ok(); !st.is_ok()) return st;
  BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor, record.lfs_file_id,
                    "bridge.placement");
  record.placement.set_size_closed_form(total);
  return util::ok_status();
}

void BridgeServer::handle_open(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = OpenRequest::decode(r);
  Hold hold(*this, wire, Access::kExclusive);
  hold.acquire({req.name});
  FileRecord* record = nullptr;
  {
    DirectorySection section(*this);
    BRIDGE_RACE_READ(wire.ctx, &directory_, 0, "bridge.directory");
    record = find_by_name(req.name);
  }
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("file " + req.name));
  }
  cpu(wire, config_.open_cpu);
  if (auto st = refresh_size(wire, *record); !st.is_ok()) {
    return sim::send_reply(wire.ctx, env, st);
  }
  Session session;
  session.name = record->name;
  session.read_cursor = 0;
  session.write_cursor = record->placement.size_blocks();
  std::uint64_t session_id = next_session_++;
  {
    DirectorySection section(*this);
    handles_[session.name].sessions.push_back(session_id);
    sessions_[session_id] = session;
  }

  OpenResponse resp;
  resp.meta = meta_of(*record);
  resp.session = session_id;
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

util::Result<std::vector<std::vector<std::byte>>> BridgeServer::read_run(
    Wire& wire, FileRecord& record, std::uint64_t first, std::uint32_t count) {
  BRIDGE_RACE_READ(wire.ctx, &kPlacementRaceAnchor, record.lfs_file_id,
                   "bridge.placement");
  // Place the whole run before any I/O so a bad range costs nothing.
  struct LfsGroup {
    std::vector<std::uint32_t> run_pos;       ///< index within the run
    std::vector<std::uint32_t> local_blocks;  ///< same order as run_pos
  };
  std::vector<LfsGroup> groups(num_lfs());
  for (std::uint32_t i = 0; i < count; ++i) {
    auto placed = record.placement.place(first + i);
    if (!placed.is_ok()) return placed.status();
    auto& group = groups[placed.value().lfs_index];
    group.run_pos.push_back(i);
    group.local_blocks.push_back(placed.value().local_block);
  }

  // Fan one vectored request out per involved LFS, all in flight at once
  // (a single-block group is a run of one).  Replies arrive in any order;
  // each group's completion checks and places its blocks once all are in.
  std::vector<std::vector<std::byte>> out(count);
  sim::AsyncBatch batch(wire.rpc);
  for (std::uint32_t i = 0; i < groups.size(); ++i) {
    if (groups[i].local_blocks.empty()) continue;
    auto gather = [&, i](util::Result<efs::EfsClient::Blocks> payloads) {
      const auto& group = groups[i];
      if (!payloads.is_ok()) return payloads.status();
      if (payloads.value().size() != group.run_pos.size()) {
        return util::corrupt("LFS returned a short vectored read");
      }
      util::Status first_error = util::ok_status();
      for (std::size_t j = 0; j < payloads.value().size(); ++j) {
        std::uint64_t n = first + group.run_pos[j];
        auto unwrapped =
            unwrap_block(payloads.value()[j], record.lfs_file_id, n);
        if (!unwrapped.is_ok()) {
          if (first_error.is_ok()) first_error = unwrapped.status();
          continue;
        }
        cpu(wire, config_.forward_cpu);
        ++stats_.blocks_forwarded;
        out[group.run_pos[j]] = std::move(unwrapped.value().user_data);
      }
      return first_error;
    };
    lfs(wire, i).read_many(batch, record.lfs_file_id,
                           std::move(groups[i].local_blocks), gather);
  }
  if (count > 1) {
    ++stats_.vectored_batches;
    stats_.vectored_blocks += count;
  }
  if (auto st = batch.wait_all_ok(); !st.is_ok()) return st;
  return out;
}

util::Status BridgeServer::write_run(
    Wire& wire, FileRecord& record, std::uint64_t first,
    std::span<const std::vector<std::byte>> user_blocks) {
  BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor, record.lfs_file_id,
                    "bridge.placement");
  std::uint64_t original_size = record.placement.size_blocks();
  auto rollback = [&] {
    if (record.placement.size_blocks() > original_size) {
      record.placement.truncate(original_size);
    }
  };

  // Stage 1: assign a placement to every block of the run (overwrites via
  // place, appends via append / linked scatter), wrapping payloads as we go.
  // Any failure here rolls the size bookkeeping straight back.
  struct LfsGroup {
    std::vector<efs::BlockWrite> writes;  ///< (local block, wrapped payload)
    std::uint32_t appends = 0;  ///< blocks of this group that grow the file
    std::uint32_t pre_run_local = 0;  ///< constituent length before the run
    bool landed = false;  ///< its scatter write succeeded
  };
  std::vector<LfsGroup> groups(num_lfs());
  BlockOwner owner{record.lfs_file_id, record.placement.width(),
                   record.placement.start_lfs()};
  for (std::size_t i = 0; i < user_blocks.size(); ++i) {
    std::uint64_t n = first + i;
    std::uint64_t size = record.placement.size_blocks();
    bool is_append = n >= size;
    util::Result<Placement> placed(util::internal_error("unset"));
    if (n < size) {
      placed = record.placement.place(n);
    } else if (record.placement.distribution() == Distribution::kLinked) {
      // Linked "disordered" files (§3): blocks scatter arbitrarily; the
      // directory records each placement explicitly.
      std::uint32_t p = num_lfs();
      std::uint32_t lfs = static_cast<std::uint32_t>(
          util::mix64(record.placement.hash_seed() ^ (n * 0x9E3779B9ull)) % p);
      Placement scatter{lfs, record.placement.next_local(lfs)};
      if (auto st = record.placement.append_linked(scatter); !st.is_ok()) {
        rollback();
        return st;
      }
      placed = scatter;
    } else {
      placed = record.placement.append();
    }
    if (!placed.is_ok()) {
      rollback();
      return placed.status();
    }

    auto wrapped = wrap_block(owner, n, user_blocks[i]);
    if (!wrapped.is_ok()) {
      rollback();
      return wrapped.status();
    }
    auto& group = groups[placed.value().lfs_index];
    group.writes.push_back(
        {placed.value().local_block, std::move(wrapped).value()});
    if (is_append && group.appends++ == 0) {
      group.pre_run_local = placed.value().local_block;
    }
  }

  // Preflight: when an appending run spans several LFSs, one LFS could run
  // out of space after its peers already committed, and the run would have
  // to be unwound.  One concurrent Info round checks every appending
  // group's free count before anything is written.  Other files' appending
  // runs may be in flight on the same LFSs: each run that passes reserves
  // its appends in lfs_reserved_ until its writes are answered, and a
  // preflight counts those blocks as used (conservatively: a run's blocks
  // may be both written and still reserved for a moment).  Single-LFS runs
  // skip this: the LFS itself preflights kWriteMany, and a single-block
  // write either happens whole or not at all.
  std::uint32_t involved = 0;
  bool grows = false;
  for (const auto& group : groups) {
    if (!group.writes.empty()) ++involved;
    if (group.appends > 0) grows = true;
  }
  bool reserves = grows && involved >= 2;
  if (reserves) {
    sim::AsyncBatch preflight(wire.rpc);
    for (std::uint32_t i = 0; i < groups.size(); ++i) {
      if (groups[i].appends == 0) continue;
      auto check = [this, &groups, i](util::Result<efs::InfoResponse> info) {
        if (!info.is_ok()) return info.status();
        if (info.value().free_blocks <
            groups[i].appends + lfs_reserved_[i]) {
          return util::out_of_space("LFS " + std::to_string(i) +
                                    " cannot hold this run's appends");
        }
        return util::ok_status();
      };
      lfs(wire, i).info(preflight, record.lfs_file_id, check);
    }
    if (auto st = preflight.wait_all_ok(); !st.is_ok()) {
      rollback();
      return st;
    }
    for (std::uint32_t i = 0; i < groups.size(); ++i) {
      lfs_reserved_[i] += groups[i].appends;
    }
  }

  // Stage 2: scatter — one concurrent vectored request per involved LFS
  // (the LFS preflights runs of two or more so an out-of-space run fails
  // without leaving a partial tail behind).
  sim::AsyncBatch batch(wire.rpc);
  for (std::uint32_t i = 0; i < groups.size(); ++i) {
    if (groups[i].writes.empty()) continue;
    auto land = [&groups, i](util::Status st) {
      groups[i].landed = st.is_ok();
      return st;
    };
    lfs(wire, i).write_many(batch, record.lfs_file_id,
                            std::move(groups[i].writes), land);
  }
  if (user_blocks.size() > 1) {
    ++stats_.vectored_batches;
    stats_.vectored_blocks += user_blocks.size();
  }
  util::Status status = batch.wait_all_ok();
  if (reserves) {
    for (std::uint32_t i = 0; i < groups.size(); ++i) {
      lfs_reserved_[i] -= groups[i].appends;
    }
  }

  // One failed LFS (e.g. a dead disk) fails the run whole.  Its peers may
  // have committed their appends already: truncate each back to its pre-run
  // length, the way MirroredFile rolls back torn appends, or the next Open's
  // refresh_size would count them.
  if (!status.is_ok()) {
    sim::AsyncBatch undo(wire.rpc);
    for (std::uint32_t i = 0; i < groups.size(); ++i) {
      if (!groups[i].landed || groups[i].appends == 0) continue;
      lfs(wire, i).truncate(undo, record.lfs_file_id, groups[i].pre_run_local);
    }
    for (auto& undone : undo.wait_all()) {
      if (undone.is_ok()) continue;
      util::LogMessage(util::LogLevel::kError, "bridge")
          << "write_run: rollback truncate failed; a constituent may keep "
          << "blocks the directory does not count: "
          << undone.status().to_string();
    }
    rollback();
    return status;
  }
  cpu(wire, config_.forward_cpu *
                 static_cast<std::int64_t>(user_blocks.size()));
  stats_.blocks_forwarded += user_blocks.size();
  return util::ok_status();
}

util::Result<BridgeServer::SessionFile> BridgeServer::session_file(
    std::uint64_t session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return util::not_found("no such session");
  FileRecord* record = find_by_name(it->second.name);
  if (record == nullptr) {
    return util::not_found("file deleted: " + it->second.name);
  }
  return SessionFile{&it->second, record};
}

util::Result<SeqReadManyResponse> BridgeServer::seq_read(
    Wire& wire, std::uint64_t session, std::uint32_t max_blocks) {
  Hold hold(*this, wire, Access::kExclusive);
  if (!hold_session(hold, session)) return util::not_found("no such session");
  auto open = session_file(session);
  if (!open.is_ok()) return open.status();
  if (max_blocks == 0) return util::invalid_argument("empty read run");
  auto [s, record] = open.value();
  SeqReadManyResponse resp;
  resp.first_block_no = s->read_cursor;
  std::uint64_t size = record->placement.size_blocks();
  if (s->read_cursor >= size) {
    resp.eof = true;
    return resp;
  }
  auto count = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      std::min(max_blocks, kMaxRunBlocks), size - s->read_cursor));
  auto run = read_run(wire, *record, s->read_cursor, count);
  // On any failure the cursor is untouched: the client can fall back to
  // single-block reads from exactly where it stood.
  if (!run.is_ok()) return run.status();
  resp.blocks = std::move(run).value();
  s->read_cursor += count;
  resp.eof = s->read_cursor >= size;
  return resp;
}

util::Result<std::uint64_t> BridgeServer::seq_write(
    Wire& wire, std::uint64_t session,
    std::span<const std::vector<std::byte>> blocks) {
  Hold hold(*this, wire, Access::kExclusive);
  if (!hold_session(hold, session)) return util::not_found("no such session");
  auto open = session_file(session);
  if (!open.is_ok()) return open.status();
  if (blocks.empty() || blocks.size() > kMaxRunBlocks) {
    return util::invalid_argument("write run must move 1..256 blocks");
  }
  Session& s = *open.value().session;
  std::uint64_t first = s.write_cursor;
  // write_run rolls the file size back on failure; the cursor stays put too.
  if (auto st = write_run(wire, *open.value().record, first, blocks);
      !st.is_ok()) {
    return st;
  }
  s.write_cursor += blocks.size();
  return first;
}

util::Result<std::vector<std::vector<std::byte>>> BridgeServer::random_read(
    Wire& wire, BridgeFileId id, std::uint64_t first, std::uint32_t count) {
  Hold hold(*this, wire, Access::kShared);
  if (!hold_id(hold, id)) return util::not_found("no such file id");
  FileRecord* record = find_by_id(id);
  if (record == nullptr) return util::not_found("no such file id");
  if (count == 0 || count > kMaxRunBlocks) {
    return util::invalid_argument("read run must move 1..256 blocks");
  }
  return read_run(wire, *record, first, count);
}

void BridgeServer::handle_seq_read(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = SeqReadRequest::decode(r);
  auto run = seq_read(wire, req.session, 1);
  if (!run.is_ok()) return sim::send_reply(wire.ctx, env, run.status());
  SeqReadResponse resp;
  resp.eof = run.value().blocks.empty();
  resp.block_no = run.value().first_block_no;
  if (!resp.eof) resp.data = std::move(run.value().blocks[0]);
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_seq_read_many(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = SeqReadManyRequest::decode(r);
  auto run = seq_read(wire, req.session, req.max_blocks);
  if (!run.is_ok()) return sim::send_reply(wire.ctx, env, run.status());
  sim::send_reply(wire.ctx, env, util::ok_status(),
                  util::encode_to_bytes(run.value()));
}

void BridgeServer::handle_seq_write(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = SeqWriteRequest::decode(r);
  std::vector<std::vector<std::byte>> one;
  one.push_back(std::move(req.data));
  auto first = seq_write(wire, req.session, one);
  if (!first.is_ok()) return sim::send_reply(wire.ctx, env, first.status());
  SeqWriteResponse resp{first.value()};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_seq_write_many(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = SeqWriteManyRequest::decode(r);
  auto first = seq_write(wire, req.session, req.blocks);
  if (!first.is_ok()) return sim::send_reply(wire.ctx, env, first.status());
  SeqWriteManyResponse resp{first.value(),
                            static_cast<std::uint32_t>(req.blocks.size())};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_random_read(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = RandomReadRequest::decode(r);
  auto run = random_read(wire, req.id, req.block_no, 1);
  if (!run.is_ok()) return sim::send_reply(wire.ctx, env, run.status());
  RandomReadResponse resp{std::move(run.value()[0])};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_random_read_many(Wire& wire,
                                           const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = RandomReadManyRequest::decode(r);
  auto run = random_read(wire, req.id, req.first_block, req.count);
  if (!run.is_ok()) return sim::send_reply(wire.ctx, env, run.status());
  RandomReadManyResponse resp{std::move(run).value()};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_random_write(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = RandomWriteRequest::decode(r);
  Hold hold(*this, wire, Access::kExclusive);
  FileRecord* record = hold_id(hold, req.id) ? find_by_id(req.id) : nullptr;
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("no such file id"));
  }
  if (req.block_no > record->placement.size_blocks()) {
    return sim::send_reply(wire.ctx, env,
                           util::invalid_argument("write would leave a gap"));
  }
  std::vector<std::vector<std::byte>> one;
  one.push_back(std::move(req.data));
  sim::send_reply(wire.ctx, env, write_run(wire, *record, req.block_no, one));
}

void BridgeServer::handle_seq_seek(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = SeqSeekRequest::decode(r);
  Hold hold(*this, wire, Access::kExclusive);
  if (!hold_session(hold, req.session)) {
    return sim::send_reply(wire.ctx, env, util::not_found("no such session"));
  }
  auto open = session_file(req.session);
  if (!open.is_ok()) return sim::send_reply(wire.ctx, env, open.status());
  auto [s, record] = open.value();
  // Clamp instead of failing: seeking to (or past) EOF is how a reader
  // positions for "read returns eof", mirroring lseek semantics.
  s->read_cursor =
      std::min<std::uint64_t>(req.block_no, record->placement.size_blocks());
  SeqSeekResponse resp{s->read_cursor};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_truncate(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = TruncateFileRequest::decode(r);
  Hold hold(*this, wire, Access::kExclusive);
  FileRecord* record = hold_id(hold, req.id) ? find_by_id(req.id) : nullptr;
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("no such file id"));
  }
  // Replica constituents have coupled sizes maintained by their access
  // methods (MirroredFile / ParityFile roll partial appends back with their
  // own truncates); shrinking one out from under them would tear every
  // mirror pair or stripe behind the new tail.  Reject with a clean error.
  const std::string& name = record->name;
  if (name.ends_with("!mirror") || name.ends_with("!parity") ||
      directory_.count(name + "!mirror") != 0 ||
      directory_.count(name + "!parity") != 0) {
    return sim::send_reply(
        wire.ctx, env,
        util::invalid_argument("truncate: " + name +
                               " belongs to a mirrored/parity group; shrink "
                               "it through its access method"));
  }
  std::uint64_t size = record->placement.size_blocks();
  if (req.new_size_blocks > size) {
    return sim::send_reply(
        wire.ctx, env,
        util::invalid_argument("truncate cannot grow a file"));
  }
  TruncateFileResponse resp{req.new_size_blocks};
  if (req.new_size_blocks == size) {
    return sim::send_reply(wire.ctx, env, util::ok_status(),
                           util::encode_to_bytes(resp));
  }

  // How many tail blocks each constituent loses.  O(blocks removed):
  // place() is closed-form or a table lookup.
  std::vector<std::uint64_t> removed(num_lfs(), 0);
  for (std::uint64_t n = req.new_size_blocks; n < size; ++n) {
    auto placed = record->placement.place(n);
    if (!placed.is_ok()) return sim::send_reply(wire.ctx, env, placed.status());
    ++removed[placed.value().lfs_index];
  }

  // Current constituent sizes, gathered from the involved LFSs in one
  // concurrent round (tools may have appended past our record).
  std::vector<std::uint32_t> new_local(num_lfs(), 0);
  sim::AsyncBatch info_batch(wire.rpc);
  for (std::uint32_t i = 0; i < num_lfs(); ++i) {
    if (removed[i] == 0) continue;
    auto shrink = [&removed, &new_local,
                   i](util::Result<efs::InfoResponse> info) {
      if (!info.is_ok()) return info.status();
      if (info.value().size_blocks < removed[i]) {
        return util::corrupt("constituent on LFS " + std::to_string(i) +
                             " shorter than the tail being truncated");
      }
      new_local[i] =
          info.value().size_blocks - static_cast<std::uint32_t>(removed[i]);
      return util::ok_status();
    };
    lfs(wire, i).info(info_batch, record->lfs_file_id, shrink);
  }
  if (auto st = info_batch.wait_all_ok(); !st.is_ok()) {
    return sim::send_reply(wire.ctx, env, st);
  }

  // Fan the constituent truncates out concurrently.  EFS kTruncate to a
  // smaller-or-equal size is idempotent, so a partial failure (some
  // constituents shrunk, others not) is repaired by retrying this op:
  // already-shrunk constituents see a no-op.
  sim::AsyncBatch batch(wire.rpc);
  for (std::uint32_t i = 0; i < num_lfs(); ++i) {
    if (removed[i] == 0) continue;
    lfs(wire, i).truncate(batch, record->lfs_file_id, new_local[i]);
  }
  if (auto st = batch.wait_all_ok(); !st.is_ok()) {
    return sim::send_reply(wire.ctx, env, st);
  }

  // Commit: directory bookkeeping and session cursors — write_run appends
  // at the file size, so a cursor past the new end must be pulled back or
  // the next sequential write would land far beyond EOF.
  BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor, record->lfs_file_id,
                    "bridge.placement");
  record->placement.truncate(req.new_size_blocks);
  DirectorySection section(*this);
  if (auto it = handles_.find(record->name); it != handles_.end()) {
    for (auto sid : it->second.sessions) {
      Session& session = sessions_.at(sid);
      session.read_cursor = std::min(session.read_cursor, req.new_size_blocks);
      session.write_cursor =
          std::min(session.write_cursor, req.new_size_blocks);
    }
  }
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_parallel_open(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = ParallelOpenRequest::decode(r);
  Hold hold(*this, wire, Access::kShared);
  if (!hold_session(hold, req.session)) {
    return sim::send_reply(wire.ctx, env, util::not_found("no such session"));
  }
  if (req.workers.empty()) {
    return sim::send_reply(wire.ctx, env,
                           util::invalid_argument("parallel open needs workers"));
  }
  Job job;
  job.name = sessions_.at(req.session).name;
  job.workers = req.workers;
  job.cursor = 0;
  std::uint64_t job_id = next_job_++;
  {
    DirectorySection section(*this);
    handles_[job.name].jobs.push_back(job_id);
    jobs_[job_id] = std::move(job);
  }
  ParallelOpenResponse resp{job_id};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_parallel_read(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = ParallelReadRequest::decode(r);
  Hold hold(*this, wire, Access::kExclusive);
  if (!hold_job(hold, req.job)) {
    return sim::send_reply(wire.ctx, env, util::not_found("no such job"));
  }
  Job& job = jobs_.at(req.job);
  FileRecord* record = find_by_name(job.name);
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("file deleted"));
  }
  BRIDGE_RACE_READ(wire.ctx, &kPlacementRaceAnchor, record->lfs_file_id,
                   "bridge.placement");
  std::uint64_t size = record->placement.size_blocks();
  std::uint32_t t = static_cast<std::uint32_t>(job.workers.size());
  std::uint32_t p = num_lfs();
  std::uint32_t delivered = 0;

  // "If the width of a parallel open is greater than p, the server will
  // perform groups of p disk accesses in parallel until the high-level
  // request is satisfied" (§4.1).  Each group is one read_run; its blocks
  // go to the workers only once the whole round has checked out.
  while (delivered < t && job.cursor < size) {
    std::uint32_t round =
        std::min<std::uint32_t>(std::min<std::uint64_t>(t - delivered, p),
                                size - job.cursor);
    ++stats_.parallel_rounds;
    auto blocks = read_run(wire, *record, job.cursor, round);
    if (!blocks.is_ok()) return sim::send_reply(wire.ctx, env, blocks.status());
    for (std::uint32_t i = 0; i < round; ++i) {
      post_worker_data(wire.ctx, job.workers[delivered + i],
                       WorkerData{false, job.cursor + i,
                                  std::move(blocks.value()[i])});
    }
    delivered += round;
    job.cursor += round;
  }

  bool eof = job.cursor >= size;
  if (eof) {
    // Lock-step: every worker gets an EOF marker once the file is exhausted
    // (ordered after any data it just received) so receive loops terminate.
    for (const auto& worker : job.workers) {
      post_worker_data(wire.ctx, worker, WorkerData{true, 0, {}});
    }
  }
  ParallelReadResponse resp{delivered, eof};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_parallel_write(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = ParallelWriteRequest::decode(r);
  Hold hold(*this, wire, Access::kExclusive);
  if (!hold_job(hold, req.job)) {
    return sim::send_reply(wire.ctx, env, util::not_found("no such job"));
  }
  Job& job = jobs_.at(req.job);
  FileRecord* record = find_by_name(job.name);
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("file deleted"));
  }
  BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor, record->lfs_file_id,
                    "bridge.placement");
  std::uint32_t t = static_cast<std::uint32_t>(job.workers.size());
  std::uint32_t p = num_lfs();
  std::uint32_t written = 0;

  std::uint32_t next_worker = 0;
  while (next_worker < t && !job.writers_drained) {
    std::uint32_t round = std::min(t - next_worker, p);
    ++stats_.parallel_rounds;
    // Solicit one block from each worker in this round, all at once.
    std::uint64_t first = record->placement.size_blocks();
    sim::AsyncBatch solicitations(wire.rpc);
    for (std::uint32_t i = 0; i < round; ++i) {
      solicitations.call(job.workers[next_worker + i],
                         msg(BridgeMsg::kWorkerGive),
                         util::encode_to_bytes(WorkerGiveRequest{first + i}));
    }
    // Keep the gap-free prefix: stop at the first drained worker.  Every
    // reply has been drained by now, including the ones past the stop.
    std::vector<std::vector<std::byte>> blocks;
    for (auto& reply : solicitations.wait_all()) {
      if (!reply.is_ok()) return sim::send_reply(wire.ctx, env, reply.status());
      auto give = util::decode_from_bytes<WorkerGiveResponse>(reply.value());
      if (!give.has_data) {
        job.writers_drained = true;
        break;
      }
      blocks.push_back(std::move(give.data));
    }
    if (blocks.empty()) break;
    // The round commits whole or not at all: write_run rolls the file size
    // back if any LFS fails.
    if (auto st = write_run(wire, *record, first, blocks); !st.is_ok()) {
      return sim::send_reply(wire.ctx, env, st);
    }
    written += static_cast<std::uint32_t>(blocks.size());
    next_worker += round;
  }
  ParallelWriteResponse resp{written};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_resolve(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = ResolveRequest::decode(r);
  Hold hold(*this, wire, Access::kShared);
  FileRecord* record = hold_id(hold, req.id) ? find_by_id(req.id) : nullptr;
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("no such file id"));
  }
  BRIDGE_RACE_READ(wire.ctx, &kPlacementRaceAnchor, record->lfs_file_id,
                   "bridge.placement");
  // No reserve(req.count): the count is wire-supplied, and the loop stops
  // at the first block past EOF.
  ResolveResponse resp;
  for (std::uint32_t i = 0; i < req.count; ++i) {
    auto placed = record->placement.place(req.first_block + i);
    if (!placed.is_ok()) return sim::send_reply(wire.ctx, env, placed.status());
    resp.placements.push_back(placed.value());
  }
  // Directory lookups are in-memory table reads: cheap per entry.
  cpu(wire, sim::usec(2) * static_cast<std::int64_t>(req.count));
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_rename(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = RenameRequest::decode(r);
  if (req.to.empty()) {
    return sim::send_reply(wire.ctx, env,
                           util::invalid_argument("empty target name"));
  }
  Hold hold(*this, wire, Access::kExclusive);
  hold.acquire({req.from, req.to});
  DirectorySection section(*this);
  BRIDGE_RACE_READ(wire.ctx, &directory_, 0, "bridge.directory");
  FileRecord* record = find_by_name(req.from);
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("file " + req.from));
  }
  if (req.to == req.from) {
    RenameResponse resp{record->id};
    return sim::send_reply(wire.ctx, env, util::ok_status(),
                           util::encode_to_bytes(resp));
  }
  // Replica constituents are paired by name convention; renaming one out of
  // its group would orphan the sibling.  Same guard as truncate.
  if (req.from.ends_with("!mirror") || req.from.ends_with("!parity") ||
      directory_.count(req.from + "!mirror") != 0 ||
      directory_.count(req.from + "!parity") != 0) {
    return sim::send_reply(
        wire.ctx, env,
        util::invalid_argument("rename: " + req.from +
                               " belongs to a mirrored/parity group"));
  }
  std::uint32_t dst =
      peers_.empty() ? home_ : directory_home(req.to, peers_.size());
  if (dst == home_) {
    if (find_by_name(req.to) != nullptr || pending_from_.count(req.to) != 0) {
      return sim::send_reply(wire.ctx, env,
                             util::already_exists("file " + req.to));
    }
    BRIDGE_RACE_WRITE(wire.ctx, &directory_, 0, "bridge.directory");
    FileRecord moved = std::move(*record);
    directory_.erase(req.from);
    moved.name = req.to;
    id_index_[moved.id] = req.to;
    BridgeFileId id = moved.id;
    directory_[req.to] = std::move(moved);
    // Open sessions and parallel jobs follow the file to its new name.
    if (auto it = handles_.find(req.from); it != handles_.end()) {
      OpenHandles moved_handles = std::move(it->second);
      handles_.erase(it);
      for (auto sid : moved_handles.sessions) sessions_.at(sid).name = req.to;
      for (auto jid : moved_handles.jobs) jobs_.at(jid).name = req.to;
      handles_[req.to] = std::move(moved_handles);
    }
    ++stats_.renames_local;
    RenameResponse resp{id};
    return sim::send_reply(wire.ctx, env, util::ok_status(),
                           util::encode_to_bytes(resp));
  }

  // Cross-server: PVFS-style prepare/commit.  Prepare DETACHES the record
  // from this directory — from here on exactly one server holds a mutable
  // copy of the placement — and parks the client reply in pending_renames_.
  // The handler returns, monitors released, while the peer installs, so
  // opposing concurrent renames (A->B on s1, B->A on s2) cannot deadlock.
  BRIDGE_RACE_WRITE(wire.ctx, &directory_, 0, "bridge.directory");
  BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor, record->lfs_file_id,
                    "bridge.placement");
  PendingRename pending;
  pending.client_env = env;
  pending.record = std::move(*record);
  pending.from = req.from;
  pending.to = req.to;
  pending.parked_at = wire.ctx.now();
  id_index_.erase(pending.record.id);
  directory_.erase(req.from);
  pending_from_.insert(req.from);

  std::uint64_t seq = next_rename_seq_++;
  RenameInstallRequest install;
  install.seq = seq;
  install.to = req.to;
  install.lfs_file_id = pending.record.lfs_file_id;
  install.placement = pending.record.placement;
  sim::Envelope note;
  note.type = msg(BridgeMsg::kRenameInstall);
  note.reply_to = mailbox_->address();  // acks return through the dispatcher
  note.payload = util::encode_to_bytes(install);
  sim::post(wire.ctx, peers_[dst], std::move(note));
  pending_renames_[seq] = std::move(pending);
  ++stats_.renames_out;
  // No reply yet: handle_rename_ack answers the client on commit or abort.
}

void BridgeServer::handle_rename_install(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = RenameInstallRequest::decode(r);
  RenameAck ack;
  ack.seq = req.seq;
  Hold hold(*this, wire, Access::kExclusive);
  hold.acquire({req.to});
  DirectorySection section(*this);
  BRIDGE_RACE_READ(wire.ctx, &directory_, 0, "bridge.directory");
  if (find_by_name(req.to) != nullptr || pending_from_.count(req.to) != 0) {
    ack.code = static_cast<std::uint8_t>(util::ErrorCode::kAlreadyExists);
    ack.error = "file " + req.to;
  } else if (file_id_home(next_file_id_) != home_) {
    ack.code = static_cast<std::uint8_t>(util::ErrorCode::kOutOfSpace);
    ack.error = "bridge file-id slice exhausted on home " +
                std::to_string(home_);
  } else {
    BRIDGE_RACE_WRITE(wire.ctx, &directory_, 0, "bridge.directory");
    BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor, req.lfs_file_id,
                      "bridge.placement");
    FileRecord record;
    record.id = next_file_id_++;
    record.name = req.to;
    record.lfs_file_id = req.lfs_file_id;
    record.placement = std::move(req.placement);
    ack.new_id = record.id;
    id_index_[record.id] = record.name;
    directory_[req.to] = std::move(record);
    ++stats_.renames_in;
  }
  sim::Envelope note;
  note.type = msg(BridgeMsg::kRenameAck);
  note.payload = util::encode_to_bytes(ack);
  sim::post(wire.ctx, env.reply_to, std::move(note));
}

void BridgeServer::handle_rename_ack(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto ack = RenameAck::decode(r);
  auto it = pending_renames_.find(ack.seq);
  if (it == pending_renames_.end()) return;  // duplicate or stale ack
  PendingRename pending = std::move(it->second);
  pending_renames_.erase(it);
  // The handoff leg — prepare detach to ack arrival — is time the client's
  // rename spent parked with NO server actively working on it; without this
  // span and charge it is invisible in both traces and the ledger.
  sim::SimTime handoff = wire.ctx.now() - pending.parked_at;
  rt_.metrics()
      .histogram("rename.handoff_us")
      .record(static_cast<std::uint64_t>(handoff.us()));
  rt_.stages().charge(pending.client_env.trace.request_id,
                      obs::Stage::kRenameHandoff, handoff.us());
  obs::Tracer& tracer = rt_.tracer();
  if (tracer.enabled()) {
    tracer.complete(node_, wire.ctx.pid(), "rename.handoff",
                    pending.parked_at.us(), handoff.us(),
                    pending.client_env.trace);
  }
  Hold hold(*this, wire, Access::kExclusive);
  hold.acquire({pending.from});
  DirectorySection section(*this);
  pending_from_.erase(pending.from);
  if (ack.code == static_cast<std::uint8_t>(util::ErrorCode::kOk)) {
    // Commit: the destination owns the record now; the old id is dead
    // (routed clients re-derive the home from the new id's tag).  Sessions
    // and parallel jobs of `from` cannot follow the file to another server:
    // they go, as on Delete, so a later file named `from` does not inherit
    // them.
    drop_handles(pending.from);
    RenameResponse resp{ack.new_id};
    return sim::send_reply(wire.ctx, pending.client_env, util::ok_status(),
                           util::encode_to_bytes(resp));
  }
  // Abort: reinstate under the original name.  Safe because create/install
  // into `from` was refused via pending_from_ while the record was detached.
  ++stats_.rename_aborts;
  rt_.flight().record(wire.ctx.now().us(), node_, "rename.abort",
                      pending.from + " -> " + pending.to + ": " + ack.error);
  BRIDGE_RACE_WRITE(wire.ctx, &directory_, 0, "bridge.directory");
  BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor,
                    pending.record.lfs_file_id, "bridge.placement");
  id_index_[pending.record.id] = pending.from;
  directory_[pending.from] = std::move(pending.record);
  sim::send_reply(wire.ctx, pending.client_env,
                  util::Status(static_cast<util::ErrorCode>(ack.code),
                               "rename " + pending.from + " -> " + pending.to +
                                   ": " + ack.error));
}

void BridgeServer::handle_list(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = ListRequest::decode(r);
  ListResponse resp;
  {
    DirectorySection section(*this);
    BRIDGE_RACE_READ(wire.ctx, &directory_, 0, "bridge.directory");
    std::vector<const FileRecord*> records;
    records.reserve(directory_.size());
    // NOLINT(bridge-unordered-iter): order-insensitive collection, sorted below
    for (const auto& [name, record] : directory_) {
      if (name.compare(0, req.prefix.size(), req.prefix) != 0) continue;
      records.push_back(&record);
    }
    std::sort(records.begin(), records.end(),
              [](const FileRecord* a, const FileRecord* b) {
                return a->name < b->name;
              });
    resp.entries.reserve(records.size());
    for (const FileRecord* record : records) {
      ListEntry entry;
      entry.name = record->name;
      entry.id = record->id;
      entry.size_blocks = record->placement.size_blocks();
      entry.distribution =
          static_cast<std::uint8_t>(record->placement.distribution());
      resp.entries.push_back(std::move(entry));
    }
  }
  // Directory scans are in-memory table reads: cheap per entry.
  cpu(wire, sim::usec(2) * static_cast<std::int64_t>(resp.entries.size() + 1));
  ++stats_.lists;
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::encode_state(util::Writer& w) const {
  w.u32(0xB81DD1C7);  // directory snapshot magic
  w.u32(next_file_id_);
  w.u32(static_cast<std::uint32_t>(directory_.size()));
  // Snapshot bytes must be a function of the directory *contents*: two
  // replicas holding identical directories must produce identical snapshots,
  // so serialize in sorted-name order rather than hash-bucket order.
  std::vector<const FileRecord*> records;
  records.reserve(directory_.size());
  // NOLINT(bridge-unordered-iter): order-insensitive collection, sorted below
  for (const auto& [name, record] : directory_) {
    records.push_back(&record);
  }
  std::sort(records.begin(), records.end(),
            [](const FileRecord* a, const FileRecord* b) {
              return a->name < b->name;
            });
  for (const FileRecord* record : records) {
    w.str(record->name);
    w.u32(record->id);
    w.u32(record->lfs_file_id);
    record->placement.encode(w);
  }
}

util::Status BridgeServer::decode_state(util::Reader& r) {
  if (r.u32() != 0xB81DD1C7) {
    return util::corrupt("bad Bridge directory snapshot");
  }
  next_file_id_ = r.u32();
  std::uint32_t count = r.u32();
  directory_.clear();
  id_index_.clear();
  sessions_.clear();
  jobs_.clear();
  handles_.clear();
  pending_renames_.clear();
  pending_from_.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    FileRecord record;
    record.name = r.str();
    record.id = r.u32();
    record.lfs_file_id = r.u32();
    record.placement = PlacementMap::decode(r);
    id_index_[record.id] = record.name;
    directory_[record.name] = std::move(record);
  }
  return util::ok_status();
}

void BridgeServer::handle_get_info(Wire& wire, const sim::Envelope& env) {
  GetInfoResponse resp;
  resp.num_lfs = num_lfs();
  resp.lfs_services = lfs_services_;
  resp.lfs_nodes = lfs_nodes_;
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

}  // namespace bridge::core
