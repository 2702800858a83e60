#include "src/core/instance.hpp"

#include <cstdio>

namespace bridge::core {

BridgeInstance::BridgeInstance(SystemConfig config) : config_(config) {
  rt_ = std::make_unique<sim::Runtime>(config_.total_nodes(), config_.topology,
                                       config_.seed);
  std::vector<sim::Address> services;
  std::vector<std::uint32_t> nodes;
  for (std::uint32_t i = 0; i < config_.num_lfs; ++i) {
    lfs_servers_.push_back(std::make_unique<efs::EfsServer>(
        *rt_, i, config_.geometry, config_.disk_latency, config_.efs));
    services.push_back(lfs_servers_.back()->address());
    nodes.push_back(i);
  }
  for (std::uint32_t s = 0; s < std::max(1u, config_.num_bridge_servers); ++s) {
    // Server s mints Bridge file ids from slice s: the id's top byte IS its
    // home, so routed clients resolve a file's server from the id alone.
    bridges_.push_back(std::make_unique<BridgeServer>(
        *rt_, config_.bridge_node(s), config_.bridge, services, nodes,
        /*file_id_base=*/make_file_id_base(s)));
  }
  // Wire the routed group for cross-server namespace ops (rename handoff).
  if (bridges_.size() > 1) {
    std::vector<sim::Address> peers;
    peers.reserve(bridges_.size());
    for (auto& server : bridges_) peers.push_back(server->address());
    for (std::uint32_t s = 0; s < bridges_.size(); ++s) {
      bridges_[s]->set_peers(peers, s);
    }
  }
}

void BridgeInstance::start() {
  if (started_) return;
  started_ = true;
  for (auto& server : lfs_servers_) server->start();
  for (auto& server : bridges_) server->start();
}

sim::ProcessHandle BridgeInstance::run_client(
    const std::string& name,
    std::function<void(sim::Context&, BridgeClient&)> body) {
  start();
  std::vector<sim::Address> servers = bridge_addresses();
  return rt_->spawn(config_.client_node(), name,
                    [servers, body = std::move(body)](sim::Context& ctx) {
                      BridgeClient client(ctx, servers);
                      body(ctx, client);
                    });
}

void BridgeInstance::print_stats(std::FILE* out) const {
  std::fprintf(out, "--- machine stats @ %s ---\n",
               rt_->now().to_string().c_str());
  for (std::size_t i = 0; i < lfs_servers_.size(); ++i) {
    const auto& disk_stats = lfs_servers_[i]->core().device().stats();
    const auto& cache = lfs_servers_[i]->core().cache_stats();
    const auto& ops = lfs_servers_[i]->core().op_stats();
    double util = rt_->now().us() > 0
                      ? 100.0 * disk_stats.busy_time.sec() / rt_->now().sec()
                      : 0.0;
    std::fprintf(out,
                 "LFS %zu: %llu reads %llu writes %llu track-reads "
                 "(disk %4.1f%% busy) | cache hit %4.1f%% | extents %llu\n",
                 i, static_cast<unsigned long long>(disk_stats.block_reads),
                 static_cast<unsigned long long>(disk_stats.block_writes),
                 static_cast<unsigned long long>(disk_stats.track_reads), util,
                 100.0 * cache.hit_rate(),
                 static_cast<unsigned long long>(ops.extent_lookups));
  }
  const auto& messages = rt_->message_stats();
  std::fprintf(out,
               "interconnect: %llu local msgs (%llu KB), %llu remote msgs "
               "(%llu KB)\n",
               static_cast<unsigned long long>(messages.local_messages),
               static_cast<unsigned long long>(messages.local_bytes / 1024),
               static_cast<unsigned long long>(messages.remote_messages),
               static_cast<unsigned long long>(messages.remote_bytes / 1024));
  for (std::size_t s = 0; s < bridges_.size(); ++s) {
    std::fprintf(out,
                 "bridge server %zu: %llu requests, %llu blocks forwarded, "
                 "%llu files\n",
                 s, static_cast<unsigned long long>(bridges_[s]->stats().requests),
                 static_cast<unsigned long long>(
                     bridges_[s]->stats().blocks_forwarded),
                 static_cast<unsigned long long>(bridges_[s]->directory_size()));
  }
}

void BridgeInstance::publish_metrics() {
  auto& registry = rt_->metrics();
  sim::SimTime elapsed = rt_->now();
  for (std::size_t i = 0; i < lfs_servers_.size(); ++i) {
    auto& core = lfs_servers_[i]->core();
    std::string n = ".n" + std::to_string(i);
    core.device().stats().publish(registry, "disk" + n, elapsed);
    core.cache_stats().publish(registry, "cache" + n);
    core.publish_metrics(registry, "efs" + n);
    lfs_servers_[i]->sched_stats().publish(registry, "sched" + n);
  }
  for (auto& server : bridges_) {
    server->stats().publish(registry,
                            "bridge.n" + std::to_string(server->node()));
  }
  rt_->message_stats().publish(registry, "net");
  // Measured cross-check for the static stack budget
  // (tools/analysis/stack_audit.py).  Only present when the run had
  // BRIDGE_SIM_STACK_WATERMARK=1 — an unset gauge stays out of snapshots,
  // so unwatermarked runs are unchanged.
  const auto& sim_stats = rt_->scheduler().stats();
  if (sim_stats.fiber_stack_high_water > 0) {
    registry.gauge("sim.fiber_stack_high_water_bytes")
        .set(static_cast<double>(sim_stats.fiber_stack_high_water));
  }
}

std::string BridgeInstance::metrics_json() {
  publish_metrics();
  return rt_->metrics().snapshot_json();
}

std::string BridgeInstance::metrics_summary_json() {
  publish_metrics();
  sim::SimTime elapsed = rt_->now();
  std::string out = "{\"disk_util\":[";
  for (std::size_t i = 0; i < lfs_servers_.size(); ++i) {
    const auto& stats = lfs_servers_[i]->core().device().stats();
    double util =
        elapsed.us() > 0 ? stats.busy_time.sec() / elapsed.sec() : 0.0;
    if (i != 0) out += ",";
    out += obs::json_number(util);
  }
  out += "]";
  // Cluster-level request percentiles: fold every Bridge server's service
  // histogram (bucket-wise merge, deterministic) so routed configurations
  // report the distribution of ALL requests, not just server 0's.
  obs::Histogram cluster = obs::Histogram::from_buckets({}, 0, 0);
  for (auto& server : bridges_) {
    const obs::Histogram* service = rt_->metrics().find_histogram(
        "bridge.n" + std::to_string(server->node()) + ".service_us");
    if (service != nullptr) cluster.merge(*service);
  }
  if (cluster.count() > 0) {
    out += ",\"req_p50_us\":" + obs::json_number(cluster.p50());
    out += ",\"req_p95_us\":" + obs::json_number(cluster.p95());
    out += ",\"req_p99_us\":" + obs::json_number(cluster.p99());
  }
  std::uint64_t hits = 0, misses = 0;
  for (auto& server : lfs_servers_) {
    hits += server->core().cache_stats().hits;
    misses += server->core().cache_stats().misses;
  }
  if (hits + misses > 0) {
    out += ",\"cache_hit\":" +
           obs::json_number(static_cast<double>(hits) /
                            static_cast<double>(hits + misses));
  }
  out += "}";
  return out;
}

void BridgeInstance::enable_timeseries(std::int64_t interval_us) {
  if (obs::globally_disabled() || interval_us <= 0) return;
  rt_->enable_timeseries(interval_us);
  obs::TimeSeriesSampler& sampler = rt_->timeseries();
  // Probes read plain fields only (they run under the scheduler lock).
  for (std::size_t i = 0; i < lfs_servers_.size(); ++i) {
    efs::EfsServer* lfs = lfs_servers_[i].get();
    std::string n = ".n" + std::to_string(i);
    sampler.add_probe("disk" + n + ".busy_us", [lfs] {
      return static_cast<double>(lfs->core().device().stats().busy_time.us());
    });
    sampler.add_probe("sched" + n + ".depth", [lfs] {
      return static_cast<double>(lfs->sched_depth());
    });
  }
  for (auto& server : bridges_) {
    BridgeServer* bridge = server.get();
    sampler.add_probe(
        "bridge.n" + std::to_string(bridge->node()) + ".requests",
        [bridge] { return static_cast<double>(bridge->stats().requests); });
  }
  sim::Runtime* rt = rt_.get();
  sampler.add_probe("net.remote_bytes", [rt] {
    return static_cast<double>(rt->message_stats().remote_bytes);
  });
  sampler.add_probe("inflight_requests", [rt] {
    return static_cast<double>(rt->stages().inflight());
  });
}

std::string BridgeInstance::obs_json() {
  publish_metrics();
  std::string out = "{\"schema\":\"bridge.obs.v1\"";
  out += ",\"elapsed_us\":" + std::to_string(rt_->now().us());
  out += ",\"metrics\":" + rt_->metrics().snapshot_json(/*with_buckets=*/true);
  out += ",\"top_requests\":" + rt_->stages().top_requests_json();
  out += ",\"timeseries\":" + rt_->timeseries().json();
  out += ",\"flight\":" + rt_->flight().json();
  out += "}";
  return out;
}

util::Status BridgeInstance::save_machine(
    const std::string& directory_path) const {
  for (std::size_t i = 0; i < lfs_servers_.size(); ++i) {
    auto path = directory_path + "/lfs" + std::to_string(i) + ".img";
    if (auto st = lfs_servers_[i]->disk().save_image(path); !st.is_ok()) {
      return st;
    }
  }
  for (std::size_t s = 0; s < bridges_.size(); ++s) {
    util::Writer w;
    bridges_[s]->encode_state(w);
    auto path = directory_path + "/bridge" + std::to_string(s) + ".dir";
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) return util::invalid_argument("cannot open " + path);
    bool ok = std::fwrite(w.buffer().data(), 1, w.size(), file) == w.size();
    std::fclose(file);
    if (!ok) return util::internal_error("short write to " + path);
  }
  return util::ok_status();
}

util::Status BridgeInstance::load_machine(const std::string& directory_path) {
  for (std::size_t i = 0; i < lfs_servers_.size(); ++i) {
    auto path = directory_path + "/lfs" + std::to_string(i) + ".img";
    if (auto st = lfs_servers_[i]->disk().load_image(path); !st.is_ok()) {
      return st;
    }
    if (auto st = lfs_servers_[i]->core().remount_from_disk(); !st.is_ok()) {
      return st;
    }
  }
  for (std::size_t s = 0; s < bridges_.size(); ++s) {
    auto path = directory_path + "/bridge" + std::to_string(s) + ".dir";
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return util::not_found("no snapshot at " + path);
    std::vector<std::byte> blob;
    std::byte buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      blob.insert(blob.end(), buffer, buffer + got);
    }
    std::fclose(file);
    util::Reader r(blob);
    if (auto st = bridges_[s]->decode_state(r); !st.is_ok()) return st;
  }
  return util::ok_status();
}

util::Status BridgeInstance::verify_all_lfs() const {
  for (const auto& server : lfs_servers_) {
    if (auto st = server->core().verify_integrity(); !st.is_ok()) return st;
  }
  return util::ok_status();
}

}  // namespace bridge::core
