#include "src/disk/disk.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <new>

namespace bridge::disk {

namespace {
/// Emit the access just charged as a complete event on the caller's lane —
/// the disk busy-timeline.  [t0, now) is exactly the charged interval.
void trace_access(sim::Context& ctx, const char* name, sim::SimTime t0) {
  obs::Tracer& tracer = ctx.runtime().tracer();
  if (!tracer.enabled()) return;
  tracer.complete(ctx.node(), ctx.pid(), name, t0.us(), (ctx.now() - t0).us(),
                  tracer.current_context(ctx.pid()));
}

/// Attribute one access's positioning vs transfer split to whatever request
/// the calling (server) process is working on.  The split is the ledger's
/// finest-grained pair of stages: it is what separates "the disk is slow
/// because of head travel" from "the disk is slow because of payload size".
void charge_stage_split(sim::Context& ctx, sim::SimTime pos,
                        sim::SimTime xfer) {
  obs::StageLedger& stages = ctx.runtime().stages();
  if (!stages.enabled()) return;
  stages.charge_active(ctx.pid(), obs::Stage::kDiskPos, pos.us());
  stages.charge_active(ctx.pid(), obs::Stage::kDiskXfer, xfer.us());
}
}  // namespace

void DiskStats::publish(obs::MetricsRegistry& registry,
                        const std::string& prefix, sim::SimTime elapsed) const {
  registry.counter(prefix + ".block_reads").set(block_reads);
  registry.counter(prefix + ".block_writes").set(block_writes);
  registry.counter(prefix + ".track_reads").set(track_reads);
  registry.counter(prefix + ".track_writes").set(track_writes);
  registry.counter(prefix + ".positioning_ops").set(positioning_ops);
  registry.counter(prefix + ".busy_us")
      .set(static_cast<std::uint64_t>(busy_time.us()));
  registry.gauge(prefix + ".utilization")
      .set(elapsed.us() > 0 ? busy_time.sec() / elapsed.sec() : 0.0);
}

SimDisk::SimDisk(Geometry geometry, LatencyModel latency)
    : geometry_(geometry),
      latency_(latency),
      store_(map_store(store_bytes()), FreeStore{store_bytes()}) {}

std::byte* SimDisk::map_store(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  void* store = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (store == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::byte*>(store);
}

util::Status SimDisk::check_addr(BlockAddr addr) const {
  if (failed_) return util::unavailable("disk failed");
  if (addr >= geometry_.capacity_blocks()) {
    return util::invalid_argument("block address out of range");
  }
  return util::ok_status();
}

sim::SimTime SimDisk::positioning_cost(BlockAddr addr) const {
  sim::SimTime cost = latency_.access_latency;
  if (latency_.seek_per_track > sim::SimTime{0} && last_addr_ != kNilAddr) {
    std::uint32_t from = geometry_.track_of(last_addr_);
    std::uint32_t to = geometry_.track_of(addr);
    std::uint32_t distance = from > to ? from - to : to - from;
    cost += latency_.seek_per_track * static_cast<std::int64_t>(distance);
  }
  return cost;
}

sim::SimTime SimDisk::track_hops(std::uint32_t hops) const {
  // A device whose whole access is cheaper than a track switch (a RAM disk)
  // would rather reposition than sweep.
  return std::min(latency_.track_switch, latency_.access_latency) *
         static_cast<std::int64_t>(hops);
}

void SimDisk::charge_positioning(sim::Context& ctx, BlockAddr addr) {
  sim::SimTime seek = positioning_cost(addr);
  ++stats_.positioning_ops;
  stats_.busy_time += seek;
  ctx.charge(seek);
  stats_.busy_time += latency_.transfer_per_block;
  ctx.charge(latency_.transfer_per_block);
  charge_stage_split(ctx, seek, latency_.transfer_per_block);
  last_addr_ = addr;
}

util::Result<std::vector<std::byte>> SimDisk::read(sim::Context& ctx,
                                                   BlockAddr addr) {
  if (auto st = check_addr(addr); !st.is_ok()) return st;
  sim::SimTime t0 = ctx.now();
  charge_positioning(ctx, addr);
  trace_access(ctx, "disk.read", t0);
  ++stats_.block_reads;
  const std::byte* begin = block(addr);
  return std::vector<std::byte>(begin, begin + geometry_.block_size);
}

util::Status SimDisk::write(sim::Context& ctx, BlockAddr addr,
                            std::span<const std::byte> data) {
  if (auto st = check_addr(addr); !st.is_ok()) return st;
  if (data.size() != geometry_.block_size) {
    return util::invalid_argument("write size != block size");
  }
  sim::SimTime t0 = ctx.now();
  charge_positioning(ctx, addr);
  trace_access(ctx, "disk.write", t0);
  ++stats_.block_writes;
  std::copy(data.begin(), data.end(), block(addr));
  return util::ok_status();
}

util::Result<std::vector<std::vector<std::byte>>> SimDisk::read_track(
    sim::Context& ctx, BlockAddr addr, BlockAddr* track_start) {
  if (auto st = check_addr(addr); !st.is_ok()) return st;
  std::uint32_t track = geometry_.track_of(addr);
  BlockAddr first = track * geometry_.blocks_per_track;
  if (track_start != nullptr) *track_start = first;

  // One positioning op, then the whole track streams past the head.
  ++stats_.positioning_ops;
  ++stats_.track_reads;
  sim::SimTime pos = positioning_cost(addr);
  sim::SimTime xfer = latency_.transfer_per_block *
                      static_cast<std::int64_t>(geometry_.blocks_per_track);
  sim::SimTime cost = pos + xfer;
  stats_.busy_time += cost;
  sim::SimTime t0 = ctx.now();
  ctx.charge(cost);
  charge_stage_split(ctx, pos, xfer);
  trace_access(ctx, "disk.read_track", t0);
  last_addr_ = first + geometry_.blocks_per_track - 1;

  std::vector<std::vector<std::byte>> blocks;
  blocks.reserve(geometry_.blocks_per_track);
  for (std::uint32_t i = 0; i < geometry_.blocks_per_track; ++i) {
    const std::byte* begin = block(first + i);
    blocks.emplace_back(begin, begin + geometry_.block_size);
    stats_.block_reads++;
  }
  return blocks;
}

util::Result<std::vector<std::vector<std::byte>>> SimDisk::read_tracks(
    sim::Context& ctx, BlockAddr addr, std::uint32_t num_tracks,
    BlockAddr* track_start) {
  if (auto st = check_addr(addr); !st.is_ok()) return st;
  if (num_tracks == 0) return util::invalid_argument("read_tracks of 0 tracks");
  std::uint32_t track = geometry_.track_of(addr);
  num_tracks = std::min(num_tracks, geometry_.num_tracks - track);
  BlockAddr first = track * geometry_.blocks_per_track;
  if (track_start != nullptr) *track_start = first;

  std::uint32_t total_blocks = num_tracks * geometry_.blocks_per_track;
  // Track switches are head movement: part of positioning, not transfer.
  sim::SimTime pos = positioning_cost(addr) + track_hops(num_tracks - 1);
  sim::SimTime xfer =
      latency_.transfer_per_block * static_cast<std::int64_t>(total_blocks);
  sim::SimTime cost = pos + xfer;
  ++stats_.positioning_ops;
  stats_.track_reads += num_tracks;
  stats_.busy_time += cost;
  sim::SimTime t0 = ctx.now();
  ctx.charge(cost);
  charge_stage_split(ctx, pos, xfer);
  trace_access(ctx, "disk.read_tracks", t0);
  last_addr_ = first + total_blocks - 1;

  std::vector<std::vector<std::byte>> blocks;
  blocks.reserve(total_blocks);
  for (std::uint32_t i = 0; i < total_blocks; ++i) {
    const std::byte* begin = block(first + i);
    blocks.emplace_back(begin, begin + geometry_.block_size);
    stats_.block_reads++;
  }
  return blocks;
}

util::Status SimDisk::write_run(sim::Context& ctx,
                                std::span<const WriteOp> ops) {
  if (ops.empty()) return util::ok_status();
  std::uint32_t track = geometry_.track_of(ops.front().addr);
  for (const auto& op : ops) {
    if (auto st = check_addr(op.addr); !st.is_ok()) return st;
    if (op.data.size() != geometry_.block_size) {
      return util::invalid_argument("write size != block size");
    }
    if (geometry_.track_of(op.addr) != track) {
      return util::invalid_argument("write_run spans tracks");
    }
  }

  // One positioning op, then every block lands as the track streams past.
  land(ctx, ops, 1, "disk.write_run");
  return util::ok_status();
}

util::Status SimDisk::write_tracks(sim::Context& ctx,
                                   std::span<const WriteOp> ops) {
  if (ops.empty()) return util::ok_status();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (auto st = check_addr(ops[i].addr); !st.is_ok()) return st;
    if (ops[i].data.size() != geometry_.block_size) {
      return util::invalid_argument("write size != block size");
    }
    if (i == 0) continue;
    if (ops[i].addr <= ops[i - 1].addr) {
      return util::invalid_argument("write_tracks addresses must ascend");
    }
    if (geometry_.track_of(ops[i].addr) >
        geometry_.track_of(ops[i - 1].addr) + 1) {
      return util::invalid_argument("write_tracks skips a track");
    }
  }
  land(ctx, ops,
       geometry_.track_of(ops.back().addr) -
           geometry_.track_of(ops.front().addr) + 1,
       "disk.write_tracks");
  return util::ok_status();
}

void SimDisk::land(sim::Context& ctx, std::span<const WriteOp> ops,
                   std::uint32_t num_tracks, const char* trace_name) {
  // Track switches are head movement: part of positioning, not transfer.
  sim::SimTime pos =
      positioning_cost(ops.front().addr) + track_hops(num_tracks - 1);
  sim::SimTime xfer =
      latency_.transfer_per_block * static_cast<std::int64_t>(ops.size());
  sim::SimTime cost = pos + xfer;
  ++stats_.positioning_ops;
  stats_.track_writes += num_tracks;
  stats_.busy_time += cost;
  sim::SimTime t0 = ctx.now();
  ctx.charge(cost);
  charge_stage_split(ctx, pos, xfer);
  trace_access(ctx, trace_name, t0);
  for (const auto& op : ops) {
    ++stats_.block_writes;
    std::copy(op.data.begin(), op.data.end(), block(op.addr));
  }
  last_addr_ = ops.back().addr;
}

std::optional<std::span<const std::byte>> SimDisk::peek(BlockAddr addr) const {
  if (addr >= geometry_.capacity_blocks()) return std::nullopt;
  return std::span<const std::byte>(block(addr), geometry_.block_size);
}

void SimDisk::poke(BlockAddr addr, std::span<const std::byte> data) {
  if (addr >= geometry_.capacity_blocks()) return;
  std::copy(data.begin(), data.end(), block(addr));
}

namespace {
constexpr char kImageMagic[8] = {'B', 'R', 'D', 'G', 'D', 'S', 'K', '1'};
}  // namespace

util::Status SimDisk::save_image(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return util::invalid_argument("cannot open " + path);
  std::uint32_t header[3] = {geometry_.num_tracks, geometry_.blocks_per_track,
                             geometry_.block_size};
  bool ok = std::fwrite(kImageMagic, 1, sizeof(kImageMagic), file) ==
                sizeof(kImageMagic) &&
            std::fwrite(header, sizeof(std::uint32_t), 3, file) == 3 &&
            std::fwrite(store_.get(), 1, store_bytes(), file) == store_bytes();
  std::fclose(file);
  if (!ok) return util::internal_error("short write saving " + path);
  return util::ok_status();
}

util::Status SimDisk::load_image(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return util::not_found("no image at " + path);
  char magic[8];
  std::uint32_t header[3];
  bool ok = std::fread(magic, 1, sizeof(magic), file) == sizeof(magic) &&
            std::memcmp(magic, kImageMagic, sizeof(magic)) == 0 &&
            std::fread(header, sizeof(std::uint32_t), 3, file) == 3;
  if (!ok) {
    std::fclose(file);
    return util::corrupt("bad disk image header in " + path);
  }
  if (header[0] != geometry_.num_tracks ||
      header[1] != geometry_.blocks_per_track ||
      header[2] != geometry_.block_size) {
    std::fclose(file);
    return util::invalid_argument("image geometry mismatch for " + path);
  }
  ok = std::fread(store_.get(), 1, store_bytes(), file) == store_bytes();
  std::fclose(file);
  if (!ok) return util::corrupt("truncated disk image " + path);
  return util::ok_status();
}

}  // namespace bridge::disk
