#include "src/efs/cache.hpp"

#include <algorithm>
#include <vector>

#include "src/sim/race_annotate.hpp"

namespace bridge::efs {

void CacheStats::publish(obs::MetricsRegistry& registry,
                         const std::string& prefix) const {
  registry.counter(prefix + ".hits").set(hits);
  registry.counter(prefix + ".misses").set(misses);
  registry.counter(prefix + ".readahead_blocks").set(readahead_blocks);
  registry.counter(prefix + ".dirty_evictions").set(dirty_evictions);
  registry.counter(prefix + ".clean_evictions").set(clean_evictions);
  registry.counter(prefix + ".coalesced_flush_blocks")
      .set(coalesced_flush_blocks);
  registry.gauge(prefix + ".hit_rate").set(hit_rate());
}

void BlockCache::touch(Entry& entry, disk::BlockAddr addr) {
  lru_.erase(entry.lru_pos);
  lru_.push_front(addr);
  entry.lru_pos = lru_.begin();
}

util::Result<std::span<const std::byte>> BlockCache::fetch(
    sim::Context& ctx, disk::BlockAddr addr, std::uint32_t readahead_tracks) {
  BRIDGE_RACE_READ(ctx, &entries_, addr, "efs.cache");
  if (auto it = entries_.find(addr); it != entries_.end()) {
    ++stats_.hits;
    ctx.charge(config_.hit_cpu);
    touch(it->second, addr);
    return std::span<const std::byte>(it->second.data);
  }

  ++stats_.misses;
  sim::ScopedSpan miss_span(ctx, "cache.miss_fill");
  if (config_.track_readahead && readahead_tracks > 0) {
    // A fill deeper than the cache would evict its own prefetch; clamp to
    // whole resident tracks.
    std::uint32_t bpt = dev_.geometry().blocks_per_track;
    std::uint32_t fit = std::max<std::uint32_t>(1, config_.capacity_blocks / bpt);
    std::uint32_t depth = std::min(readahead_tracks, fit);
    disk::BlockAddr track_start = 0;
    auto blocks = depth == 1
                      ? dev_.read_track(ctx, addr, &track_start)
                      : dev_.read_tracks(ctx, addr, depth, &track_start);
    if (!blocks.is_ok()) return blocks.status();
    auto& images = blocks.value();
    // Decide which track-mates to keep BEFORE installing anything: the track
    // images were captured from disk up front, and installing earlier blocks
    // may evict (and flush) a dirty track-mate — re-installing its stale
    // pre-flush image afterwards would corrupt the cache.
    std::vector<bool> keep_cached(images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      auto a = static_cast<disk::BlockAddr>(track_start + i);
      keep_cached[i] = (a != addr && contains(a));
    }
    for (std::size_t i = 0; i < images.size(); ++i) {
      auto a = static_cast<disk::BlockAddr>(track_start + i);
      if (keep_cached[i]) continue;  // keep (possibly dirty) copy
      if (auto st = install(ctx, a, std::move(images[i]), /*dirty=*/false);
          !st.is_ok()) {
        return st;
      }
      if (a != addr) ++stats_.readahead_blocks;
    }
  } else {
    auto block = dev_.read(ctx, addr);
    if (!block.is_ok()) return block.status();
    if (auto st = install(ctx, addr, std::move(block).value(), /*dirty=*/false);
        !st.is_ok()) {
      return st;
    }
  }
  auto it = entries_.find(addr);
  touch(it->second, addr);
  return std::span<const std::byte>(it->second.data);
}

util::Status BlockCache::write_through(sim::Context& ctx, disk::BlockAddr addr,
                                       std::span<const std::byte> data) {
  if (auto st = dev_.write(ctx, addr, data); !st.is_ok()) return st;
  return install(ctx, addr, std::vector<std::byte>(data.begin(), data.end()),
                 /*dirty=*/false);
}

util::Status BlockCache::write_back(sim::Context& ctx, disk::BlockAddr addr,
                                    std::span<const std::byte> data) {
  return install(ctx, addr, std::vector<std::byte>(data.begin(), data.end()),
                 /*dirty=*/true);
}

void BlockCache::invalidate(disk::BlockAddr addr) {
  if (auto it = entries_.find(addr); it != entries_.end()) {
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
  }
}

util::Status BlockCache::flush_all(sim::Context& ctx) {
  // Collect-then-sort: the writeback order must be a function of the cache
  // contents, not of the hash table's bucket layout (which varies with
  // libstdc++ version and insertion history even on identical workloads).
  std::vector<disk::BlockAddr> dirty;
  // NOLINT(bridge-unordered-iter): order-insensitive collection, sorted below
  for (const auto& [addr, entry] : entries_) {
    if (entry.dirty) dirty.push_back(addr);
  }
  std::sort(dirty.begin(), dirty.end());
  for (disk::BlockAddr addr : dirty) {
    Entry& entry = entries_.at(addr);
    BRIDGE_RACE_WRITE(ctx, &entries_, addr, "efs.cache");
    if (auto st = dev_.write(ctx, addr, entry.data); !st.is_ok()) return st;
    entry.dirty = false;
  }
  return util::ok_status();
}

util::Status BlockCache::flush_tracks(sim::Context& ctx, disk::BlockAddr addr,
                                      std::uint32_t num_tracks) {
  const auto& geom = dev_.geometry();
  std::uint32_t first_track = geom.track_of(addr);
  num_tracks = std::min(num_tracks, geom.num_tracks - first_track);
  std::vector<disk::WriteOp> ops;
  std::vector<Entry*> flushed;
  auto sweep = [&]() -> util::Status {
    if (ops.empty()) return util::ok_status();
    sim::ScopedSpan flush_span(ctx, "cache.flush_tracks");
    if (auto st = dev_.write_tracks(ctx, ops); !st.is_ok()) return st;
    for (Entry* e : flushed) e->dirty = false;
    stats_.coalesced_flush_blocks += ops.size();
    ops.clear();
    flushed.clear();
    return util::ok_status();
  };
  for (std::uint32_t t = 0; t < num_tracks; ++t) {
    auto track_start =
        static_cast<disk::BlockAddr>((first_track + t) * geom.blocks_per_track);
    std::size_t before = ops.size();
    for (std::uint32_t i = 0; i < geom.blocks_per_track; ++i) {
      auto it = entries_.find(track_start + i);
      if (it == entries_.end() || !it->second.dirty) continue;
      ops.push_back({it->first, std::span<const std::byte>(it->second.data)});
      flushed.push_back(&it->second);
    }
    // write_tracks takes no gap: a clean track ends the sweep.
    if (ops.size() == before) {
      if (auto st = sweep(); !st.is_ok()) return st;
    }
  }
  return sweep();
}

util::Status BlockCache::install(sim::Context& ctx, disk::BlockAddr addr,
                                 std::vector<std::byte> data, bool dirty) {
  BRIDGE_RACE_WRITE(ctx, &entries_, addr, "efs.cache");
  if (auto it = entries_.find(addr); it != entries_.end()) {
    it->second.data = std::move(data);
    it->second.dirty = it->second.dirty || dirty;
    touch(it->second, addr);
    return util::ok_status();
  }
  while (entries_.size() >= config_.capacity_blocks) {
    if (auto st = evict_one(ctx); !st.is_ok()) return st;
  }
  lru_.push_front(addr);
  Entry entry;
  entry.data = std::move(data);
  entry.dirty = dirty;
  entry.lru_pos = lru_.begin();
  entries_.emplace(addr, std::move(entry));
  return util::ok_status();
}

util::Status BlockCache::evict_one(sim::Context& ctx) {
  disk::BlockAddr victim = lru_.back();
  BRIDGE_RACE_WRITE(ctx, &entries_, victim, "efs.cache");
  auto it = entries_.find(victim);
  ctx.runtime().flight().record(
      ctx.now().us(), ctx.node(),
      it->second.dirty ? "cache.evict_dirty" : "cache.evict_clean",
      "block " + std::to_string(victim));
  if (it->second.dirty) {
    ++stats_.dirty_evictions;
    if (auto st = dev_.write(ctx, victim, it->second.data); !st.is_ok()) {
      return st;
    }
  } else {
    ++stats_.clean_evictions;
  }
  lru_.pop_back();
  entries_.erase(it);
  return util::ok_status();
}

}  // namespace bridge::efs
