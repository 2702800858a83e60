#include "src/efs/efs.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "src/sim/race_annotate.hpp"
#include "src/util/logging.hpp"

namespace bridge::efs {

namespace {

/// Assemble a full 1024-byte block image from a header and payload.
std::vector<std::byte> make_block_image(const BlockHeader& header,
                                        std::span<const std::byte> payload) {
  std::vector<std::byte> image(kBlockSize);
  store_header(image, header);
  std::copy(payload.begin(), payload.end(), image.begin() + kEfsHeaderBytes);
  return image;
}

std::vector<std::byte> payload_of(std::span<const std::byte> image) {
  return {image.begin() + kEfsHeaderBytes, image.end()};
}

/// Check that an extent list is sorted, gap-free from block 0 and covers
/// exactly `size_blocks` blocks inside [data_start, capacity).
bool extents_well_formed(const std::vector<Extent>& extents,
                         std::uint32_t size_blocks, std::uint32_t data_start,
                         std::uint32_t capacity) {
  std::uint32_t expected = 0;
  for (const Extent& e : extents) {
    if (e.block_no != expected || e.len == 0) return false;
    if (e.addr < data_start || e.addr + e.len > capacity) return false;
    expected += e.len;
  }
  return expected == size_blocks;
}

}  // namespace

void EfsOpStats::publish(obs::MetricsRegistry& registry,
                         const std::string& prefix) const {
  registry.counter(prefix + ".reads").set(reads);
  registry.counter(prefix + ".writes").set(writes);
  registry.counter(prefix + ".appends").set(appends);
  registry.counter(prefix + ".creates").set(creates);
  registry.counter(prefix + ".deletes").set(deletes);
  registry.counter(prefix + ".truncates").set(truncates);
  registry.counter(prefix + ".extent_lookups").set(extent_lookups);
  registry.counter(prefix + ".extents_allocated").set(extents_allocated);
  registry.counter(prefix + ".extents_freed").set(extents_freed);
  registry.counter(prefix + ".table_block_allocs").set(table_block_allocs);
  registry.counter(prefix + ".deep_readahead_tracks").set(deep_readahead_tracks);
  registry.gauge(prefix + ".readahead_depth")
      .set(static_cast<double>(last_readahead_depth));
}

EfsCore::EfsCore(disk::SimDisk& dev, EfsConfig config)
    : dev_(dev), config_(config), cache_(dev, config.cache) {
  // The track read-ahead path installs a whole track per miss; a cache
  // smaller than one track would thrash pathologically.
  if (config_.cache.capacity_blocks < dev.geometry().blocks_per_track) {
    config_.cache.capacity_blocks = dev.geometry().blocks_per_track;
  }
}

void EfsCore::format() {
  sb_ = Superblock{};
  sb_.capacity_blocks = dev_.geometry().capacity_blocks();
  sb_.bitmap_start = sb_.dir_start + sb_.dir_blocks;
  sb_.bitmap_blocks = BlockBitmap::blocks_needed(sb_.capacity_blocks);
  sb_.data_start = sb_.bitmap_start + sb_.bitmap_blocks;
  sb_.clean = 1;
  dir_.assign(dir_capacity(), DirEntry{});
  maps_.assign(dir_capacity(), FileMap{});
  bitmap_.reset(sb_.capacity_blocks, sb_.data_start);
  sb_.free_count = bitmap_.free_count();
  rotor_ = sb_.data_start;
  poke_superblock();
  for (std::uint32_t b = 0; b < sb_.dir_blocks; ++b) poke_dir_block(b);
  poke_bitmap();
  formatted_ = true;
}

util::Status EfsCore::remount_from_disk() {
  auto sb_image = dev_.peek(0);
  if (!sb_image) return util::corrupt("no superblock");
  util::Reader r(sb_image->subspan(0, 64));
  Superblock sb = Superblock::decode(r);
  if (sb.magic != kMagicSuperblock) return util::corrupt("bad superblock magic");
  if (sb.layout_version != kLayoutVersion) {
    return util::corrupt("unsupported EFS layout version " +
                         std::to_string(sb.layout_version));
  }
  if (sb.capacity_blocks != dev_.geometry().capacity_blocks() ||
      sb.data_start > sb.capacity_blocks ||
      sb.bitmap_start + sb.bitmap_blocks != sb.data_start ||
      sb.dir_start + sb.dir_blocks != sb.bitmap_start) {
    return util::corrupt("superblock geometry mismatch");
  }
  sb_ = sb;
  dir_.assign(dir_capacity(), DirEntry{});
  maps_.assign(dir_capacity(), FileMap{});
  for (std::uint32_t b = 0; b < sb_.dir_blocks; ++b) {
    auto image = dev_.peek(sb_.dir_start + b);
    if (!image) return util::corrupt("directory block unreadable");
    util::Reader dr(*image);
    for (std::uint32_t i = 0; i < kDirEntriesPerBlock; ++i) {
      dir_[b * kDirEntriesPerBlock + i] = DirEntry::decode(dr);
    }
  }

  // Load every file's extent tables: O(files + extents), not O(capacity).
  for (std::uint32_t slot = 0; slot < dir_.size(); ++slot) {
    const DirEntry& entry = dir_[slot];
    if (entry.empty()) continue;
    FileMap& fm = maps_[slot];
    if (entry.size_blocks == 0) {
      if (entry.table_head != kNilAddr) {
        return util::corrupt("empty file with extent table; run fsck");
      }
      continue;
    }
    BlockAddr cur = entry.table_head;
    while (cur != kNilAddr) {
      if (cur < sb_.data_start || cur >= sb_.capacity_blocks ||
          fm.table_blocks.size() > sb_.capacity_blocks) {
        return util::corrupt("extent table chain invalid; run fsck");
      }
      auto image = dev_.peek(cur);
      if (!image) return util::corrupt("extent table block unreadable");
      ExtentTableBlock table = ExtentTableBlock::parse(*image);
      if (!table.valid_for(entry.file_id)) {
        return util::corrupt("extent table block corrupt; run fsck");
      }
      fm.table_blocks.push_back(cur);
      fm.extents.insert(fm.extents.end(), table.extents.begin(),
                        table.extents.end());
      cur = table.next;
    }
    if (!extents_well_formed(fm.extents, entry.size_blocks, sb_.data_start,
                             sb_.capacity_blocks)) {
      return util::corrupt("extent map inconsistent; run fsck");
    }
  }

  bitmap_.reset(sb_.capacity_blocks, sb_.data_start);
  if (sb_.clean != 0) {
    // Fast path: trust the persisted bitmap.
    for (std::uint32_t b = 0; b < sb_.bitmap_blocks; ++b) {
      auto image = dev_.peek(sb_.bitmap_start + b);
      if (!image) return util::corrupt("bitmap block unreadable");
      bitmap_.decode_block(b, *image);
    }
    if (bitmap_.free_count() != sb_.free_count) {
      return util::corrupt("bitmap free count disagrees with superblock");
    }
    last_mount_rebuilt_ = false;
  } else {
    // Dirty superblock (crash before sync): rebuild the bitmap from the
    // extent tables, persist the repaired state and mark the disk clean.
    for (std::uint32_t slot = 0; slot < dir_.size(); ++slot) {
      const FileMap& fm = maps_[slot];
      for (const Extent& e : fm.extents) {
        for (std::uint32_t i = 0; i < e.len; ++i) bitmap_.set(e.addr + i);
      }
      for (BlockAddr t : fm.table_blocks) bitmap_.set(t);
    }
    sb_.free_count = bitmap_.free_count();
    sb_.clean = 1;
    poke_bitmap();
    poke_superblock();
    last_mount_rebuilt_ = true;
  }
  rotor_ = sb_.data_start;
  formatted_ = true;
  return util::ok_status();
}

std::int64_t EfsCore::dir_find(FileId id) const {
  if (id == kInvalidFileId) return -1;
  std::uint32_t cap = dir_capacity();
  std::uint32_t slot = id % cap;
  for (std::uint32_t probes = 0; probes < cap; ++probes) {
    const DirEntry& e = dir_[slot];
    if (e.empty() && !e.tombstone()) return -1;  // end of probe chain
    if (!e.empty() && e.file_id == id) return slot;
    slot = (slot + 1) % cap;
  }
  return -1;
}

std::int64_t EfsCore::dir_find_free(FileId id) const {
  std::uint32_t cap = dir_capacity();
  std::uint32_t slot = id % cap;
  for (std::uint32_t probes = 0; probes < cap; ++probes) {
    const DirEntry& e = dir_[slot];
    if (e.empty()) return slot;  // empty or tombstone: reusable
    slot = (slot + 1) % cap;
  }
  return -1;
}

void EfsCore::poke_dir_block(std::uint32_t dir_block_index) {
  util::Writer w(kBlockSize);
  for (std::uint32_t i = 0; i < kDirEntriesPerBlock; ++i) {
    dir_[dir_block_index * kDirEntriesPerBlock + i].encode(w);
  }
  dev_.poke(sb_.dir_start + dir_block_index, w.buffer());
}

void EfsCore::poke_superblock() {
  util::Writer w(kBlockSize);
  sb_.encode(w);
  std::vector<std::byte> image(kBlockSize);
  std::copy(w.buffer().begin(), w.buffer().end(), image.begin());
  dev_.poke(0, image);
}

void EfsCore::poke_bitmap() {
  for (std::uint32_t b = 0; b < sb_.bitmap_blocks; ++b) {
    dev_.poke(sb_.bitmap_start + b, bitmap_.encode_block(b));
  }
}

void EfsCore::poke_file_tables(std::uint32_t slot) {
  const DirEntry& entry = dir_[slot];
  const FileMap& fm = maps_[slot];
  for (std::size_t t = 0; t < fm.table_blocks.size(); ++t) {
    ExtentTableBlock table;
    table.file_id = entry.file_id;
    table.next = t + 1 < fm.table_blocks.size() ? fm.table_blocks[t + 1]
                                                : kNilAddr;
    std::size_t first = t * kExtentsPerTableBlock;
    std::size_t last = std::min(first + kExtentsPerTableBlock,
                                fm.extents.size());
    if (first < last) {
      table.extents.assign(fm.extents.begin() + static_cast<std::ptrdiff_t>(first),
                           fm.extents.begin() + static_cast<std::ptrdiff_t>(last));
    }
    dev_.poke(fm.table_blocks[t], table.to_image());
  }
}

util::Status EfsCore::dir_persist(sim::Context& ctx, std::uint32_t slot,
                                  bool force) {
  std::uint32_t dir_block = slot / kDirEntriesPerBlock;
  poke_dir_block(dir_block);  // keep the on-disk image current
  sb_.free_count = bitmap_.free_count();
  sb_.clean = 0;  // mutations in flight until the next sync
  poke_superblock();
  ++dir_mutations_;
  if (force || dir_mutations_ % config_.dir_flush_interval == 0) {
    // Charge the write-behind flush of the hot metadata blocks.
    ctx.charge(sim::msec(15.0));
  }
  return util::ok_status();
}

util::Status EfsCore::create(sim::Context& ctx, FileId id) {
  if (!formatted_) return util::internal_error("not formatted");
  if (dev_.is_failed()) return util::unavailable("disk failed");
  if (id == kInvalidFileId) return util::invalid_argument("file id 0 reserved");
  ctx.charge(config_.request_cpu);
  if (dir_find(id) >= 0) {
    return util::already_exists("file " + std::to_string(id));
  }
  std::int64_t slot = dir_find_free(id);
  if (slot < 0) return util::out_of_space("directory full");
  BRIDGE_RACE_WRITE(ctx, &dir_, id, "efs.file");
  dir_[static_cast<std::size_t>(slot)] =
      DirEntry{id, kNilAddr, 0, /*flags=*/0};
  maps_[static_cast<std::size_t>(slot)] = FileMap{};
  ++stats_.creates;
  // The directory image is poked current immediately; the flush debit
  // amortizes through the write-behind interval like any other mutation, so
  // a p-way fan-out create does not serialize p forced disk waits.
  return dir_persist(ctx, static_cast<std::uint32_t>(slot), /*force=*/false);
}

util::Status EfsCore::remove(sim::Context& ctx, FileId id) {
  if (dev_.is_failed()) return util::unavailable("disk failed");
  ctx.charge(config_.request_cpu);
  std::int64_t slot = dir_find(id);
  if (slot < 0) return util::not_found("file " + std::to_string(id));
  BRIDGE_RACE_WRITE(ctx, &dir_, id, "efs.file");
  DirEntry& entry = dir_[static_cast<std::size_t>(slot)];
  FileMap& fm = maps_[static_cast<std::size_t>(slot)];

  // Delete is O(extents) bitmap clears — the v2 answer to the paper's §4.5
  // per-block explicit free that made Delete cost ~20 ms per local block.
  BRIDGE_RACE_WRITE(ctx, &bitmap_, 0, "efs.bitmap");
  for (const Extent& e : fm.extents) {
    for (std::uint32_t i = 0; i < e.len; ++i) {
      bitmap_.clear(e.addr + i);
      cache_.invalidate(e.addr + i);
    }
  }
  stats_.extents_freed += fm.extents.size();
  for (BlockAddr t : fm.table_blocks) {
    bitmap_.clear(t);
    cache_.invalidate(t);
  }
  fm = FileMap{};
  poke_bitmap();
  entry = DirEntry{kInvalidFileId, kNilAddr, 0, DirEntry::kTombstone};
  seq_state_.erase(id);
  ++stats_.deletes;
  return dir_persist(ctx, static_cast<std::uint32_t>(slot), /*force=*/true);
}

util::Result<FileInfo> EfsCore::info(sim::Context& ctx, FileId id) {
  ctx.charge(config_.request_cpu);
  std::int64_t slot = dir_find(id);
  if (slot < 0) return util::not_found("file " + std::to_string(id));
  BRIDGE_RACE_READ(ctx, &dir_, id, "efs.file");
  const DirEntry& e = dir_[static_cast<std::size_t>(slot)];
  return FileInfo{id, e.size_blocks};
}

util::Result<BlockAddr> EfsCore::locate(sim::Context& ctx, std::uint32_t slot,
                                        const DirEntry& entry,
                                        std::uint32_t block_no) {
  BRIDGE_RACE_READ(ctx, &maps_, entry.file_id, "efs.extent_map");
  const std::vector<Extent>& extents = maps_[slot].extents;
  ++stats_.extent_lookups;
  auto it = std::upper_bound(
      extents.begin(), extents.end(), block_no,
      [](std::uint32_t b, const Extent& e) { return b < e.block_no; });
  if (it == extents.begin()) {
    return util::corrupt("extent map missing block " +
                         std::to_string(block_no));
  }
  --it;
  if (block_no >= it->block_no + it->len) {
    return util::corrupt("extent map gap at block " + std::to_string(block_no));
  }
  return it->addr + (block_no - it->block_no);
}

util::Result<std::vector<std::byte>> EfsCore::read(sim::Context& ctx,
                                                   FileId id,
                                                   std::uint32_t block_no) {
  auto blocks =
      read_many(ctx, id, std::span<const std::uint32_t>(&block_no, 1));
  if (!blocks.is_ok()) return blocks.status();
  return std::move(blocks.value().front());
}

util::Result<std::vector<std::vector<std::byte>>> EfsCore::read_many(
    sim::Context& ctx, FileId id, std::span<const std::uint32_t> block_nos) {
  if (dev_.is_failed()) return util::unavailable("disk failed");
  // Locate every block up front, stopping at the first that cannot be read;
  // `stop` is the error that block reports once its turn comes.
  std::int64_t slot = dir_find(id);
  std::vector<BlockAddr> addrs;
  addrs.reserve(block_nos.size());
  util::Status stop = util::ok_status();
  if (slot < 0) stop = util::not_found("file " + std::to_string(id));
  for (std::size_t i = 0; stop.is_ok() && i < block_nos.size(); ++i) {
    const DirEntry& entry = dir_[static_cast<std::size_t>(slot)];
    if (block_nos[i] >= entry.size_blocks) {
      stop = util::invalid_argument("read past EOF");
      break;
    }
    auto located = locate(ctx, static_cast<std::uint32_t>(slot), entry,
                          block_nos[i]);
    if (!located.is_ok()) {
      stop = located.status();
      break;
    }
    addrs.push_back(located.value());
  }
  // One backward pass: the last track of the run of consecutive tracks
  // (each block on its predecessor's track or the next) that block i starts.
  const auto& geom = dev_.geometry();
  std::vector<std::uint32_t> run_last_track(addrs.size());
  for (std::size_t i = addrs.size(); i-- > 0;) {
    std::uint32_t t = geom.track_of(addrs[i]);
    bool joins = i + 1 < addrs.size() &&
                 (geom.track_of(addrs[i + 1]) == t ||
                  geom.track_of(addrs[i + 1]) == t + 1);
    run_last_track[i] = joins ? run_last_track[i + 1] : t;
  }

  std::vector<std::vector<std::byte>> blocks;
  blocks.reserve(addrs.size());
  for (std::size_t i = 0; i < block_nos.size(); ++i) {
    // A dead drive takes the whole LFS out of service, even for cached
    // blocks — serving stale RAM copies of a failed device would mask the
    // fault the §6 discussion is about.
    if (dev_.is_failed()) return util::unavailable("disk failed");
    ctx.charge(config_.request_cpu);
    if (i == addrs.size()) return stop;
    BRIDGE_RACE_READ(ctx, &dir_, id, "efs.file");
    // A miss fills every track the rest of the run covers in one sweep,
    // capped at half the cache, on top of the sequentiality read-ahead.
    std::uint32_t depth = readahead_depth(id, block_nos[i]);
    std::uint32_t run_tracks = run_last_track[i] - geom.track_of(addrs[i]) + 1;
    if (run_tracks > 1) {
      depth = std::max(depth, std::min(run_tracks, staging_tracks()));
    }
    auto image = cache_.fetch(ctx, addrs[i], depth);
    if (!image.is_ok()) return image.status();
    BlockHeader h = parse_header(image.value());
    if (h.block_no != block_nos[i] || h.file_id != id) {
      return util::corrupt("located wrong block");
    }
    ctx.charge(config_.record_cpu);
    ++stats_.reads;
    blocks.push_back(payload_of(image.value()));
  }
  return blocks;
}

std::uint32_t EfsCore::readahead_depth(FileId id, std::uint32_t block_no) {
  if (!config_.readahead.adaptive) return 1;
  SeqState& state = seq_state_[id];
  if (block_no == state.next_block && block_no != 0) {
    ++state.run_len;
    state.random_streak = 0;
  } else if (block_no == 0 && state.next_block == 0) {
    // First-ever read of the file: neutral, not a random probe.
    state.run_len = 0;
  } else {
    state.run_len = 0;
    ++state.random_streak;
  }
  state.next_block = block_no + 1;

  if (state.random_streak >= config_.readahead.random_cutoff) {
    stats_.last_readahead_depth = 0;
    return 0;
  }
  // One extra track per full track's worth of sequential blocks observed.
  std::uint32_t bpt = std::max(1u, dev_.geometry().blocks_per_track);
  std::uint32_t depth =
      std::min(1 + state.run_len / bpt, config_.readahead.max_tracks);
  stats_.last_readahead_depth = depth;
  if (depth > 1) stats_.deep_readahead_tracks += depth - 1;
  return depth;
}

util::Result<BlockAddr> EfsCore::allocate_append_block(sim::Context& ctx,
                                                       std::uint32_t slot,
                                                       DirEntry& entry) {
  FileMap& fm = maps_[slot];
  BRIDGE_RACE_WRITE(ctx, &bitmap_, 0, "efs.bitmap");
  BRIDGE_RACE_WRITE(ctx, &maps_, entry.file_id, "efs.extent_map");

  // Fast path: the block right after the file's last extent is free, so the
  // extent simply grows — this is what keeps sequentially written files
  // physically contiguous (and the extent count ~1).
  if (!fm.extents.empty()) {
    Extent& last = fm.extents.back();
    BlockAddr next = last.addr + last.len;
    if (next < sb_.capacity_blocks && !bitmap_.test(next)) {
      bitmap_.set(next);
      last.len += 1;
      rotor_ = next + 1 < sb_.capacity_blocks ? next + 1 : sb_.data_start;
      return next;
    }
  }

  // Starting a new extent may also grow the extent table; account for both
  // before mutating anything so out-of-space fails cleanly.
  std::uint32_t needed_tables = table_blocks_for(fm.extents.size() + 1);
  std::uint32_t extra_tables =
      needed_tables > fm.table_blocks.size()
          ? needed_tables - static_cast<std::uint32_t>(fm.table_blocks.size())
          : 0;
  if (bitmap_.free_count() < 1 + extra_tables) {
    return util::out_of_space("no free blocks");
  }
  BlockAddr goal = fm.extents.empty()
                       ? rotor_
                       : fm.extents.back().addr + fm.extents.back().len;
  // FFS locality: the new extent starts a wholly free group at or after the
  // goal, else a wholly free track, else the nearest free block.  Nothing is
  // reserved, so files appended at the same time stop interleaving without
  // costing any capacity.
  BlockAddr anchor = bitmap_.find_free_aligned(goal, kAllocGroupBlocks);
  if (anchor == kNilAddr) {
    anchor = bitmap_.find_free_aligned(goal, dev_.geometry().blocks_per_track);
  }
  // A table block the extent needs takes the free block just below an
  // aligned start, if there is one: the file below can no longer grow into
  // the group anyway, and the data keeps its track-aligned start.
  bool below_free = anchor != kNilAddr && anchor > sb_.data_start &&
                    !bitmap_.test(anchor - 1);
  if (anchor == kNilAddr) anchor = goal;
  for (std::uint32_t t = 0; t < extra_tables; ++t) {
    BlockAddr table = t == 0 && below_free
                          ? anchor - 1
                          : bitmap_.find_free_run(anchor, 1).addr;
    bitmap_.set(table);
    fm.table_blocks.push_back(table);
    ++stats_.table_block_allocs;
  }
  entry.table_head = fm.table_blocks.front();
  BlockBitmap::Run run = bitmap_.find_free_run(anchor, 1);
  bitmap_.set(run.addr);
  fm.extents.push_back(Extent{entry.size_blocks, run.addr, 1});
  ++stats_.extents_allocated;
  rotor_ = run.addr + 1 < sb_.capacity_blocks ? run.addr + 1 : sb_.data_start;
  return run.addr;
}

util::Result<BlockAddr> EfsCore::append_block(sim::Context& ctx,
                                              std::uint32_t slot,
                                              DirEntry& entry,
                                              std::span<const std::byte> data,
                                              bool defer_data) {
  auto alloc = allocate_append_block(ctx, slot, entry);
  if (!alloc.is_ok()) return alloc.status();
  BlockAddr addr = alloc.value();

  BlockHeader header;
  header.magic = kMagicDataBlock;
  header.file_id = entry.file_id;
  header.block_no = entry.size_blocks;
  // v2: no predecessor rewrite — the extent table carries the placement, so
  // an append touches exactly one data block.
  auto image = make_block_image(header, data);
  auto st = defer_data ? cache_.write_back(ctx, addr, image)
                       : cache_.write_through(ctx, addr, image);
  if (!st.is_ok()) return st;
  entry.size_blocks += 1;
  // Metadata write-behind: the on-disk extent table and bitmap stay current;
  // the flush cost is amortized through dir_persist.
  poke_file_tables(slot);
  poke_bitmap();
  ++stats_.appends;
  return addr;
}

util::Result<BlockAddr> EfsCore::write_one(sim::Context& ctx, FileId id,
                                           std::uint32_t block_no,
                                           std::span<const std::byte> data,
                                           bool defer_data) {
  if (dev_.is_failed()) return util::unavailable("disk failed");
  ctx.charge(config_.request_cpu);
  if (data.size() != kEfsDataBytes) {
    return util::invalid_argument("write payload must be kEfsDataBytes");
  }
  std::int64_t slot = dir_find(id);
  if (slot < 0) return util::not_found("file " + std::to_string(id));
  BRIDGE_RACE_WRITE(ctx, &dir_, id, "efs.file");
  DirEntry& entry = dir_[static_cast<std::size_t>(slot)];

  ctx.charge(config_.record_cpu);
  if (block_no == entry.size_blocks) {
    auto result = append_block(ctx, static_cast<std::uint32_t>(slot), entry,
                               data, defer_data);
    if (!result.is_ok()) return result;
    ++stats_.writes;
    if (auto st = dir_persist(ctx, static_cast<std::uint32_t>(slot),
                              /*force=*/false);
        !st.is_ok()) {
      return st;
    }
    return result;
  }
  if (block_no > entry.size_blocks) {
    return util::invalid_argument("write would leave a gap");
  }
  // Overwrite in place, preserving the self-describing header.
  auto located =
      locate(ctx, static_cast<std::uint32_t>(slot), entry, block_no);
  if (!located.is_ok()) return located.status();
  auto image = cache_.fetch(ctx, located.value());
  if (!image.is_ok()) return image.status();
  BlockHeader header = parse_header(image.value());
  auto new_image = make_block_image(header, data);
  auto st = defer_data ? cache_.write_back(ctx, located.value(), new_image)
                       : cache_.write_through(ctx, located.value(), new_image);
  if (!st.is_ok()) return st;
  ++stats_.writes;
  return located.value();
}

util::Status EfsCore::write(sim::Context& ctx, FileId id,
                            std::uint32_t block_no,
                            std::span<const std::byte> data) {
  return write_one(ctx, id, block_no, data, /*defer_data=*/false).status();
}

util::Status EfsCore::write_run(sim::Context& ctx, FileId id,
                                std::span<const BlockWrite> writes) {
  // Stage a window of consecutive tracks, up to half the cache, and land it
  // with one write_tracks sweep as soon as the run leaves it or it is full
  // (not all at the end): staging more than the cache capacity would
  // otherwise evict dirty blocks one 15 ms write at a time, defeating the
  // coalescing.
  constexpr std::uint32_t kNoTrack = 0xFFFFFFFFu;
  const std::uint32_t bpt = dev_.geometry().blocks_per_track;
  std::uint32_t first_track = kNoTrack;
  std::uint32_t last_track = kNoTrack;
  auto flush_staged = [&]() -> util::Status {
    if (first_track == kNoTrack) return util::ok_status();
    auto addr = static_cast<BlockAddr>(first_track * bpt);
    std::uint32_t tracks = last_track - first_track + 1;
    first_track = last_track = kNoTrack;
    return cache_.flush_tracks(ctx, addr, tracks);
  };

  for (const auto& w : writes) {
    auto result = write_one(ctx, id, w.block_no, w.data, /*defer_data=*/true);
    if (!result.is_ok()) {
      // Land the completed prefix so the disk matches the bookkeeping the
      // caller will roll back against (truncate frees exactly these blocks).
      // The write error wins (it is what the caller rolls back against), but
      // a failed prefix flush means disk and bookkeeping may now disagree —
      // that must not vanish silently.
      if (auto st = flush_staged(); !st.is_ok()) {
        util::LogMessage(util::LogLevel::kError, "efs")
            << "write_run: prefix flush failed after write error; disk may "
               "not match bookkeeping for file " << id << ": "
            << st.to_string();
      }
      return result.status();
    }
    std::uint32_t t = dev_.geometry().track_of(result.value());
    if (first_track != kNoTrack && t >= first_track && t <= last_track) {
      continue;
    }
    if (first_track != kNoTrack && t == last_track + 1 &&
        t - first_track < staging_tracks()) {
      last_track = t;
      continue;
    }
    if (auto st = flush_staged(); !st.is_ok()) return st;
    first_track = last_track = t;
  }
  return flush_staged();
}

util::Status EfsCore::truncate(sim::Context& ctx, FileId id,
                               std::uint32_t new_size_blocks) {
  if (dev_.is_failed()) return util::unavailable("disk failed");
  ctx.charge(config_.request_cpu);
  std::int64_t slot = dir_find(id);
  if (slot < 0) return util::not_found("file " + std::to_string(id));
  BRIDGE_RACE_WRITE(ctx, &dir_, id, "efs.file");
  DirEntry& entry = dir_[static_cast<std::size_t>(slot)];
  FileMap& fm = maps_[static_cast<std::size_t>(slot)];
  if (new_size_blocks > entry.size_blocks) {
    return util::invalid_argument("truncate would grow the file");
  }
  if (new_size_blocks == entry.size_blocks) return util::ok_status();

  // O(extents) bitmap clears: trim the run list at the new size and release
  // every dropped block (plus surplus extent-table blocks).
  BRIDGE_RACE_WRITE(ctx, &bitmap_, 0, "efs.bitmap");
  BRIDGE_RACE_WRITE(ctx, &maps_, id, "efs.extent_map");
  std::vector<Extent> kept;
  kept.reserve(fm.extents.size());
  for (const Extent& e : fm.extents) {
    if (e.block_no + e.len <= new_size_blocks) {
      kept.push_back(e);
      continue;
    }
    std::uint32_t keep_len =
        e.block_no < new_size_blocks ? new_size_blocks - e.block_no : 0;
    for (std::uint32_t i = keep_len; i < e.len; ++i) {
      bitmap_.clear(e.addr + i);
      cache_.invalidate(e.addr + i);
    }
    if (keep_len > 0) kept.push_back(Extent{e.block_no, e.addr, keep_len});
  }
  stats_.extents_freed += fm.extents.size() - kept.size();
  fm.extents = std::move(kept);
  std::uint32_t needed_tables = table_blocks_for(fm.extents.size());
  while (fm.table_blocks.size() > needed_tables) {
    bitmap_.clear(fm.table_blocks.back());
    cache_.invalidate(fm.table_blocks.back());
    fm.table_blocks.pop_back();
  }
  entry.table_head =
      fm.table_blocks.empty() ? kNilAddr : fm.table_blocks.front();
  entry.size_blocks = new_size_blocks;
  poke_file_tables(static_cast<std::uint32_t>(slot));
  poke_bitmap();
  ++stats_.truncates;
  return dir_persist(ctx, static_cast<std::uint32_t>(slot), /*force=*/true);
}

util::Status EfsCore::sync(sim::Context& ctx) {
  if (auto st = cache_.flush_all(ctx); !st.is_ok()) return st;
  ctx.charge(sim::msec(15.0));  // directory + bitmap + superblock flush
  for (std::uint32_t b = 0; b < sb_.dir_blocks; ++b) poke_dir_block(b);
  poke_bitmap();
  sb_.free_count = bitmap_.free_count();
  sb_.clean = 1;
  poke_superblock();
  return util::ok_status();
}

std::uint32_t EfsCore::staging_tracks() const noexcept {
  return std::max(1u, config_.cache.capacity_blocks / 2 /
                          dev_.geometry().blocks_per_track);
}

BlockAddr EfsCore::peek_tail(FileId id) const {
  std::int64_t slot = dir_find(id);
  if (slot < 0) return kNilAddr;
  const std::vector<Extent>& extents =
      maps_[static_cast<std::size_t>(slot)].extents;
  if (extents.empty()) return kNilAddr;
  return extents.back().addr + extents.back().len - 1;
}

BlockAddr EfsCore::peek_block_addr(FileId id, std::uint32_t block_no) const {
  std::int64_t slot = dir_find(id);
  if (slot < 0) return kNilAddr;
  const std::vector<Extent>& extents =
      maps_[static_cast<std::size_t>(slot)].extents;
  auto it = std::upper_bound(
      extents.begin(), extents.end(), block_no,
      [](std::uint32_t b, const Extent& e) { return b < e.block_no; });
  if (it == extents.begin()) return kNilAddr;
  --it;
  if (block_no >= it->block_no + it->len) return kNilAddr;
  return it->addr + (block_no - it->block_no);
}

util::Status EfsCore::preflight_appends(FileId id, std::size_t appends) const {
  std::int64_t slot = dir_find(id);
  if (slot < 0) return util::not_found("file " + std::to_string(id));
  const FileMap& fm = maps_[static_cast<std::size_t>(slot)];
  // Worst case every appended block starts its own extent; the estimate is
  // exact for contiguous runs of up to kExtentsPerTableBlock blocks and
  // conservative beyond that — conservative is the right direction for a
  // fails-whole preflight.
  std::uint32_t needed_tables = table_blocks_for(fm.extents.size() + appends);
  std::uint32_t extra_tables =
      needed_tables > fm.table_blocks.size()
          ? needed_tables - static_cast<std::uint32_t>(fm.table_blocks.size())
          : 0;
  if (appends + extra_tables > bitmap_.free_count()) {
    return util::out_of_space("append run would overflow the volume");
  }
  return util::ok_status();
}

std::size_t EfsCore::extent_table_blocks_total() const noexcept {
  std::size_t n = 0;
  for (const FileMap& fm : maps_) n += fm.table_blocks.size();
  return n;
}

std::span<const std::byte> EfsCore::cache_view(BlockAddr addr) const {
  if (const auto* cached = cache_.peek(addr); cached != nullptr) {
    return std::span<const std::byte>(*cached);
  }
  auto raw = dev_.peek(addr);
  if (!raw) return {};
  return *raw;
}

std::size_t EfsCore::file_count() const noexcept {
  std::size_t n = 0;
  for (const auto& e : dir_) {
    if (!e.empty()) ++n;
  }
  return n;
}

void EfsCore::publish_metrics(obs::MetricsRegistry& registry,
                              const std::string& prefix) const {
  stats_.publish(registry, prefix);
  std::uint64_t files = 0, extents = 0, mapped_blocks = 0;
  for (const FileMap& fm : maps_) {
    if (fm.extents.empty()) continue;
    ++files;
    extents += fm.extents.size();
    for (const Extent& e : fm.extents) mapped_blocks += e.len;
  }
  registry.gauge(prefix + ".file_extents_avg")
      .set(files == 0 ? 0.0
                      : static_cast<double>(extents) /
                            static_cast<double>(files));
  registry.gauge(prefix + ".extent_len_avg")
      .set(extents == 0 ? 0.0
                        : static_cast<double>(mapped_blocks) /
                              static_cast<double>(extents));
}

util::Status EfsCore::verify_invariants() const {
  // NOTE: untimed — inspects the device + dirty cache state via peek.
  std::unordered_set<BlockAddr> seen;
  for (std::uint32_t slot = 0; slot < dir_.size(); ++slot) {
    const DirEntry& entry = dir_[slot];
    const FileMap& fm = maps_[slot];
    if (entry.empty()) {
      if (!fm.extents.empty() || !fm.table_blocks.empty()) {
        return util::corrupt("empty slot with live extent map");
      }
      continue;
    }
    if (!extents_well_formed(fm.extents, entry.size_blocks, sb_.data_start,
                             sb_.capacity_blocks)) {
      return util::corrupt("extent map malformed for file " +
                           std::to_string(entry.file_id));
    }
    if (fm.table_blocks.size() != table_blocks_for(fm.extents.size())) {
      return util::corrupt("extent table block count wrong");
    }
    BlockAddr expected_head =
        fm.table_blocks.empty() ? kNilAddr : fm.table_blocks.front();
    if (entry.table_head != expected_head) {
      return util::corrupt("directory table_head out of date");
    }
    for (BlockAddr t : fm.table_blocks) {
      if (t < sb_.data_start || t >= sb_.capacity_blocks) {
        return util::corrupt("extent table block outside data region");
      }
      if (!seen.insert(t).second) {
        return util::corrupt("extent table block shared or revisited");
      }
      if (!bitmap_.test(t)) {
        return util::corrupt("extent table block not marked allocated");
      }
    }
    for (const Extent& e : fm.extents) {
      for (std::uint32_t i = 0; i < e.len; ++i) {
        BlockAddr a = e.addr + i;
        if (!seen.insert(a).second) {
          return util::corrupt("block shared between files or revisited");
        }
        if (!bitmap_.test(a)) {
          return util::corrupt("mapped block not marked allocated in bitmap");
        }
        auto raw = cache_view(a);
        if (raw.empty()) return util::corrupt("unreadable mapped block");
        BlockHeader h = parse_header(raw);
        if (h.magic != kMagicDataBlock) {
          return util::corrupt("non-data block in extent map");
        }
        if (h.file_id != entry.file_id) {
          return util::corrupt("wrong file id in mapped block");
        }
        if (h.block_no != e.block_no + i) {
          return util::corrupt("wrong block number in mapped block");
        }
      }
    }
  }
  std::size_t data_blocks = sb_.capacity_blocks - sb_.data_start;
  if (seen.size() + bitmap_.free_count() != data_blocks) {
    return util::corrupt("allocated + free != capacity (leak or double use)");
  }
  if (sb_.free_count != bitmap_.free_count()) {
    return util::corrupt("superblock free count stale");
  }
  return util::ok_status();
}

}  // namespace bridge::efs
