#include "src/core/distribution.hpp"

#include <algorithm>

namespace bridge::core {

const char* distribution_name(Distribution d) noexcept {
  switch (d) {
    case Distribution::kRoundRobin: return "round-robin";
    case Distribution::kChunked: return "chunked";
    case Distribution::kHashed: return "hashed";
    case Distribution::kLinked: return "linked";
  }
  return "?";
}

PlacementMap::PlacementMap(Distribution dist, std::uint32_t width,
                           std::uint32_t start_lfs, std::uint32_t total_lfs,
                           std::uint32_t chunk_blocks, std::uint64_t hash_seed)
    : dist_(dist),
      width_(width == 0 ? 1 : width),
      total_lfs_(total_lfs == 0 ? 1 : total_lfs),
      start_lfs_(start_lfs % (total_lfs == 0 ? 1 : total_lfs)),
      chunk_blocks_(chunk_blocks),
      hash_seed_(hash_seed) {
  if (width_ > total_lfs_) width_ = total_lfs_;
  if (dist_ == Distribution::kHashed || dist_ == Distribution::kLinked) {
    next_local_.assign(total_lfs_, 0);
  }
}

std::vector<std::uint32_t> PlacementMap::span() const {
  std::uint32_t w = dist_ == Distribution::kLinked ? total_lfs_ : width_;
  std::vector<std::uint32_t> lfs;
  lfs.reserve(w);
  for (std::uint32_t i = 0; i < total_lfs_; ++i) {
    if ((i + total_lfs_ - start_lfs_) % total_lfs_ < w) lfs.push_back(i);
  }
  return lfs;
}

util::Result<Placement> PlacementMap::place(std::uint64_t n) const {
  if (n >= size_) return util::invalid_argument("block beyond EOF");
  switch (dist_) {
    case Distribution::kRoundRobin:
      return striped_placement(n, width_, start_lfs_, total_lfs_);
    case Distribution::kChunked:
      return Placement{
          static_cast<std::uint32_t>(
              (start_lfs_ + n / chunk_blocks_) % total_lfs_),
          static_cast<std::uint32_t>(n % chunk_blocks_)};
    case Distribution::kHashed:
    case Distribution::kLinked:
      return table_[n];
  }
  return util::internal_error("bad distribution");
}

util::Result<Placement> PlacementMap::append() {
  std::uint64_t n = size_;
  switch (dist_) {
    case Distribution::kRoundRobin: {
      ++size_;
      return striped_placement(n, width_, start_lfs_, total_lfs_);
    }
    case Distribution::kChunked: {
      if (chunk_blocks_ == 0) {
        return util::invalid_argument("chunked file needs chunk_blocks > 0");
      }
      if (n >= static_cast<std::uint64_t>(width_) * chunk_blocks_) {
        return util::out_of_space("chunked file at capacity; rechunk required");
      }
      ++size_;
      return Placement{
          static_cast<std::uint32_t>(
              (start_lfs_ + n / chunk_blocks_) % total_lfs_),
          static_cast<std::uint32_t>(n % chunk_blocks_)};
    }
    case Distribution::kHashed: {
      std::uint32_t lfs =
          (start_lfs_ + hashed_lfs(n, width_, hash_seed_)) % total_lfs_;
      Placement placement{lfs, next_local_[lfs]++};
      table_.push_back(placement);
      ++size_;
      return placement;
    }
    case Distribution::kLinked:
      return util::invalid_argument("linked files use append_linked");
  }
  return util::internal_error("bad distribution");
}

util::Status PlacementMap::append_linked(Placement placement) {
  if (dist_ != Distribution::kLinked) {
    return util::invalid_argument("not a linked file");
  }
  if (placement.lfs_index >= total_lfs_) {
    return util::invalid_argument("placement LFS out of range");
  }
  table_.push_back(placement);
  if (placement.lfs_index < next_local_.size()) {
    next_local_[placement.lfs_index] =
        std::max(next_local_[placement.lfs_index], placement.local_block + 1);
  }
  ++size_;
  return util::ok_status();
}

std::uint64_t PlacementMap::rechunk(std::uint32_t new_chunk_blocks) {
  // Every block whose placement changes must physically move.  Growing the
  // chunk size from c to c' keeps only the first min(c, c') blocks (the
  // prefix of chunk 0) in place.
  std::uint64_t stay = std::min<std::uint64_t>(
      size_, std::min(chunk_blocks_, new_chunk_blocks));
  chunk_blocks_ = new_chunk_blocks;
  return size_ - stay;
}

void PlacementMap::truncate(std::uint64_t n) {
  if (n >= size_) return;
  if (dist_ == Distribution::kHashed || dist_ == Distribution::kLinked) {
    for (std::uint64_t i = n; i < size_; ++i) {
      --next_local_[table_[i].lfs_index];
    }
  }
  if (!table_.empty() && table_.size() > n) table_.resize(n);
  size_ = n;
}

void PlacementMap::encode(util::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(dist_));
  w.u32(width_);
  w.u32(total_lfs_);
  w.u32(start_lfs_);
  w.u32(chunk_blocks_);
  w.u64(hash_seed_);
  w.u64(size_);
  w.u32(static_cast<std::uint32_t>(table_.size()));
  for (const auto& placement : table_) {
    w.u32(placement.lfs_index);
    w.u32(placement.local_block);
  }
}

PlacementMap PlacementMap::decode(util::Reader& r) {
  PlacementMap m;
  m.dist_ = static_cast<Distribution>(r.u8());
  m.width_ = r.u32();
  m.total_lfs_ = r.u32();
  m.start_lfs_ = r.u32();
  m.chunk_blocks_ = r.u32();
  m.hash_seed_ = r.u64();
  m.size_ = r.u64();
  std::uint32_t entries = r.u32();
  m.table_.reserve(entries);
  for (std::uint32_t i = 0; i < entries; ++i) {
    Placement placement;
    placement.lfs_index = r.u32();
    placement.local_block = r.u32();
    m.table_.push_back(placement);
  }
  if (m.dist_ == Distribution::kHashed) {
    m.next_local_.assign(m.total_lfs_, 0);
    for (const auto& placement : m.table_) {
      m.next_local_[placement.lfs_index] =
          std::max(m.next_local_[placement.lfs_index],
                   placement.local_block + 1);
    }
  }
  return m;
}

}  // namespace bridge::core
