#include "src/efs/layout.hpp"

#include <algorithm>
#include <bit>

namespace bridge::efs {

BlockHeader parse_header(std::span<const std::byte> block) {
  util::Reader r(block.subspan(0, kEfsHeaderBytes));
  return BlockHeader::decode(r);
}

void store_header(std::span<std::byte> block, const BlockHeader& header) {
  util::Writer w(kEfsHeaderBytes);
  header.encode(w);
  const auto& bytes = w.buffer();
  for (std::size_t i = 0; i < bytes.size(); ++i) block[i] = bytes[i];
}

std::vector<std::byte> ExtentTableBlock::to_image() const {
  util::Writer w(kBlockSize);
  w.u32(magic);
  w.u32(file_id);
  w.u32(static_cast<std::uint32_t>(extents.size()));
  w.u32(next);
  for (const Extent& e : extents) e.encode(w);
  std::vector<std::byte> image(kBlockSize);
  std::copy(w.buffer().begin(), w.buffer().end(), image.begin());
  return image;
}

ExtentTableBlock ExtentTableBlock::parse(std::span<const std::byte> block) {
  ExtentTableBlock t;
  util::Reader r(block);
  t.magic = r.u32();
  t.file_id = r.u32();
  std::uint32_t count = std::min(r.u32(), kExtentsPerTableBlock);
  t.next = r.u32();
  t.extents.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) t.extents.push_back(Extent::decode(r));
  return t;
}

void BlockBitmap::reset(std::uint32_t capacity_blocks,
                        std::uint32_t data_start) {
  capacity_ = capacity_blocks;
  data_start_ = data_start;
  words_.assign((capacity_blocks + 63) / 64, 0);
  for (BlockAddr a = 0; a < data_start && a < capacity_; ++a) {
    words_[a >> 6] |= std::uint64_t{1} << (a & 63);
  }
  free_count_ = capacity_ > data_start_ ? capacity_ - data_start_ : 0;
}

void BlockBitmap::set(BlockAddr a) noexcept {
  std::uint64_t mask = std::uint64_t{1} << (a & 63);
  if ((words_[a >> 6] & mask) == 0) {
    words_[a >> 6] |= mask;
    if (a >= data_start_) --free_count_;
  }
}

void BlockBitmap::clear(BlockAddr a) noexcept {
  std::uint64_t mask = std::uint64_t{1} << (a & 63);
  if ((words_[a >> 6] & mask) != 0) {
    words_[a >> 6] &= ~mask;
    if (a >= data_start_) ++free_count_;
  }
}

BlockBitmap::Run BlockBitmap::find_free_run(BlockAddr goal,
                                            std::uint32_t max_len) const {
  if (free_count_ == 0 || max_len == 0) return {};
  if (goal < data_start_ || goal >= capacity_) goal = data_start_;

  // Nearest free block at or after goal, word-skipping.
  BlockAddr start = kNilAddr;
  for (std::size_t w = goal >> 6; w < words_.size(); ++w) {
    std::uint64_t free_bits = ~words_[w];
    if (w == (goal >> 6)) free_bits &= ~std::uint64_t{0} << (goal & 63);
    if (free_bits == 0) continue;
    BlockAddr a = static_cast<BlockAddr>(w * 64) +
                  static_cast<BlockAddr>(std::countr_zero(free_bits));
    if (a < capacity_) start = a;
    break;
  }
  if (start == kNilAddr) {
    // Nothing ahead: nearest free block before goal (highest such address,
    // i.e. closest), scanning words backward.
    for (std::size_t w = (goal >> 6) + 1; w-- > 0;) {
      std::uint64_t free_bits = ~words_[w];
      if (w == (goal >> 6)) {
        free_bits &= (std::uint64_t{1} << (goal & 63)) - 1;
      }
      if (w == words_.size() - 1 && (capacity_ & 63) != 0) {
        free_bits &= (std::uint64_t{1} << (capacity_ & 63)) - 1;
      }
      if (free_bits == 0) continue;
      start = static_cast<BlockAddr>(w * 64) + 63 -
              static_cast<BlockAddr>(std::countl_zero(free_bits));
      break;
    }
  }
  if (start == kNilAddr) return {};

  Run run{start, 1};
  while (run.len < max_len && start + run.len < capacity_ &&
         !test(start + run.len)) {
    ++run.len;
  }
  return run;
}

BlockAddr BlockBitmap::find_free_aligned(BlockAddr goal,
                                         std::uint32_t span) const {
  if (span == 0 || span > 64 || !std::has_single_bit(span) ||
      free_count_ < span) {
    return kNilAddr;
  }
  if (goal < data_start_ || goal >= capacity_) goal = data_start_;
  const std::uint64_t mask =
      span == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << span) - 1;
  const std::uint32_t per_word = 64 / span;
  // Chunk c covers blocks [c * span, (c + 1) * span); only chunks that end
  // inside the device count (the last word's padding bits read as free).
  const std::uint32_t chunks = capacity_ / span;
  const std::uint32_t first = std::min((goal + span - 1) / span, chunks);
  auto scan = [&](std::uint32_t from, std::uint32_t to) -> BlockAddr {
    std::uint32_t c = from;
    while (c < to) {
      std::uint64_t word = words_[(c * span) >> 6];
      if (word == ~std::uint64_t{0}) {
        c = (c / per_word + 1) * per_word;  // whole word allocated
        continue;
      }
      if (((word >> ((c * span) & 63)) & mask) == 0) return c * span;
      ++c;
    }
    return kNilAddr;
  };
  BlockAddr found = scan(first, chunks);
  return found != kNilAddr ? found : scan(0, first);
}

std::vector<std::byte> BlockBitmap::encode_block(std::uint32_t index) const {
  std::vector<std::byte> image(kBlockSize);
  std::uint32_t first_bit = index * kBlockSize * 8;
  for (std::uint32_t i = 0; i < kBlockSize * 8; ++i) {
    BlockAddr a = first_bit + i;
    if (a >= capacity_) break;
    if (test(a)) {
      image[i >> 3] |= std::byte(static_cast<unsigned char>(1u << (i & 7)));
    }
  }
  return image;
}

void BlockBitmap::decode_block(std::uint32_t index,
                               std::span<const std::byte> image) {
  std::uint32_t first_bit = index * kBlockSize * 8;
  for (std::uint32_t i = 0; i < kBlockSize * 8; ++i) {
    BlockAddr a = first_bit + i;
    if (a >= capacity_) break;
    bool bit = (std::to_integer<unsigned char>(image[i >> 3]) >> (i & 7)) & 1u;
    std::uint64_t mask = std::uint64_t{1} << (a & 63);
    if (bit) {
      words_[a >> 6] |= mask;
    } else {
      words_[a >> 6] &= ~mask;
    }
  }
  recount();
}

bool BlockBitmap::operator==(const BlockBitmap& other) const noexcept {
  if (capacity_ != other.capacity_) return false;
  for (BlockAddr a = 0; a < capacity_; ++a) {
    if (test(a) != other.test(a)) return false;
  }
  return true;
}

void BlockBitmap::recount() noexcept {
  std::uint32_t allocated = 0;
  for (BlockAddr a = data_start_; a < capacity_; ++a) {
    if (test(a)) ++allocated;
  }
  free_count_ = capacity_ - data_start_ - allocated;
}

}  // namespace bridge::efs
