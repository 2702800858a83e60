// Interleave mapping and distribution strategies: bijection properties,
// the §3 consecutive-block guarantee, chunked capacity behaviour, hashed
// bookkeeping.  Parameterized across widths and start nodes.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/core/distribution.hpp"
#include "src/core/interleave.hpp"

namespace bridge::core {
namespace {

TEST(Interleave, PaperFormula) {
  // "the nth block ... will be block (n div p) in the constituent file on
  // LFS (n mod p)"
  for (std::uint64_t n = 0; n < 100; ++n) {
    auto placement = striped_placement(n, 9, 0, 9);
    EXPECT_EQ(placement.lfs_index, n % 9);
    EXPECT_EQ(placement.local_block, n / 9);
  }
}

TEST(Interleave, StartOffsetRotates) {
  // "the nth block will be found on processor ((n + k) mod p)"
  for (std::uint32_t k = 0; k < 5; ++k) {
    for (std::uint64_t n = 0; n < 40; ++n) {
      EXPECT_EQ(striped_placement(n, 5, k, 5).lfs_index, (n + k) % 5);
    }
  }
}

TEST(Interleave, RoundTripInverse) {
  for (std::uint32_t p : {1u, 2u, 7u, 32u}) {
    for (std::uint32_t k = 0; k < p; ++k) {
      for (std::uint64_t n = 0; n < 3 * p + 5; ++n) {
        auto placement = striped_placement(n, p, k, p);
        EXPECT_EQ(striped_global(placement.lfs_index, placement.local_block,
                                 p, k, p),
                  n)
            << "p=" << p << " k=" << k << " n=" << n;
      }
    }
  }
}

class StripingProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t,
                                                 std::uint32_t>> {};

TEST_P(StripingProperty, PlacementIsBijective) {
  auto [width, start, total] = GetParam();
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (std::uint64_t n = 0; n < 4ull * width; ++n) {
    auto placement = striped_placement(n, width, start, total);
    EXPECT_LT(placement.lfs_index, total);
    EXPECT_TRUE(seen.insert({placement.lfs_index, placement.local_block}).second)
        << "collision at n=" << n;
    EXPECT_EQ(striped_global(placement.lfs_index, placement.local_block, width,
                             start, total),
              n);
  }
}

TEST_P(StripingProperty, ConsecutiveBlocksHitDistinctLfs) {
  // The §3 guarantee: any `width` consecutive blocks land on `width`
  // distinct LFSs.
  auto [width, start, total] = GetParam();
  for (std::uint64_t first = 0; first < 3 * width; ++first) {
    std::set<std::uint32_t> lfs;
    for (std::uint64_t n = first; n < first + width; ++n) {
      lfs.insert(striped_placement(n, width, start, total).lfs_index);
    }
    EXPECT_EQ(lfs.size(), width);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndStarts, StripingProperty,
    ::testing::Values(std::make_tuple(1u, 0u, 8u), std::make_tuple(2u, 3u, 8u),
                      std::make_tuple(4u, 6u, 8u), std::make_tuple(8u, 0u, 8u),
                      std::make_tuple(8u, 5u, 8u), std::make_tuple(16u, 9u, 32u),
                      std::make_tuple(32u, 0u, 32u),
                      std::make_tuple(3u, 2u, 7u)));

TEST(PlacementMap, RoundRobinAppendAndPlaceAgree) {
  PlacementMap m(Distribution::kRoundRobin, 4, 1, 8, 0, 0);
  for (std::uint64_t n = 0; n < 40; ++n) {
    auto appended = m.append();
    ASSERT_TRUE(appended.is_ok());
    auto placed = m.place(n);
    ASSERT_TRUE(placed.is_ok());
    EXPECT_EQ(appended.value(), placed.value());
  }
  EXPECT_EQ(m.size_blocks(), 40u);
  EXPECT_EQ(m.place(40).status().code(), util::ErrorCode::kInvalidArgument);
}

TEST(PlacementMap, ChunkedFillsChunksInOrderAndCaps) {
  PlacementMap m(Distribution::kChunked, 4, 0, 4, /*chunk_blocks=*/10, 0);
  for (std::uint64_t n = 0; n < 40; ++n) {
    auto placement = m.append();
    ASSERT_TRUE(placement.is_ok());
    EXPECT_EQ(placement.value().lfs_index, n / 10);
    EXPECT_EQ(placement.value().local_block, n % 10);
  }
  // "The principal disadvantage of chunking is that it requires a priori
  // information on the ultimate size": block 41 overflows.
  EXPECT_EQ(m.append().status().code(), util::ErrorCode::kOutOfSpace);
}

TEST(PlacementMap, RechunkCountsMovedBlocks) {
  PlacementMap m(Distribution::kChunked, 4, 0, 4, 10, 0);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(m.append().is_ok());
  // Growing chunks 10 -> 20 keeps only chunk 0's first 10 blocks in place.
  EXPECT_EQ(m.rechunk(20), 30u);
  // And appending works again.
  EXPECT_TRUE(m.append().is_ok());
}

TEST(PlacementMap, HashedPlacementsAreDenseAndStable) {
  PlacementMap m(Distribution::kHashed, 8, 0, 8, 0, /*seed=*/42);
  std::vector<Placement> placements;
  for (std::uint64_t n = 0; n < 200; ++n) {
    auto placement = m.append();
    ASSERT_TRUE(placement.is_ok());
    placements.push_back(placement.value());
  }
  // Stable: place(n) returns what append chose.
  for (std::uint64_t n = 0; n < 200; ++n) {
    EXPECT_EQ(m.place(n).value(), placements[n]);
  }
  // Dense per LFS: local numbers 0..count-1 with no gaps.
  std::vector<std::uint32_t> counts(8, 0);
  std::vector<std::set<std::uint32_t>> locals(8);
  for (const auto& placement : placements) {
    counts[placement.lfs_index]++;
    locals[placement.lfs_index].insert(placement.local_block);
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(locals[i].size(), counts[i]);
    if (counts[i] > 0) {
      EXPECT_EQ(*locals[i].rbegin(), counts[i] - 1);
    }
  }
}

TEST(PlacementMap, HashedRarelyCoversPWithPConsecutive) {
  // §3: "the probability that p consecutive blocks would be on p different
  // processors would be extremely low" for hashing.
  PlacementMap m(Distribution::kHashed, 8, 0, 8, 0, 7);
  for (int i = 0; i < 800; ++i) ASSERT_TRUE(m.append().is_ok());
  int full_coverage = 0;
  for (std::uint64_t first = 0; first + 8 <= 800; first += 8) {
    std::set<std::uint32_t> lfs;
    for (std::uint64_t n = first; n < first + 8; ++n) {
      lfs.insert(m.place(n).value().lfs_index);
    }
    if (lfs.size() == 8) ++full_coverage;
  }
  // Expected rate is 8!/8^8 ~ 0.24%; allow generous slack.
  EXPECT_LT(full_coverage, 5);
}

TEST(PlacementMap, LinkedRecordsExplicitPlacements) {
  PlacementMap m(Distribution::kLinked, 4, 0, 4, 0, 0);
  ASSERT_TRUE(m.append_linked({2, 7}).is_ok());
  ASSERT_TRUE(m.append_linked({0, 3}).is_ok());
  EXPECT_EQ(m.place(0).value(), (Placement{2, 7}));
  EXPECT_EQ(m.place(1).value(), (Placement{0, 3}));
  EXPECT_EQ(m.append().status().code(), util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(m.append_linked({9, 0}).code(), util::ErrorCode::kInvalidArgument);
}

TEST(PlacementMap, TruncateShrinksHashedBookkeeping) {
  PlacementMap m(Distribution::kHashed, 4, 0, 4, 0, 3);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(m.append().is_ok());
  auto p10 = m.place(10).value();
  m.truncate(20);
  EXPECT_EQ(m.size_blocks(), 20u);
  EXPECT_EQ(m.place(10).value(), p10);
  // Re-appending reuses freed local slots (no gaps).
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(m.append().is_ok());
  std::vector<std::set<std::uint32_t>> locals(4);
  for (std::uint64_t n = 0; n < 50; ++n) {
    auto placement = m.place(n).value();
    EXPECT_TRUE(locals[placement.lfs_index].insert(placement.local_block).second)
        << "duplicate local slot after truncate+append";
  }
}

TEST(PlacementMap, SerializationRoundTrip) {
  PlacementMap m(Distribution::kHashed, 8, 2, 8, 0, 99);
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(m.append().is_ok());
  util::Writer w;
  m.encode(w);
  util::Reader r(w.buffer());
  PlacementMap m2 = PlacementMap::decode(r);
  EXPECT_EQ(m2.size_blocks(), m.size_blocks());
  EXPECT_EQ(m2.width(), m.width());
  for (std::uint64_t n = 0; n < 64; ++n) {
    EXPECT_EQ(m2.place(n).value(), m.place(n).value());
  }
}

}  // namespace
}  // namespace bridge::core
