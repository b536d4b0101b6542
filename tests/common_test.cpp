// Unit + property tests for common: Buffer, RangeSet, Rng, digests, strutil.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <vector>

#include "common/buffer.h"
#include "common/digest.h"
#include "common/rangeset.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "common/units.h"

namespace blobcr::common {
namespace {

TEST(BufferTest, EmptyByDefault) {
  Buffer b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.is_phantom());
}

TEST(BufferTest, PatternIsDeterministic) {
  const Buffer a = Buffer::pattern(1000, 42);
  const Buffer b = Buffer::pattern(1000, 42);
  const Buffer c = Buffer::pattern(1000, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.digest(), c.digest());
}

TEST(BufferTest, PatternNonAlignedTail) {
  const Buffer a = Buffer::pattern(13, 7);
  EXPECT_EQ(a.size(), 13u);
  const Buffer b = Buffer::pattern(13, 7);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(BufferTest, SliceRoundTrip) {
  const Buffer a = Buffer::pattern(100, 1);
  const Buffer s = a.slice(10, 20);
  EXPECT_EQ(s.size(), 20u);
  Buffer whole = Buffer::zeros(100);
  whole.overwrite(0, a);
  EXPECT_EQ(whole.slice(10, 20), s);
}

TEST(BufferTest, OverwriteGrows) {
  Buffer b = Buffer::zeros(10);
  b.overwrite(8, Buffer::pattern(6, 9));
  EXPECT_EQ(b.size(), 14u);
  EXPECT_EQ(b.slice(8, 6), Buffer::pattern(6, 9));
}

TEST(BufferTest, OverwritePreservesSurroundings) {
  Buffer b = Buffer::pattern(30, 3);
  const Buffer before = b.slice(0, 10);
  const Buffer after = b.slice(20, 10);
  b.overwrite(10, Buffer::pattern(10, 4));
  EXPECT_EQ(b.slice(0, 10), before);
  EXPECT_EQ(b.slice(20, 10), after);
  EXPECT_EQ(b.slice(10, 10), Buffer::pattern(10, 4));
}

TEST(BufferTest, PhantomBasics) {
  const Buffer p = Buffer::phantom(500);
  EXPECT_TRUE(p.is_phantom());
  EXPECT_EQ(p.size(), 500u);
  EXPECT_TRUE(p.bytes().empty());
  EXPECT_EQ(p.digest(), Buffer::phantom(500).digest());
  EXPECT_NE(p.digest(), Buffer::phantom(501).digest());
}

TEST(BufferTest, PhantomIsContagious) {
  Buffer b = Buffer::pattern(100, 5);
  b.overwrite(50, Buffer::phantom(10));
  EXPECT_TRUE(b.is_phantom());
  EXPECT_EQ(b.size(), 100u);
}

TEST(BufferTest, PhantomSliceStaysPhantom) {
  const Buffer p = Buffer::phantom(100);
  const Buffer s = p.slice(10, 50);
  EXPECT_TRUE(s.is_phantom());
  EXPECT_EQ(s.size(), 50u);
}

TEST(BufferTest, EqualityDistinguishesPhantomFromReal) {
  EXPECT_NE(Buffer::phantom(10), Buffer::zeros(10));
  EXPECT_EQ(Buffer::phantom(10), Buffer::phantom(10));
}

TEST(BufferTest, FromStringRoundTrip) {
  const Buffer b = Buffer::from_string("hello world");
  EXPECT_EQ(b.to_string(), "hello world");
  EXPECT_EQ(b.size(), 11u);
}

TEST(BufferTest, ResizeZeroExtends) {
  Buffer b = Buffer::from_string("ab");
  b.resize(4);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.bytes()[2], std::byte{0});
  b.resize(1);
  EXPECT_EQ(b.to_string(), "a");
}

TEST(RangeSetTest, InsertCoalescesAdjacent) {
  RangeSet rs;
  rs.insert(0, 10);
  rs.insert(10, 20);
  EXPECT_EQ(rs.piece_count(), 1u);
  EXPECT_TRUE(rs.contains(0, 20));
  EXPECT_EQ(rs.total_length(), 20u);
}

TEST(RangeSetTest, InsertMergesOverlapping) {
  RangeSet rs;
  rs.insert(0, 10);
  rs.insert(20, 30);
  rs.insert(5, 25);
  EXPECT_EQ(rs.piece_count(), 1u);
  EXPECT_EQ(rs.total_length(), 30u);
}

TEST(RangeSetTest, EraseSplits) {
  RangeSet rs;
  rs.insert(0, 30);
  rs.erase(10, 20);
  EXPECT_EQ(rs.piece_count(), 2u);
  EXPECT_TRUE(rs.contains(0, 10));
  EXPECT_TRUE(rs.contains(20, 30));
  EXPECT_FALSE(rs.intersects(10, 20));
}

TEST(RangeSetTest, GapsOfPartiallyCovered) {
  RangeSet rs;
  rs.insert(10, 20);
  rs.insert(30, 40);
  const auto gaps = rs.gaps(0, 50);
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (Range{0, 10}));
  EXPECT_EQ(gaps[1], (Range{20, 30}));
  EXPECT_EQ(gaps[2], (Range{40, 50}));
}

TEST(RangeSetTest, IntersectionClips) {
  RangeSet rs;
  rs.insert(10, 20);
  const auto xs = rs.intersection(15, 50);
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_EQ(xs[0], (Range{15, 20}));
}

TEST(RangeSetTest, EmptyRangeInsertIgnored) {
  RangeSet rs;
  rs.insert(5, 5);
  EXPECT_TRUE(rs.empty());
}

TEST(RangeSetTest, ContainsEmptyRangeTrue) {
  RangeSet rs;
  EXPECT_TRUE(rs.contains(3, 3));
}

// Property test: RangeSet behaves exactly like a reference bit set under a
// random operation sequence.
class RangeSetPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RangeSetPropertyTest, MatchesReferenceBitset) {
  Rng rng(GetParam());
  constexpr std::uint64_t kUniverse = 256;
  RangeSet rs;
  std::vector<bool> ref(kUniverse, false);
  for (int step = 0; step < 300; ++step) {
    const std::uint64_t a = rng.uniform(kUniverse);
    const std::uint64_t b = a + rng.uniform(kUniverse - a + 1);
    if (rng.chance(0.6)) {
      rs.insert(a, b);
      for (std::uint64_t i = a; i < b; ++i) ref[i] = true;
    } else {
      rs.erase(a, b);
      for (std::uint64_t i = a; i < b; ++i) ref[i] = false;
    }
    // Invariant: coverage matches, coalescing holds.
    std::uint64_t ref_total = 0;
    for (bool v : ref) ref_total += v ? 1 : 0;
    ASSERT_EQ(rs.total_length(), ref_total);
    const std::uint64_t q1 = rng.uniform(kUniverse);
    const std::uint64_t q2 = q1 + rng.uniform(kUniverse - q1 + 1);
    bool all = true;
    bool any = false;
    for (std::uint64_t i = q1; i < q2; ++i) {
      all = all && ref[i];
      any = any || ref[i];
    }
    if (q1 == q2) {
      all = true;
      any = false;
    }
    ASSERT_EQ(rs.contains(q1, q2), all) << "q=[" << q1 << "," << q2 << ")";
    ASSERT_EQ(rs.intersects(q1, q2), any);
    // Pieces are disjoint, sorted, coalesced.
    const auto pieces = rs.to_vector();
    for (std::size_t i = 1; i < pieces.size(); ++i) {
      ASSERT_GT(pieces[i].begin, pieces[i - 1].end);
    }
  }
}

// Property test: fit_gap's in-place walk picks the same gap as the rule it
// replaced in the extent allocator, computed over the full gaps() vector:
// the first gap ending past the cursor that holds `need`, else the first
// longest gap.
TEST_P(RangeSetPropertyTest, FitGapMatchesGapsRule) {
  Rng rng(GetParam());
  constexpr std::uint64_t kUniverse = 256;
  RangeSet rs;
  int fallbacks = 0;
  for (int step = 0; step < 300; ++step) {
    const std::uint64_t a = rng.uniform(kUniverse);
    const std::uint64_t b = a + rng.uniform(kUniverse / 8);
    if (rng.chance(0.6)) {
      rs.insert(a, b);
    } else {
      rs.erase(a, b);
    }
    const std::uint64_t lo = rng.uniform(kUniverse / 4);
    const std::uint64_t hi = lo + rng.uniform(kUniverse - lo + 1);
    const std::uint64_t cursor = rng.uniform(kUniverse + 16);
    const std::uint64_t need = rng.uniform(48);

    const auto gaps = rs.gaps(lo, hi);
    std::optional<Range> expected;
    for (const Range& g : gaps) {
      if (g.end > cursor && g.length() >= need) {
        expected = g;
        break;
      }
    }
    if (!expected) {
      fallbacks += gaps.empty() ? 0 : 1;
      for (const Range& g : gaps) {
        if (!expected || g.length() > expected->length()) expected = g;
      }
    }
    ASSERT_EQ(rs.fit_gap(lo, hi, cursor, need), expected)
        << "window=[" << lo << "," << hi << ") cursor=" << cursor
        << " need=" << need;
  }
  EXPECT_GT(fallbacks, 0);  // the longest-gap fallback was exercised
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeSetPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

TEST(RngTest, DeterministicFromSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng root(7);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, Uniform01InUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

// Published XXH64 known-answer vectors (seed 0), taken through
// Buffer::digest(): a fully-real buffer digests as plain xxh64(bytes).
TEST(DigestTest, KnownXxh64Vectors) {
  EXPECT_EQ(Buffer().digest(), 0xef46db3751d8e999ULL);
  EXPECT_EQ(Buffer::from_string("").digest(), 0xef46db3751d8e999ULL);
  EXPECT_EQ(Buffer::from_string("a").digest(), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(Buffer::from_string("abc").digest(), 0x44bc2cf5ad770999ULL);
  // 39 bytes: one 32-byte stripe, then the 8/4/1-byte tail steps.
  EXPECT_EQ(
      Buffer::from_string("Nobody inspects the spammish repetition").digest(),
      0xfbcea83c8a378bf1ULL);
}

TEST(DigestTest, OrderSensitive) {
  EXPECT_NE(Buffer::from_string("ab").digest(),
            Buffer::from_string("ba").digest());
}

TEST(DigestTest, AppendedPiecesDigestAsFlatBuffer) {
  const Buffer flat = Buffer::pattern(1000, 11);
  Buffer built;
  std::size_t off = 0;
  for (std::size_t piece = 1; off < flat.size(); piece = piece % 7 + 1) {
    const std::size_t len = std::min(piece, flat.size() - off);
    built.append(flat.slice(off, len));
    off += len;
  }
  EXPECT_EQ(built, flat);
  EXPECT_EQ(built.digest(), flat.digest());
}

TEST(DigestTest, MixedBuffersAreOrderSensitive) {
  const Buffer real = Buffer::pattern(100, 5);
  Buffer real_then_phantom = real;
  real_then_phantom.append(Buffer::phantom(64));
  Buffer phantom_then_real = Buffer::phantom(64);
  phantom_then_real.append(real);
  EXPECT_NE(real_then_phantom.digest(), phantom_then_real.digest());
  EXPECT_NE(real_then_phantom.digest(), real.digest());
  // The chain: each segment is hashed with the previous digest as its seed;
  // a phantom segment feeds its little-endian length marker.
  std::array<std::byte, 8> marker{};
  const std::uint64_t m = mix64(Buffer::kPhantomSalt ^ 64);
  for (std::size_t i = 0; i < marker.size(); ++i) {
    marker[i] = static_cast<std::byte>(m >> (i * 8));
  }
  EXPECT_EQ(real_then_phantom.digest(), xxh64(marker, xxh64(real.bytes())));
  // The phantom marker depends on the phantom length.
  Buffer longer_phantom = real;
  longer_phantom.append(Buffer::phantom(65));
  EXPECT_NE(real_then_phantom.digest(), longer_phantom.digest());
}

TEST(DigestTest, PurePhantomKeepsLengthFormula) {
  for (const std::size_t n : {1u, 7u, 4096u, 262144u}) {
    EXPECT_EQ(Buffer::phantom(n).digest(), mix64(Buffer::kPhantomSalt ^ n));
  }
}

TEST(BufferTest, AllZeroEdgeCases) {
  EXPECT_FALSE(Buffer().all_zero());
  EXPECT_FALSE(Buffer::phantom(16).all_zero());
  Buffer zeros_then_phantom = Buffer::zeros(16);
  zeros_then_phantom.append(Buffer::phantom(8));
  EXPECT_FALSE(zeros_then_phantom.all_zero());
  for (std::size_t n = 1; n <= 17; ++n) {
    Buffer b = Buffer::zeros(n);
    EXPECT_TRUE(b.all_zero()) << n;
    b.mutable_bytes()[n - 1] = std::byte{1};
    EXPECT_FALSE(b.all_zero()) << n;
  }
}

TEST(StrutilTest, Strf) {
  EXPECT_EQ(strf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strf("%s", ""), "");
}

TEST(StrutilTest, HumanBytes) {
  EXPECT_EQ(human_bytes(500), "500 B");
  EXPECT_EQ(human_bytes(1500), "1.50 KB");
  EXPECT_EQ(human_bytes(52 * kMB), "52.00 MB");
  EXPECT_EQ(human_bytes(2'000'000'000ULL), "2.00 GB");
}

TEST(StrutilTest, Split) {
  const auto parts = split("a/b//c", '/');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(kib(4), 4096u);
  EXPECT_EQ(mb(50), 50'000'000u);
  EXPECT_EQ(mib(2), 2u * 1024 * 1024);
  EXPECT_DOUBLE_EQ(mb_per_s(117.5), 117.5e6);
}

}  // namespace
}  // namespace blobcr::common
