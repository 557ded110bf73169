#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "seq/packed.hpp"
#include "test_util.hpp"

namespace {

using namespace swr::seq;

TEST(PackedDna, RoundTripsArbitraryLengths) {
  // Cover every word-boundary case: 0..67 spans two 64-bit words.
  for (std::size_t n = 0; n <= 67; ++n) {
    const Sequence s = swr::test::random_dna(n, 1000 + n);
    const PackedDna p(s);
    ASSERT_EQ(p.size(), n);
    Sequence u = p.unpack();
    EXPECT_EQ(u.codes().size(), s.codes().size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(p[i], s[i]) << "position " << i << " length " << n;
    }
  }
}

TEST(PackedDna, FourBasesPerByte) {
  const Sequence s = swr::test::random_dna(1024, 3);
  const PackedDna p(s);
  EXPECT_LE(p.storage_bytes(), 1024u / 4 + 8);
}

TEST(PackedDna, PushBackMatchesBulkPack) {
  const Sequence s = swr::test::random_dna(129, 9);
  PackedDna p;
  for (std::size_t i = 0; i < s.size(); ++i) p.push_back(s[i]);
  EXPECT_EQ(p.unpack(), s);
}

TEST(PackedDna, AtChecksBounds) {
  PackedDna p(Sequence::dna("ACG"));
  EXPECT_EQ(p.at(2), dna().code('G'));
  EXPECT_THROW((void)p.at(3), std::out_of_range);
}

TEST(PackedDna, RejectsBadCodeAndNonDna) {
  PackedDna p;
  EXPECT_THROW(p.push_back(4), std::invalid_argument);
  EXPECT_THROW(PackedDna{Sequence::protein("AR")}, std::invalid_argument);
}

// unpack2's byte table against the plain shift loop: every byte value in
// every quarter position, every tail length 0..7 past the whole bytes,
// and starts at odd byte offsets so table and tail split differently.
TEST(Unpack2, TableMatchesShiftLoopForEveryByteAndTail) {
  std::vector<std::uint8_t> packed;
  for (unsigned b = 0; b < 256; ++b) packed.push_back(static_cast<std::uint8_t>(b));
  for (unsigned b = 0; b < 256; ++b) packed.push_back(static_cast<std::uint8_t>(b * 37 + 11));
  packed.push_back(0xA5);
  packed.push_back(0x3C);
  const auto shift_loop = [](const std::uint8_t* in, std::size_t n) {
    std::vector<Code> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<Code>((in[i >> 2] >> ((i & 3u) * 2)) & 0x3u);
    }
    return out;
  };
  for (const std::size_t start : {0u, 1u, 3u, 7u}) {
    const std::size_t avail = (packed.size() - start) * 4;
    for (const std::size_t whole : {0u, 1u, 3u, 17u, 255u, 256u, 505u}) {
      for (std::size_t tail = 0; tail < 8; ++tail) {
        const std::size_t n = whole * 4 + tail;
        if (n > avail) continue;
        std::vector<Code> got(n + 1, 0xEE);  // one guard byte past the end
        unpack2(packed.data() + start, n, got.data());
        EXPECT_EQ(got.back(), 0xEE) << "wrote past n=" << n;
        got.pop_back();
        EXPECT_EQ(got, shift_loop(packed.data() + start, n))
            << "start " << start << " n " << n;
      }
    }
  }
}

TEST(Unpack2, RoundTripsPack2AtOddLengths) {
  for (std::size_t n = 1; n <= 41; n += 2) {
    const Sequence s = swr::test::random_dna(n, 2000 + n);
    std::vector<std::uint8_t> packed(packed2_bytes(n));
    pack2(s.codes(), packed.data());
    std::vector<Code> out(n);
    unpack2(packed.data(), n, out.data());
    EXPECT_TRUE(std::equal(out.begin(), out.end(), s.codes().begin())) << "n " << n;
  }
}

}  // namespace
