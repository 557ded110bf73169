// Inter-sequence (record-per-lane) kernels: profile tables, score-only
// scans and the seeded Locate pass bit-identical to sw_linear across batch
// shapes, lane-refill edge cases, and the exact per-lane saturation
// predicate shared with the SWAR/striped 8-bit tiers.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "align/sw_antidiag8.hpp"
#include "align/sw_interseq.hpp"
#include "align/sw_linear.hpp"
#include "core/cpu_features.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::align;

const Scoring kSc = Scoring::paper_default();

std::vector<unsigned> supported_lane_widths() {
  std::vector<unsigned> widths;
  if (core::cpu_supports(core::SimdIsa::Sse41)) widths.push_back(16);
  if (core::cpu_supports(core::SimdIsa::Avx2)) widths.push_back(32);
  if (core::cpu_supports(core::SimdIsa::Avx512)) widths.push_back(64);
  return widths;
}

// Seeds the Locate pass with every present score and checks each located
// cell (with its score) against the sw_linear oracle — the canonical
// smallest-(j, i) end cell.
void expect_cells_match_oracle(const std::vector<seq::Sequence>& records,
                               const std::vector<std::optional<Score>>& scores,
                               const seq::Sequence& query, const Scoring& sc, unsigned lanes,
                               const std::string& what) {
  std::vector<seq::Sequence> fits;
  std::vector<Score> seeds;
  for (std::size_t r = 0; r < records.size(); ++r) {
    if (!scores[r].has_value()) continue;
    fits.push_back(records[r]);
    seeds.push_back(*scores[r]);
  }
  const auto cells = sw_interseq_locate_batch(fits, query, sc, lanes, seeds);
  ASSERT_TRUE(cells.has_value()) << what;
  ASSERT_EQ(cells->size(), fits.size()) << what;
  for (std::size_t k = 0; k < fits.size(); ++k) {
    EXPECT_EQ((LocalScoreResult{seeds[k], (*cells)[k]}), sw_linear(fits[k], query, sc))
        << what << " located record " << k;
  }
}

// Scores `records` through the interseq batch and checks every returned
// score against the sw_linear oracle: a present value must be the exact
// best score, and absence must coincide exactly with a true score > 255
// (the swar8/striped saturation predicate). The present scores then seed
// the Locate pass, whose cells must be the oracle's.
void expect_batch_matches_oracle(const std::vector<seq::Sequence>& records,
                                 const seq::Sequence& query, const Scoring& sc, unsigned lanes,
                                 const std::string& what, InterSeqStats* stats = nullptr) {
  const auto batch = sw_interseq_batch(records, query, sc, lanes, stats);
  ASSERT_TRUE(batch.has_value()) << what;
  ASSERT_EQ(batch->size(), records.size()) << what;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const LocalScoreResult oracle = sw_linear(records[r], query, sc);
    if (oracle.score > 255) {
      EXPECT_FALSE((*batch)[r].has_value()) << what << " record " << r << " (oracle score "
                                            << oracle.score << " must saturate the lane)";
    } else {
      ASSERT_TRUE((*batch)[r].has_value()) << what << " record " << r;
      EXPECT_EQ(*(*batch)[r], oracle.score) << what << " record " << r;
    }
  }
  expect_cells_match_oracle(records, *batch, query, sc, lanes, what);
}

TEST(InterSeqProfile, RejectsUnsupportedLaneCount) {
  const seq::Sequence q = seq::Sequence::dna("ACGT");
  EXPECT_THROW(InterSeqProfile(q, kSc, 8), std::invalid_argument);
  EXPECT_THROW(InterSeqProfile(q, kSc, 0), std::invalid_argument);
  EXPECT_THROW(InterSeqProfile(q, kSc, 48), std::invalid_argument);
  EXPECT_THROW(InterSeqProfile(q, kSc, 128), std::invalid_argument);
  EXPECT_EQ(InterSeqProfile(q, kSc, 64).lanes8(), 64u);
}

TEST(InterSeqProfile, ColumnTablesHoldTheScalarScores) {
  const seq::Sequence q = swr::test::random_dna(23, 91);
  for (const unsigned lanes : {16u, 32u, 64u}) {
    const InterSeqProfile p(q, kSc, lanes);
    ASSERT_TRUE(p.usable());
    EXPECT_EQ(p.table_slots(), 16u);  // DNA: 4 residues + neutral fits one pshufb
    EXPECT_EQ(p.neutral_code(), seq::Code{4});
    for (std::size_t j = 1; j <= q.size(); ++j) {
      for (seq::Code c = 0; c < q.alphabet().size(); ++c) {
        const Score s = kSc.substitution(c, q.codes()[j - 1]);
        EXPECT_EQ(p.pos_tab(j)[c], s > 0 ? s : 0) << "j=" << j << " c=" << int(c);
        EXPECT_EQ(p.neg_tab(j)[c], s < 0 ? -s : 0) << "j=" << j << " c=" << int(c);
      }
      // Neutral and unused slots: pos 0 / neg max pins a lane to zero.
      for (std::size_t slot = q.alphabet().size(); slot < p.table_slots(); ++slot) {
        EXPECT_EQ(p.pos_tab(j)[slot], 0u);
        EXPECT_EQ(p.neg_tab(j)[slot], 0xFFu);
      }
    }
  }
}

TEST(InterSeqProfile, ProteinNeedsTheWideTable) {
  const seq::Sequence q = swr::test::random_protein(15, 92);
  Scoring sc;
  sc.matrix = &blosum62();
  const InterSeqProfile p(q, sc, 16);
  ASSERT_TRUE(p.usable());
  // 21 residues + neutral = 22 slots: lo/hi pshufb pair.
  EXPECT_EQ(p.table_slots(), 32u);
  EXPECT_EQ(p.neutral_code(), seq::Code{21});
}

TEST(InterSeqBatch, EquivalenceSweepVsSwLinear) {
  // Batch shapes around every lane boundary, record lengths mixed per
  // batch (the lane-refill machinery is exercised hardest when lengths
  // diverge), plus empty and 1-residue records in the middle.
  for (const unsigned lanes : supported_lane_widths()) {
    for (const std::size_t count :
         {1u, 2u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 65u, 67u, 129u}) {
      std::mt19937_64 lens(count * 977 + lanes);
      std::uniform_int_distribution<std::size_t> len(0, 90);
      std::vector<seq::Sequence> records;
      for (std::size_t r = 0; r < count; ++r) {
        records.push_back(swr::test::random_dna(len(lens), count * 1000 + r));
      }
      const seq::Sequence query = swr::test::random_dna(41, count + 7);
      expect_batch_matches_oracle(records, query, kSc, lanes,
                                  "lanes " + std::to_string(lanes) + " count " +
                                      std::to_string(count));
    }
  }
}

TEST(InterSeqBatch, EmptyAndTinyRecordsInsideABatch) {
  for (const unsigned lanes : supported_lane_widths()) {
    std::vector<seq::Sequence> records;
    records.push_back(seq::Sequence::dna(""));
    records.push_back(seq::Sequence::dna("A"));
    records.push_back(swr::test::random_dna(60, 5));
    records.push_back(seq::Sequence::dna(""));
    records.push_back(seq::Sequence::dna("G"));
    for (std::size_t r = 0; r < 20; ++r) records.push_back(swr::test::random_dna(3 + r, 50 + r));
    const seq::Sequence query = swr::test::random_dna(25, 3);
    expect_batch_matches_oracle(records, query, kSc, lanes,
                                "tiny records, lanes " + std::to_string(lanes));
  }
}

TEST(InterSeqBatch, EmptyBatchAndEmptyQuery) {
  for (const unsigned lanes : supported_lane_widths()) {
    const std::vector<seq::Sequence> none;
    const auto empty = sw_interseq_batch(none, seq::Sequence::dna("ACGT"), kSc, lanes);
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->empty());

    const std::vector<seq::Sequence> recs = {seq::Sequence::dna("ACGT"),
                                             seq::Sequence::dna("")};
    const auto r = sw_interseq_batch(recs, seq::Sequence::dna(""), kSc, lanes);
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(r->size(), 2u);
    for (const auto& one : *r) {
      ASSERT_TRUE(one.has_value());
      EXPECT_EQ(*one, 0);
    }
    expect_cells_match_oracle(recs, *r, seq::Sequence::dna(""), kSc, lanes, "empty query");
  }
}

TEST(InterSeqBatch, CanonicalTieBreakAcrossRepeats) {
  // A periodic query against periodic records produces many equal-scoring
  // cells; the Locate pass must find the smallest-(j, i) cell exactly like
  // sw_linear.
  for (const unsigned lanes : supported_lane_widths()) {
    std::vector<seq::Sequence> records;
    for (std::size_t r = 0; r < 40; ++r) {
      std::string text;
      for (std::size_t k = 0; k < 8 + r; ++k) text += "ACGT"[k % 4];
      records.push_back(seq::Sequence::dna(text));
    }
    seq::Sequence query = seq::Sequence::dna("ACGTACGTACGTACGT");
    expect_batch_matches_oracle(records, query, kSc, lanes,
                                "periodic, lanes " + std::to_string(lanes));
  }
}

TEST(InterSeqBatch, ProteinBlosum62) {
  Scoring sc;
  sc.matrix = &blosum62();
  for (const unsigned lanes : supported_lane_widths()) {
    std::vector<seq::Sequence> records;
    std::mt19937_64 lens(88);
    std::uniform_int_distribution<std::size_t> len(0, 70);
    for (std::size_t r = 0; r < 45; ++r) {
      records.push_back(swr::test::random_protein(len(lens), 300 + r));
    }
    const seq::Sequence query = swr::test::random_protein(33, 17);
    expect_batch_matches_oracle(records, query, sc, lanes,
                                "blosum62, lanes " + std::to_string(lanes));
  }
}

// Straddle the 255/256 saturation boundary exactly: a record scoring 255
// must come back exact, 256 must come back absent, and absence must agree
// with the swar8 kernel's predicate record by record.
TEST(InterSeqBatch, SaturationBoundaryExactAndSwar8PredicateParity) {
  for (const unsigned lanes : supported_lane_widths()) {
    std::vector<seq::Sequence> records;
    std::vector<seq::Sequence> queries;  // matched per record below
    // Identical copies score exactly their length under +1 matches.
    const seq::Sequence q300 = swr::test::random_dna(300, 1234);
    for (const std::size_t score : {254u, 255u, 256u, 300u}) {
      records.push_back(q300.subsequence(0, score));
    }
    for (std::size_t r = 0; r < 12; ++r) records.push_back(swr::test::random_dna(80, 40 + r));

    const auto batch = sw_interseq_batch(records, q300, kSc, lanes);
    ASSERT_TRUE(batch.has_value());
    std::size_t absent = 0;
    Antidiag8Workspace ws8;
    for (std::size_t r = 0; r < records.size(); ++r) {
      const LocalScoreResult oracle = sw_linear(records[r], q300, kSc);
      const auto swar8 = sw_antidiag8_try(records[r].codes(), q300.codes(), kSc, ws8);
      EXPECT_EQ((*batch)[r].has_value(), swar8.has_value())
          << "record " << r << ": interseq and swar8 must saturate on exactly the same records";
      if ((*batch)[r].has_value()) {
        EXPECT_EQ(*(*batch)[r], oracle.score) << "record " << r;
      } else {
        EXPECT_GT(oracle.score, 255) << "record " << r;
        ++absent;
      }
    }
    EXPECT_EQ(absent, 2u);  // exactly the 256- and 300-scoring copies
    // A seeded score of exactly 255 still locates inside the byte lanes.
    expect_cells_match_oracle(records, *batch, q300, kSc, lanes, "saturation boundary");
  }
}

TEST(InterSeqBatch, EveryLaneSaturates) {
  // A batch wider than the lane count where every record overflows: every
  // result must be absent and the fallback count must equal the batch.
  for (const unsigned lanes : supported_lane_widths()) {
    const seq::Sequence query = swr::test::random_dna(400, 777);
    std::vector<seq::Sequence> records;
    for (std::size_t r = 0; r < lanes + 3; ++r) {
      seq::Sequence rec = swr::test::random_dna(10 + r, 900 + r);
      rec.append(query);  // embeds a 400-scoring copy: true score > 255
      records.push_back(std::move(rec));
    }
    InterSeqStats stats;
    const auto batch = sw_interseq_batch(records, query, kSc, lanes, &stats);
    ASSERT_TRUE(batch.has_value());
    for (std::size_t r = 0; r < records.size(); ++r) {
      EXPECT_FALSE((*batch)[r].has_value()) << "record " << r;
    }
    EXPECT_EQ(stats.fallbacks, records.size());
  }
}

TEST(InterSeqStatsAccounting, BatchesRefillsAndOccupancy) {
  for (const unsigned lanes : supported_lane_widths()) {
    // 3 full lane generations of equal-length records: the driver should
    // run at full occupancy throughout and refill exactly (count - lanes)
    // lanes.
    std::vector<seq::Sequence> records;
    for (std::size_t r = 0; r < 3 * lanes; ++r) {
      records.push_back(swr::test::random_dna(50, 60 + r));
    }
    InterSeqStats stats;
    const seq::Sequence query = swr::test::random_dna(30, 2);
    expect_batch_matches_oracle(records, query, kSc, lanes,
                                "occupancy, lanes " + std::to_string(lanes), &stats);
    EXPECT_EQ(stats.refills, records.size() - lanes);
    EXPECT_EQ(stats.fallbacks, 0u);
    std::uint64_t advances = 0;
    for (std::size_t occ = 0; occ <= kInterSeqMaxLanes; ++occ) {
      if (occ != lanes) {
        EXPECT_EQ(stats.occupancy[occ], 0u) << "occupancy " << occ;
      }
      advances += stats.occupancy[occ];
    }
    EXPECT_EQ(stats.occupancy[lanes], advances);
    EXPECT_EQ(stats.batches, advances);
    EXPECT_EQ(stats.batches, 3u);  // equal lengths: one advance per generation
  }
}

TEST(InterSeqBatch, UnavailableShapesReturnOuterNullopt) {
  // An alphabet too large for the pshufb tables is structurally unusable
  // regardless of ISA; the batch reports that as outer nullopt.
  const seq::Sequence q = seq::Sequence::dna("ACGT");
  const std::vector<seq::Sequence> recs = {q};
  InterSeqProfile p(q, kSc, 16);
  EXPECT_TRUE(p.table_slots() != 0);
  // Construct the structural failure via a fake alphabet size.
  const InterSeqProfile big(q.codes(), kSc, 16, 40);
  EXPECT_FALSE(big.usable());
  // Unusable profiles refuse to scan outright.
  InterSeqWorkspace ws;
  EXPECT_THROW(sw_interseq_scan(
                   big, ws, [](unsigned) { return std::optional<InterSeqRecord>{}; },
                   [](std::uint64_t, std::span<const seq::Code>, std::optional<Score>) {}),
               std::logic_error);
  EXPECT_THROW(sw_interseq_locate(
                   big, ws, [](unsigned) { return std::optional<InterSeqRecord>{}; },
                   [](std::uint64_t, Cell) {}),
               std::logic_error);
}

TEST(InterSeqBatch, AlphabetMismatchThrows) {
  const std::vector<seq::Sequence> recs = {seq::Sequence::protein("ARND")};
  EXPECT_THROW((void)sw_interseq_batch(recs, seq::Sequence::dna("ACGT"), kSc, 16),
               std::invalid_argument);
}

TEST(InterSeqWorkspaceReuse, BackToBackBatchesStayExact) {
  // One workspace, many scans with different queries/records, each
  // followed by a Locate pass on the same workspace — stale lane state
  // must never leak across scans or between the two instantiations.
  for (const unsigned lanes : supported_lane_widths()) {
    InterSeqWorkspace ws;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const seq::Sequence query = swr::test::random_dna(20 + 13 * seed, seed);
      std::vector<seq::Sequence> records;
      std::mt19937_64 lens(seed);
      std::uniform_int_distribution<std::size_t> len(0, 70);
      for (std::size_t r = 0; r < 2 * lanes + 5; ++r) {
        records.push_back(swr::test::random_dna(len(lens), seed * 100 + r));
      }
      const InterSeqProfile profile(query, kSc, lanes);
      ASSERT_TRUE(profile.usable());
      std::vector<std::optional<Score>> out(records.size());
      std::size_t next = 0;
      sw_interseq_scan(
          profile, ws,
          [&](unsigned) -> std::optional<InterSeqRecord> {
            if (next >= records.size()) return std::nullopt;
            const std::size_t r = next++;
            return InterSeqRecord{r, records[r].codes()};
          },
          [&](std::uint64_t tag, std::span<const seq::Code>, std::optional<Score> score) {
            out[tag] = score;
          });
      std::vector<Cell> cells(records.size());
      next = 0;
      sw_interseq_locate(
          profile, ws,
          [&](unsigned) -> std::optional<InterSeqRecord> {
            if (next >= records.size()) return std::nullopt;
            const std::size_t r = next++;
            return InterSeqRecord{r, records[r].codes(), out[r].value_or(0)};
          },
          [&](std::uint64_t tag, Cell end) { cells[tag] = end; });
      for (std::size_t r = 0; r < records.size(); ++r) {
        const LocalScoreResult oracle = sw_linear(records[r], query, kSc);
        ASSERT_TRUE(out[r].has_value()) << "seed " << seed << " record " << r;
        EXPECT_EQ((LocalScoreResult{*out[r], cells[r]}), oracle)
            << "seed " << seed << " record " << r;
      }
    }
  }
}

TEST(InterSeqLocate, SeededScoreOutsideAByteThrows) {
  for (const unsigned lanes : supported_lane_widths()) {
    const std::vector<seq::Sequence> recs = {seq::Sequence::dna("ACGT")};
    for (const Score bad : {-1, 256}) {
      const Score seeds[] = {bad};
      EXPECT_THROW((void)sw_interseq_locate_batch(recs, seq::Sequence::dna("ACGT"), kSc, lanes,
                                                  seeds),
                   std::invalid_argument)
          << bad;
    }
    const Score two[] = {1, 2};
    EXPECT_THROW((void)sw_interseq_locate_batch(recs, seq::Sequence::dna("ACGT"), kSc, lanes, two),
                 std::invalid_argument);
  }
}

TEST(InterSeqLocate, UnreachableSeedReportsNoCell) {
  // A seeded score no cell reaches never triggers a rescan: the record
  // comes back at Cell{}, which callers treat as a broken precondition.
  for (const unsigned lanes : supported_lane_widths()) {
    const std::vector<seq::Sequence> recs = {seq::Sequence::dna("ACGTACGT")};
    const Score seeds[] = {9};  // the best is 8
    const auto cells = sw_interseq_locate_batch(recs, seq::Sequence::dna("ACGTACGT"), kSc, lanes,
                                                seeds);
    ASSERT_TRUE(cells.has_value());
    EXPECT_EQ((*cells)[0], Cell{});
  }
}

// The 64-lane AVX-512BW body on the inputs that reach its distinct
// paths: a protein alphabet, whose 32-slot tables take the masked
// high-half shuffle; the 255/256 saturation boundary; and more than two
// lane generations, so the Locate pass refills all 64 lanes. Its scores,
// cells and batching statistics must match the oracle and the 32-lane
// kernel's.
TEST(InterSeqBatch, SixtyFourLanesMatchOracleAndThirtyTwo) {
  if (!core::cpu_supports(core::SimdIsa::Avx512)) GTEST_SKIP() << "no AVX-512BW on this host";
  Scoring blosum;
  blosum.matrix = &blosum62();
  std::mt19937_64 lens(6464);
  std::uniform_int_distribution<std::size_t> len(0, 120);
  std::vector<seq::Sequence> protein;
  for (std::size_t r = 0; r < 150; ++r) {
    protein.push_back(swr::test::random_protein(len(lens), 6400 + r));
  }
  const seq::Sequence pq = swr::test::random_protein(60, 6399);
  // Plant the query in a few records: high scores beside the random ones.
  for (std::size_t r = 7; r < protein.size(); r += 37) protein[r].append(pq);

  const seq::Sequence q300 = swr::test::random_dna(300, 6401);
  std::vector<seq::Sequence> dna;
  for (const std::size_t score : {254u, 255u, 256u, 300u}) {
    dna.push_back(q300.subsequence(0, score));
  }
  for (std::size_t r = 0; r < 130; ++r) {
    dna.push_back(swr::test::random_dna(10 + r % 90, 6500 + r));
  }

  const auto check = [](const std::vector<seq::Sequence>& records, const seq::Sequence& query,
                         const Scoring& sc, const std::string& what) {
    ASSERT_EQ(InterSeqProfile(query, sc, 64).table_slots(), sc.matrix ? 32u : 16u) << what;
    InterSeqStats st64, st32;
    expect_batch_matches_oracle(records, query, sc, 64, what + ", 64 lanes", &st64);
    const auto wide = sw_interseq_batch(records, query, sc, 64);
    const auto narrow = sw_interseq_batch(records, query, sc, 32, &st32);
    ASSERT_TRUE(wide.has_value() && narrow.has_value()) << what;
    EXPECT_EQ(*wide, *narrow) << what;
    EXPECT_EQ(st64.fallbacks, st32.fallbacks) << what;
    EXPECT_GT(st64.refills, 0u) << what;
  };
  check(protein, pq, blosum, "blosum62");
  check(dna, q300, kSc, "dna");
}

TEST(InterSeqBatch, SixtyFourLanesWithoutAvx512ReturnOuterNullopt) {
  if (core::cpu_supports(core::SimdIsa::Avx512)) GTEST_SKIP() << "host runs 64 lanes";
  const std::vector<seq::Sequence> recs = {seq::Sequence::dna("ACGT")};
  const Score one[] = {4};
  EXPECT_FALSE(sw_interseq_batch(recs, seq::Sequence::dna("ACGT"), kSc, 64).has_value());
  EXPECT_FALSE(
      sw_interseq_locate_batch(recs, seq::Sequence::dna("ACGT"), kSc, 64, one).has_value());
}

}  // namespace
