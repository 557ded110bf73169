// Cross-engine fuzz: the library's central invariant, hammered.
//
// For a batch of randomized workloads (sizes, seeds, scoring schemes,
// array widths, thread counts), every engine that claims to compute the
// best local score + canonical coordinates must agree exactly:
//
//   sw_full  (quadratic oracle)
//   sw_linear
//   sw_linear_profiled
//   wavefront_sw
//   ArrayController<ScorePe>  (cycle-accurate hardware model)
//   multiboard_run            (partitioned fleet)
//
// and the affine pair gotoh_local_score == ArrayController<AffinePe>.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "align/banded.hpp"
#include "align/gotoh.hpp"
#include "align/sw_antidiag.hpp"
#include "align/sw_antidiag8.hpp"
#include "align/sw_full.hpp"
#include "align/sw_interseq.hpp"
#include "align/sw_linear.hpp"
#include "align/sw_profile.hpp"
#include "align/sw_striped.hpp"
#include "core/accelerator.hpp"
#include "core/cpu_features.hpp"
#include "core/multibase.hpp"
#include "core/multiboard.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/batch.hpp"
#include "host/scan_engine.hpp"
#include "par/wavefront.hpp"
#include "seq/random.hpp"
#include "svc/scan_service.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;

struct FuzzCase {
  std::size_t m;         // db rows
  std::size_t n;         // query cols
  align::Scoring sc;
  std::size_t npes;
  std::size_t threads;
  std::size_t boards;
  std::uint64_t seed;
};

FuzzCase draw_case(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> msize(1, 220);
  std::uniform_int_distribution<std::size_t> nsize(1, 70);
  std::uniform_int_distribution<int> match(1, 5);
  std::uniform_int_distribution<int> mism(-5, 0);
  std::uniform_int_distribution<int> gap(-6, -1);
  std::uniform_int_distribution<std::size_t> pes(1, 24);
  std::uniform_int_distribution<std::size_t> thr(1, 4);
  std::uniform_int_distribution<std::size_t> brd(1, 4);
  FuzzCase c;
  c.m = msize(rng);
  c.n = nsize(rng);
  c.sc.match = match(rng);
  c.sc.mismatch = std::min(mism(rng), c.sc.match - 1);
  c.sc.gap = gap(rng);
  c.npes = pes(rng);
  c.threads = thr(rng);
  c.boards = brd(rng);
  c.seed = rng();
  return c;
}

class CrossEngineFuzz : public testing::TestWithParam<int> {};

TEST_P(CrossEngineFuzz, AllEnginesAgree) {
  std::mt19937_64 rng(0xF00D + static_cast<unsigned>(GetParam()));
  for (int iter = 0; iter < 8; ++iter) {
    const FuzzCase c = draw_case(rng);
    seq::RandomSequenceGenerator gen(c.seed);
    const seq::Sequence db = gen.uniform(seq::dna(), c.m);
    const seq::Sequence query = gen.uniform(seq::dna(), c.n);

    const align::LocalScoreResult oracle = align::sw_best(align::sw_matrix(db, query, c.sc));
    const std::string ctx = "case m=" + std::to_string(c.m) + " n=" + std::to_string(c.n) +
                            " match=" + std::to_string(c.sc.match) +
                            " mism=" + std::to_string(c.sc.mismatch) +
                            " gap=" + std::to_string(c.sc.gap) +
                            " pes=" + std::to_string(c.npes) + " seed=" + std::to_string(c.seed);

    EXPECT_EQ(align::sw_linear(db, query, c.sc), oracle) << "sw_linear " << ctx;
    EXPECT_EQ(align::sw_linear_profiled(db, query, c.sc), oracle) << "profiled " << ctx;
    EXPECT_EQ(align::sw_linear_antidiag(db, query, c.sc), oracle) << "antidiag " << ctx;

    par::WavefrontConfig wf;
    wf.threads = c.threads;
    wf.row_block = 1 + c.m / 3;
    EXPECT_EQ(par::wavefront_sw(db, query, c.sc, wf), oracle) << "wavefront " << ctx;

    core::ArrayController<core::ScorePe> ctl(c.npes, 16, c.sc, 8u << 20, true, false);
    EXPECT_EQ(ctl.run(query, db), oracle) << "systolic " << ctx;

    core::BoardFleet fleet = core::make_board_fleet(core::xc2vp70(), c.boards,
                                                    std::min<std::size_t>(c.n, 150) + 1, c.sc);
    EXPECT_EQ(core::multiboard_run(fleet, query, db).best, oracle) << "multiboard " << ctx;

    core::MultiBaseController mb(std::max<std::size_t>(c.npes / 2, 1), 1 + c.seed % 4, 16, c.sc,
                                 8u << 20, true);
    EXPECT_EQ(mb.run(query, db), oracle) << "multibase " << ctx;
  }
}

TEST_P(CrossEngineFuzz, AffineEnginesAgree) {
  std::mt19937_64 rng(0xBEEF + static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<std::size_t> msize(1, 150);
  std::uniform_int_distribution<std::size_t> nsize(1, 50);
  std::uniform_int_distribution<int> open(-6, 0);
  std::uniform_int_distribution<int> ext(-4, -1);
  std::uniform_int_distribution<std::size_t> pes(1, 16);
  for (int iter = 0; iter < 6; ++iter) {
    align::AffineScoring sc;
    sc.match = 2;
    sc.mismatch = -1;
    sc.gap_open = open(rng);
    sc.gap_extend = ext(rng);
    const std::size_t m = msize(rng);
    const std::size_t n = nsize(rng);
    const std::size_t npes = pes(rng);
    seq::RandomSequenceGenerator gen(rng());
    const seq::Sequence db = gen.uniform(seq::dna(), m);
    const seq::Sequence query = gen.uniform(seq::dna(), n);

    const align::LocalScoreResult oracle =
        align::gotoh_local_score(db.codes(), query.codes(), sc);
    core::ArrayController<core::AffinePe> ctl(npes, 16, sc, 8u << 20, true, false);
    EXPECT_EQ(ctl.run(query, db), oracle)
        << "affine m=" << m << " n=" << n << " npes=" << npes << " open=" << sc.gap_open
        << " ext=" << sc.gap_extend;
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, CrossEngineFuzz, testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Degenerate-input sweep: the inputs randomized fuzzing almost never draws —
// empty and 1-residue sequences, single-letter and two-letter "alphabets",
// all-same runs long enough to saturate 8-bit SWAR lanes. Every engine must
// still agree bit-for-bit with the quadratic oracle.
// ---------------------------------------------------------------------------

std::string repeat(char c, std::size_t n) { return std::string(n, c); }

std::string alternate(const char* two, std::size_t n) {
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s += two[i % 2];
  return s;
}

// The deterministic degenerate menagerie (DNA).
std::vector<seq::Sequence> degenerate_dna() {
  return {
      seq::Sequence::dna("", "empty"),
      seq::Sequence::dna("A", "one"),
      seq::Sequence::dna("G", "one_other"),
      seq::Sequence::dna(repeat('A', 7), "same7"),
      seq::Sequence::dna(repeat('A', 64), "same64"),
      seq::Sequence::dna(repeat('C', 300), "same300"),  // 255-straddler at match=1
      seq::Sequence::dna(alternate("AC", 33), "alt33"),
      seq::Sequence::dna(alternate("GT", 48), "alt48"),
      seq::Sequence::dna("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT", "period4"),
  };
}

// 8-bit lane widths this machine can execute (empty off x86). 64 is the
// AVX-512BW inter-seq width; a striped profile asked for 64 lays out for
// the 32-lane AVX2 striped kernels.
std::vector<unsigned> lane_widths() {
  std::vector<unsigned> widths;
  if (core::cpu_supports(core::SimdIsa::Sse41)) widths.push_back(16);
  if (core::cpu_supports(core::SimdIsa::Avx2)) widths.push_back(32);
  if (core::cpu_supports(core::SimdIsa::Avx512)) widths.push_back(64);
  return widths;
}

void check_all_engines(const seq::Sequence& db, const seq::Sequence& query,
                       const align::Scoring& sc, const std::string& ctx) {
  const align::LocalScoreResult oracle = align::sw_best(align::sw_matrix(db, query, sc));

  EXPECT_EQ(align::sw_linear(db, query, sc), oracle) << "sw_linear " << ctx;
  EXPECT_EQ(align::sw_linear_profiled(db, query, sc), oracle) << "profiled " << ctx;
  EXPECT_EQ(align::sw_linear_antidiag(db, query, sc), oracle) << "swar16 " << ctx;
  EXPECT_EQ(align::sw_linear_antidiag8(db, query, sc), oracle) << "swar8 " << ctx;
  for (const unsigned lanes : lane_widths()) {
    EXPECT_EQ(align::sw_linear_striped(db, query, sc, lanes), oracle)
        << "striped" << lanes << " " << ctx;
    // Inter-sequence kernel, one-record batch: the exact score when it
    // fits the 8-bit lanes, a declared fallback (inner nullopt) when not;
    // the score then seeds the Locate pass for the canonical cell.
    const auto batch = align::sw_interseq_batch({db}, query, sc, lanes);
    if (batch.has_value()) {
      ASSERT_EQ(batch->size(), 1u) << "interseq" << lanes << " " << ctx;
      if (oracle.score > 255) {
        EXPECT_FALSE((*batch)[0].has_value()) << "interseq" << lanes << " " << ctx;
      } else {
        ASSERT_TRUE((*batch)[0].has_value()) << "interseq" << lanes << " " << ctx;
        EXPECT_EQ(*(*batch)[0], oracle.score) << "interseq" << lanes << " " << ctx;
        const align::Score seed[] = {*(*batch)[0]};
        const auto cells = align::sw_interseq_locate_batch({db}, query, sc, lanes, seed);
        ASSERT_TRUE(cells.has_value()) << "locate" << lanes << " " << ctx;
        EXPECT_EQ((*cells)[0], oracle.end) << "locate" << lanes << " " << ctx;
      }
    }
  }

  // A band wide enough to cover any divergence makes banded_sw exact.
  const std::size_t full_band = db.size() + query.size() + 1;
  EXPECT_EQ(align::banded_sw(db.codes(), query.codes(), full_band, sc), oracle)
      << "banded " << ctx;

  core::ArrayController<core::ScorePe> ctl(5, 16, sc, 8u << 20, true, false);
  EXPECT_EQ(ctl.run(query, db), oracle) << "systolic " << ctx;

  // Long queries are partitioned across boards; size the fleet so each
  // board's slice fits the xc2vp70 PE budget.
  const std::size_t boards = 2 + query.size() / 100;
  core::BoardFleet fleet =
      core::make_board_fleet(core::xc2vp70(), boards, query.size() / boards + 2, sc);
  EXPECT_EQ(core::multiboard_run(fleet, query, db).best, oracle) << "multiboard " << ctx;
}

TEST(CrossEngineDegenerate, DnaSweepAllEnginesAgree) {
  const std::vector<seq::Sequence> pool = degenerate_dna();
  const std::vector<align::Scoring> schemes = [] {
    align::Scoring a;  // paper-style
    a.match = 1; a.mismatch = -1; a.gap = -2;
    align::Scoring b;  // large magnitudes: saturates 8-bit lanes quickly
    b.match = 5; b.mismatch = -4; b.gap = -6;
    align::Scoring c;  // free mismatch: maximal ties, stress tie-breaking
    c.match = 2; c.mismatch = 0; c.gap = -1;
    return std::vector<align::Scoring>{a, b, c};
  }();

  for (const align::Scoring& sc : schemes) {
    for (const seq::Sequence& db : pool) {
      for (const seq::Sequence& query : pool) {
        const std::string ctx = "db=" + db.name() + " q=" + query.name() +
                                " match=" + std::to_string(sc.match) +
                                " mism=" + std::to_string(sc.mismatch) +
                                " gap=" + std::to_string(sc.gap);
        check_all_engines(db, query, sc, ctx);
      }
    }
  }
}

TEST(CrossEngineDegenerate, SingleLetterProteinAgrees) {
  // A one-letter "protein alphabet": every comparison is pure match/gap
  // structure, and the wider code space must not perturb any engine.
  align::Scoring sc;
  sc.match = 3;
  sc.mismatch = -2;
  sc.gap = -4;
  const std::vector<seq::Sequence> pool = {
      seq::Sequence::protein("", "empty"),
      seq::Sequence::protein("W", "one"),
      seq::Sequence::protein(repeat('W', 19), "same19"),
      seq::Sequence::protein(repeat('L', 90), "same90"),  // 270 > 255 at match=3
      seq::Sequence::protein(alternate("WL", 25), "alt25"),
  };
  for (const seq::Sequence& db : pool) {
    for (const seq::Sequence& query : pool) {
      check_all_engines(db, query, sc, "protein db=" + db.name() + " q=" + query.name());
    }
  }
}

// The 8-bit SWAR saturation boundary, pinned exactly: identical all-same
// sequences score length*match, so lengths around 255/match straddle the
// lane range. sw_antidiag8_try must return a value iff the true score
// fits 255 (255 itself included), and that value must be exact.
TEST(CrossEngineDegenerate, Swar8SaturationBoundaryExact) {
  struct Case {
    int match;
    std::size_t len;
  };
  const std::vector<Case> cases = {
      {5, 50}, {5, 51}, {5, 52},             // 250 | 255 | 260
      {3, 84}, {3, 85}, {3, 86},             // 252 | 255 | 258
      {1, 254}, {1, 255}, {1, 256}, {1, 300} // straddle at unit score
  };
  for (const Case& c : cases) {
    align::Scoring sc;
    sc.match = c.match;
    sc.mismatch = -c.match;
    sc.gap = -c.match - 1;
    const seq::Sequence s = seq::Sequence::dna(repeat('A', c.len), "sat");
    const align::LocalScoreResult oracle = align::sw_best(align::sw_matrix(s, s, sc));
    ASSERT_EQ(oracle.score, static_cast<align::Score>(c.match * static_cast<int>(c.len)));

    align::Antidiag8Workspace ws;
    const std::optional<align::LocalScoreResult> attempt =
        align::sw_antidiag8_try(s.codes(), s.codes(), sc, ws);
    const std::string ctx = "match=" + std::to_string(c.match) + " len=" + std::to_string(c.len);
    if (oracle.score <= 255) {
      ASSERT_TRUE(attempt.has_value()) << ctx;
      EXPECT_EQ(*attempt, oracle) << ctx;
    } else {
      EXPECT_FALSE(attempt.has_value()) << ctx;
    }
    // The transparent-fallback wrapper is exact on both sides of the line.
    EXPECT_EQ(align::sw_linear_antidiag8(s, s, sc), oracle) << ctx;
  }
}

// The striped kernels must sit on EXACTLY the same saturation boundary as
// swar8 — same predicate, "some true cell value > 255" — or the engine's
// swar8_fallbacks accounting would depend on which 8-bit kernel ran. The
// 8-bit attempt must succeed iff the swar8 attempt does, the ladder must
// count exactly one fallback past the line, and every returned value must
// be the oracle's.
TEST(CrossEngineDegenerate, StripedSaturationBoundaryExact) {
  struct Case {
    int match;
    std::size_t len;
  };
  const std::vector<Case> cases = {
      {5, 50}, {5, 51}, {5, 52},             // 250 | 255 | 260
      {3, 84}, {3, 85}, {3, 86},             // 252 | 255 | 258
      {1, 254}, {1, 255}, {1, 256}, {1, 300} // straddle at unit score
  };
  for (const Case& c : cases) {
    align::Scoring sc;
    sc.match = c.match;
    sc.mismatch = -c.match;
    sc.gap = -c.match - 1;
    const seq::Sequence s = seq::Sequence::dna(repeat('A', c.len), "sat");
    const align::LocalScoreResult oracle = align::sw_best(align::sw_matrix(s, s, sc));

    align::Antidiag8Workspace ws8;
    const bool swar8_fits = align::sw_antidiag8_try(s.codes(), s.codes(), sc, ws8).has_value();

    for (const unsigned lanes : lane_widths()) {
      const std::string ctx = "match=" + std::to_string(c.match) +
                              " len=" + std::to_string(c.len) + " lanes=" + std::to_string(lanes);
      const align::StripedProfile profile(s, sc, lanes);
      align::StripedWorkspace ws;
      const std::optional<align::Score> attempt = align::sw_striped8_try(s.codes(), profile, ws);
      EXPECT_EQ(attempt.has_value(), swar8_fits) << ctx;  // predicate parity with swar8
      EXPECT_EQ(attempt.has_value(), oracle.score <= 255) << ctx;
      if (attempt.has_value()) {
        EXPECT_EQ(*attempt, oracle.score) << ctx;
      }

      std::uint64_t fallbacks = 0;
      EXPECT_EQ(align::sw_linear_striped(s, s, sc, lanes, &fallbacks), oracle) << ctx;
      EXPECT_EQ(fallbacks, oracle.score > 255 ? 1u : 0u) << ctx;
    }
  }
}

// ---------------------------------------------------------------------------
// Scan-level parity on the degenerate database: every SIMD policy, thread
// count, and the accelerator engine must report identical hits, and the
// Swar8 fallback count must equal exactly the number of records whose best
// score exceeds 255 — independent of threads.
// ---------------------------------------------------------------------------

void expect_same_scan_hits(const host::ScanResult& a, const host::ScanResult& b,
                           const std::string& ctx) {
  ASSERT_EQ(a.hits.size(), b.hits.size()) << ctx;
  for (std::size_t k = 0; k < a.hits.size(); ++k) {
    EXPECT_EQ(a.hits[k].record, b.hits[k].record) << ctx << " hit " << k;
    EXPECT_EQ(a.hits[k].result.score, b.hits[k].result.score) << ctx << " hit " << k;
    EXPECT_EQ(a.hits[k].result.end.i, b.hits[k].result.end.i) << ctx << " hit " << k;
    EXPECT_EQ(a.hits[k].result.end.j, b.hits[k].result.end.j) << ctx << " hit " << k;
  }
}

TEST(CrossEngineDegenerate, ScanParityAcrossPoliciesThreadsAndBoard) {
  align::Scoring sc;
  sc.match = 1;
  sc.mismatch = -1;
  sc.gap = -2;
  std::vector<seq::Sequence> records = degenerate_dna();
  seq::RandomSequenceGenerator gen(0xDEAD);
  records.push_back(gen.uniform(seq::dna(), 120, "rand120"));
  records.push_back(gen.uniform(seq::dna(), 77, "rand77"));

  const std::vector<seq::Sequence> queries = {
      seq::Sequence::dna(repeat('A', 20), "same_q"),
      seq::Sequence::dna(repeat('C', 280), "sat_q"),  // straddles 255 vs same300
      seq::Sequence::dna("ACGTACGTACGTACGTACGT", "period_q"),
  };

  for (const seq::Sequence& query : queries) {
    host::ScanOptions base;
    base.top_k = 16;
    base.min_score = 1;
    const host::ScanResult reference = host::scan_database_cpu(query, records, sc, base);

    std::uint64_t saturated = 0;
    for (const seq::Sequence& rec : records) {
      if (align::sw_linear(rec, query, sc).score > 255) ++saturated;
    }

    // What Auto resolves to depends on the machine and any SWR_SIMD
    // override in the environment — mirror the engine's resolution so
    // the expected fallback count is right under every CI matrix leg.
    const core::SimdIsa auto_isa = core::auto_simd_isa();
    const bool auto_leads_with_bytes = auto_isa == core::SimdIsa::Swar8 ||
                                       auto_isa == core::SimdIsa::Sse41 ||
                                       auto_isa == core::SimdIsa::Avx2 ||
                                       auto_isa == core::SimdIsa::Avx512;

    for (const host::SimdPolicy policy :
         {host::SimdPolicy::Auto, host::SimdPolicy::Scalar, host::SimdPolicy::Swar16,
          host::SimdPolicy::Swar8, host::SimdPolicy::Sse41, host::SimdPolicy::Avx2,
          host::SimdPolicy::Avx512}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        // The kernel shape joins the sweep: the inter-sequence kernel
        // (one record per 8-bit lane) must be output-identical to the
        // striped shape for every policy and thread count, fallback
        // accounting included; where it cannot run it degrades to
        // striped, which keeps this sweep valid on every machine.
        for (const host::KernelShape shape :
             {host::KernelShape::Auto, host::KernelShape::Striped,
              host::KernelShape::InterSeq}) {
          host::ScanOptions opt = base;
          opt.simd_policy = policy;
          opt.threads = threads;
          opt.kernel = shape;
          const host::ScanResult r = host::scan_database_cpu(query, records, sc, opt);
          const std::string ctx = "q=" + query.name() +
                                  " policy=" + std::to_string(static_cast<int>(policy)) +
                                  " threads=" + std::to_string(threads) +
                                  " kernel=" + core::kernel_shape_name(shape);
          expect_same_scan_hits(reference, r, ctx);
          EXPECT_EQ(r.records_scanned, records.size()) << ctx;
          EXPECT_EQ(r.cell_updates, reference.cell_updates) << ctx;
          // Swar8, Sse41, Avx2, Avx512 lead with an 8-bit kernel (SWAR, striped
          // or inter-sequence — identical saturation predicate), and an
          // unsupported striped request degrades no lower than Swar8:
          // exactly one lazy 16-bit re-run per saturating record,
          // thread-, kernel- and shape-invariant. Auto counts only when
          // it resolves to a byte-leading tier.
          const bool leads_with_bytes =
              policy == host::SimdPolicy::Swar8 || policy == host::SimdPolicy::Sse41 ||
              policy == host::SimdPolicy::Avx2 || policy == host::SimdPolicy::Avx512 ||
              (policy == host::SimdPolicy::Auto && auto_leads_with_bytes);
          EXPECT_EQ(r.swar8_fallbacks, leads_with_bytes ? saturated : 0u) << ctx;
        }
      }
    }

    // The cycle-accurate accelerator model reports the same hits.
    core::SmithWatermanAccelerator acc(core::xc2vp70(), 25, sc);
    const host::ScanResult board = host::scan_database(acc, query, records, base);
    expect_same_scan_hits(reference, board, "q=" + query.name() + " board");
  }
}

// ---------------------------------------------------------------------------
// Tie-heavy differential oracle. The SIMD kernels are score-only and the
// canonical end cell (smallest column, then smallest row) is located
// after the merge, seeded with each hit's score — so the inputs where many
// cells share the best score are exactly where deferred locating could
// drift: homopolymers, periodic repeats, duplicate copies planted inside
// one record, BLOSUM62 runs of one residue, and scores of exactly 255 and
// 256 (the last byte-located score and the first scalar-located one).
// Every hit's score and cell is checked against sw_full through the
// engine (vector and store sources, striped and interseq shapes, 1 and 4
// threads) and through ScanService chunking.
// ---------------------------------------------------------------------------

struct TieCase {
  std::string name;
  align::Scoring sc;
  seq::Sequence query;
  std::vector<seq::Sequence> records;
};

std::string periodic(const std::string& unit, std::size_t n) {
  std::string s;
  for (std::size_t i = 0; i < n; ++i) s += unit[i % unit.size()];
  return s;
}

std::vector<TieCase> tie_heavy_cases() {
  std::vector<TieCase> cases;
  seq::RandomSequenceGenerator gen(0x71E5);

  // DNA under the paper's +1/-1/-2: homopolymers, periodic repeats and
  // duplicate planted copies against homopolymer, periodic and random
  // queries (the random query's segments are what gets planted).
  const seq::Sequence rand_q = gen.uniform(seq::dna(), 60, "rand_q");
  std::vector<seq::Sequence> dna;
  dna.push_back(seq::Sequence::dna(repeat('A', 50), "polyA50"));
  dna.push_back(seq::Sequence::dna(repeat('C', 120), "polyC120"));
  dna.push_back(seq::Sequence::dna(repeat('G', 7), "polyG7"));
  dna.push_back(seq::Sequence::dna(periodic("ACG", 120), "acg40"));
  dna.push_back(seq::Sequence::dna(periodic("AT", 121), "at60"));
  dna.push_back(seq::Sequence::dna(periodic("ACGT", 132), "acgt33"));
  for (int r = 0; r < 4; ++r) {
    // Two (or three) identical copies of one query segment inside one
    // record: equal best scores at the same column, different rows.
    seq::Sequence rec = gen.uniform(seq::dna(), 40 + 10 * static_cast<std::size_t>(r),
                                    "dup" + std::to_string(r));
    const seq::Sequence seg = rand_q.subsequence(static_cast<std::size_t>(5 * r), 25);
    rec.append(seg);
    rec.append(gen.uniform(seq::dna(), 30));
    rec.append(seg);
    if (r % 2 == 1) rec.append(seg);
    dna.push_back(std::move(rec));
  }
  for (int r = 0; r < 6; ++r) dna.push_back(gen.uniform(seq::dna(), 90, "bg" + std::to_string(r)));
  align::Scoring paper;
  for (const seq::Sequence& q :
       {seq::Sequence::dna(repeat('A', 40), "polyA_q"),
        seq::Sequence::dna(periodic("ACGT", 40), "period_q"), rand_q}) {
    cases.push_back({"dna/" + q.name(), paper, q, dna});
  }

  // Scores of exactly 255 and 256: planted copies of a 300-bp query's
  // prefixes, plus repeats of those copies inside one record.
  const seq::Sequence long_q = gen.uniform(seq::dna(), 300, "long_q");
  std::vector<seq::Sequence> edge;
  for (const std::size_t len : {254u, 255u, 256u}) {
    seq::Sequence rec = gen.uniform(seq::dna(), 17, "copy" + std::to_string(len));
    rec.append(long_q.subsequence(0, len));
    rec.append(gen.uniform(seq::dna(), 23));
    edge.push_back(rec);
    seq::Sequence twice = gen.uniform(seq::dna(), 5, "twice" + std::to_string(len));
    twice.append(long_q.subsequence(0, len));
    twice.append(gen.uniform(seq::dna(), 40));
    twice.append(long_q.subsequence(0, len));
    edge.push_back(std::move(twice));
  }
  for (int r = 0; r < 4; ++r) {
    edge.push_back(gen.uniform(seq::dna(), 200, "edge_bg" + std::to_string(r)));
  }
  cases.push_back({"dna/255-256", paper, long_q, edge});

  // BLOSUM62 runs of one residue: W/W = 11 (a 30-run scores 330 > 255,
  // so it is located by the scalar rung), A/A = 4, L/L = 4.
  align::Scoring blosum;
  blosum.matrix = &align::blosum62();
  blosum.gap = -8;
  std::vector<seq::Sequence> prot;
  prot.push_back(seq::Sequence::protein(repeat('W', 30), "W30"));
  prot.push_back(seq::Sequence::protein(repeat('W', 12), "W12"));
  prot.push_back(seq::Sequence::protein(repeat('A', 60), "A60"));
  prot.push_back(seq::Sequence::protein(repeat('L', 45), "L45"));
  prot.push_back(seq::Sequence::protein(repeat('L', 20) + repeat('K', 9) + repeat('L', 20),
                                        "L20K9L20"));
  prot.push_back(seq::Sequence::protein(periodic("WA", 50), "wa25"));
  for (int r = 0; r < 4; ++r) {
    prot.push_back(gen.uniform(seq::protein(), 80, "pbg" + std::to_string(r)));
  }
  for (const seq::Sequence& q :
       {seq::Sequence::protein(repeat('W', 24), "W24_q"),
        seq::Sequence::protein(repeat('A', 10) + repeat('L', 10) + repeat('A', 10), "ALA_q"),
        seq::Sequence::protein(periodic("WAL", 36), "wal_q")}) {
    cases.push_back({"blosum62/" + q.name(), blosum, q, prot});
  }
  return cases;
}

// The oracle ranking: every record's sw_full result at or above
// min_score, under the total hit order.
std::vector<host::Hit> oracle_hits(const TieCase& c, align::Score min_score) {
  std::vector<host::Hit> hits;
  for (std::size_t r = 0; r < c.records.size(); ++r) {
    host::Hit h;
    h.record = r;
    h.result = align::sw_best(align::sw_matrix(c.records[r], c.query, c.sc));
    if (h.result.score >= min_score) hits.push_back(h);
  }
  std::sort(hits.begin(), hits.end(), host::hit_ranks_before);
  return hits;
}

void expect_oracle_hits(const std::vector<host::Hit>& got, const std::vector<host::Hit>& want,
                        const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].record, want[k].record) << ctx << " hit " << k;
    EXPECT_EQ(got[k].result, want[k].result) << ctx << " hit " << k;
  }
}

TEST(TieHeavyOracle, EngineShapesThreadsAndSourcesMatchSwFull) {
  for (const TieCase& c : tie_heavy_cases()) {
    host::ScanOptions opt;
    opt.top_k = c.records.size();  // every record is reported and located
    opt.min_score = 1;
    const std::vector<host::Hit> want = oracle_hits(c, opt.min_score);
    if (c.name == "dna/255-256") {
      // The edge case must really straddle the byte: both scores present.
      for (const align::Score edge : {255, 256}) {
        EXPECT_TRUE(std::any_of(want.begin(), want.end(),
                                [&](const host::Hit& h) { return h.result.score == edge; }))
            << "no record scores exactly " << edge;
      }
    }
    const std::string path =
        testing::TempDir() + "/" + test::unique_leaf("tie_oracle.swdb");
    db::build_store(c.records, path);
    const db::Store store = db::Store::open(path);
    for (const host::KernelShape shape : {host::KernelShape::Striped, host::KernelShape::InterSeq}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        host::ScanOptions o = opt;
        o.kernel = shape;
        o.threads = threads;
        const std::string ctx = c.name + " kernel=" + core::kernel_shape_name(shape) +
                                " threads=" + std::to_string(threads);
        expect_oracle_hits(host::scan_database_cpu(c.query, c.records, c.sc, o).hits, want,
                           ctx + " vector");
        expect_oracle_hits(host::scan_database_cpu(c.query, store, c.sc, o).hits, want,
                           ctx + " store");
      }
    }
  }
}

TEST(TieHeavyOracle, ServiceChunkingMatchesSwFull) {
  for (const TieCase& c : tie_heavy_cases()) {
    host::ScanOptions opt;
    opt.top_k = 8;  // a strict top-k: chunks report more than survive
    opt.min_score = 1;
    std::vector<host::Hit> want = oracle_hits(c, opt.min_score);
    if (want.size() > opt.top_k) want.resize(opt.top_k);
    const std::string path =
        testing::TempDir() + "/" + test::unique_leaf("tie_oracle_svc.swdb");
    db::build_store(c.records, path);
    const db::Store store = db::Store::open(path);
    for (const std::size_t chunk : {std::size_t{3}, std::size_t{1000}}) {
      svc::ServiceConfig cfg;
      cfg.cpu_workers = 2;
      cfg.chunk_records = chunk;
      cfg.scoring = c.sc;
      svc::ScanService service(store, cfg);
      const svc::ScanResponse resp = service.submit(c.query, opt).response.get();
      ASSERT_EQ(resp.status, svc::QueryStatus::Done) << resp.error;
      expect_oracle_hits(resp.result.hits, want, c.name + " chunk=" + std::to_string(chunk));
    }
  }
}

TEST(TieHeavyOracle, LocatePassRefillsLanesPastOneBatch) {
  // More records than the widest lane batch, every one tie-heavy: the
  // Locate pass must refill lanes and still land every canonical cell.
  const std::vector<TieCase> cases = tie_heavy_cases();
  const TieCase& c = cases.front();  // DNA, homopolymer query
  std::vector<seq::Sequence> records;
  for (std::size_t k = 0; records.size() < 3 * align::kInterSeqMaxLanes + 5; ++k) {
    records.push_back(c.records[k % c.records.size()]);
  }
  for (const unsigned lanes : lane_widths()) {
    const auto scores = align::sw_interseq_batch(records, c.query, c.sc, lanes);
    ASSERT_TRUE(scores.has_value());
    std::vector<align::Score> seeds;
    for (const auto& s : *scores) {
      ASSERT_TRUE(s.has_value());
      seeds.push_back(*s);
    }
    align::InterSeqStats stats;
    const auto cells =
        align::sw_interseq_locate_batch(records, c.query, c.sc, lanes, seeds, &stats);
    ASSERT_TRUE(cells.has_value());
    EXPECT_GT(stats.refills, 0u) << "lanes " << lanes;
    EXPECT_EQ(stats.fallbacks, 0u);
    for (std::size_t r = 0; r < records.size(); ++r) {
      EXPECT_EQ((align::LocalScoreResult{seeds[r], (*cells)[r]}),
                align::sw_best(align::sw_matrix(records[r], c.query, c.sc)))
          << "lanes " << lanes << " record " << r;
    }
  }

  // And through the engine: a top-k wider than one lane batch is located
  // in one pass after the merge.
  host::ScanOptions opt;
  opt.top_k = records.size();
  opt.min_score = 1;
  const TieCase wide{c.name, c.sc, c.query, records};
  expect_oracle_hits(host::scan_database_cpu(c.query, records, c.sc, opt).hits,
                     oracle_hits(wide, opt.min_score), "engine, " + std::to_string(records.size()) +
                                                           " located hits");
}

}  // namespace
