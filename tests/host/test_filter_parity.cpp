// Recall parity suite (ISSUE acceptance): `--filter seeded` must report
// the exact hit set — same records, same (score, end) pairs, same order —
// for every record whose true score clears the threshold, across kernel
// shapes x SIMD policies x thread counts, for uniform-DNA and
// BLOSUM62-protein scoring, through both the direct engine and the
// chunked scan service.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "align/scoring.hpp"
#include "core/accelerator.hpp"
#include "core/cpu_features.hpp"
#include "core/device.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/batch.hpp"
#include "host/scan_engine.hpp"
#include "seq/mutate.hpp"
#include "seq/random.hpp"
#include "svc/scan_service.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::host;

std::string temp_path(const std::string& leaf) {
  return testing::TempDir() + "/" + test::unique_leaf(leaf);
}

db::Store build_open(const std::vector<seq::Sequence>& recs, const std::string& leaf,
                     bool index = true) {
  const std::string path = temp_path(leaf);
  db::BuildOptions opt;
  opt.kmer_index = index;
  db::build_store(recs, path, opt);
  return db::Store::open(path);
}

// Random DNA background with homologs planted across a divergence ladder
// (2%..20%), plus the degenerate shapes the guards must cover: empty
// records and records shorter than the seed length.
struct SeededDb {
  seq::Sequence query;
  std::vector<seq::Sequence> records;

  explicit SeededDb(std::uint64_t seed, std::size_t n_records = 70) {
    seq::RandomSequenceGenerator gen(seed);
    query = gen.uniform(seq::dna(), 120, "q");
    for (std::size_t r = 0; r < n_records; ++r) {
      seq::Sequence rec =
          gen.uniform(seq::dna(), 60 + 37 * (r % 9), "rec" + std::to_string(r));
      if (r % 9 == 4) {
        const double rate = 0.02 + 0.03 * static_cast<double>(r % 7);
        rec.append(seq::point_mutate(query, rate, gen.engine()));
      }
      records.push_back(std::move(rec));
    }
    records.push_back(seq::Sequence::dna("", "empty"));
    records.push_back(seq::Sequence::dna("ACGT", "tiny"));
  }
};

void expect_same_hits(const ScanResult& seeded, const ScanResult& exact, const std::string& what) {
  ASSERT_EQ(seeded.hits.size(), exact.hits.size()) << what;
  for (std::size_t k = 0; k < seeded.hits.size(); ++k) {
    EXPECT_EQ(seeded.hits[k].record, exact.hits[k].record) << what << " hit " << k;
    EXPECT_EQ(seeded.hits[k].result, exact.hits[k].result) << what << " hit " << k;
  }
}

void expect_filter_accounting(const ScanResult& r, std::size_t domain, const std::string& what) {
  EXPECT_EQ(r.filter_rescored + r.filter_rejected, domain) << what;
  EXPECT_EQ(r.records_scanned, domain) << what;  // domain accounting is filter-invariant
}

TEST(FilterParity, SeededEqualsExactAcrossShapesPoliciesThreads) {
  const SeededDb db(909);
  const db::Store store = build_open(db.records, "parity_dna.swdb");

  ScanOptions opt;
  opt.top_k = db.records.size();  // every hit above min_score is visible
  opt.min_score = 40;
  const ScanResult exact = scan_database_cpu(db.query, store, align::Scoring{}, opt);
  ASSERT_GE(exact.hits.size(), 5u);  // the ladder actually plants hits

  for (const KernelShape shape : {KernelShape::Auto, KernelShape::Striped, KernelShape::InterSeq}) {
    for (const SimdPolicy policy :
         {SimdPolicy::Auto, SimdPolicy::Scalar, SimdPolicy::Swar8, SimdPolicy::Avx2}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        ScanOptions sopt = opt;
        sopt.filter = FilterMode::Seeded;
        sopt.kernel = shape;
        sopt.simd_policy = policy;
        sopt.threads = threads;
        const ScanResult seeded = scan_database_cpu(db.query, store, align::Scoring{}, sopt);
        const std::string what = std::string("shape ") + core::kernel_shape_name(shape) +
                                 " policy " + std::to_string(static_cast<int>(policy)) +
                                 " threads " + std::to_string(threads);
        expect_same_hits(seeded, exact, what);
        expect_filter_accounting(seeded, db.records.size(), what);
        EXPECT_LT(seeded.cell_updates, exact.cell_updates) << what;  // the filter earns its keep
      }
    }
  }
}

TEST(FilterParity, Blosum62ProteinParity) {
  seq::RandomSequenceGenerator gen(911);
  const seq::Sequence query = gen.uniform(seq::protein(), 90, "pq");
  std::vector<seq::Sequence> records;
  for (std::size_t r = 0; r < 40; ++r) {
    seq::Sequence rec = gen.uniform(seq::protein(), 50 + 31 * (r % 7), std::string("p").append(std::to_string(r)));
    if (r % 8 == 2) rec.append(seq::point_mutate(query, 0.04 * static_cast<double>(r % 4 + 1),
                                                 gen.engine()));
    records.push_back(std::move(rec));
  }
  const db::Store store = build_open(records, "parity_prot.swdb");

  // A realistic protein gap penalty: with the default linear -2 next to
  // BLOSUM62's +4..+11 diagonal, random gap-dominated alignments clear
  // any threshold an ungapped prescreen can see — exactly the
  // gap-dominated regime DESIGN.md §3h excludes from the contract.
  align::Scoring sc;
  sc.matrix = &align::blosum62();
  sc.gap = -10;
  ScanOptions opt;
  opt.top_k = records.size();
  opt.min_score = 80;
  const ScanResult exact = scan_database_cpu(query, store, sc, opt);
  ASSERT_FALSE(exact.hits.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const SimdPolicy policy : {SimdPolicy::Auto, SimdPolicy::Scalar}) {
      ScanOptions sopt = opt;
      sopt.filter = FilterMode::Seeded;
      sopt.threads = threads;
      sopt.simd_policy = policy;
      const ScanResult seeded = scan_database_cpu(query, store, sc, sopt);
      expect_same_hits(seeded, exact,
                       "protein threads " + std::to_string(threads) + " policy " +
                           std::to_string(static_cast<int>(policy)));
      expect_filter_accounting(seeded, records.size(), "protein");
    }
  }
}

TEST(FilterParity, FilterThresholdDecouplesFromMinScore) {
  // min_score stays low but the recall contract is only promised above
  // --filter-threshold: every exact hit at or above the threshold must
  // survive identically, and the seeded hit list is a subset of exact.
  const SeededDb db(912);
  const db::Store store = build_open(db.records, "parity_thresh.swdb");
  ScanOptions opt;
  opt.top_k = db.records.size();
  opt.min_score = 10;
  const ScanResult exact = scan_database_cpu(db.query, store, align::Scoring{}, opt);

  ScanOptions sopt = opt;
  sopt.filter = FilterMode::Seeded;
  sopt.filter_threshold = 45;
  const ScanResult seeded = scan_database_cpu(db.query, store, align::Scoring{}, sopt);

  const auto in_seeded = [&](const Hit& h) {
    return std::any_of(seeded.hits.begin(), seeded.hits.end(), [&](const Hit& s) {
      return s.record == h.record && s.result == h.result;
    });
  };
  for (const Hit& h : exact.hits) {
    if (h.result.score >= sopt.filter_threshold) {
      EXPECT_TRUE(in_seeded(h)) << "record " << h.record << " score " << h.result.score;
    }
  }
  for (const Hit& s : seeded.hits) {
    EXPECT_TRUE(std::any_of(exact.hits.begin(), exact.hits.end(), [&](const Hit& e) {
      return e.record == s.record && e.result == s.result;
    })) << "seeded hit not in exact set: record " << s.record;
  }
}

TEST(FilterParity, ServiceChunkedSeededMatchesExact) {
  const SeededDb db(913);
  const db::Store store = build_open(db.records, "parity_svc.swdb");
  ScanOptions opt;
  opt.top_k = 16;
  opt.min_score = 40;
  const ScanResult exact = scan_database_cpu(db.query, store, align::Scoring{}, opt);

  for (const std::size_t chunk : {std::size_t{5}, std::size_t{24}, std::size_t{1000}}) {
    svc::ServiceConfig cfg;
    cfg.cpu_workers = 3;
    cfg.chunk_records = chunk;
    svc::ScanService service(store, cfg);
    ScanOptions sopt = opt;
    sopt.filter = FilterMode::Seeded;
    const svc::ScanResponse resp = service.submit(db.query, sopt).response.get();
    ASSERT_EQ(resp.status, svc::QueryStatus::Done) << resp.error;
    expect_same_hits(resp.result, exact, "chunk " + std::to_string(chunk));
    expect_filter_accounting(resp.result, db.records.size(), "chunk " + std::to_string(chunk));
  }
}

TEST(FilterParity, ScanRecordsSubsetComposesWithFilter) {
  // The service's dispatch unit: a seeded chunk scan equals the exact
  // chunk scan for ids above the threshold (here all hits qualify).
  const SeededDb db(914);
  const db::Store store = build_open(db.records, "parity_chunk.swdb");
  const RecordSource src(store);
  std::vector<std::uint32_t> ids;
  for (std::uint32_t r = 10; r < 50; ++r) ids.push_back(r);

  ScanOptions opt;
  opt.top_k = 40;
  opt.min_score = 40;
  const ScanResult exact = scan_records_cpu(db.query, src, ids, align::Scoring{}, opt);
  ScanOptions sopt = opt;
  sopt.filter = FilterMode::Seeded;
  const ScanResult seeded = scan_records_cpu(db.query, src, ids, align::Scoring{}, sopt);
  expect_same_hits(seeded, exact, "subset");
  expect_filter_accounting(seeded, ids.size(), "subset");
}

TEST(FilterParity, SeededSourceValidation) {
  const SeededDb db(915);
  ScanOptions opt;
  opt.filter = FilterMode::Seeded;
  opt.min_score = 20;

  // In-memory vectors carry no index.
  EXPECT_THROW((void)scan_database_cpu(db.query, db.records, align::Scoring{}, opt),
               std::invalid_argument);

  // Pre-index v1 stores name the rebuild path.
  const db::Store v1 = build_open(db.records, "parity_v1.swdb", /*index=*/false);
  try {
    (void)scan_database_cpu(db.query, v1, align::Scoring{}, opt);
    FAIL() << "seeded scan over a v1 store must throw";
  } catch (const db::StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("rebuild"), std::string::npos) << e.what();
  }

  // The accelerator model scans exhaustively; seeded mode is CPU-only.
  const db::Store indexed = build_open(db.records, "parity_accel.swdb");
  core::SmithWatermanAccelerator acc(core::xc2vp70(), 64, align::Scoring{});
  EXPECT_THROW((void)scan_database(acc, db.query, indexed, opt), std::invalid_argument);
}

TEST(FilterParity, EmptyCandidateSetIsACompleteScan) {
  // A query sharing no k-mer with any record: everything is rejected and
  // the scan returns cleanly with reconciling counters.
  std::vector<seq::Sequence> records;
  for (int r = 0; r < 12; ++r) {
    records.push_back(seq::Sequence::dna(std::string(200, 'A'), "a" + std::to_string(r)));
  }
  const db::Store store = build_open(records, "parity_empty.swdb");
  const seq::Sequence query = seq::Sequence::dna(std::string(80, 'C'), "allc");
  ScanOptions opt;
  opt.filter = FilterMode::Seeded;
  opt.min_score = 20;
  const ScanResult r = scan_database_cpu(query, store, align::Scoring{}, opt);
  EXPECT_TRUE(r.hits.empty());
  EXPECT_EQ(r.filter_rescored, 0u);
  EXPECT_EQ(r.filter_rejected, records.size());
  EXPECT_EQ(r.cell_updates, 0u);
}

}  // namespace
