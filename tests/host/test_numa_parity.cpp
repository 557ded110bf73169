// NUMA placement parity suite (ISSUE acceptance): hit output — and the
// retrieved alignment transcripts — must be bit-identical across
// `--numa off|auto|fake:<spec>` for both filters, every kernel shape and
// 1/2/8 threads, over store-backed and vector sources. Placement changes
// where records are scanned, never what the scan reports. Also pins down
// the counter contract: scan.numa.local_bytes + scan.numa.remote_bytes
// reconciles against the payload bytes scanned, and `--numa off` is a
// strict no-op (no scan.numa.* metrics exist at all).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "align/scoring.hpp"
#include "core/topology.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/batch.hpp"
#include "host/scan_engine.hpp"
#include "obs/metrics.hpp"
#include "seq/mutate.hpp"
#include "seq/random.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::host;

std::string temp_path(const std::string& leaf) {
  return testing::TempDir() + "/" + test::unique_leaf(leaf);
}

/// Scoped SWR_NUMA_FAKE override (restores the previous value) so the
/// auto-mode cases are deterministic on any machine.
class FakeEnvGuard {
 public:
  explicit FakeEnvGuard(const char* value) {
    const char* prev = std::getenv("SWR_NUMA_FAKE");
    if (prev != nullptr) saved_ = prev;
    if (value != nullptr) {
      ::setenv("SWR_NUMA_FAKE", value, 1);
    } else {
      ::unsetenv("SWR_NUMA_FAKE");
    }
  }
  ~FakeEnvGuard() {
    if (saved_.has_value()) {
      ::setenv("SWR_NUMA_FAKE", saved_->c_str(), 1);
    } else {
      ::unsetenv("SWR_NUMA_FAKE");
    }
  }
  FakeEnvGuard(const FakeEnvGuard&) = delete;
  FakeEnvGuard& operator=(const FakeEnvGuard&) = delete;

 private:
  std::optional<std::string> saved_;
};

// Random DNA background with homologs planted on a divergence ladder,
// plus the degenerate shapes (empty / sub-seed records) every engine
// path must tolerate.
struct NumaDb {
  seq::Sequence query;
  std::vector<seq::Sequence> records;

  explicit NumaDb(std::uint64_t seed, std::size_t n_records = 80) {
    seq::RandomSequenceGenerator gen(seed);
    query = gen.uniform(seq::dna(), 120, "q");
    for (std::size_t r = 0; r < n_records; ++r) {
      seq::Sequence rec =
          gen.uniform(seq::dna(), 60 + 41 * (r % 9), "rec" + std::to_string(r));
      if (r % 7 == 3) {
        const double rate = 0.02 + 0.03 * static_cast<double>(r % 6);
        rec.append(seq::point_mutate(query, rate, gen.engine()));
      }
      records.push_back(std::move(rec));
    }
    records.push_back(seq::Sequence::dna("", "empty"));
    records.push_back(seq::Sequence::dna("ACGT", "tiny"));
  }
};

db::Store build_open(const std::vector<seq::Sequence>& recs, const std::string& leaf) {
  const std::string path = temp_path(leaf);
  db::BuildOptions opt;
  opt.kmer_index = true;
  db::build_store(recs, path, opt);
  return db::Store::open(path);
}

void expect_same_hits(const ScanResult& got, const ScanResult& want, const std::string& what) {
  ASSERT_EQ(got.hits.size(), want.hits.size()) << what;
  for (std::size_t k = 0; k < got.hits.size(); ++k) {
    EXPECT_EQ(got.hits[k].record, want.hits[k].record) << what << " hit " << k;
    EXPECT_EQ(got.hits[k].result, want.hits[k].result) << what << " hit " << k;
  }
}

// Every mode the parity contract covers: the placement-blind engine, auto
// against a forced multi-node fake machine, a symmetric fake and an
// asymmetric fake whose cpu ids exceed what small CI boxes actually have
// (pinning degrades, placement logic still runs).
const char* const kModes[] = {"off", "auto", "fake:2x2", "fake:0-2,8/3-5"};

TEST(NumaParity, HitsIdenticalAcrossModesThreadsShapesFilters) {
  const FakeEnvGuard env("2x2");  // `auto` resolves multi-node everywhere
  const NumaDb db(1709);
  const db::Store store = build_open(db.records, "numa_parity.swdb");

  ScanOptions base;
  base.top_k = db.records.size();
  base.min_score = 40;
  const ScanResult want = scan_database_cpu(db.query, store, align::Scoring{}, base);
  ASSERT_GE(want.hits.size(), 5u);

  for (const char* mode : kModes) {
    for (const KernelShape shape :
         {KernelShape::Auto, KernelShape::Striped, KernelShape::InterSeq}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        for (const FilterMode filter : {FilterMode::Exact, FilterMode::Seeded}) {
          ScanOptions opt = base;
          opt.numa = core::parse_numa_request(mode);
          opt.kernel = shape;
          opt.threads = threads;
          opt.filter = filter;
          const ScanResult got = scan_database_cpu(db.query, store, align::Scoring{}, opt);
          expect_same_hits(got, want,
                           std::string("mode ") + mode + " shape " +
                               core::kernel_shape_name(shape) + " threads " +
                               std::to_string(threads) + " filter " +
                               (filter == FilterMode::Exact ? "exact" : "seeded"));
        }
      }
    }
  }
}

TEST(NumaParity, VectorSourceParity) {
  // Placement must not assume a store: the vector overload shards and
  // steals by record size instead of payload ranges.
  const NumaDb db(1710, 50);
  ScanOptions base;
  base.top_k = 20;
  base.min_score = 40;
  const ScanResult want = scan_database_cpu(db.query, db.records, align::Scoring{}, base);

  for (const char* mode : {"fake:2x2", "fake:0-2,8/3-5"}) {
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      ScanOptions opt = base;
      opt.numa = core::parse_numa_request(mode);
      opt.threads = threads;
      const ScanResult got = scan_database_cpu(db.query, db.records, align::Scoring{}, opt);
      expect_same_hits(got, want,
                       std::string("vector mode ") + mode + " threads " +
                           std::to_string(threads));
    }
  }
}

TEST(NumaParity, AlignTranscriptsIdentical) {
  const NumaDb db(1711);
  const db::Store store = build_open(db.records, "numa_align.swdb");
  ScanOptions base;
  base.top_k = 12;
  base.min_score = 40;
  base.align = true;
  const ScanResult want = scan_database_cpu(db.query, store, align::Scoring{}, base);
  ASSERT_FALSE(want.alignments.empty());

  ScanOptions opt = base;
  opt.numa = core::parse_numa_request("fake:2x2");
  opt.threads = 8;
  const ScanResult got = scan_database_cpu(db.query, store, align::Scoring{}, opt);
  expect_same_hits(got, want, "aligned scan");
  ASSERT_EQ(got.alignments.size(), want.alignments.size());
  for (std::size_t a = 0; a < got.alignments.size(); ++a) {
    const retrieve::Traceback& g = got.alignments[a];
    const retrieve::Traceback& w = want.alignments[a];
    EXPECT_EQ(g.alignment.score, w.alignment.score) << "alignment " << a;
    EXPECT_EQ(g.alignment.begin, w.alignment.begin) << "alignment " << a;
    EXPECT_EQ(g.alignment.end, w.alignment.end) << "alignment " << a;
    EXPECT_EQ(g.alignment.cigar.to_string(), w.alignment.cigar.to_string()) << "alignment " << a;
  }
}

TEST(NumaParity, CountersReconcileAgainstPayloadBytes) {
  // The acceptance identity: every payload byte the scan touched is
  // accounted exactly once, as local or remote.
  const NumaDb db(1712);
  const db::Store store = build_open(db.records, "numa_counters.swdb");
  std::uint64_t payload = 0;
  for (std::size_t r = 0; r < store.size(); ++r) payload += store.payload_range(r).bytes;
  ASSERT_GT(payload, 0u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    obs::Registry reg;
    ScanOptions opt;
    opt.top_k = 8;
    opt.min_score = 40;
    opt.threads = threads;
    opt.numa = core::parse_numa_request("fake:2x2");
    opt.metrics = &reg;
    (void)scan_database_cpu(db.query, store, align::Scoring{}, opt);

    const obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("scan.numa.local_bytes") + snap.counter("scan.numa.remote_bytes"),
              payload)
        << "threads " << threads;
    // The first worker on each node pre-faults its byte slice.
    EXPECT_GT(snap.counter("scan.numa.prefault_pages"), 0u) << "threads " << threads;
    bool saw_nodes = false;
    for (const auto& [name, value] : snap.gauges) {
      if (name == "scan.numa.nodes") {
        saw_nodes = true;
        EXPECT_EQ(value, 2) << "threads " << threads;
      }
    }
    EXPECT_TRUE(saw_nodes) << "threads " << threads;
  }
}

TEST(NumaParity, OffIsAStrictNoOp) {
  // `--numa off` reproduces the placement-blind engine exactly: no
  // scan.numa.* metric may even exist in the registry afterwards.
  const NumaDb db(1713, 40);
  const db::Store store = build_open(db.records, "numa_off.swdb");
  obs::Registry reg;
  ScanOptions opt;
  opt.top_k = 8;
  opt.min_score = 40;
  opt.threads = 4;
  opt.numa = core::parse_numa_request("off");
  opt.metrics = &reg;
  (void)scan_database_cpu(db.query, store, align::Scoring{}, opt);

  const obs::Snapshot snap = reg.snapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(name.rfind("scan.numa.", 0), std::string::npos) << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_EQ(name.rfind("scan.numa.", 0), std::string::npos) << name;
  }
}

TEST(NumaParity, AutoDegradesSilentlyOnSingleNode) {
  // On a single-node machine `--numa auto` must behave exactly like off:
  // same hits, no placement metrics, no error.
  const FakeEnvGuard env("1x8");
  const NumaDb db(1714, 40);
  const db::Store store = build_open(db.records, "numa_auto1.swdb");
  ScanOptions base;
  base.top_k = 8;
  base.min_score = 40;
  base.threads = 4;
  base.numa = core::parse_numa_request("off");
  const ScanResult want = scan_database_cpu(db.query, store, align::Scoring{}, base);

  obs::Registry reg;
  ScanOptions opt = base;
  opt.numa = core::parse_numa_request("auto");
  opt.metrics = &reg;
  const ScanResult got = scan_database_cpu(db.query, store, align::Scoring{}, opt);
  expect_same_hits(got, want, "auto on single node");
  const obs::Snapshot snap = reg.snapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(name.rfind("scan.numa.", 0), std::string::npos) << name;
  }
}

}  // namespace
