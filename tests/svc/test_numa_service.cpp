// Service-side NUMA placement: a fake multi-node config must leave every
// response bit-identical to the direct engine, and the per-node chunk
// accounting must reconcile — every chunk the service dispatched was
// claimed exactly once, as local or remote
// (svc.numa.local_chunks + svc.numa.remote_chunks == svc.chunks_cpu +
// svc.chunks_board).
#include <gtest/gtest.h>

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
#include "svc/scan_service.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;

std::string temp_path(const std::string& leaf) {
  return testing::TempDir() + "/" + test::unique_leaf(leaf);
}

struct SvcDb {
  seq::Sequence query;
  std::vector<seq::Sequence> records;

  explicit SvcDb(std::uint64_t seed, std::size_t n_records = 90) {
    seq::RandomSequenceGenerator gen(seed);
    query = gen.uniform(seq::dna(), 110, "q");
    for (std::size_t r = 0; r < n_records; ++r) {
      seq::Sequence rec =
          gen.uniform(seq::dna(), 70 + 29 * (r % 8), "rec" + std::to_string(r));
      if (r % 6 == 2) rec.append(seq::point_mutate(query, 0.05, gen.engine()));
      records.push_back(std::move(rec));
    }
  }
};

db::Store build_open(const std::vector<seq::Sequence>& recs, const std::string& leaf) {
  const std::string path = temp_path(leaf);
  db::BuildOptions opt;
  opt.kmer_index = true;
  db::build_store(recs, path, opt);
  return db::Store::open(path);
}

void expect_same_hits(const host::ScanResult& got, const host::ScanResult& want,
                      const std::string& what) {
  ASSERT_EQ(got.hits.size(), want.hits.size()) << what;
  for (std::size_t k = 0; k < got.hits.size(); ++k) {
    EXPECT_EQ(got.hits[k].record, want.hits[k].record) << what << " hit " << k;
    EXPECT_EQ(got.hits[k].result, want.hits[k].result) << what << " hit " << k;
  }
}

TEST(NumaService, FakeTopologyParityAndChunkReconciliation) {
  const SvcDb db(2101);
  const db::Store store = build_open(db.records, "numa_svc.swdb");

  host::ScanOptions opt;
  opt.top_k = 16;
  opt.min_score = 40;
  const host::ScanResult want = host::scan_database_cpu(db.query, store, align::Scoring{}, opt);
  ASSERT_FALSE(want.hits.empty());

  // Small chunks so both nodes' runs are non-trivial and stealing can
  // actually happen; an asymmetric spec exercises uneven run bounds.
  for (const char* mode : {"fake:2x2", "fake:0-2,8/3-5"}) {
    obs::Registry reg;
    svc::ServiceConfig cfg;
    cfg.cpu_workers = 3;
    cfg.chunk_records = 7;
    cfg.numa = core::parse_numa_request(mode);
    cfg.metrics = &reg;
    svc::ScanService service(store, cfg);
    const svc::ScanResponse resp = service.submit(db.query, opt).response.get();
    ASSERT_EQ(resp.status, svc::QueryStatus::Done) << resp.error;
    expect_same_hits(resp.result, want, mode);

    const obs::Snapshot snap = reg.snapshot();
    const std::uint64_t placed =
        snap.counter("svc.numa.local_chunks") + snap.counter("svc.numa.remote_chunks");
    const std::uint64_t executed =
        snap.counter("svc.chunks_cpu") + snap.counter("svc.chunks_board");
    EXPECT_EQ(placed, executed) << mode;
    EXPECT_GT(placed, 0u) << mode;
    bool saw_nodes = false;
    for (const auto& [name, value] : snap.gauges) {
      if (name == "svc.numa.nodes") {
        saw_nodes = true;
        EXPECT_EQ(value, 2) << mode;
      }
    }
    EXPECT_TRUE(saw_nodes) << mode;
  }
}

TEST(NumaService, OffConfigIsAStrictNoOp) {
  const SvcDb db(2102, 40);
  const db::Store store = build_open(db.records, "numa_svc_off.swdb");
  obs::Registry reg;
  svc::ServiceConfig cfg;
  cfg.cpu_workers = 2;
  cfg.chunk_records = 11;
  cfg.numa = core::parse_numa_request("off");
  cfg.metrics = &reg;
  svc::ScanService service(store, cfg);

  host::ScanOptions opt;
  opt.top_k = 8;
  opt.min_score = 40;
  const svc::ScanResponse resp = service.submit(db.query, opt).response.get();
  ASSERT_EQ(resp.status, svc::QueryStatus::Done) << resp.error;

  const obs::Snapshot snap = reg.snapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(name.rfind("svc.numa.", 0), std::string::npos) << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_EQ(name.rfind("svc.numa.", 0), std::string::npos) << name;
  }
}

TEST(NumaService, MultipleQueriesUnderFakeTopology) {
  // Concurrent queries share the pinned executor fleet; every one must
  // still resolve to the direct-engine answer.
  const SvcDb db(2103, 60);
  const db::Store store = build_open(db.records, "numa_svc_multi.swdb");
  host::ScanOptions opt;
  opt.top_k = 10;
  opt.min_score = 40;
  const host::ScanResult want = host::scan_database_cpu(db.query, store, align::Scoring{}, opt);

  svc::ServiceConfig cfg;
  cfg.cpu_workers = 4;
  cfg.chunk_records = 9;
  cfg.max_inflight = 4;
  cfg.numa = core::parse_numa_request("fake:2x2");
  svc::ScanService service(store, cfg);

  std::vector<svc::Ticket> tickets;
  tickets.reserve(6);
  for (int q = 0; q < 6; ++q) tickets.push_back(service.submit(db.query, opt));
  for (std::size_t q = 0; q < tickets.size(); ++q) {
    const svc::ScanResponse resp = tickets[q].response.get();
    ASSERT_EQ(resp.status, svc::QueryStatus::Done) << resp.error;
    expect_same_hits(resp.result, want, "query " + std::to_string(q));
  }
}

}  // namespace
