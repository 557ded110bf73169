// CLI observability edges: scan --stats / --metrics-out and the
// stats-dump command. The JSON written by --metrics-out must parse back
// through obs::from_json and its counters must reconcile with the totals
// the scan itself reported on stdout.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "seq/fasta.hpp"
#include "seq/random.hpp"

namespace {

using namespace swr;

std::string write_fa(const std::string& stem, const std::vector<seq::Sequence>& recs) {
  const std::string path = testing::TempDir() + "/" + stem + ".fa";
  seq::write_fasta_file(path, recs);
  return path;
}

struct RunResult {
  int code;
  std::string out;
  std::string err;
};

RunResult run(const std::string& cmd, const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::run_command(cmd, args, out, err);
  return {code, out.str(), err.str()};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

// gtest_discover_tests runs each TEST as its own process, and ctest runs
// them concurrently — temp files must be unique per test or one process
// reads a file another is mid-rewrite.
std::string test_stem() {
  return ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

std::string query_path() {
  return write_fa("stats_q_" + test_stem(), {seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q")});
}

std::string db_path() {
  seq::RandomSequenceGenerator gen(77);
  std::vector<seq::Sequence> recs;
  for (int k = 0; k < 12; ++k) {
    recs.push_back(gen.uniform(seq::dna(), 30 + 5 * static_cast<std::size_t>(k), std::string("r").append(std::to_string(k))));
  }
  recs.push_back(seq::Sequence::dna("ACGTACGTACGTACGTACGT", "planted"));
  return write_fa("stats_db_" + test_stem(), recs);
}

TEST(CliStats, ScanStatsPrintsTable) {
  const RunResult r = run("scan", {query_path(), db_path(), "--engine", "cpu", "--stats"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("-- stats"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("scan.records"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("scan.cells"), std::string::npos);
}

TEST(CliStats, StoreScanRecordsDbMetrics) {
  const std::string store_path = testing::TempDir() + "/stats_db.swdb";
  ASSERT_EQ(run("swdb", {"build", db_path(), store_path}).code, 0);
  const RunResult r = run("scan", {query_path(), store_path, "--engine", "cpu", "--stats"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("db.opens"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("db.bytes_mapped"), std::string::npos);
  EXPECT_NE(r.out.find("scan.records"), std::string::npos);
}

TEST(CliStats, ScanWithoutStatsPrintsNoTable) {
  const RunResult r = run("scan", {query_path(), db_path(), "--engine", "cpu"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find("-- stats"), std::string::npos) << r.out;
}

TEST(CliStats, MetricsOutWritesValidReconcilingJson) {
  const std::string metrics_path = testing::TempDir() + "/stats_scan.json";
  const RunResult r = run("scan", {query_path(), db_path(), "--engine", "cpu", "--threads", "2",
                                   "--metrics-out", metrics_path});
  EXPECT_EQ(r.code, 0) << r.err;

  const obs::Snapshot snap = obs::from_json(read_file(metrics_path));
  // The scan line on stdout reports the same totals the JSON carries:
  // "stats: R records scanned, C cells, F swar8 fallbacks".
  std::size_t records = 0;
  std::uint64_t cells = 0;
  {
    const std::size_t at = r.out.find("stats: ");
    ASSERT_NE(at, std::string::npos) << r.out;
    std::istringstream line(r.out.substr(at + 7));
    std::string word;
    line >> records >> word >> word >> cells;
  }
  EXPECT_GE(snap.counter("scan.records"), records);
  EXPECT_GE(snap.counter("scan.cells"), cells);
  EXPECT_GT(records, 0u);
}

TEST(CliStats, BatchMetricsReconcileExactly) {
  // Two queries through scan --batch; svc.* counters in the JSON must
  // equal the per-query totals printed on stdout, summed.
  const std::string q2 = write_fa("stats_q2", {seq::Sequence::dna("ACGTACGTACGTACGTACGT", "qa"),
                                               seq::Sequence::dna("TTTTGGGGCCCCAAAA", "qb")});
  const std::string metrics_path = testing::TempDir() + "/stats_batch.json";
  const RunResult r = run("scan", {q2, db_path(), "--engine", "cpu", "--batch", "--cpu-workers",
                                   "2", "--chunk", "4", "--metrics-out", metrics_path, "--stats"});
  EXPECT_EQ(r.code, 0) << r.err;

  std::uint64_t records = 0, cells = 0, fallbacks = 0, queries = 0;
  std::istringstream lines(r.out);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t at = line.find("stats: ");
    if (at == std::string::npos) continue;
    std::istringstream fields(line.substr(at + 7));
    std::uint64_t rec = 0, cel = 0, fb = 0;
    std::string word;
    fields >> rec >> word >> word >> cel >> word >> fb;
    records += rec;
    cells += cel;
    fallbacks += fb;
    ++queries;
  }
  ASSERT_EQ(queries, 2u) << r.out;

  const obs::Snapshot snap = obs::from_json(read_file(metrics_path));
  EXPECT_EQ(snap.counter("svc.records_scanned"), records);
  EXPECT_EQ(snap.counter("svc.cells"), cells);
  EXPECT_EQ(snap.counter("svc.swar8_fallbacks"), fallbacks);
  EXPECT_EQ(snap.counter("svc.queries_done"), 2u);
  // The batch path prints the span table when observability is on.
  EXPECT_NE(r.out.find("-- trace spans"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("-- stats"), std::string::npos);
}

TEST(CliStats, StatsDumpRendersSavedJson) {
  const std::string metrics_path = testing::TempDir() + "/stats_dump_in.json";
  ASSERT_EQ(run("scan", {query_path(), db_path(), "--engine", "cpu", "--metrics-out",
                         metrics_path})
                .code,
            0);
  const RunResult table = run("stats-dump", {metrics_path});
  EXPECT_EQ(table.code, 0) << table.err;
  EXPECT_NE(table.out.find("scan.records"), std::string::npos) << table.out;
  EXPECT_NE(table.out.find("counters:"), std::string::npos);

  // --json re-emits the canonical JSON byte-for-byte.
  const RunResult json = run("stats-dump", {metrics_path, "--json"});
  EXPECT_EQ(json.code, 0);
  EXPECT_EQ(json.out, read_file(metrics_path));
}

TEST(CliStats, StatsDumpRejectsGarbage) {
  const std::string bad = testing::TempDir() + "/stats_bad.json";
  std::ofstream(bad) << "this is not a metrics dump";
  EXPECT_EQ(run("stats-dump", {bad}).code, 2);
  EXPECT_EQ(run("stats-dump", {"/no/such/file.json"}).code, 2);
  EXPECT_EQ(run("stats-dump", {bad, bad}).code, 2);  // at most one positional
}

TEST(CliStats, MetricsOutUnwritablePathFails) {
  const RunResult r = run("scan", {query_path(), db_path(), "--engine", "cpu", "--metrics-out",
                                   "/no/such/dir/metrics.json"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("metrics"), std::string::npos) << r.err;
}

}  // namespace
