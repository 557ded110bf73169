// filter_candidates: the two-stage funnel's guards, subset restriction,
// and accounting — the unit layer under the recall parity suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/prefilter.hpp"
#include "seq/mutate.hpp"
#include "seq/random.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;

std::string temp_path(const std::string& leaf) {
  return testing::TempDir() + "/" + test::unique_leaf(leaf);
}

// 30 unrelated records plus mutated copies of `query` at the given ids.
std::vector<seq::Sequence> planted_db(const seq::Sequence& query,
                                      const std::vector<std::size_t>& planted_at) {
  seq::RandomSequenceGenerator gen(321);
  std::vector<seq::Sequence> recs;
  for (std::size_t r = 0; r < 30; ++r) {
    recs.push_back(gen.uniform(seq::dna(), 150 + 17 * (r % 5), "bg" + std::to_string(r)));
  }
  for (const std::size_t at : planted_at) {
    seq::Sequence hom = seq::point_mutate(query, 0.05, gen.engine());
    hom.set_name("planted" + std::to_string(at));
    recs[at] = std::move(hom);
  }
  return recs;
}

db::Store build_open(const std::vector<seq::Sequence>& recs, const std::string& leaf,
                     bool index = true) {
  const std::string path = temp_path(leaf);
  db::BuildOptions opt;
  opt.kmer_index = index;
  db::build_store(recs, path, opt);
  return db::Store::open(path);
}

TEST(Prefilter, KeepsPlantedHomologsDropsBackground) {
  const seq::Sequence query = test::random_dna(120, 777);
  const std::vector<std::size_t> planted{3, 17, 28};
  const db::Store store = build_open(planted_db(query, planted), "pf_basic.swdb");

  host::FilterOptions fo;
  fo.threshold = 60;
  host::FilterStats st;
  const auto keep = host::filter_candidates(store, query, align::Scoring{}, fo, {}, &st);

  for (const std::size_t at : planted) {
    EXPECT_TRUE(std::binary_search(keep.begin(), keep.end(), static_cast<std::uint32_t>(at)))
        << "planted record " << at << " must survive";
  }
  EXPECT_LT(keep.size(), store.size());  // background actually gets dropped
  EXPECT_EQ(st.domain, store.size());
  EXPECT_EQ(st.rescored, keep.size());
  EXPECT_EQ(st.rejected + st.rescored, st.domain);
  EXPECT_GE(st.candidates, keep.size() - st.recall_guard);
  EXPECT_GT(st.postings, 0u);
  EXPECT_GT(st.diagonals, 0u);
  EXPECT_TRUE(std::is_sorted(keep.begin(), keep.end()));
  EXPECT_EQ(std::adjacent_find(keep.begin(), keep.end()), keep.end());
}

TEST(Prefilter, RecordShorterThanKIsGuarded) {
  const seq::Sequence query = test::random_dna(100, 11);
  auto recs = planted_db(query, {5});
  recs.push_back(seq::Sequence::dna("ACGT", "shorty"));  // < any auto k
  recs.push_back(seq::Sequence::dna("", "empty"));
  const db::Store store = build_open(recs, "pf_guard.swdb");

  host::FilterOptions fo;
  fo.threshold = 50;
  host::FilterStats st;
  const auto keep = host::filter_candidates(store, query, align::Scoring{}, fo, {}, &st);
  const auto shorty = static_cast<std::uint32_t>(recs.size() - 2);
  const auto empty = static_cast<std::uint32_t>(recs.size() - 1);
  EXPECT_TRUE(std::binary_search(keep.begin(), keep.end(), shorty));
  EXPECT_FALSE(std::binary_search(keep.begin(), keep.end(), empty));
  EXPECT_GE(st.recall_guard, 1u);
}

TEST(Prefilter, ShortQueryAdmitsEveryNonEmptyRecord) {
  auto recs = planted_db(test::random_dna(100, 12), {});
  recs.push_back(seq::Sequence::dna("", "empty"));
  const db::Store store = build_open(recs, "pf_shortq.swdb");

  const seq::Sequence query = seq::Sequence::dna("ACG");  // < k
  host::FilterOptions fo;
  fo.threshold = 3;
  host::FilterStats st;
  const auto keep = host::filter_candidates(store, query, align::Scoring{}, fo, {}, &st);
  EXPECT_EQ(keep.size(), recs.size() - 1);  // all but the empty record
  EXPECT_EQ(st.recall_guard, keep.size());
}

TEST(Prefilter, SubsetRestrictsDomain) {
  const seq::Sequence query = test::random_dna(120, 13);
  const db::Store store = build_open(planted_db(query, {7}), "pf_subset.swdb");

  host::FilterOptions fo;
  fo.threshold = 60;
  const std::vector<std::uint32_t> subset{2, 7, 19};
  host::FilterStats st;
  const auto keep = host::filter_candidates(store, query, align::Scoring{}, fo, subset, &st);
  EXPECT_EQ(st.domain, subset.size());
  for (const std::uint32_t r : keep) {
    EXPECT_TRUE(std::binary_search(subset.begin(), subset.end(), r));
  }
  EXPECT_TRUE(std::binary_search(keep.begin(), keep.end(), 7u));
}

TEST(Prefilter, SubsetExcludingHomologDropsIt) {
  const seq::Sequence query = test::random_dna(120, 14);
  const db::Store store = build_open(planted_db(query, {7}), "pf_subset2.swdb");
  host::FilterOptions fo;
  fo.threshold = 60;
  const std::vector<std::uint32_t> subset{0, 1, 2};
  const auto keep = host::filter_candidates(store, query, align::Scoring{}, fo, subset);
  EXPECT_FALSE(std::binary_search(keep.begin(), keep.end(), 7u));
}

TEST(Prefilter, ValidatesThresholdAndStore) {
  const seq::Sequence query = test::random_dna(50, 15);
  const db::Store indexed = build_open(planted_db(query, {}), "pf_val.swdb");
  host::FilterOptions bad;
  bad.threshold = 0;
  EXPECT_THROW((void)host::filter_candidates(indexed, query, align::Scoring{}, bad),
               std::invalid_argument);

  const db::Store v1 = build_open(planted_db(query, {}), "pf_v1.swdb", /*index=*/false);
  host::FilterOptions fo;
  fo.threshold = 20;
  EXPECT_THROW((void)host::filter_candidates(v1, query, align::Scoring{}, fo), db::StoreError);
}

TEST(Prefilter, ExplicitPrescreenThresholdTightensFunnel) {
  const seq::Sequence query = test::random_dna(120, 16);
  const db::Store store = build_open(planted_db(query, {4}), "pf_bar.swdb");
  host::FilterOptions loose;
  loose.threshold = 60;
  loose.prescreen_threshold = 1;  // everything with a seed survives
  host::FilterStats ls;
  const auto wide = host::filter_candidates(store, query, align::Scoring{}, loose, {}, &ls);
  host::FilterOptions tight = loose;
  tight.prescreen_threshold = 60;  // demand the full ungapped run
  host::FilterStats ts;
  const auto narrow = host::filter_candidates(store, query, align::Scoring{}, tight, {}, &ts);
  EXPECT_LE(narrow.size(), wide.size());
  EXPECT_TRUE(std::binary_search(narrow.begin(), narrow.end(), 4u));
}

}  // namespace
