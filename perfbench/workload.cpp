#include "workload.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "seq/alphabet.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kDnaRecords = 2000;
constexpr std::size_t kDnaPlanted = 64;
constexpr std::size_t kDnaQueryLen = 100;

constexpr std::size_t kProteinRecords = 24000;
constexpr std::size_t kProteinPlanted = 32;
constexpr std::size_t kProteinQueryLen = 300;
constexpr std::size_t kProteinResidues = 20;  // the standard amino acids; no X

constexpr std::size_t kFleetRecords = 400;
constexpr std::size_t kFleetRecordLen = 500;
constexpr std::size_t kFleetPlanted = 16;

// splitmix64: decorrelates (seed, index) pairs into per-request RNG seeds.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

seq::Sequence random_seq(const seq::Alphabet& ab, std::size_t letters, std::size_t n,
                         std::mt19937_64& rng, std::string name = {}) {
  std::uniform_int_distribution<unsigned> dist(0, static_cast<unsigned>(letters - 1));
  std::vector<seq::Code> codes(n);
  for (seq::Code& c : codes) c = static_cast<seq::Code>(dist(rng));
  return seq::Sequence(ab, std::move(codes), std::move(name));
}

// "<prefix><n>" record/query names.
std::string tagged(const char* prefix, std::size_t n) {
  std::string s = prefix;
  s += std::to_string(n);
  return s;
}

// Length skewed towards short records with a long tail: lo + span * u^2.
std::size_t skewed_length(std::size_t lo, std::size_t hi, std::mt19937_64& rng) {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  return lo + static_cast<std::size_t>(static_cast<double>(hi - lo) * u * u);
}

// Writes an exact copy of each planted query into a distinct record long
// enough to hold it, at a random offset, and records where its top hit
// must end.
void plant(Workload& w, std::size_t count, std::size_t letters, std::size_t qlen,
           std::mt19937_64& rng) {
  const seq::Alphabet& ab = w.alphabet();
  std::vector<std::uint32_t> eligible;
  for (std::size_t r = 0; r < w.records.size(); ++r) {
    if (w.records[r].size() >= qlen + 50) eligible.push_back(static_cast<std::uint32_t>(r));
  }
  std::shuffle(eligible.begin(), eligible.end(), rng);
  if (eligible.size() < count) throw std::logic_error("perfbench: too few records to plant");
  for (std::size_t p = 0; p < count; ++p) {
    seq::Sequence q = random_seq(ab, letters, qlen, rng, tagged("planted", p));
    const std::uint32_t r = eligible[p];
    seq::Sequence& rec = w.records[r];
    const std::size_t pos =
        std::uniform_int_distribution<std::size_t>(0, rec.size() - qlen)(rng);
    std::vector<seq::Code> codes(rec.codes().begin(), rec.codes().end());
    std::copy(q.codes().begin(), q.codes().end(), codes.begin() + static_cast<long>(pos));
    rec = seq::Sequence(ab, std::move(codes), rec.name());
    std::int32_t score = 0;
    for (const seq::Code c : q.codes()) score += w.scoring.substitution(c, c);
    w.planted.push_back({r, static_cast<std::uint32_t>(pos + qlen),
                         static_cast<std::uint32_t>(qlen), score});
    w.planted_queries.push_back(std::move(q));
  }
}

void make_dna_store(Workload& w, std::mt19937_64& rng) {
  w.records.reserve(kDnaRecords);
  for (std::size_t r = 0; r < kDnaRecords; ++r) {
    w.records.push_back(random_seq(seq::dna(), 4, skewed_length(50, 2000, rng), rng,
                                   tagged("d", r)));
  }
  plant(w, kDnaPlanted, 4, kDnaQueryLen, rng);
}

}  // namespace

const seq::Alphabet& Workload::alphabet() const {
  return protein ? seq::protein() : seq::dna();
}

std::uint64_t Workload::residues() const {
  std::uint64_t n = 0;
  for (const seq::Sequence& r : records) n += r.size();
  return n;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  std::mt19937_64 rng(mix(seed, 0xdb));
  if (name == "dna_unique") {
    w.daemon = true;
    w.scoring = align::Scoring::paper_default();
    make_dna_store(w, rng);
  } else if (name == "protein_batch") {
    w.protein = true;
    w.scoring.gap = -8;
    w.scoring.matrix = &align::blosum62();
    w.records.reserve(kProteinRecords);
    for (std::size_t r = 0; r < kProteinRecords; ++r) {
      w.records.push_back(random_seq(seq::protein(), kProteinResidues,
                                     skewed_length(50, 900, rng), rng,
                                     tagged("p", r)));
    }
    plant(w, kProteinPlanted, kProteinResidues, kProteinQueryLen, rng);
  } else if (name == "board_fleet") {
    w.scoring = align::Scoring::paper_default();
    for (std::size_t r = 0; r < kFleetRecords; ++r) {
      w.records.push_back(
          random_seq(seq::dna(), 4, kFleetRecordLen, rng, tagged("f", r)));
    }
    plant(w, kFleetPlanted, 4, kDnaQueryLen, rng);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

Request Workload::request(std::uint64_t index) const {
  Request req;
  req.id = index + 1;
  std::mt19937_64 rng(mix(seed, index + 1));
  auto use = [&](const seq::Sequence& q, std::optional<std::size_t> planted_idx) {
    req.query = q.to_string();
    if (planted_idx) req.planted = planted[*planted_idx];
  };
  if (name == "dna_unique") {
    // Every request distinct: a planted query once each among the first
    // 16 * kDnaPlanted requests, fresh random queries otherwise.
    const std::uint64_t slot = index / 16;
    if (index % 16 == 5 && slot < planted.size()) {
      use(planted_queries[slot], slot);
    } else {
      use(random_seq(seq::dna(), 4, kDnaQueryLen, rng), std::nullopt);
    }
  } else if (name == "protein_batch") {
    req.align = true;
    req.max_hits = 10;
    if (index % 4 == 0) {
      const std::size_t p = (index / 4) % planted.size();
      use(planted_queries[p], p);
    } else {
      use(random_seq(seq::protein(), kProteinResidues, kProteinQueryLen, rng), std::nullopt);
    }
  } else {  // board_fleet
    if (index % 2 == 0) {
      const std::size_t p = (index / 2) % planted.size();
      use(planted_queries[p], p);
    } else {
      use(random_seq(seq::dna(), 4, kDnaQueryLen, rng), std::nullopt);
    }
  }
  return req;
}

}  // namespace perfbench
