// Seeded inputs of the three benchmark workloads. Everything here is a
// pure function of (workload name, seed): the records of the store, the
// planted homologs and the request stream. The program under test sees
// only what these functions produce.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "align/scoring.hpp"
#include "seq/sequence.hpp"

namespace perfbench {

namespace align = swr::align;
namespace seq = swr::seq;

/// Where a planted homolog sits: the exact copy of a query written into
/// `record` so the top hit must end at (end_i, end_j) with `score`.
struct Planted {
  std::uint32_t record = 0;
  std::uint32_t end_i = 0;  ///< 1-based end row in the record
  std::uint32_t end_j = 0;  ///< 1-based end column in the query (= |query|)
  std::int32_t score = 0;
};

/// One request of a workload's stream.
struct Request {
  std::uint64_t id = 0;  ///< 1-based position in the stream
  std::string query;     ///< residue text
  bool align = false;    ///< retrieve alignments
  std::uint32_t top_k = 10;
  std::uint32_t max_hits = 0;
  std::optional<Planted> planted;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  bool daemon = false;   ///< served over the swr serve socket
  bool protein = false;  ///< BLOSUM62 protein (else +1/-1/-2 DNA)
  align::Scoring scoring;
  std::vector<seq::Sequence> records;
  std::vector<seq::Sequence> planted_queries;
  std::vector<Planted> planted;

  /// Request `index` (0-based) of the stream; deterministic per index.
  [[nodiscard]] Request request(std::uint64_t index) const;
  /// Σ|r| over the records.
  [[nodiscard]] std::uint64_t residues() const;
  [[nodiscard]] const seq::Alphabet& alphabet() const;
};

/// Builds `name` from `seed`. @throws std::invalid_argument on an unknown
/// name.
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
