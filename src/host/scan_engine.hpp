// Parallel sharded database-scan engine — the software twin of the
// SAMBA-style workload (paper Table 1) on host CPUs.
//
// scan_database (host/batch.hpp) streams records through the
// cycle-accurate accelerator model one at a time: faithful, but it
// exploits neither of the two multiplicative throughput levers a real
// database scan lives on — inter-record task parallelism and wider
// intra-record SIMD lanes. This engine exploits both:
//
//   * the record list is sharded into contiguous chunks handed to
//     par::ThreadPool workers through an atomic chunk cursor (dynamic
//     load balancing — record lengths vary wildly);
//   * each worker owns one reusable align::QueryProfile plus scalar/SWAR
//     scratch buffers, so per-record setup is amortised exactly once per
//     thread;
//   * per record, the SIMD policy ladder picks the widest exact kernel:
//     eight 8-bit lanes with saturation-detect, lazily re-run in four
//     16-bit lanes on overflow, scalar query-profile beyond that;
//   * every worker keeps its own top-k list; the partial lists are merged
//     deterministically under hit_ranks_before at the end.
//
// The SIMD kernels are score-only: the canonical end cell of each hit is
// located once, after the merge, for the final top-k only (locate_hits) —
// the paper's §2.3 split of score + coordinates from alignment, applied
// to coordinates themselves. With DUST on, candidates are located before
// the filter, which reads the end cell.
//
// The result is BIT-IDENTICAL to the sequential scan for every thread
// count and SIMD policy — same hits in the same hit_ranks_before order,
// same cell_updates — because per-record results are engine-invariant
// (each kernel reproduces sw_linear exactly) and the merge is a total
// order. Tests enforce this for 1/2/8 threads and all policies.
//
// The database reaches the engine either as an in-memory record vector
// (the FASTA path) or as a memory-mapped db::Store (.swdb) — both run the
// same loop via host::RecordSource, so their hits are bit-identical too.
//
// ScanOptions::filter adds an optional candidate tier in front of the
// exact kernels: FilterMode::Seeded consults the store's k-mer index and
// the ungapped diagonal prescreen (host/prefilter.hpp) and scores only
// the surviving records — identical hits above the filter threshold, a
// fraction of the cell updates. Exact mode is the unchanged full scan.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/scoring.hpp"
#include "db/store.hpp"
#include "host/batch.hpp"
#include "host/record_source.hpp"
#include "seq/sequence.hpp"

namespace swr::host {

/// Scans `records` with `query` on the CPU engine. `opt.threads` workers,
/// `opt.simd_policy` kernels. `cell_updates` counts |query| * |record|
/// per non-empty record — the same accounting as the accelerator scan.
/// `board_seconds` is 0: no board is involved.
/// @throws std::invalid_argument on bad options or alphabet mismatch.
ScanResult scan_database_cpu(const seq::Sequence& query, const std::vector<seq::Sequence>& records,
                             const align::Scoring& sc, const ScanOptions& opt);

/// Same engine over a memory-mapped .swdb store: no FASTA parse, records
/// stream straight out of the mapping. Hits are bit-identical to the
/// vector overload on the same records (tests enforce it).
ScanResult scan_database_cpu(const seq::Sequence& query, const db::Store& store,
                             const align::Scoring& sc, const ScanOptions& opt);

/// Single-threaded scan of an explicit record-id list — the dispatch unit
/// of svc::ScanService (one chunk of a query's work, typically a slice of
/// the store's schedule_order). `opt.threads` is ignored. Hits carry the
/// original record ids, so unioning chunk results and sorting under
/// hit_ranks_before reproduces the whole-database scan exactly.
/// @throws std::invalid_argument on bad options, alphabet mismatch, or an
/// id outside the source.
ScanResult scan_records_cpu(const seq::Sequence& query, const RecordSource& src,
                            std::span<const std::uint32_t> record_ids, const align::Scoring& sc,
                            const ScanOptions& opt);

/// scan_records_cpu without the locate step: hit scores and ranking are
/// final, but hits from the score-only SIMD kernels keep an unset end cell
/// (Cell{}). The ScanService chunk scan: it merges every chunk of a query
/// and locates the survivors once through locate_hits.
ScanResult scan_records_cpu_scores(const seq::Sequence& query, const RecordSource& src,
                                   std::span<const std::uint32_t> record_ids,
                                   const align::Scoring& sc, const ScanOptions& opt);

/// True while a score-only kernel's hit still lacks its end cell: a
/// reported hit scores >= 1, so a located one never ends at Cell{}.
[[nodiscard]] inline bool unlocated(const Hit& hit) noexcept {
  return hit.result.end == align::Cell{};
}

/// Locates the canonical end cell (smallest column, then smallest row) of
/// every unlocated hit. Scores of 1..255 share one
/// lane-batched inter-sequence Locate pass seeded with each hit's score;
/// higher scores, and hosts or schemes without the inter-sequence kernel,
/// take the scalar profile kernel. The profiles come from
/// `opt.profile_cache` when set, under `opt.simd_policy`; the count
/// located is added to `opt.metrics`' scan.coords.resolved. Hits already
/// located (scalar kernels, boards) are left alone. Ranking never changes:
/// hit_ranks_before reads the cell only when score and record both tie.
/// @throws std::logic_error when a located cell disagrees with the score.
std::uint64_t locate_hits(const seq::Sequence& query, const RecordSource& src,
                          const align::Scoring& sc, const ScanOptions& opt, std::span<Hit> hits);

}  // namespace swr::host
