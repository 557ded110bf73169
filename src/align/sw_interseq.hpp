// Inter-sequence (sequence-per-lane) native-SIMD Smith-Waterman — the
// database-scan analogue of the paper's systolic array streaming many
// independent subjects past one resident query.
//
// Where the striped kernels (align/sw_striped.hpp) split ONE record's
// query columns across lanes, this kernel packs 16 (SSE4.1), 32 (AVX2) or
// 64 (AVX-512BW) DIFFERENT database records into the 8-bit lanes of one
// vector and
// advances all of them one database row at a time: per step, lane l
// consumes the next residue of its own record and the whole vector sweeps
// the query columns left to right. The layout is vertical — the DP state
// is one H row per lane, stored column-major (`h[j * lanes + l]`) so each
// query column is a single vector — and lanes are completely independent,
// which removes the striped kernels' lazy-F correction loop entirely: the
// horizontal-gap dependency is just the carried register of the previous
// column. The per-column substitution scores are gathered with one or two
// pshufb table lookups (the per-lane residue codes are loop-invariant
// across the columns of a step); the 64-lane body selects the high table
// of a 32-slot pair with a masked shuffle instead of a blend. Only this
// shape has a 64-lane kernel: the striped shape and its 16-bit re-run top
// out at 32 lanes.
//
// Lanes run different-length records, so the driver refills a lane the
// moment its record retires: `sw_interseq_scan` pulls records through a
// fetch callback (the scan engine feeds it the .swdb length-descending
// schedule_order, so co-resident lanes retire near-together) and reports
// each finished record through a done callback. A lane with no record
// left runs a neutral residue whose profile column is pos 0 / neg 0xFF,
// which pins its H values to zero — score-neutral and overflow-neutral.
//
// Exactness contract (identical to sw_antidiag8/sw_striped):
//   * saturating add-then-subtract keeps cell values unbiased, the full
//     0..255 range is usable, and a score of exactly 255 is exact;
//   * overflow is detected exactly and per lane: each saturating add is
//     xor-ed against its wrapping twin and the disagreement or-ed into a
//     sticky per-lane byte. A lane's flag sets iff some true cell of ITS
//     record exceeds 255 — the same predicate as the 8-bit SWAR and
//     striped kernels — so the caller re-runs exactly those records one
//     tier down and `swar8_fallbacks` stays bit-identical across every
//     kernel shape and policy;
//   * the scan is score-only: each lane folds every cell into a running
//     max vector and reports the best score, never a cell. The canonical
//     end cell — sw_linear's (j, i)-lexicographic tie-break — comes from
//     the Locate instantiation of the same kernel body
//     (sw_interseq_locate), seeded with each record's known score: it
//     rescans a lane's row only when the row max EQUALS that score, so
//     callers pay for coordinates on the records they report, not on
//     every record they scan (paper §2.3: score and end cell first,
//     alignment later — here one level further down).
//
// Availability mirrors sw_striped: compiled on x86 GCC/Clang only
// (per-function target attributes; the binary stays portable), guarded by
// CPUID at runtime, and structurally unusable when the scoring magnitudes
// exceed a byte or the alphabet (plus the neutral code) does not fit the
// 32-slot pshufb table — host/scan_engine degrades to the striped shape
// in those cases.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "align/result.hpp"
#include "align/scoring.hpp"
#include "seq/sequence.hpp"

namespace swr::align {

/// True when this binary contains the inter-sequence kernels (x86 +
/// GCC/Clang — the same gate as sw_striped_compiled()).
bool sw_interseq_compiled() noexcept;

/// Widest lane count the hardware can drive right now: 64 (AVX-512F +
/// AVX-512BW — the one gate core::SimdIsa::Avx512 also reads), 32 (AVX2),
/// 16 (SSE4.1) or 0 (no usable ISA / not compiled).
unsigned sw_interseq_max_lanes() noexcept;

/// Per-query lookup tables for the inter-sequence kernel: for every query
/// column a 16- or 32-slot pshufb table of positive and negative
/// substitution magnitudes indexed by database residue code. Slot
/// `alphabet_size` is the neutral code dead/exhausted lanes feed (pos 0,
/// neg 0xFF — pins the lane's cells to zero without ever carrying).
class InterSeqProfile {
 public:
  /// `lanes8` is 16 (SSE4.1), 32 (AVX2) or 64 (AVX-512BW).
  /// @throws std::invalid_argument on invalid scoring or lane count.
  InterSeqProfile(const seq::Sequence& query, const Scoring& sc, unsigned lanes8);

  /// As above over raw codes; `alphabet_size` bounds the residue codes
  /// records may present.
  InterSeqProfile(std::span<const seq::Code> query, const Scoring& sc, unsigned lanes8,
                  std::size_t alphabet_size);

  [[nodiscard]] std::size_t query_len() const noexcept { return n_; }
  [[nodiscard]] unsigned lanes8() const noexcept { return lanes8_; }
  [[nodiscard]] std::uint8_t gap8() const noexcept { return gap8_; }
  [[nodiscard]] std::size_t alphabet_size() const noexcept { return alphabet_size_; }

  /// The residue code exhausted/dead lanes feed: `alphabet_size()`.
  [[nodiscard]] seq::Code neutral_code() const noexcept {
    return static_cast<seq::Code>(alphabet_size_);
  }

  /// Whether the scheme's per-update magnitudes fit an 8-bit lane (same
  /// predicate as StripedProfile::fits8()).
  [[nodiscard]] bool fits8() const noexcept { return fits8_; }

  /// pshufb slots per column: 16 when alphabet+neutral fits one table, 32
  /// (lo/hi pair) up to 31 residues, 0 beyond that (kernel unusable).
  [[nodiscard]] unsigned table_slots() const noexcept { return table_slots_; }

  /// Structurally usable: scheme fits 8 bits and the alphabet fits the
  /// lookup tables. Runtime ISA support is checked separately
  /// (sw_interseq_max_lanes()).
  [[nodiscard]] bool usable() const noexcept { return fits8_ && table_slots_ != 0; }

  /// Positive/negative magnitude table for query column `j` (1-based,
  /// unchecked): table_slots() bytes, slot = database residue code.
  [[nodiscard]] const std::uint8_t* pos_tab(std::size_t j) const noexcept {
    return pos_.data() + (j - 1) * table_slots_;
  }
  [[nodiscard]] const std::uint8_t* neg_tab(std::size_t j) const noexcept {
    return neg_.data() + (j - 1) * table_slots_;
  }

 private:
  std::size_t n_;
  unsigned lanes8_;
  std::size_t alphabet_size_;
  bool fits8_ = false;
  unsigned table_slots_ = 0;
  std::uint8_t gap8_ = 0;
  std::vector<std::uint8_t> pos_, neg_;
};

/// Maximum lane count across ISAs — per-lane state arrays are fixed at
/// this size (the upper lanes idle at 16 and 32 lanes).
inline constexpr unsigned kInterSeqMaxLanes = 64;

/// Per-worker scratch + hot per-lane state for one in-flight lane batch.
/// The kernel reads/writes these directly; the driver owns lifecycle
/// (reset/refill). Reused across batches and scans — no per-record
/// allocation.
struct InterSeqWorkspace {
  std::vector<std::uint8_t> h;  ///< (n+1) * lanes, column-major: h[j*L + l]
  alignas(64) std::array<std::uint8_t, kInterSeqMaxLanes> codes{};  ///< per-step gather
  /// Scan: each lane's running max over its record so far. Locate: each
  /// lane's known final score — the value a row max must equal before
  /// that lane's row is rescanned.
  alignas(64) std::array<std::uint8_t, kInterSeqMaxLanes> peak{};
  alignas(64) std::array<std::uint8_t, kInterSeqMaxLanes> ovf{};  ///< sticky overflow flags
  std::array<const seq::Code*, kInterSeqMaxLanes> cur{};  ///< next residue (null = dead lane)
  std::array<const seq::Code*, kInterSeqMaxLanes> end{};
  std::array<std::uint64_t, kInterSeqMaxLanes> row{};  ///< record rows computed so far
  std::array<Cell, kInterSeqMaxLanes> cell{};  ///< Locate: canonical end cell found so far
};

/// Scan statistics the driver accumulates (host/scan_engine flushes them
/// into scan.interseq.* metrics).
struct InterSeqStats {
  std::uint64_t batches = 0;   ///< kernel advance calls
  std::uint64_t refills = 0;   ///< lane loads after the initial fill
  std::uint64_t fallbacks = 0; ///< lanes that saturated (result reported nullopt)
  /// Advance calls by live-lane count (index = lanes holding a record).
  std::array<std::uint64_t, kInterSeqMaxLanes + 1> occupancy{};
};

/// A record handed to the driver: `tag` is echoed back through the done
/// callback; `codes` must stay valid until that done call returns.
/// `score` is read by sw_interseq_locate only: the record's known best
/// score (0..255), e.g. what sw_interseq_scan reported for it.
struct InterSeqRecord {
  std::uint64_t tag = 0;
  std::span<const seq::Code> codes;
  Score score = 0;
};

/// Pull the next record for `lane`, or nullopt when the input is drained.
using InterSeqFetch = std::function<std::optional<InterSeqRecord>(unsigned lane)>;

/// A record finished: `score` is the exact sw_linear(record, query) best
/// score, or nullopt when the lane saturated (true score > 255) and the
/// caller must re-run the record one precision tier down. No end cell:
/// the scan is score-only (sw_interseq_locate finds cells).
using InterSeqDone = std::function<void(std::uint64_t tag, std::span<const seq::Code> codes,
                                        std::optional<Score> score)>;

/// A record located: `end` is sw_linear's canonical end cell for the
/// record's seeded score. Cell{} for a score of 0 — and for a seeded score
/// no cell of the record reaches, which callers treat as a broken
/// precondition.
using InterSeqLocated = std::function<void(std::uint64_t tag, Cell end)>;

/// Streams records through the lane batch until `fetch` drains: fills all
/// lanes, advances every live lane min-remaining-rows per kernel call, and
/// refills a lane the moment its record retires. Empty records complete
/// immediately (score 0) without occupying a lane step; an empty query
/// completes every record the same way.
/// @throws std::logic_error when the profile is unusable or the required
/// ISA is unavailable — callers must check usable() + sw_interseq_max_lanes().
InterSeqStats sw_interseq_scan(const InterSeqProfile& profile, InterSeqWorkspace& ws,
                               const InterSeqFetch& fetch, const InterSeqDone& done);

/// The Locate instantiation of the same driver and kernel body: every
/// fetched record carries its known best score, and a lane's row is
/// rescanned (columns left of the best cell found so far) only when the
/// row max equals that score. Records scoring 0 complete immediately at
/// Cell{} without occupying a lane. Same lane batching, refill and
/// statistics as sw_interseq_scan (fallbacks stay 0: a score that fits a
/// byte cannot saturate).
/// @throws std::logic_error as sw_interseq_scan; std::invalid_argument on
/// a seeded score outside 0..255.
InterSeqStats sw_interseq_locate(const InterSeqProfile& profile, InterSeqWorkspace& ws,
                                 const InterSeqFetch& fetch, const InterSeqLocated& located);

/// Convenience for tests and one-off callers: scores every record in
/// order. Outer nullopt when the kernel is unavailable at `lanes8` on this
/// machine or the (scoring, alphabet) pair is structurally unusable;
/// inner nullopt per record iff its true score > 255 (the caller's
/// fallback tier owns those). `stats`, when non-null, receives the
/// driver's batching statistics.
/// @throws std::invalid_argument on alphabet mismatch / invalid scoring.
std::optional<std::vector<std::optional<Score>>> sw_interseq_batch(
    const std::vector<seq::Sequence>& records, const seq::Sequence& query, const Scoring& sc,
    unsigned lanes8, InterSeqStats* stats = nullptr);

/// Convenience locate pass: the canonical end cell of every record, given
/// its exact best score `scores[r]` (0..255 — e.g. sw_interseq_batch's
/// output). Outer nullopt under the same conditions as sw_interseq_batch.
/// @throws std::invalid_argument on alphabet mismatch, invalid scoring, a
/// size mismatch between records and scores, or a score outside 0..255.
std::optional<std::vector<Cell>> sw_interseq_locate_batch(
    const std::vector<seq::Sequence>& records, const seq::Sequence& query, const Scoring& sc,
    unsigned lanes8, std::span<const Score> scores, InterSeqStats* stats = nullptr);

}  // namespace swr::align
