// Burst compute window for linear-gap (ScorePe) arrays: the int16
// structure-of-arrays wavefront sweep behind SystolicArray::stream.
//
// A clocked compute window of n rows through N PEs lasts n + N - 1 cycles;
// at cycle t the PEs [max(0, t-n+1), min(t, N-1)] each compute one cell
// from the previous cycle's outputs, independently of each other — the
// anti-diagonal parallelism the systolic array exists for. The sweep runs
// exactly that recurrence over plain per-PE int16 arrays, one contiguous
// span of lanes per cycle. It has no saturation logic: the caller admits
// it only when no SatArith add of the window can clamp
// (SystolicArray::stream's guard).
//
// Three rungs run it, picked by a SimdIsa:
//   - avx512: 32 int16 lanes per __m512i (AVX-512BW);
//   - avx2:   16 int16 lanes per __m256i;
//   - anything else: a portable loop written for the auto-vectorizer.
// The vector rungs cover uniform (match/mismatch) scoring; a substitution
// matrix always takes the portable loop. A PE's left input is its left
// neighbour's B from the previous cycle (B is the PE's last output), so
// the vector rungs shift each B vector one lane up in registers, carrying
// the top lane into the next vector, instead of reloading outputs stored
// one lane off. Only the two edge vectors of a cycle's span are masked.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/scoring.hpp"
#include "core/cpu_features.hpp"
#include "seq/alphabet.hpp"

namespace swr::core::detail {

/// Per-PE lanes of one burst window. The array loads them from its PEs,
/// the sweep advances them, the array writes them back. Every lane is
/// int16, and every array is padded to a whole number of the widest
/// vector, so a vector load never reads past an allocation.
struct SweepLanes {
  /// Lanes per widest vector (AVX-512BW: 32 x int16); the padding unit.
  static constexpr std::size_t kVector = 32;

  std::size_t npes = 0;            ///< live lanes (PEs); the rest is padding
  std::vector<std::int16_t> sp;    ///< query code (SP register)
  std::vector<std::int16_t> keep;  ///< 0 on barrier columns (forced-zero cell), -1 elsewhere
  std::vector<std::int16_t> a;     ///< A: diagonal register
  std::vector<std::int16_t> b;     ///< B: upper register (= the PE's last output score)
  std::vector<std::int16_t> bs;    ///< Bs: best score of the column
  /// Cycle of the last Bs improvement this window as int16 halves
  /// (bc_hi:bc_lo); both -1 = none. The sweep resets them.
  std::vector<std::int16_t> bc_lo, bc_hi;
  /// kVector zero pad, N-1 zero pad, the rows in reverse order, kVector pad.
  std::vector<std::int16_t> rev;
  std::vector<std::int16_t> h[2];  ///< portable loop's double-buffered outputs

  /// Sizes (and pads) the per-PE lanes for `npes` PEs.
  void resize(std::size_t npes);

  /// Lane j's Bc: the cycle of its last Bs improvement, -1 = none.
  [[nodiscard]] std::int32_t bc(std::size_t j) const noexcept {
    return static_cast<std::int32_t>(
        (static_cast<std::uint32_t>(static_cast<std::uint16_t>(bc_hi[j])) << 16) |
        static_cast<std::uint16_t>(bc_lo[j]));
  }
};

/// Clocks the n + N - 1 cycles of one compute window over `lanes`
/// (N = lanes.npes, n = rows.size() >= 1, N + n <= 2^31). `left` is the
/// input score column (empty = all zero); when `right` is non-empty it
/// receives PE N-1's score for every row. Barrier lanes forward 0 and never
/// change B or Bs (the caller restores B; Bs cannot move since 0 <= Bs).
/// `isa` picks the rung (Avx512, Avx2, else the portable loop); the caller
/// must have clamped it to the CPU (auto_simd_isa() does). Every rung
/// leaves the live lanes bit-identical.
void wavefront_sweep(SweepLanes& lanes, std::span<const seq::Code> rows,
                     std::span<const align::Score> left, std::span<align::Score> right,
                     const align::Scoring& scoring, SimdIsa isa);

}  // namespace swr::core::detail
