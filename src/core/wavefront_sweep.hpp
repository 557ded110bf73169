// Burst compute window for linear-gap (ScorePe) arrays: the int16
// structure-of-arrays wavefront sweep behind SystolicArray::stream.
//
// A clocked compute window of n rows through N PEs lasts n + N - 1 cycles;
// at cycle t the PEs [max(0, t-n+1), min(t, N-1)] each compute one cell
// from the previous cycle's outputs, independently of each other — the
// anti-diagonal parallelism the systolic array exists for. The sweep runs
// exactly that recurrence over plain per-PE arrays (one contiguous span of
// lanes per cycle, no per-register two-phase copies), so the compiler can
// vectorize it. It has no saturation logic: the caller admits it only when
// no SatArith add of the window can clamp (SystolicArray::stream's guard).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/scoring.hpp"
#include "seq/alphabet.hpp"

namespace swr::core::detail {

/// Per-PE lanes of one burst window. The array loads them from its PEs,
/// the sweep advances them, the array writes them back.
struct SweepLanes {
  std::vector<std::int16_t> sp;    ///< query code (SP register)
  std::vector<std::int16_t> keep;  ///< 0 on barrier columns (forced-zero cell), -1 elsewhere
  std::vector<std::int16_t> a;     ///< A: diagonal register
  std::vector<std::int16_t> b;     ///< B: upper register (= the PE's last output score)
  std::vector<std::int16_t> bs;    ///< Bs: best score of the column
  std::vector<std::int32_t> bc;    ///< cycle of the last Bs improvement, -1 = none this window
  std::vector<std::int16_t> rev;   ///< N-1 zero pad, then the rows in reverse order
  std::vector<std::int16_t> h[2];  ///< double-buffered outputs: h[.][j+1] = PE j, h[.][0] = input

  /// Sizes the per-PE lanes for `npes` PEs.
  void resize(std::size_t npes);
};

/// Clocks the n + N - 1 cycles of one compute window over `lanes`
/// (N = lanes.sp.size(), n = rows.size() >= 1). `left` is the input score
/// column (empty = all zero); when `right` is non-empty it receives PE
/// N-1's score for every row. Barrier lanes forward 0 and never change B
/// or Bs (the caller restores B; Bs cannot move since 0 <= Bs).
void wavefront_sweep(SweepLanes& lanes, std::span<const seq::Code> rows,
                     std::span<const align::Score> left, std::span<align::Score> right,
                     const align::Scoring& scoring);

}  // namespace swr::core::detail
