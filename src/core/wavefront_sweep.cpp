#include "core/wavefront_sweep.hpp"

#include <algorithm>

namespace swr::core::detail {
namespace {

struct SweepScores {
  std::int16_t match;
  std::int16_t mismatch;
  std::int16_t gap;
  const align::SubstitutionMatrix* matrix;
};

// One clock of the wavefront: lanes [lo, hi) each compute one cell.
// `c_in[j]` is PE j's left input (PE j-1's output of the previous cycle),
// `h_out[j]` receives PE j's output, `base[j]` is the row PE j is on. The
// restrict qualifiers are what lets GCC vectorize this loop: without them
// it versions for aliasing between the eight arrays and gives up.
template <bool kMatrix>
void sweep_cycle(std::size_t lo, std::size_t hi, std::int32_t t,
                 const std::int16_t* __restrict c_in, std::int16_t* __restrict h_out,
                 const std::int16_t* __restrict base, const std::int16_t* __restrict sp,
                 const std::int16_t* __restrict keep, std::int16_t* __restrict a,
                 std::int16_t* __restrict b, std::int16_t* __restrict bs,
                 std::int32_t* __restrict bc, const SweepScores& sc) {
  for (std::size_t j = lo; j < hi; ++j) {
    const std::int16_t c = c_in[j];
    std::int16_t sub;
    if constexpr (kMatrix) {
      sub = static_cast<std::int16_t>(
          (*sc.matrix)(static_cast<seq::Code>(sp[j]), static_cast<seq::Code>(base[j])));
    } else {
      sub = sp[j] == base[j] ? sc.match : sc.mismatch;
    }
    const auto diag = static_cast<std::int16_t>(a[j] + sub);
    const auto gap = static_cast<std::int16_t>(std::max(b[j], c) + sc.gap);
    const auto d = static_cast<std::int16_t>(
        std::max(std::max(diag, gap), std::int16_t{0}) & keep[j]);
    a[j] = c;
    b[j] = d;
    h_out[j] = d;
    const bool better = d > bs[j];
    bs[j] = better ? d : bs[j];
    bc[j] = better ? t : bc[j];
  }
}

template <bool kMatrix>
void sweep(SweepLanes& s, std::span<const seq::Code> rows, std::span<const align::Score> left,
           std::span<align::Score> right, const SweepScores& sc) {
  const std::size_t n = rows.size();
  const std::size_t npes = s.sp.size();
  // PE j at cycle t is on row t - j: with the rows reversed behind an
  // N-1 pad, the bases of one cycle's lanes are one contiguous slice.
  s.rev.assign(npes - 1 + n, 0);
  for (std::size_t i = 0; i < n; ++i) s.rev[npes - 1 + (n - 1 - i)] = rows[i];
  std::fill(s.h[0].begin(), s.h[0].end(), std::int16_t{0});
  std::fill(s.h[1].begin(), s.h[1].end(), std::int16_t{0});

  for (std::size_t t = 0; t < n + npes - 1; ++t) {
    const std::size_t lo = t >= n ? t - n + 1 : 0;
    const std::size_t hi = std::min(t, npes - 1) + 1;
    std::int16_t* prev = s.h[t & 1].data();
    std::int16_t* cur = s.h[(t + 1) & 1].data();
    if (t < n) prev[0] = left.empty() ? std::int16_t{0} : static_cast<std::int16_t>(left[t]);
    sweep_cycle<kMatrix>(lo, hi, static_cast<std::int32_t>(t), prev, cur + 1,
                         s.rev.data() + (npes - 1 + n - 1 - t), s.sp.data(), s.keep.data(),
                         s.a.data(), s.b.data(), s.bs.data(), s.bc.data(), sc);
    if (!right.empty() && hi == npes) right[t - (npes - 1)] = cur[npes];
  }
}

}  // namespace

void SweepLanes::resize(std::size_t npes) {
  for (auto* v : {&sp, &keep, &a, &b, &bs}) v->resize(npes);
  bc.resize(npes);
  h[0].resize(npes + 1);
  h[1].resize(npes + 1);
}

void wavefront_sweep(SweepLanes& lanes, std::span<const seq::Code> rows,
                     std::span<const align::Score> left, std::span<align::Score> right,
                     const align::Scoring& scoring) {
  const SweepScores sc{static_cast<std::int16_t>(scoring.match),
                       static_cast<std::int16_t>(scoring.mismatch),
                       static_cast<std::int16_t>(scoring.gap), scoring.matrix};
  if (scoring.matrix != nullptr) {
    sweep<true>(lanes, rows, left, right, sc);
  } else {
    sweep<false>(lanes, rows, left, right, sc);
  }
}

}  // namespace swr::core::detail
