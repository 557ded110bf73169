#include "core/wavefront_sweep.hpp"

#include <algorithm>

// Same availability gate as align/sw_interseq.cpp: per-function target
// attributes keep the translation unit buildable with baseline flags, and
// the caller passes a vector rung only after auto_simd_isa() checked CPUID.
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define SWR_SWEEP_X86 1
#include <immintrin.h>
#else
#define SWR_SWEEP_X86 0
#endif

namespace swr::core::detail {
namespace {

struct SweepScores {
  std::int16_t match;
  std::int16_t mismatch;
  std::int16_t gap;
  const align::SubstitutionMatrix* matrix;
};

// Cycle t's row codes, indexed by PE: PE j at cycle t is on row t - j, so
// with the rows reversed behind the pads one cycle's bases are one
// contiguous slice, base[j].
const std::int16_t* cycle_bases(const SweepLanes& s, std::size_t n, std::size_t t) {
  return s.rev.data() + SweepLanes::kVector + (s.npes - 1 + n - 1 - t);
}

// The lanes a cycle clocks: [lo, hi).
struct Span {
  std::size_t lo, hi;
};
Span cycle_span(std::size_t n, std::size_t npes, std::size_t t) {
  return {t >= n ? t - n + 1 : 0, std::min(t, npes - 1) + 1};
}

// ---- portable ---------------------------------------------------------------

// One clock of the wavefront: lanes [lo, hi) each compute one cell.
// `c_in[j]` is PE j's left input (PE j-1's output of the previous cycle),
// `h_out[j]` receives PE j's output, `base[j]` is the row PE j is on. The
// restrict qualifiers are what lets GCC vectorize this loop: without them
// it versions for aliasing between the arrays and gives up.
template <bool kMatrix>
void sweep_cycle(std::size_t lo, std::size_t hi, std::int32_t t,
                 const std::int16_t* __restrict c_in, std::int16_t* __restrict h_out,
                 const std::int16_t* __restrict base, const std::int16_t* __restrict sp,
                 const std::int16_t* __restrict keep, std::int16_t* __restrict a,
                 std::int16_t* __restrict b, std::int16_t* __restrict bs,
                 std::int16_t* __restrict bc_lo, std::int16_t* __restrict bc_hi,
                 const SweepScores& sc) {
  const auto t_lo = static_cast<std::int16_t>(t);
  const auto t_hi = static_cast<std::int16_t>(t >> 16);
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
    const auto better = static_cast<std::int16_t>(-(d > bs[j]));
    bs[j] = std::max(bs[j], d);
    bc_lo[j] = static_cast<std::int16_t>((bc_lo[j] & ~better) | (t_lo & better));
    bc_hi[j] = static_cast<std::int16_t>((bc_hi[j] & ~better) | (t_hi & better));
  }
}

template <bool kMatrix>
void sweep_portable(SweepLanes& s, std::size_t n, std::span<const align::Score> left,
                    std::span<align::Score> right, const SweepScores& sc) {
  const std::size_t npes = s.npes;
  std::fill(s.h[0].begin(), s.h[0].end(), std::int16_t{0});
  std::fill(s.h[1].begin(), s.h[1].end(), std::int16_t{0});
  for (std::size_t t = 0; t < n + npes - 1; ++t) {
    const auto [lo, hi] = cycle_span(n, npes, t);
    std::int16_t* prev = s.h[t & 1].data();
    std::int16_t* cur = s.h[(t + 1) & 1].data();
    if (t < n) prev[0] = left.empty() ? std::int16_t{0} : static_cast<std::int16_t>(left[t]);
    sweep_cycle<kMatrix>(lo, hi, static_cast<std::int32_t>(t), prev, cur + 1,
                         cycle_bases(s, n, t), s.sp.data(), s.keep.data(), s.a.data(),
                         s.b.data(), s.bs.data(), s.bc_lo.data(), s.bc_hi.data(), sc);
    if (!right.empty() && hi == npes) right[t - (npes - 1)] = cur[npes];
  }
}

#if SWR_SWEEP_X86

// ---- AVX-512BW, 32 x int16 lanes --------------------------------------------

// Each cycle walks the vectors that hold [lo, hi). A vector's left inputs
// are its own old B shifted one lane up, with lane 0 taken from lane 31 of
// the previous vector's old B (the carry), or from the left column for PE
// 0. Writes go through a k-mask of the span's lanes; Bs and Bc are written
// only where the cell beats Bs, so the Bc halves are never loaded.
__attribute__((target("avx512f,avx512bw"))) void sweep_avx512(
    SweepLanes& s, std::size_t n, std::span<const align::Score> left,
    std::span<align::Score> right, const SweepScores& sc) {
  constexpr std::size_t W = 32;
  const std::size_t npes = s.npes;
  const __m512i vMatch = _mm512_set1_epi16(sc.match);
  const __m512i vMismatch = _mm512_set1_epi16(sc.mismatch);
  const __m512i vGap = _mm512_set1_epi16(sc.gap);
  const __m512i vZero = _mm512_setzero_si512();
  // permutex2var index: lane 0 <- carry lane 31 (second operand), lane i <- cur lane i-1.
  alignas(64) std::int16_t shift_idx[W];
  shift_idx[0] = 2 * W - 1;
  for (std::size_t i = 1; i < W; ++i) shift_idx[i] = static_cast<std::int16_t>(i - 1);
  const __m512i vShift = _mm512_load_si512(shift_idx);
  const __m512i vRight = _mm512_set1_epi16(static_cast<std::int16_t>((npes - 1) % W));
  std::int16_t* a = s.a.data();
  std::int16_t* b = s.b.data();
  std::int16_t* bs = s.bs.data();
  std::int16_t* bc_lo = s.bc_lo.data();
  std::int16_t* bc_hi = s.bc_hi.data();
  const std::int16_t* sp = s.sp.data();
  const std::int16_t* keep = s.keep.data();

  for (std::size_t t = 0; t < n + npes - 1; ++t) {
    const auto [lo, hi] = cycle_span(n, npes, t);
    const std::int16_t* base = cycle_bases(s, n, t);
    const __m512i vTlo = _mm512_set1_epi16(static_cast<std::int16_t>(t));
    const __m512i vThi = _mm512_set1_epi16(static_cast<std::int16_t>(t >> 16));
    std::size_t v = lo / W * W;
    __m512i carry = v > 0 ? _mm512_loadu_si512(b + v - W)
                          : _mm512_set1_epi16(t < n && !left.empty()
                                                  ? static_cast<std::int16_t>(left[t])
                                                  : std::int16_t{0});
    __m512i d = vZero;
    for (; v < hi; v += W) {
      __mmask32 live = ~__mmask32{0};
      if (v < lo) live <<= lo - v;
      if (hi - v < W) live &= (__mmask32{1} << (hi - v)) - 1;
      const __m512i vb = _mm512_loadu_si512(b + v);
      const __m512i va = _mm512_loadu_si512(a + v);
      const __m512i vbs = _mm512_loadu_si512(bs + v);
      const __m512i c = _mm512_permutex2var_epi16(vb, vShift, carry);
      carry = vb;
      const __mmask32 eq = _mm512_cmpeq_epi16_mask(_mm512_loadu_si512(sp + v),
                                                   _mm512_loadu_si512(base + v));
      const __m512i diag = _mm512_add_epi16(va, _mm512_mask_blend_epi16(eq, vMismatch, vMatch));
      const __m512i gap = _mm512_add_epi16(_mm512_max_epi16(vb, c), vGap);
      d = _mm512_and_si512(_mm512_max_epi16(_mm512_max_epi16(diag, gap), vZero),
                           _mm512_loadu_si512(keep + v));
      const __mmask32 better = _mm512_mask_cmpgt_epi16_mask(live, d, vbs);
      _mm512_mask_storeu_epi16(a + v, live, c);
      _mm512_mask_storeu_epi16(b + v, live, d);
      _mm512_mask_storeu_epi16(bs + v, better, d);
      _mm512_mask_storeu_epi16(bc_lo + v, better, vTlo);
      _mm512_mask_storeu_epi16(bc_hi + v, better, vThi);
    }
    // The last vector holds PE N-1 once the span reaches it.
    if (!right.empty() && hi == npes) {
      right[t - (npes - 1)] = static_cast<std::int16_t>(
          _mm512_cvtsi512_si32(_mm512_permutexvar_epi16(vRight, d)));
    }
  }
}

// ---- AVX2, 16 x int16 lanes -------------------------------------------------

// The AVX-512 walk at half the width. The one-lane shift crosses the two
// 128-bit halves, so it is permute2x128 (carry's high half under cur's low
// half) then alignr by one int16. Edge vectors blend their writes under a
// lane mask; Bs and Bc blend under `better` and store whole vectors.
__attribute__((target("avx2"))) inline __m256i load16(const std::int16_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
__attribute__((target("avx2"))) inline void store16(std::int16_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

__attribute__((target("avx2"))) void sweep_avx2(SweepLanes& s, std::size_t n,
                                                std::span<const align::Score> left,
                                                std::span<align::Score> right,
                                                const SweepScores& sc) {
  constexpr std::size_t W = 16;
  const std::size_t npes = s.npes;
  const __m256i vMatch = _mm256_set1_epi16(sc.match);
  const __m256i vMismatch = _mm256_set1_epi16(sc.mismatch);
  const __m256i vGap = _mm256_set1_epi16(sc.gap);
  const __m256i vZero = _mm256_setzero_si256();
  const __m256i vLane = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  std::int16_t* a = s.a.data();
  std::int16_t* b = s.b.data();
  std::int16_t* bs = s.bs.data();
  std::int16_t* bc_lo = s.bc_lo.data();
  std::int16_t* bc_hi = s.bc_hi.data();
  const std::int16_t* sp = s.sp.data();
  const std::int16_t* keep = s.keep.data();
  alignas(32) std::int16_t last[W];

  for (std::size_t t = 0; t < n + npes - 1; ++t) {
    const auto [lo, hi] = cycle_span(n, npes, t);
    const std::int16_t* base = cycle_bases(s, n, t);
    const __m256i vTlo = _mm256_set1_epi16(static_cast<std::int16_t>(t));
    const __m256i vThi = _mm256_set1_epi16(static_cast<std::int16_t>(t >> 16));
    std::size_t v = lo / W * W;
    __m256i carry = v > 0 ? load16(b + v - W)
                          : _mm256_set1_epi16(t < n && !left.empty()
                                                  ? static_cast<std::int16_t>(left[t])
                                                  : std::int16_t{0});
    __m256i d = vZero;
    for (; v < hi; v += W) {
      const __m256i vb = load16(b + v);
      const __m256i c =
          _mm256_alignr_epi8(vb, _mm256_permute2x128_si256(carry, vb, 0x21), 14);
      carry = vb;
      const __m256i va = load16(a + v);
      const __m256i eq = _mm256_cmpeq_epi16(load16(sp + v), load16(base + v));
      const __m256i diag = _mm256_add_epi16(va, _mm256_blendv_epi8(vMismatch, vMatch, eq));
      const __m256i gap = _mm256_add_epi16(_mm256_max_epi16(vb, c), vGap);
      d = _mm256_and_si256(_mm256_max_epi16(_mm256_max_epi16(diag, gap), vZero),
                           load16(keep + v));
      const __m256i vbs = load16(bs + v);
      __m256i better = _mm256_cmpgt_epi16(d, vbs);
      __m256i na = c;
      __m256i nb = d;
      if (v < lo || hi - v < W) {
        const __m256i live = _mm256_andnot_si256(
            _mm256_cmpgt_epi16(_mm256_set1_epi16(static_cast<std::int16_t>(lo > v ? lo - v : 0)),
                               vLane),
            _mm256_cmpgt_epi16(
                _mm256_set1_epi16(static_cast<std::int16_t>(std::min(hi - v, W))), vLane));
        better = _mm256_and_si256(better, live);
        na = _mm256_blendv_epi8(va, c, live);
        nb = _mm256_blendv_epi8(vb, d, live);
      }
      store16(a + v, na);
      store16(b + v, nb);
      store16(bs + v, _mm256_blendv_epi8(vbs, d, better));
      store16(bc_lo + v, _mm256_blendv_epi8(load16(bc_lo + v), vTlo, better));
      store16(bc_hi + v, _mm256_blendv_epi8(load16(bc_hi + v), vThi, better));
    }
    if (!right.empty() && hi == npes) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(last), d);
      right[t - (npes - 1)] = last[(npes - 1) % W];
    }
  }
}

#endif  // SWR_SWEEP_X86

}  // namespace

void SweepLanes::resize(std::size_t n) {
  npes = n;
  const std::size_t padded = (n + kVector - 1) / kVector * kVector;
  for (auto* v : {&sp, &keep, &a, &b, &bs, &bc_lo, &bc_hi}) v->resize(padded);
  h[0].resize(n + 1);
  h[1].resize(n + 1);
}

void wavefront_sweep(SweepLanes& lanes, std::span<const seq::Code> rows,
                     std::span<const align::Score> left, std::span<align::Score> right,
                     const align::Scoring& scoring, SimdIsa isa) {
  const std::size_t n = rows.size();
  const std::size_t npes = lanes.npes;
  std::fill(lanes.bc_lo.begin(), lanes.bc_lo.end(), std::int16_t{-1});
  std::fill(lanes.bc_hi.begin(), lanes.bc_hi.end(), std::int16_t{-1});
  lanes.rev.assign(SweepLanes::kVector + npes - 1 + n + SweepLanes::kVector, 0);
  std::int16_t* tail = lanes.rev.data() + SweepLanes::kVector + npes - 1 + n - 1;
  for (std::size_t i = 0; i < n; ++i) *(tail - i) = rows[i];

  const SweepScores sc{static_cast<std::int16_t>(scoring.match),
                       static_cast<std::int16_t>(scoring.mismatch),
                       static_cast<std::int16_t>(scoring.gap), scoring.matrix};
  if (scoring.matrix != nullptr) {
    sweep_portable<true>(lanes, n, left, right, sc);
    return;
  }
#if SWR_SWEEP_X86
  if (isa == SimdIsa::Avx512) {
    sweep_avx512(lanes, n, left, right, sc);
    return;
  }
  if (isa == SimdIsa::Avx2) {
    sweep_avx2(lanes, n, left, right, sc);
    return;
  }
#endif
  (void)isa;
  sweep_portable<false>(lanes, n, left, right, sc);
}

}  // namespace swr::core::detail
