#include "align/sw_interseq.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

// Same availability gate as sw_striped.cpp: per-function target attributes
// keep the translation unit buildable with portable baseline flags, and the
// driver refuses to dispatch unless CPUID said the ISA is there.
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define SWR_INTERSEQ_X86 1
#include <immintrin.h>
#else
#define SWR_INTERSEQ_X86 0
#endif

namespace swr::align {

namespace {

struct Magnitudes {
  Score max_sub = 0;
  Score min_sub = 0;
  Score gap_mag = 0;
};

Magnitudes scheme_magnitudes(const Scoring& sc) {
  Magnitudes m;
  if (sc.matrix != nullptr) {
    m.max_sub = sc.matrix->max_entry();
    m.min_sub = sc.matrix->min_entry();
  } else {
    m.max_sub = sc.match;
    m.min_sub = std::min(sc.mismatch, sc.match);
  }
  m.gap_mag = -sc.gap;
  return m;
}

}  // namespace

bool sw_interseq_compiled() noexcept { return SWR_INTERSEQ_X86 != 0; }

unsigned sw_interseq_max_lanes() noexcept {
#if SWR_INTERSEQ_X86
  // The one AVX-512 gate: byte-granular shuffles, saturating adds and
  // 64-bit compare masks are all AVX-512BW on top of the F foundation.
  // libgcc reports them only when the OS also saves the zmm state.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")) return 64;
  if (__builtin_cpu_supports("avx2")) return 32;
  if (__builtin_cpu_supports("sse4.1")) return 16;
#endif
  return 0;
}

InterSeqProfile::InterSeqProfile(const seq::Sequence& query, const Scoring& sc, unsigned lanes8)
    : InterSeqProfile(query.codes(), sc, lanes8, query.alphabet().size()) {}

InterSeqProfile::InterSeqProfile(std::span<const seq::Code> query, const Scoring& sc,
                                 unsigned lanes8, std::size_t alphabet_size)
    : n_(query.size()), lanes8_(lanes8), alphabet_size_(alphabet_size) {
  sc.validate();
  if (lanes8 != 16 && lanes8 != 32 && lanes8 != 64) {
    throw std::invalid_argument(
        "InterSeqProfile: lane count must be 16 (SSE4.1), 32 (AVX2) or 64 (AVX-512BW)");
  }
  const Magnitudes m = scheme_magnitudes(sc);
  fits8_ = m.max_sub <= 0xFF && -m.min_sub <= 0xFF && m.gap_mag <= 0xFF;
  gap8_ = static_cast<std::uint8_t>(std::min<Score>(m.gap_mag, 0xFF));
  // One pshufb covers 16 slots, a lo/hi table pair covers 32 — both must
  // hold every record code plus the neutral code dead lanes feed.
  const std::size_t slots_needed = alphabet_size + 1;
  table_slots_ = slots_needed <= 16 ? 16u : (slots_needed <= 32 ? 32u : 0u);
  if (!usable() || n_ == 0) return;

  // Unwritten slots stay pos 0 / neg 0xFF: the neutral code (and,
  // defensively, any out-of-range code) saturates its lane's diagonal
  // path to zero every row without ever carrying — score-neutral and
  // overflow-neutral.
  pos_.assign(n_ * table_slots_, 0);
  neg_.assign(n_ * table_slots_, 0xFF);
  for (std::size_t j = 0; j < n_; ++j) {
    std::uint8_t* pos = pos_.data() + j * table_slots_;
    std::uint8_t* neg = neg_.data() + j * table_slots_;
    for (std::size_t c = 0; c < alphabet_size; ++c) {
      const Score s = sc.substitution(static_cast<seq::Code>(c), query[j]);
      pos[c] = static_cast<std::uint8_t>(s > 0 ? s : 0);
      neg[c] = static_cast<std::uint8_t>(s < 0 ? -s : 0);
    }
  }
}

#if SWR_INTERSEQ_X86

namespace {

// Locate-mode bookkeeping shared by every ISA width: for each lane whose
// row max equals its record's known score, find the row's first column
// holding that score. Rows arrive in increasing i, so a later row wins
// only with a strictly smaller column — the scan stops left of the cell
// already held, which reproduces sw_linear's canonical (j, i)
// tie-break exactly.
template <unsigned L>
void locate_lanes(std::uint64_t trig, const std::uint8_t* h, std::size_t n,
                  InterSeqWorkspace& ws) {
  for (; trig != 0; trig &= trig - 1) {
    const unsigned l = static_cast<unsigned>(__builtin_ctzll(trig));
    Cell& cell = ws.cell[l];
    const std::size_t limit = cell.j == 0 ? n : cell.j - 1;
    for (std::size_t j = 1; j <= limit; ++j) {
      if (h[j * L + l] == ws.peak[l]) {
        cell = Cell{static_cast<std::size_t>(ws.row[l]), j};
        break;
      }
    }
  }
}

// Consume one residue per live lane (dead/exhausted lanes feed the
// neutral code) into the gather buffer the kernels load vC from.
template <unsigned L>
void gather_codes(InterSeqWorkspace& ws, std::uint8_t neutral) {
  for (unsigned l = 0; l < L; ++l) {
    if (ws.cur[l] != ws.end[l]) {
      ws.codes[l] = static_cast<std::uint8_t>(*ws.cur[l]++);
      ++ws.row[l];
    } else {
      ws.codes[l] = neutral;
    }
  }
}

// --- SSE4.1, 16 records x 8-bit lanes -------------------------------------

// One database row for all 16 lanes per step: vC holds each lane's residue
// code (loop-invariant across the columns of the step), and every query
// column is one vector — substitution magnitudes gathered by pshufb from
// the column's 16-slot table (or a lo/hi pair selected on code bit 4 via
// blendv for alphabets up to 31 residues). There is no lazy-F loop: lanes
// are independent records, so the horizontal-gap dependency is just the
// carried vLeft of the previous column.
//
// Scan (Locate = false): every cell folds into vPeak, the per-lane running
// max carried across steps, and overflow is the striped kernels' exact
// sticky-XOR test, accumulated per lane across the record's lifetime
// instead of aborting the whole vector. Locate: vPeak restarts each row,
// and a lane whose row max equals its known score is rescanned.
template <bool Locate>
__attribute__((target("sse4.1"))) void advance_sse41(const InterSeqProfile& p,
                                                     InterSeqWorkspace& ws, std::size_t steps) {
  constexpr unsigned L = 16;
  const std::size_t n = p.query_len();
  std::uint8_t* h = ws.h.data();
  const std::uint8_t neutral = static_cast<std::uint8_t>(p.neutral_code());
  const bool wide_tab = p.table_slots() == 32;
  const __m128i vGap = _mm_set1_epi8(static_cast<char>(p.gap8()));
  const __m128i vZero = _mm_setzero_si128();
  const __m128i vIn = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ws.peak.data()));
  __m128i vPeak = vIn;
  __m128i vOvf = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ws.ovf.data()));

  for (std::size_t step = 0; step < steps; ++step) {
    gather_codes<L>(ws, neutral);
    const __m128i vC = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ws.codes.data()));
    // blendv selects on byte bit 7; codes stay < 32, so shifting bit 4 up
    // is safe within each 16-bit lane (a byte's own bit 4 lands in its
    // own bit 7).
    const __m128i vSel = _mm_slli_epi16(vC, 3);
    __m128i vDiag = vZero;  // column 0 is the all-zero local border
    __m128i vLeft = vZero;
    if constexpr (Locate) vPeak = vZero;
    for (std::size_t j = 1; j <= n; ++j) {
      const std::uint8_t* pt = p.pos_tab(j);
      const std::uint8_t* nt = p.neg_tab(j);
      __m128i vPos, vNeg;
      if (!wide_tab) {
        vPos = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(pt)), vC);
        vNeg = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(nt)), vC);
      } else {
        vPos = _mm_blendv_epi8(
            _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(pt)), vC),
            _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(pt + 16)), vC),
            vSel);
        vNeg = _mm_blendv_epi8(
            _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(nt)), vC),
            _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(nt + 16)), vC),
            vSel);
      }
      const __m128i vUp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + j * L));
      const __m128i vSat = _mm_adds_epu8(vDiag, vPos);
      if constexpr (!Locate) {
        vOvf = _mm_or_si128(vOvf, _mm_xor_si128(vSat, _mm_add_epi8(vDiag, vPos)));
      }
      __m128i vH = _mm_subs_epu8(vSat, vNeg);             // diagonal path, clamped at 0
      vH = _mm_max_epu8(vH, _mm_subs_epu8(vUp, vGap));    // vertical gap (previous row)
      vH = _mm_max_epu8(vH, _mm_subs_epu8(vLeft, vGap));  // horizontal gap (previous column)
      _mm_storeu_si128(reinterpret_cast<__m128i*>(h + j * L), vH);
      vPeak = _mm_max_epu8(vPeak, vH);
      vDiag = vUp;
      vLeft = vH;
    }
    if constexpr (Locate) {
      const std::uint32_t trig =
          static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(vPeak, vIn)));
      if (trig != 0) locate_lanes<L>(trig, h, n, ws);
    }
  }
  if constexpr (!Locate) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ws.peak.data()), vPeak);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ws.ovf.data()), vOvf);
  }
}

// --- AVX2, 32 records x 8-bit lanes ---------------------------------------

// vpshufb shuffles within each 128-bit half, so the 16-byte column tables
// are broadcast to both halves and each half's lanes index the same table.
__attribute__((target("avx2"))) inline __m256i tab256(const std::uint8_t* tab) {
  return _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(tab)));
}

template <bool Locate>
__attribute__((target("avx2"))) void advance_avx2(const InterSeqProfile& p,
                                                  InterSeqWorkspace& ws, std::size_t steps) {
  constexpr unsigned L = 32;
  const std::size_t n = p.query_len();
  std::uint8_t* h = ws.h.data();
  const std::uint8_t neutral = static_cast<std::uint8_t>(p.neutral_code());
  const bool wide_tab = p.table_slots() == 32;
  const __m256i vGap = _mm256_set1_epi8(static_cast<char>(p.gap8()));
  const __m256i vZero = _mm256_setzero_si256();
  const __m256i vIn = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ws.peak.data()));
  __m256i vPeak = vIn;
  __m256i vOvf = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ws.ovf.data()));

  for (std::size_t step = 0; step < steps; ++step) {
    gather_codes<L>(ws, neutral);
    const __m256i vC = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ws.codes.data()));
    const __m256i vSel = _mm256_slli_epi16(vC, 3);
    __m256i vDiag = vZero;
    __m256i vLeft = vZero;
    if constexpr (Locate) vPeak = vZero;
    for (std::size_t j = 1; j <= n; ++j) {
      const std::uint8_t* pt = p.pos_tab(j);
      const std::uint8_t* nt = p.neg_tab(j);
      __m256i vPos, vNeg;
      if (!wide_tab) {
        vPos = _mm256_shuffle_epi8(tab256(pt), vC);
        vNeg = _mm256_shuffle_epi8(tab256(nt), vC);
      } else {
        vPos = _mm256_blendv_epi8(_mm256_shuffle_epi8(tab256(pt), vC),
                                  _mm256_shuffle_epi8(tab256(pt + 16), vC), vSel);
        vNeg = _mm256_blendv_epi8(_mm256_shuffle_epi8(tab256(nt), vC),
                                  _mm256_shuffle_epi8(tab256(nt + 16), vC), vSel);
      }
      const __m256i vUp = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + j * L));
      const __m256i vSat = _mm256_adds_epu8(vDiag, vPos);
      if constexpr (!Locate) {
        vOvf = _mm256_or_si256(vOvf, _mm256_xor_si256(vSat, _mm256_add_epi8(vDiag, vPos)));
      }
      __m256i vH = _mm256_subs_epu8(vSat, vNeg);
      vH = _mm256_max_epu8(vH, _mm256_subs_epu8(vUp, vGap));
      vH = _mm256_max_epu8(vH, _mm256_subs_epu8(vLeft, vGap));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(h + j * L), vH);
      vPeak = _mm256_max_epu8(vPeak, vH);
      vDiag = vUp;
      vLeft = vH;
    }
    if constexpr (Locate) {
      const std::uint32_t trig =
          static_cast<std::uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(vPeak, vIn)));
      if (trig != 0) locate_lanes<L>(trig, h, n, ws);
    }
  }
  if constexpr (!Locate) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ws.peak.data()), vPeak);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ws.ovf.data()), vOvf);
  }
}

// --- AVX-512BW, 64 records x 8-bit lanes ----------------------------------

// The AVX2 body at twice the width. vpshufb still shuffles within each
// 128-bit quarter, so a 16-slot table is broadcast to all four. A 32-slot
// table takes the low half's shuffle and overwrites, under a per-step mask
// of the lanes whose code has bit 4 set, with the high half's — a masked
// shuffle, so neither blendv nor VBMI's cross-lane permute is needed.
// (The all-ones zero-masking form is the same vbroadcasti32x4; the
// unmasked intrinsic trips GCC 12's -Wmaybe-uninitialized.)
__attribute__((target("avx512f,avx512bw"))) inline __m512i tab512(const std::uint8_t* tab) {
  return _mm512_maskz_broadcast_i32x4(__mmask16(0xFFFF),
                                      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tab)));
}

template <bool Locate>
__attribute__((target("avx512f,avx512bw"))) void advance_avx512(const InterSeqProfile& p,
                                                                InterSeqWorkspace& ws,
                                                                std::size_t steps) {
  constexpr unsigned L = 64;
  const std::size_t n = p.query_len();
  std::uint8_t* h = ws.h.data();
  const std::uint8_t neutral = static_cast<std::uint8_t>(p.neutral_code());
  const bool wide_tab = p.table_slots() == 32;
  const __m512i vGap = _mm512_set1_epi8(static_cast<char>(p.gap8()));
  const __m512i vZero = _mm512_setzero_si512();
  const __m512i vBit4 = _mm512_set1_epi8(0x10);
  const __m512i vIn = _mm512_loadu_si512(ws.peak.data());
  __m512i vPeak = vIn;
  __m512i vOvf = _mm512_loadu_si512(ws.ovf.data());

  for (std::size_t step = 0; step < steps; ++step) {
    gather_codes<L>(ws, neutral);
    const __m512i vC = _mm512_loadu_si512(ws.codes.data());
    const __mmask64 mHi = _mm512_test_epi8_mask(vC, vBit4);
    __m512i vDiag = vZero;
    __m512i vLeft = vZero;
    if constexpr (Locate) vPeak = vZero;
    for (std::size_t j = 1; j <= n; ++j) {
      const std::uint8_t* pt = p.pos_tab(j);
      const std::uint8_t* nt = p.neg_tab(j);
      __m512i vPos = _mm512_shuffle_epi8(tab512(pt), vC);
      __m512i vNeg = _mm512_shuffle_epi8(tab512(nt), vC);
      if (wide_tab) {
        vPos = _mm512_mask_shuffle_epi8(vPos, mHi, tab512(pt + 16), vC);
        vNeg = _mm512_mask_shuffle_epi8(vNeg, mHi, tab512(nt + 16), vC);
      }
      const __m512i vUp = _mm512_loadu_si512(h + j * L);
      const __m512i vSat = _mm512_adds_epu8(vDiag, vPos);
      if constexpr (!Locate) {
        vOvf = _mm512_or_si512(vOvf, _mm512_xor_si512(vSat, _mm512_add_epi8(vDiag, vPos)));
      }
      __m512i vH = _mm512_subs_epu8(vSat, vNeg);
      vH = _mm512_max_epu8(vH, _mm512_subs_epu8(vUp, vGap));
      vH = _mm512_max_epu8(vH, _mm512_subs_epu8(vLeft, vGap));
      _mm512_storeu_si512(h + j * L, vH);
      vPeak = _mm512_max_epu8(vPeak, vH);
      vDiag = vUp;
      vLeft = vH;
    }
    if constexpr (Locate) {
      const std::uint64_t trig = _mm512_cmpeq_epi8_mask(vPeak, vIn);
      if (trig != 0) locate_lanes<L>(trig, h, n, ws);
    }
  }
  if constexpr (!Locate) {
    _mm512_storeu_si512(ws.peak.data(), vPeak);
    _mm512_storeu_si512(ws.ovf.data(), vOvf);
  }
}

}  // namespace

#endif  // SWR_INTERSEQ_X86

namespace {

// The lane driver both passes share. Scan reports each retired lane's
// running max (or nullopt when its overflow flag is set) through
// done(tag, codes, score); Locate reports the lane's canonical end cell
// through done(tag, cell). A dead lane's peak is 0xFF in Locate mode: its
// pinned-to-zero rows never equal it.
template <bool Locate, class Done>
InterSeqStats drive(const InterSeqProfile& profile, InterSeqWorkspace& ws,
                    const InterSeqFetch& fetch, const Done& done) {
  InterSeqStats stats;
  const unsigned L = profile.lanes8();
  if (!profile.usable() || sw_interseq_max_lanes() < L) {
    throw std::logic_error(
        "sw_interseq: kernel unusable here (check usable() and sw_interseq_max_lanes())");
  }
  const std::size_t n = profile.query_len();

  // Records that need no lane complete inline: empty records and (for an
  // empty query) every record score 0 at the empty-prefix corner — the
  // same contract as sw_striped8_try; in Locate mode so do score-0
  // records, at Cell{}.
  const auto complete_inline = [&](const InterSeqRecord& got) {
    if constexpr (Locate) {
      if (got.score < 0 || got.score > 0xFF) {
        throw std::invalid_argument("sw_interseq_locate: seeded score outside 0..255");
      }
      if (got.score != 0 && !got.codes.empty() && n != 0) return false;
      done(got.tag, Cell{});
    } else {
      if (!got.codes.empty() && n != 0) return false;
      done(got.tag, got.codes, std::optional<Score>(0));
    }
    return true;
  };

  ws.h.assign((n + 1) * L, 0);
  std::array<std::uint64_t, kInterSeqMaxLanes> tag{};
  std::array<std::span<const seq::Code>, kInterSeqMaxLanes> rec{};
  std::array<bool, kInterSeqMaxLanes> live{};

  const auto zero_column = [&](unsigned l) {
    for (std::size_t j = 1; j <= n; ++j) ws.h[j * L + l] = 0;
  };

  // Installs the next record that needs a lane into lane `l` (the others
  // complete inline — they never occupy a lane step). Returns false when
  // fetch is drained: the lane goes dead and its column is pinned to zero
  // so the neutral feed stays score- and overflow-silent.
  const auto refill = [&](unsigned l, bool initial) -> bool {
    for (;;) {
      const std::optional<InterSeqRecord> got = fetch(l);
      if (!got) {
        ws.cur[l] = ws.end[l] = nullptr;
        ws.peak[l] = Locate ? 0xFF : 0;
        ws.ovf[l] = 0;
        if (!initial) zero_column(l);
        live[l] = false;
        return false;
      }
      if (complete_inline(*got)) continue;
      tag[l] = got->tag;
      rec[l] = got->codes;
      ws.cur[l] = got->codes.data();
      ws.end[l] = got->codes.data() + got->codes.size();
      ws.row[l] = 0;
      ws.peak[l] = Locate ? static_cast<std::uint8_t>(got->score) : 0;
      ws.ovf[l] = 0;
      ws.cell[l] = Cell{};
      if (!initial) {
        zero_column(l);
        ++stats.refills;
      }
      live[l] = true;
      return true;
    }
  };

  unsigned live_count = 0;
  for (unsigned l = 0; l < L; ++l) {
    if (refill(l, /*initial=*/true)) ++live_count;
  }

  while (live_count > 0) {
    // Advance by the shortest remaining record: every live lane survives
    // the whole call, and with length-sorted input the minimum is close
    // to everyone's remainder, so batches stay long.
    std::size_t steps = SIZE_MAX;
    for (unsigned l = 0; l < L; ++l) {
      if (live[l]) {
        steps = std::min(steps, static_cast<std::size_t>(ws.end[l] - ws.cur[l]));
      }
    }
    ++stats.batches;
    ++stats.occupancy[live_count];
#if SWR_INTERSEQ_X86
    if (L == 64) {
      advance_avx512<Locate>(profile, ws, steps);
    } else if (L == 32) {
      advance_avx2<Locate>(profile, ws, steps);
    } else {
      advance_sse41<Locate>(profile, ws, steps);
    }
#else
    (void)steps;  // unreachable: the guard above threw
#endif
    for (unsigned l = 0; l < L; ++l) {
      if (live[l] && ws.cur[l] == ws.end[l]) {
        if constexpr (Locate) {
          done(tag[l], ws.cell[l]);
        } else {
          std::optional<Score> score;
          if (ws.ovf[l] == 0) {
            score = ws.peak[l];
          } else {
            ++stats.fallbacks;  // true score > 255: caller re-runs one tier down
          }
          done(tag[l], rec[l], score);
        }
        if (!refill(l, /*initial=*/false)) --live_count;
      }
    }
  }
  return stats;
}

void check_alphabets(const std::vector<seq::Sequence>& records, const seq::Sequence& query,
                     const char* what) {
  for (const seq::Sequence& r : records) {
    if (r.alphabet().id() != query.alphabet().id()) {
      throw std::invalid_argument(std::string(what) + ": alphabet mismatch");
    }
  }
}

}  // namespace

InterSeqStats sw_interseq_scan(const InterSeqProfile& profile, InterSeqWorkspace& ws,
                               const InterSeqFetch& fetch, const InterSeqDone& done) {
  return drive<false>(profile, ws, fetch, done);
}

InterSeqStats sw_interseq_locate(const InterSeqProfile& profile, InterSeqWorkspace& ws,
                                 const InterSeqFetch& fetch, const InterSeqLocated& located) {
  return drive<true>(profile, ws, fetch, located);
}

std::optional<std::vector<std::optional<Score>>> sw_interseq_batch(
    const std::vector<seq::Sequence>& records, const seq::Sequence& query, const Scoring& sc,
    unsigned lanes8, InterSeqStats* stats) {
  check_alphabets(records, query, "sw_interseq_batch");
  const InterSeqProfile profile(query, sc, lanes8);
  if (!profile.usable() || sw_interseq_max_lanes() < lanes8) return std::nullopt;

  std::vector<std::optional<Score>> out(records.size());
  InterSeqWorkspace ws;
  std::size_t next = 0;
  const InterSeqStats st = sw_interseq_scan(
      profile, ws,
      [&](unsigned) -> std::optional<InterSeqRecord> {
        if (next >= records.size()) return std::nullopt;
        const std::size_t r = next++;
        return InterSeqRecord{static_cast<std::uint64_t>(r), records[r].codes()};
      },
      [&](std::uint64_t done_tag, std::span<const seq::Code>, std::optional<Score> score) {
        out[static_cast<std::size_t>(done_tag)] = score;
      });
  if (stats != nullptr) *stats = st;
  return out;
}

std::optional<std::vector<Cell>> sw_interseq_locate_batch(
    const std::vector<seq::Sequence>& records, const seq::Sequence& query, const Scoring& sc,
    unsigned lanes8, std::span<const Score> scores, InterSeqStats* stats) {
  check_alphabets(records, query, "sw_interseq_locate_batch");
  if (scores.size() != records.size()) {
    throw std::invalid_argument("sw_interseq_locate_batch: one score per record required");
  }
  const InterSeqProfile profile(query, sc, lanes8);
  if (!profile.usable() || sw_interseq_max_lanes() < lanes8) return std::nullopt;

  std::vector<Cell> out(records.size());
  InterSeqWorkspace ws;
  std::size_t next = 0;
  const InterSeqStats st = sw_interseq_locate(
      profile, ws,
      [&](unsigned) -> std::optional<InterSeqRecord> {
        if (next >= records.size()) return std::nullopt;
        const std::size_t r = next++;
        return InterSeqRecord{static_cast<std::uint64_t>(r), records[r].codes(), scores[r]};
      },
      [&](std::uint64_t done_tag, Cell end) { out[static_cast<std::size_t>(done_tag)] = end; });
  if (stats != nullptr) *stats = st;
  return out;
}

}  // namespace swr::align
