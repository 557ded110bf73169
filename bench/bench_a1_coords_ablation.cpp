// A1 — ablation: what the paper's contribution costs.
//
// The Bs/Cl/Bc coordinate-tracking machinery is exactly what separates
// this design from the score-only accelerators of Table 1. This bench
// quantifies its price on every catalogued device: per-PE area, elements
// lost, peak GCUPS lost, clock impact — and the same for the affine-gap
// extension and for narrower datapaths (12-bit SAMBA-style vs 16-bit).
// The software row is the same question for the SIMD scan: score-only
// inter-sequence GCUPS against the one Locate pass that finds the top-K
// end cells afterwards.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <vector>

#include "align/sw_interseq.hpp"
#include "align/sw_linear.hpp"
#include "bench_util.hpp"
#include "core/multibase.hpp"
#include "core/resource_model.hpp"
#include "seq/random.hpp"

using namespace swr;
using namespace swr::core;

namespace {

void print_config(const char* label, const PeFeatures& pe) {
  std::printf("\n%s (score %u bits, counters %u bits):\n", label, pe.score_bits, pe.cycle_bits);
  std::printf("  per-PE: %zu FFs, %zu LUTs\n", pe_flipflops(pe), pe_luts(pe));
  std::printf("  %-12s %9s %10s %12s\n", "device", "max PEs", "freq MHz", "peak GCUPS");
  for (const FpgaDevice& dev : device_catalog()) {
    const std::size_t n = max_elements(dev, pe);
    const ResourceEstimate e = estimate_resources(dev, n, pe);
    std::printf("  %-12s %9zu %10.1f %12.2f\n", dev.name.c_str(), n, e.freq_mhz,
                static_cast<double>(n) * e.freq_mhz * 1e6 / 1e9);
  }
}

// Software row: the hardware pays for Bs/Bc in area on every cell; the
// score-only SIMD scan pays for coordinates only on the K records it
// reports. 100-bp query x 2000 x 500-bp DNA, best of three runs each.
// Returns false when a located cell disagrees with sw_linear.
bool software_row() {
  constexpr std::size_t kRecords = 2000;
  constexpr std::size_t kTopK = 10;
  const unsigned lanes = align::sw_interseq_max_lanes();
  std::printf("\nsoftware row: score-only SIMD scan vs locating the top-%zu end cells\n", kTopK);
  if (lanes == 0) {
    std::printf("  inter-sequence kernel unavailable on this host; row skipped\n");
    return true;
  }
  seq::RandomSequenceGenerator gen(0xA1);
  const seq::Sequence query = gen.uniform(seq::dna(), 100);
  std::vector<seq::Sequence> records;
  for (std::size_t r = 0; r < kRecords; ++r) records.push_back(gen.uniform(seq::dna(), 500));
  const align::Scoring sc = align::Scoring::paper_default();
  const double cells = static_cast<double>(kRecords) * 500.0 * 100.0;

  double scan_s = 1e30;
  std::optional<std::vector<std::optional<align::Score>>> scores;
  for (int rep = 0; rep < 3; ++rep) {
    const bench::Timer t;
    scores = align::sw_interseq_batch(records, query, sc, lanes);
    scan_s = std::min(scan_s, t.seconds());
  }
  std::vector<std::size_t> order(kRecords);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto score_of = [&](std::size_t r) { return (*scores)[r].value_or(0); };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return score_of(a) > score_of(b); });
  std::vector<seq::Sequence> top;
  std::vector<align::Score> seeds;
  for (std::size_t k = 0; k < kTopK; ++k) {
    top.push_back(records[order[k]]);
    seeds.push_back(score_of(order[k]));
  }
  double locate_s = 1e30;
  std::optional<std::vector<align::Cell>> cells_top;
  for (int rep = 0; rep < 3; ++rep) {
    const bench::Timer t;
    cells_top = align::sw_interseq_locate_batch(top, query, sc, lanes, seeds);
    locate_s = std::min(locate_s, t.seconds());
  }
  bool exact = cells_top.has_value();
  for (std::size_t k = 0; exact && k < kTopK; ++k) {
    exact = align::LocalScoreResult{seeds[k], (*cells_top)[k]} ==
            align::sw_linear(top[k], query, sc);
  }
  std::printf("  %-40s %10.2f GCUPS  (%.2f ms, %u lanes)\n", "score-only interseq scan",
              cells / scan_s / 1e9, scan_s * 1e3, lanes);
  std::printf("  %-40s %10.3f ms  (%.2f%% of the scan) %s\n", "locate pass, top-10 records",
              locate_s * 1e3, 100.0 * locate_s / scan_s,
              exact ? "cells match sw_linear" : "CELL MISMATCH");
  std::printf("  the board pays for coordinates in area on every cell; the software scan now\n"
              "  pays only for the %zu reported records, once per query.\n", kTopK);
  return exact;
}

}  // namespace

int main() {
  bench::header("A1: coordinate-tracking & datapath ablations");

  const PeFeatures ours{16, 32, true, false};
  PeFeatures score_only = ours;
  score_only.coordinate_tracking = false;
  PeFeatures affine = ours;
  affine.affine = true;
  PeFeatures narrow = ours;
  narrow.score_bits = 12;
  narrow.cycle_bits = 24;

  PeFeatures multi4 = ours;
  multi4.bases_per_pe = 4;

  print_config("score-only PE (related-work baseline)", score_only);
  print_config("coordinate-tracking PE (the paper's design)", ours);
  print_config("coordinate-tracking + affine gaps ([32]-style extension)", affine);
  print_config("coordinate-tracking, narrow 12/24-bit datapath (SAMBA-width)", narrow);
  print_config("coordinate-tracking, 4 bases/PE ([12] Kestrel-style multiplexing)", multi4);

  // Multi-base query capacity vs throughput: the [12] trade in one line.
  {
    const std::size_t n1 = max_elements(xc2vp70(), ours);
    const std::size_t n4 = max_elements(xc2vp70(), multi4);
    std::printf("\n[12]-style 4-base PEs on xc2vp70: query capacity per pass %zu -> %zu columns,\n"
                "but each database base occupies the pipeline 4 cycles — capacity up, peak\n"
                "GCUPS down (%0.1f -> %0.1f): the register-vs-elements trade of paper Section 4.\n",
                n1, n4 * 4,
                static_cast<double>(n1) * estimate_resources(xc2vp70(), n1, ours).freq_mhz / 1e3,
                static_cast<double>(n4) * estimate_resources(xc2vp70(), n4, multi4).freq_mhz /
                    1e3);
  }

  // Functional verification of the multi-base variant: the [12] trade is
  // not just a resource model, the time-multiplexed array runs for real.
  {
    swr::seq::RandomSequenceGenerator gen(5150);
    const swr::seq::Sequence q = gen.uniform(swr::seq::dna(), 120);
    const swr::seq::Sequence db = gen.uniform(swr::seq::dna(), 4000);
    MultiBaseController ctl(30, 4, 16, swr::align::Scoring::paper_default(), 1u << 20, true);
    const auto hw = ctl.run(q, db);
    const auto sw = swr::align::sw_linear(db, q, swr::align::Scoring::paper_default());
    std::printf("\nfunctional check (30 PEs x 4 bases, 120 BP query, 4 KBP db): %s "
                "(%llu cycles, %llu pass)\n",
                hw == sw ? "matches software oracle" : "MISMATCH",
                static_cast<unsigned long long>(ctl.run_stats().total_cycles),
                static_cast<unsigned long long>(ctl.run_stats().passes));
    if (!(hw == sw)) return 1;
  }

  // Headline delta on the prototype device.
  const std::size_t n_ours = max_elements(xc2vp70(), ours);
  const std::size_t n_score = max_elements(xc2vp70(), score_only);
  std::printf("\nsummary on xc2vp70: coordinates cost %zu -> %zu max elements (%.0f%% area\n"
              "overhead per PE in LUTs) — the price of getting (i, j) out of the board in 20\n"
              "bytes instead of re-running or shipping the matrix.\n",
              n_score, n_ours,
              100.0 * (static_cast<double>(pe_luts(ours)) / static_cast<double>(pe_luts(score_only)) -
                       1.0));
  return software_row() ? 0 : 1;
}
