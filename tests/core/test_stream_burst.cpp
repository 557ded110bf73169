// Burst parity: the burst compute window (SystolicArray::stream, taken by
// an unobserved event-scheduled controller) against the same job stepped
// cycle by cycle under the event scheduler (an attached observer forces
// stepping) and under the dense oracle. The burst must leave every
// observable exactly where stepping leaves it: results, every RunStats
// field (saturations included), every PE register and drain slot, the
// scheduler's evaluation count and last active set, and SRAM traffic.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "align/scoring.hpp"
#include "core/controller.hpp"
#include "core/cpu_features.hpp"
#include "core/wavefront_sweep.hpp"
#include "hw/sched.hpp"
#include "hw/simulator.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::core;

// Everything an ArrayController exposes after a job, flattened.
struct PeState {
  align::Score a = 0, b = 0, bs = 0;
  std::uint64_t cl = 0, bc = 0;
  PeLink out;
  align::Score drain_bs = 0;
  std::uint64_t drain_bc = 0;
  bool evaluated = false;

  friend bool operator==(const PeState&, const PeState&) = default;
  friend void PrintTo(const PeState& s, std::ostream* os) {
    *os << "{a=" << s.a << " b=" << s.b << " cl=" << s.cl << " bs=" << s.bs << " bc=" << s.bc
        << " out=(" << int(s.out.base) << "," << s.out.score << "," << s.out.escore << ","
        << s.out.valid << ") drain=(" << s.drain_bs << "," << s.drain_bc
        << ") eval=" << s.evaluated << "}";
  }
};

std::vector<PeState> pe_states(const SystolicArray<ScorePe>& arr, bool with_scheduler) {
  std::vector<PeState> out;
  for (std::size_t j = 0; j < arr.size(); ++j) {
    const ScorePe& pe = arr.pe(j);
    PeState s{pe.reg_a(), pe.reg_b(), pe.reg_bs(), pe.reg_cl(), pe.reg_bc(), pe.out()};
    if (with_scheduler) {
      // Event-only observables: inner drain slots go stale under the
      // virtual drain, and the active set is the scheduler's own.
      s.drain_bs = pe.drain_slot().bs;
      s.drain_bc = pe.drain_slot().bc;
      s.evaluated = arr.evaluated_last_cycle(j);
    }
    out.push_back(s);
  }
  return out;
}

struct Job {
  std::size_t npes = 1;
  unsigned score_bits = 16;
  align::Scoring sc;
  std::vector<seq::Sequence> queries;  // one = run(), several = run_batch()
  seq::Sequence db;
  bool batch = false;

  [[nodiscard]] std::string label() const {
    std::string s = "npes=" + std::to_string(npes) + " bits=" + std::to_string(score_bits) +
                    " n=" + std::to_string(db.size()) + (sc.matrix ? " blosum62" : " dna") +
                    (batch ? " batch" : " run") + " m=";
    for (const seq::Sequence& q : queries) s += std::to_string(q.size()) + ",";
    return s;
  }
};

struct Outcome {
  std::vector<align::LocalScoreResult> results;
  RunStats stats;
  std::vector<PeState> pes;
  std::uint64_t evaluations = 0;
  std::uint64_t sram_reads = 0, sram_writes = 0;
};

Outcome run_job(const Job& job, hw::SchedMode sched, bool observed) {
  ArrayController<ScorePe> ctl(job.npes, job.score_bits, job.sc, 8u << 20,
                               /*charge_query_load=*/true, /*shuffle=*/false, sched);
  if (observed) ctl.set_observer([](const SystolicArray<ScorePe>&, std::uint64_t) {});
  Outcome o;
  if (job.batch) {
    o.results = ctl.run_batch(job.queries, job.db);
  } else {
    o.results.push_back(ctl.run(job.queries[0], job.db));
  }
  o.stats = ctl.run_stats();
  o.pes = pe_states(ctl.array(), sched == hw::SchedMode::Event);
  o.evaluations = ctl.array().evaluations();
  o.sram_reads = ctl.sram().read_count();
  o.sram_writes = ctl.sram().write_count();
  return o;
}

// Runs the job three ways and checks every observable; returns whether
// the burst actually ran (streamed_passes > 0).
bool expect_burst_parity(const Job& job) {
  const Outcome burst = run_job(job, hw::SchedMode::Event, /*observed=*/false);
  const Outcome event = run_job(job, hw::SchedMode::Event, /*observed=*/true);
  const Outcome dense = run_job(job, hw::SchedMode::Dense, /*observed=*/false);
  const std::string label = job.label();

  EXPECT_EQ(event.stats.streamed_passes, 0u) << label;
  EXPECT_EQ(dense.stats.streamed_passes, 0u) << label;
  // Each pass decides on its own: boundary scores carried in from earlier
  // passes can push a later window past the guard.
  EXPECT_LE(burst.stats.streamed_passes, burst.stats.passes) << label;
  RunStats burst_stats = burst.stats;
  burst_stats.streamed_passes = 0;
  EXPECT_EQ(burst_stats, event.stats) << label;
  EXPECT_EQ(event.stats, dense.stats) << label;

  EXPECT_EQ(burst.results, event.results) << label;
  EXPECT_EQ(event.results, dense.results) << label;
  EXPECT_EQ(burst.pes, event.pes) << label;
  EXPECT_EQ(burst.evaluations, event.evaluations) << label;
  EXPECT_EQ(burst.sram_reads, event.sram_reads) << label;
  EXPECT_EQ(burst.sram_writes, event.sram_writes) << label;
  EXPECT_EQ(event.sram_reads, dense.sram_reads) << label;
  EXPECT_EQ(event.sram_writes, dense.sram_writes) << label;
  // Dense has no scheduler-private state to compare; the architectural
  // registers must agree.
  EXPECT_EQ(dense.pes.size(), event.pes.size());
  for (std::size_t j = 0; j < std::min(dense.pes.size(), event.pes.size()); ++j) {
    PeState e = event.pes[j];
    e.drain_bs = 0;
    e.drain_bc = 0;
    e.evaluated = false;
    EXPECT_EQ(e, dense.pes[j]) << label << " pe " << j;
  }
  return burst.stats.streamed_passes > 0;
}

// A database that carries a (possibly partial) copy of `q`, so scores
// climb high enough to reach narrow widths' saturation.
seq::Sequence with_planted(const seq::Sequence& q, std::size_t n, std::uint64_t seed,
                           const seq::Alphabet& ab) {
  const seq::Sequence noise = ab.id() == seq::dna().id() ? swr::test::random_dna(n, seed)
                                                          : swr::test::random_protein(n, seed);
  std::vector<seq::Code> codes(noise.codes().begin(), noise.codes().end());
  const std::size_t len = std::min(q.size(), n);
  const std::size_t at = (n - len) / 2;
  for (std::size_t k = 0; k < len; ++k) codes[at + k] = q[k];
  return seq::Sequence(ab, std::move(codes));
}

Job draw_job(std::mt19937_64& rng, std::uint64_t seed) {
  auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  static constexpr unsigned kBits[] = {5, 6, 7, 8, 9, 10, 16, 24};
  Job job;
  job.npes = pick(1, 40);
  job.score_bits = kBits[pick(0, std::size(kBits) - 1)];
  const bool protein = pick(0, 2) == 0;
  if (protein) {
    job.sc.matrix = &align::blosum62();
    job.sc.gap = -static_cast<align::Score>(pick(4, 11));
  }
  const seq::Alphabet& ab = protein ? seq::protein() : seq::dna();
  const auto random_seq = [&](std::size_t len, std::uint64_t s) {
    return protein ? swr::test::random_protein(len, s) : swr::test::random_dna(len, s);
  };
  job.batch = job.npes >= 3 && pick(0, 2) == 0;
  if (job.batch) {
    // Barrier-separated queries that together fill at most the array.
    std::size_t room = job.npes;
    for (std::size_t k = 0; room > 0 && k < 4; ++k) {
      const std::size_t len = pick(1, std::min<std::size_t>(room, 12));
      job.queries.push_back(random_seq(len, seed * 8 + k));
      room -= len;
      if (room == 0) break;
      --room;  // the barrier before the next query
    }
  } else {
    // Up to ~4 passes, often with a partial tail.
    job.queries.push_back(random_seq(pick(1, 4 * job.npes + 3), seed * 8));
  }
  const std::size_t n = pick(1, 150);
  job.db = pick(0, 1) == 0 ? with_planted(job.queries[0], n, seed * 8 + 5, ab)
                           : random_seq(n, seed * 8 + 6);
  return job;
}

TEST(StreamBurst, RandomDifferentialAgainstSteppedEventAndDense) {
  std::mt19937_64 rng(20261019);
  int streamed = 0;
  int stepped = 0;
  for (std::uint64_t trial = 0; trial < 1500; ++trial) {
    const Job job = draw_job(rng, 7000 + trial);
    (expect_burst_parity(job) ? streamed : stepped) += 1;
    if (HasFailure()) break;
  }
  // The draw must exercise both the burst and its refusal.
  EXPECT_GT(streamed, 900);
  EXPECT_GT(stepped, 150);
}

TEST(StreamBurst, FleetConfigAlwaysBursts) {
  // The board fleet's synthesis: 100 PEs, 16-bit scores, +1/-1/-2 — a
  // single pass and a three-pass job with a partial tail.
  for (const std::size_t m : {std::size_t{100}, std::size_t{250}}) {
    Job job;
    job.npes = 100;
    job.queries.push_back(swr::test::random_dna(m, 31 + m));
    job.db = with_planted(job.queries[0], 500, 32 + m, seq::dna());
    EXPECT_TRUE(expect_burst_parity(job));
    const Outcome burst = run_job(job, hw::SchedMode::Event, false);
    EXPECT_EQ(burst.stats.streamed_passes, burst.stats.passes);
    EXPECT_EQ(burst.stats.passes, (m + 99) / 100);
  }
}

TEST(StreamBurst, PackedBatchWithBarriersBursts) {
  Job job;
  job.npes = 30;
  job.batch = true;
  for (std::size_t k = 0; k < 3; ++k) job.queries.push_back(swr::test::random_dna(8 + k, 40 + k));
  job.db = with_planted(job.queries[1], 90, 45, seq::dna());
  EXPECT_TRUE(expect_burst_parity(job));
}

TEST(StreamBurst, Blosum62Bursts) {
  Job job;
  job.npes = 24;
  job.sc.matrix = &align::blosum62();
  job.sc.gap = -8;
  job.queries.push_back(swr::test::random_protein(60, 50));
  job.db = with_planted(job.queries[0], 120, 51, seq::protein());
  EXPECT_TRUE(expect_burst_parity(job));
}

TEST(StreamBurst, SaturatingArrayStepsAndCountsEveryClamp) {
  // A 6-bit datapath (max 31) cannot bound 40 columns of +1, and a
  // 60-base planted match does overflow it: the guard refuses every
  // pass, and the stepped run's saturation count stands.
  Job job;
  job.npes = 40;
  job.score_bits = 6;
  job.queries.push_back(swr::test::random_dna(60, 60));
  job.db = with_planted(job.queries[0], 80, 61, seq::dna());
  EXPECT_FALSE(expect_burst_parity(job));
  const Outcome burst = run_job(job, hw::SchedMode::Event, false);
  EXPECT_EQ(burst.stats.streamed_passes, 0u);
  EXPECT_GT(burst.stats.saturations, 0u);
}

// ---- the window itself, against a hand-stepped array -----------------------

struct Window {
  std::vector<seq::Code> rows;
  std::vector<align::Score> left;
};

// Steps one compute window the way the controller's fallback does and
// returns the right boundary column.
std::vector<align::Score> step_window(SystolicArray<ScorePe>& arr, hw::Simulator& sim,
                                      const Window& w) {
  std::vector<align::Score> right;
  arr.set_mode(ArrayMode::Compute);
  for (std::size_t t = 0; t < w.rows.size() + arr.size() - 1; ++t) {
    PeLink in;
    if (t < w.rows.size()) in = PeLink{w.rows[t], w.left.empty() ? 0 : w.left[t], 0, true};
    arr.drive_input(in);
    sim.step();
    if (arr.boundary_out().valid) right.push_back(arr.boundary_out().score);
  }
  return right;
}

void idle_cycle(SystolicArray<ScorePe>& arr, hw::Simulator& sim) {
  arr.drive_input(PeLink{});
  arr.set_mode(ArrayMode::Idle);
  sim.step();
}

TEST(StreamBurst, WindowWriteBackMatchesSteppedWindow) {
  // Two windows back to back (an idle clock between them clears the
  // in-flight strobe), so the second starts from nonzero A/B/Cl/Bs/Bc —
  // the write-back must carry the cycle counter and keep old Bc values.
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    auto pick = [&rng](std::size_t lo, std::size_t hi) {
      return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
    };
    const std::size_t npes = pick(1, 24);
    const bool packed = npes >= 3 && pick(0, 1) == 0;
    const seq::Sequence query = swr::test::random_dna(npes, 900 + trial);
    SystolicArray<ScorePe> stepped(npes, 16, align::Scoring::paper_default(),
                                   hw::SchedMode::Event);
    SystolicArray<ScorePe> burst(npes, 16, align::Scoring::paper_default(),
                                 hw::SchedMode::Event);
    const std::size_t chunk = pick(1, npes);  // pad PEs past it compute too
    for (SystolicArray<ScorePe>* arr : {&stepped, &burst}) {
      if (packed) {
        const std::size_t cut = npes / 2;
        arr->load_packed({query.codes().subspan(0, cut),
                          query.codes().subspan(cut + 1, npes - cut - 1)});
      } else {
        arr->load_query(query.codes().subspan(0, chunk));
      }
    }
    hw::Simulator sim;
    sim.add(&stepped);

    for (int window = 0; window < 2; ++window) {
      Window w;
      const seq::Sequence rows = swr::test::random_dna(pick(1, 60), 950 + trial * 2 + window);
      w.rows.assign(rows.codes().begin(), rows.codes().end());
      if (pick(0, 1) == 0) {
        for (std::size_t i = 0; i < w.rows.size(); ++i) {
          w.left.push_back(static_cast<align::Score>(pick(0, 12)));
        }
      }
      const std::vector<align::Score> want = step_window(stepped, sim, w);
      std::vector<align::Score> got(w.rows.size(), -1);
      ASSERT_TRUE(burst.stream(w.rows, w.left, got)) << "trial " << trial;
      EXPECT_EQ(got, want) << "trial " << trial << " window " << window;
      EXPECT_EQ(pe_states(burst, true), pe_states(stepped, true))
          << "trial " << trial << " window " << window;
      EXPECT_EQ(burst.evaluations(), stepped.evaluations()) << "trial " << trial;
      idle_cycle(stepped, sim);
      hw::Simulator burst_sim;
      burst_sim.add(&burst);
      idle_cycle(burst, burst_sim);
    }
    if (HasFailure()) break;
  }
}

TEST(StreamBurst, GuardDeclinesWithStateUntouched) {
  const seq::Sequence query = swr::test::random_dna(8, 1);
  const seq::Sequence db = swr::test::random_dna(20, 2);
  const std::vector<seq::Code> rows(db.codes().begin(), db.codes().end());
  const auto loaded = [&](unsigned bits, hw::SchedMode sched) {
    auto arr = std::make_unique<SystolicArray<ScorePe>>(8, bits, align::Scoring::paper_default(),
                                                        sched);
    arr->load_query(query.codes());
    return arr;
  };
  // Dense arrays always step.
  EXPECT_FALSE(loaded(16, hw::SchedMode::Dense)->stream(rows, {}, {}));
  // A 4-bit datapath (max 7) cannot hold 8 columns of +1.
  {
    auto arr = loaded(4, hw::SchedMode::Event);
    const auto before = pe_states(*arr, true);
    EXPECT_FALSE(arr->stream(rows, {}, {}));
    EXPECT_EQ(pe_states(*arr, true), before);
    EXPECT_EQ(arr->evaluations(), 0u);
  }
  // A negative boundary score, or one past the int16 bound.
  {
    std::vector<align::Score> left(rows.size(), 0);
    left[3] = -1;
    EXPECT_FALSE(loaded(16, hw::SchedMode::Event)->stream(rows, left, {}));
    left[3] = 32767;
    EXPECT_FALSE(loaded(24, hw::SchedMode::Event)->stream(rows, left, {}));
  }
  // A strobe still in flight (a window just ended, no idle clock since).
  {
    auto arr = loaded(16, hw::SchedMode::Event);
    ASSERT_TRUE(arr->stream(rows, {}, {}));
    EXPECT_TRUE(arr->pe(7).out().valid);
    const auto before = pe_states(*arr, true);
    EXPECT_FALSE(arr->stream(rows, {}, {}));
    EXPECT_EQ(pe_states(*arr, true), before);
  }
  // Boundary columns of the wrong length are a caller bug.
  std::vector<align::Score> short_col(3, 0);
  EXPECT_THROW((void)loaded(16, hw::SchedMode::Event)->stream(rows, short_col, {}),
               std::invalid_argument);
}

// ---- the sweep's vector rungs, lane for lane against the portable loop ------

struct SweepCase {
  std::size_t npes = 1;
  std::size_t n = 1;
  bool with_left = false;
  bool with_right = false;
  bool warm = false;      // nonzero starting A/B/Bs, as a later pass leaves them
  bool barriers = false;  // barrier lanes, as packed batches load them
  std::uint64_t seed = 0;
  const align::SubstitutionMatrix* matrix = nullptr;
};

struct SweepOut {
  std::vector<std::int16_t> a, b, bs;
  std::vector<std::int32_t> bc;
  std::vector<align::Score> right;

  friend bool operator==(const SweepOut&, const SweepOut&) = default;
};

// Builds the case's lanes from its seed (padding lanes get junk, which no
// rung may let into a live lane) and runs one sweep on `isa`'s rung.
SweepOut run_sweep(const SweepCase& c, SimdIsa isa) {
  std::mt19937_64 rng(c.seed);
  const auto draw = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  align::Scoring sc;
  sc.matrix = c.matrix;
  sc.match = draw(1, 5);
  sc.mismatch = -draw(0, 4);
  sc.gap = -draw(1, 5);
  const int codes = c.matrix ? 20 : 4;

  detail::SweepLanes l;
  l.resize(c.npes);
  for (auto* v : {&l.sp, &l.keep, &l.a, &l.b, &l.bs, &l.bc_lo, &l.bc_hi}) {
    for (std::int16_t& x : *v) x = static_cast<std::int16_t>(draw(-300, 300));
  }
  for (std::size_t j = 0; j < c.npes; ++j) {
    l.sp[j] = static_cast<std::int16_t>(draw(0, codes - 1));
    l.keep[j] = c.barriers && draw(0, 4) == 0 ? 0 : -1;
    l.a[j] = static_cast<std::int16_t>(c.warm ? draw(0, 40) : 0);
    l.b[j] = static_cast<std::int16_t>(c.warm ? draw(0, 40) : 0);
    l.bs[j] = static_cast<std::int16_t>(c.warm ? draw(0, 40) : 0);
  }
  std::vector<seq::Code> rows(c.n);
  for (seq::Code& r : rows) r = static_cast<seq::Code>(draw(0, codes - 1));
  // A copy of the query late in the rows: on a long window without left
  // scores, warm lanes or barriers, nothing else reaches its score, so Bs
  // improves past cycle 65,535 and Bc's high half is written.
  if (c.n > c.npes + 10) {
    for (std::size_t j = 0; j < c.npes; ++j) {
      rows[c.n - c.npes - 10 + j] = static_cast<seq::Code>(l.sp[j]);
    }
  }
  std::vector<align::Score> left;
  if (c.with_left) {
    for (std::size_t i = 0; i < c.n; ++i) left.push_back(draw(0, 40));
  }
  SweepOut out;
  if (c.with_right) out.right.assign(c.n, -1);
  detail::wavefront_sweep(l, rows, left, out.right, sc, isa);
  for (std::size_t j = 0; j < c.npes; ++j) {
    out.a.push_back(l.a[j]);
    out.b.push_back(l.b[j]);
    out.bs.push_back(l.bs[j]);
    out.bc.push_back(l.bc(j));
  }
  return out;
}

std::vector<SimdIsa> vector_sweep_rungs() {
  std::vector<SimdIsa> rungs;
  for (const SimdIsa isa : {SimdIsa::Avx2, SimdIsa::Avx512}) {
    if (cpu_supports(isa)) rungs.push_back(isa);
  }
  return rungs;
}

std::string sweep_label(const SweepCase& c, SimdIsa isa) {
  return std::string(simd_isa_name(isa)) + " npes=" + std::to_string(c.npes) +
         " n=" + std::to_string(c.n) + (c.with_left ? " left" : "") +
         (c.with_right ? " right" : "") + (c.warm ? " warm" : "") +
         (c.barriers ? " barriers" : "") +
         " seed=" + std::to_string(c.seed);
}

TEST(SweepRungs, ShapesMatchPortableLaneForLane) {
  const std::vector<SimdIsa> rungs = vector_sweep_rungs();
  if (rungs.empty()) GTEST_SKIP() << "no vector sweep rung on this CPU";
  std::uint64_t seed = 1;
  for (const std::size_t npes : {1, 15, 16, 17, 31, 33, 100, 257}) {
    for (const std::size_t n : {1, 2, 15, 16, 33, 100, 300}) {
      for (int flags = 0; flags < 16; ++flags) {
        const SweepCase c{npes, n, (flags & 1) != 0, (flags & 2) != 0, (flags & 4) != 0,
                          (flags & 8) != 0, seed++};
        const SweepOut want = run_sweep(c, SimdIsa::Scalar);
        for (const SimdIsa isa : rungs) {
          EXPECT_EQ(run_sweep(c, isa), want) << sweep_label(c, isa);
        }
        if (HasFailure()) return;
      }
    }
  }
}

TEST(SweepRungs, LongWindowsCarryBcHighHalf) {
  const std::vector<SimdIsa> rungs = vector_sweep_rungs();
  if (rungs.empty()) GTEST_SKIP() << "no vector sweep rung on this CPU";
  for (const std::size_t npes : {1, 16, 17, 100, 257}) {
    const SweepCase plain{npes, 70'000, false, true, false, false, 500 + npes};
    const SweepCase full{npes, 70'000, true, true, true, true, 600 + npes};
    for (const SweepCase& c : {plain, full}) {
      const SweepOut want = run_sweep(c, SimdIsa::Scalar);
      // A lone PE reaches its best, one match, within the first rows.
      if (!c.with_left && npes > 1) {
        EXPECT_GT(*std::max_element(want.bc.begin(), want.bc.end()), 65'535) << npes;
      }
      for (const SimdIsa isa : rungs) {
        EXPECT_EQ(run_sweep(c, isa), want) << sweep_label(c, isa);
      }
    }
  }
}

TEST(SweepRungs, MatrixSchemesTakeThePortableLoop) {
  // Every rung accepts a substitution matrix and runs the portable loop.
  for (const SimdIsa isa : {SimdIsa::Avx2, SimdIsa::Avx512}) {
    const SweepCase c{33, 120, true, true, true, true, 900, &align::blosum62()};
    EXPECT_EQ(run_sweep(c, isa), run_sweep(c, SimdIsa::Scalar)) << sweep_label(c, isa);
  }
}

}  // namespace
