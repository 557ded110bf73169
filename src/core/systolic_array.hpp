// The systolic array (paper figure 5): a chain of PEs plus the array-level
// mode and input registers. Templated over the PE type so the linear-gap
// design (ScorePe) and the affine extension (AffinePe) share one chassis.
//
// Two scheduling policies drive the chain (hw::SchedMode):
//
//   dense — the textbook two-phase stepper: every PE evaluates and commits
//   every clock. O(N) per cycle regardless of activity.
//
//   event — the activity-driven scheduler. A compute stream entering an
//   N-element array only ever keeps a contiguous wavefront of PEs busy:
//   at stream cycle t the valid strobes live in [max(0, t-|db|), min(t,
//   N)), so that span (plus one element to absorb the advancing edge) is
//   all that needs cycling. The result drain is handled with a snapshot:
//   DrainLoad latches every column's (Bs, Bc) once, and each DrainShift
//   clocks only the rightmost PE, fed from the snapshot through a virtual
//   shift cursor — O(1) per drain cycle instead of O(N).
//
// Event mode is bit-identical to dense on every architectural observation
// point (PE outputs, Bs/Bc/Cl registers, drain_out, cycle counts — the
// signals the VCD tracer and the schedule tests probe). It rests on two
// invariants: hw::Reg guarantees that committing a non-evaluated register
// is a no-op, and a PE whose inputs are invalid and whose out.valid is
// already false stages exactly its current state. The one deliberate
// non-architectural divergence: during a drain, inner PEs' drain_slot()
// registers go stale (the chain is virtualised); only drain_out() — the
// port the controller samples — is maintained.
//
// Burst compute window (ScorePe, event mode): stream() clocks a whole
// compute window — every row of one pass plus the pipeline flush — in one
// call, as an int16 structure-of-arrays wavefront sweep (wavefront_sweep.hpp),
// and then writes back exactly the PE registers, event bookkeeping and
// evaluation count that stepping the window cycle by cycle leaves. It runs
// only when a bound on the window's scores proves that no SatArith add
// can clamp and every value fits int16; otherwise it declines with the
// state untouched and the caller steps. The controller bursts only when no
// per-cycle observer is attached, so traces still see every clock. The
// sweep's rung (AVX-512BW, AVX2 or the portable loop) is picked once, when
// the array is built, by auto_simd_isa().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/cpu_features.hpp"
#include "core/pe.hpp"
#include "core/wavefront_sweep.hpp"
#include "hw/module.hpp"
#include "hw/satarith.hpp"
#include "hw/sched.hpp"

namespace swr::core {

namespace detail {
template <typename Pe>
struct PeTraits;

template <>
struct PeTraits<ScorePe> {
  using Scoring = align::Scoring;
  using Context = PeContext;
};

template <>
struct PeTraits<AffinePe> {
  using Scoring = align::AffineScoring;
  using Context = AffinePeContext;
};
}  // namespace detail

/// A chain of `n` PEs with a registered input link and a registered
/// array-wide mode, evaluated in two phases: every PE reads only pre-edge
/// neighbour state, so evaluation order is irrelevant.
template <typename Pe>
class SystolicArray final : public hw::Module {
 public:
  using Scoring = typename detail::PeTraits<Pe>::Scoring;
  using Context = typename detail::PeTraits<Pe>::Context;

  SystolicArray(std::size_t n, unsigned score_bits, Scoring scoring,
                hw::SchedMode sched = hw::default_sched_mode())
      : hw::Module("systolic_array"),
        sat_(score_bits),
        scoring_(scoring),
        pes_(n),
        sched_(sched),
        drain_snapshot_(n) {
    if (n == 0) throw std::invalid_argument("SystolicArray: zero PEs");
    scoring_.validate();
  }

  /// Burst compute window (ScorePe arrays): equivalent to setting the mode
  /// to Compute and clocking rows.size() + N - 1 cycles with row i driven
  /// as {rows[i], left[i] (0 when `left` is empty), valid} and an idle
  /// link after the last row — the controller's compute loop. When `right`
  /// is non-empty it receives the score boundary_out() carries for each
  /// row. Returns false, with the state untouched, unless the scheduler is
  /// event, no strobe is in flight, every score input is >= 0,
  /// 1 <= rows.size() <= 2^31 - N, and the window provably never saturates and
  /// fits int16: with start = max(0, every PE's A/B/Bs/out score, every
  /// left score) and M = max(max substitution, 0), every cell is at most
  /// U = start + N*M (induction over columns), so U + M <= min(sat.max,
  /// 32767) and min substitution, gap >= max(sat.min, -32768) suffice.
  /// The caller advances its simulator by the window's cycle count.
  /// @throws std::invalid_argument when left/right are neither empty nor
  /// rows.size() long.
  bool stream(std::span<const seq::Code> rows, std::span<const align::Score> left,
              std::span<align::Score> right)
    requires std::is_same_v<Pe, ScorePe>
  {
    const std::size_t n = rows.size();
    const std::size_t npes = pes_.size();
    if ((!left.empty() && left.size() != n) || (!right.empty() && right.size() != n)) {
      throw std::invalid_argument("SystolicArray::stream: boundary column length mismatch");
    }
    if (sched_ != hw::SchedMode::Event || n == 0 || n + npes > (std::size_t{1} << 31)) {
      return false;
    }

    // The exactness guard.
    std::int64_t start = 0;
    for (const align::Score v : left) {
      if (v < 0) return false;
      start = std::max<std::int64_t>(start, v);
    }
    for (const ScorePe& pe : pes_) {
      if (pe.out().valid) return false;
      for (const align::Score v : {pe.reg_a(), pe.reg_b(), pe.reg_bs(), pe.out().score}) {
        if (v < 0) return false;
        start = std::max<std::int64_t>(start, v);
      }
    }
    const std::int64_t max_sub = scoring_.matrix ? scoring_.matrix->max_entry()
                                                 : std::max(scoring_.match, scoring_.mismatch);
    const std::int64_t min_sub = scoring_.matrix ? scoring_.matrix->min_entry()
                                                 : std::min(scoring_.match, scoring_.mismatch);
    const std::int64_t m = std::max<std::int64_t>(max_sub, 0);
    const std::int64_t ceil = std::min<std::int64_t>(sat_.max(), INT16_MAX);
    const std::int64_t floor = std::max<std::int64_t>(sat_.min(), INT16_MIN);
    const std::int64_t bound = start + static_cast<std::int64_t>(npes) * m;
    if (bound + m > ceil || min_sub < floor || scoring_.gap < floor) return false;

    detail::SweepLanes& l = lanes_;
    l.resize(npes);
    for (std::size_t j = 0; j < npes; ++j) {
      const ScorePe& pe = pes_[j];
      l.sp[j] = pe.query_base();
      l.keep[j] = pe.barrier() ? 0 : -1;
      l.a[j] = static_cast<std::int16_t>(pe.reg_a());
      l.b[j] = static_cast<std::int16_t>(pe.reg_b());
      l.bs[j] = static_cast<std::int16_t>(pe.reg_bs());
    }
    detail::wavefront_sweep(l, rows, left, right, scoring_, sweep_isa_);

    // Write back what the stepped window leaves: PE j saw all n rows, last
    // at cycle n-1+j, so only PE N-1 still holds a valid strobe; barrier
    // columns keep B (the sweep's B lane holds their forced-zero output).
    for (std::size_t j = 0; j < npes; ++j) {
      ScorePe& pe = pes_[j];
      const std::uint64_t cl = pe.reg_cl();
      const std::int32_t cycle = l.bc(j);
      const std::uint64_t bc =
          cycle < 0 ? pe.reg_bc() : cl + static_cast<std::uint64_t>(cycle) - j + 1;
      pe.restore(l.a[j], pe.barrier() ? pe.reg_b() : l.b[j], cl + n, l.bs[j], bc,
                 PeLink{rows[n - 1], l.b[j], 0, j == npes - 1});
    }

    // Event bookkeeping, as evaluate()/commit()'s span arithmetic leaves
    // it: cycle 0 clocks PE 0 through the head path, and cycle t >= 1 the
    // previous cycle's strobe span [max(0, t-n), min(t, N)) plus the
    // advancing edge, min(t+1, N) - max(0, t-n) PEs. Summed over
    // t = 1..n+N-2 with 1 added for cycle 0, that is N(n+1) - 1.
    const std::size_t last = n + npes - 2;
    evaluations_ += static_cast<std::uint64_t>(npes) * (n + 1) - 1;
    eval_head_ = last == 0;
    eval_lo_ = last == 0 ? 0 : (last > n ? last - n : 0);
    eval_hi_ = last == 0 ? 0 : npes;
    act_lo_ = npes - 1;
    act_hi_ = npes;
    mode_ = ArrayMode::Compute;
    in_ = last < n ? PeLink{rows[n - 1], left.empty() ? 0 : left[n - 1], 0, true} : PeLink{};
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return pes_.size(); }
  [[nodiscard]] hw::SchedMode sched_mode() const noexcept { return sched_; }

  /// Loads a query chunk into the SP registers. Elements beyond the chunk
  /// are marked inactive (figure-7 padding). @throws std::invalid_argument
  /// if the chunk exceeds the array.
  void load_query(std::span<const seq::Code> chunk) {
    if (chunk.size() > pes_.size()) {
      throw std::invalid_argument("SystolicArray::load_query: chunk longer than array");
    }
    for (std::size_t j = 0; j < pes_.size(); ++j) {
      const bool active = j < chunk.size();
      pes_[j].load_query_base(active ? chunk[j] : seq::Code{0}, active);
    }
  }

  /// Query packing (ScorePe only): loads several queries separated by
  /// barrier columns, so one database pass serves them all. Total columns
  /// needed: sum of lengths + one barrier between consecutive queries.
  /// Returns the starting PE index of each query.
  /// @throws std::invalid_argument if the packing exceeds the array.
  std::vector<std::size_t> load_packed(const std::vector<std::span<const seq::Code>>& queries) {
    static_assert(std::is_same_v<Pe, ScorePe>,
                  "query packing requires the linear-gap ScorePe (barrier columns do not "
                  "isolate the affine E layer)");
    std::size_t need = queries.empty() ? 0 : queries.size() - 1;  // barriers
    for (const auto& q : queries) need += q.size();
    if (need > pes_.size()) {
      throw std::invalid_argument("SystolicArray::load_packed: queries do not fit the array");
    }
    std::vector<std::size_t> starts;
    starts.reserve(queries.size());
    std::size_t j = 0;
    for (std::size_t k = 0; k < queries.size(); ++k) {
      if (k > 0) pes_[j++].load_barrier();
      starts.push_back(j);
      for (const seq::Code c : queries[k]) pes_[j++].load_query_base(c, true);
    }
    for (; j < pes_.size(); ++j) pes_[j].load_query_base(0, false);
    return starts;
  }

  /// Drives the input wires for the current cycle (testbench style: set
  /// before the clock edge, latched by PE 0 at commit).
  void drive_input(const PeLink& link) noexcept { in_ = link; }

  /// Drives the array mode wires for the current cycle (controller FSM
  /// output, combinationally visible to all PEs).
  void set_mode(ArrayMode mode) noexcept { mode_ = mode; }

  void evaluate() override {
    const Context ctx{sat_, scoring_};
    const std::size_t n = pes_.size();
    if (sched_ == hw::SchedMode::Dense) {
      eval_lo_ = 0;
      eval_hi_ = n;
      eval_head_ = false;
      evaluations_ += n;
      evaluate_chain(0, n, ctx);
      return;
    }

    // Event: pick the active set for this clock. act_[lo,hi) is the
    // maintained invariant "every PE outside this span has out().valid ==
    // false" — those PEs stage exactly their current state, so skipping
    // them is exact.
    eval_lo_ = eval_hi_ = 0;
    eval_head_ = false;
    switch (mode_) {
      case ArrayMode::Idle:
        // Only valid strobes need clearing; everything else holds.
        eval_lo_ = act_lo_;
        eval_hi_ = act_hi_;
        break;
      case ArrayMode::Compute:
        if (act_lo_ < act_hi_) {
          // The span itself plus the PE the leading edge advances into.
          eval_lo_ = act_lo_;
          eval_hi_ = act_hi_ < n ? act_hi_ + 1 : n;
        }
        // PE 0 consumes the input wires; cover it when the span does not.
        eval_head_ = in_.valid && (eval_lo_ > 0 || eval_lo_ >= eval_hi_);
        break;
      case ArrayMode::DrainLoad:
        // Every column latches (Bs, Bc) — inherently O(N), once per pass.
        eval_lo_ = 0;
        eval_hi_ = n;
        break;
      case ArrayMode::DrainShift: {
        // Virtual shift: only the rightmost PE is clocked, fed the slot
        // the real chain would deliver — snapshot[N-1-k] after k shifts,
        // empty once the chain has fully run out (PE 0 shifts empties in).
        const std::uint64_t k = drain_shifts_ + 1;
        const DrainSlot& feed =
            k < n ? drain_snapshot_[n - 1 - static_cast<std::size_t>(k)] : kEmptySlot;
        pes_[n - 1].evaluate(mode_, n == 1 ? in_ : pes_[n - 2].out(), feed, ctx);
        eval_lo_ = n - 1;
        eval_hi_ = n;
        ++evaluations_;
        return;
      }
    }
    if (eval_head_) {
      pes_[0].evaluate(mode_, in_, kEmptySlot, ctx);
      ++evaluations_;
    }
    evaluations_ += eval_hi_ - eval_lo_;
    evaluate_chain(eval_lo_, eval_hi_, ctx);
  }

  void commit() override {
    if (sched_ == hw::SchedMode::Dense) {
      for (Pe& pe : pes_) pe.commit();
      return;
    }
    if (eval_head_) pes_[0].commit();
    for (std::size_t j = eval_lo_; j < eval_hi_; ++j) pes_[j].commit();

    // Post-edge bookkeeping: retighten the valid span / advance the
    // virtual drain cursor. The mode wires are stable across one
    // evaluate/commit pair (the simulator clocks between driver updates).
    switch (mode_) {
      case ArrayMode::Idle:
        act_lo_ = act_hi_ = 0;  // every evaluated PE cleared its strobe
        break;
      case ArrayMode::Compute: {
        std::size_t lo = pes_.size();
        std::size_t hi = 0;
        if (eval_head_ && pes_[0].out().valid) {
          lo = 0;
          hi = 1;
        }
        for (std::size_t j = eval_lo_; j < eval_hi_; ++j) {
          if (pes_[j].out().valid) {
            if (j < lo) lo = j;
            hi = j + 1;
          }
        }
        act_lo_ = lo < hi ? lo : 0;
        act_hi_ = lo < hi ? hi : 0;
        break;
      }
      case ArrayMode::DrainLoad:
        act_lo_ = act_hi_ = 0;
        for (std::size_t j = 0; j < pes_.size(); ++j) {
          drain_snapshot_[j] = pes_[j].drain_slot();
        }
        drain_shifts_ = 0;
        break;
      case ArrayMode::DrainShift:
        ++drain_shifts_;
        break;
    }
  }

  void reset() override {
    in_ = PeLink{};
    mode_ = ArrayMode::Idle;
    for (Pe& pe : pes_) pe.reset();
    act_lo_ = act_hi_ = 0;
    eval_lo_ = eval_hi_ = 0;
    eval_head_ = false;
    drain_shifts_ = 0;
    std::fill(drain_snapshot_.begin(), drain_snapshot_.end(), DrainSlot{});
  }

  /// Per-pass reset of PE state without losing the loaded query.
  void reset_pass() noexcept { reset(); }

  /// Output of the last PE: the boundary-column stream (figure 7).
  [[nodiscard]] const PeLink& boundary_out() const noexcept { return pes_.back().out(); }
  /// Drain chain output (valid during drain, one result per cycle).
  [[nodiscard]] const DrainSlot& drain_out() const noexcept { return pes_.back().drain_slot(); }

  [[nodiscard]] const Pe& pe(std::size_t j) const { return pes_.at(j); }
  [[nodiscard]] const hw::SatArith& sat() const noexcept { return sat_; }
  [[nodiscard]] const Scoring& scoring() const noexcept { return scoring_; }

  /// Cumulative PE evaluations since construction — the work the scheduler
  /// actually did. Dense charges N per clock; event charges the active
  /// set. The speedup benches and the activity tests read this.
  [[nodiscard]] std::uint64_t evaluations() const noexcept { return evaluations_; }

  /// Whether PE `j` was clocked by the most recent evaluate() — the
  /// active-set membership probe for the schedule tests.
  [[nodiscard]] bool evaluated_last_cycle(std::size_t j) const noexcept {
    return (eval_head_ && j == 0) || (j >= eval_lo_ && j < eval_hi_);
  }

 private:
  void evaluate_chain(std::size_t lo, std::size_t hi, const Context& ctx) {
    // PE 0 reads the input wires; PE j>0 reads PE j-1's registered
    // output. All register reads are pre-edge values.
    if (lo == 0 && hi > 0) pes_[0].evaluate(mode_, in_, kEmptySlot, ctx);
    for (std::size_t j = lo == 0 ? 1 : lo; j < hi; ++j) {
      pes_[j].evaluate(mode_, pes_[j - 1].out(), pes_[j - 1].drain_slot(), ctx);
    }
  }

  static constexpr DrainSlot kEmptySlot{};

  hw::SatArith sat_;
  Scoring scoring_;
  std::vector<Pe> pes_;
  PeLink in_{};
  ArrayMode mode_ = ArrayMode::Idle;
  hw::SchedMode sched_;

  // Event-scheduler bookkeeping (never consulted in dense mode).
  std::size_t act_lo_ = 0, act_hi_ = 0;    ///< valid-strobe span invariant
  std::size_t eval_lo_ = 0, eval_hi_ = 0;  ///< span clocked this cycle
  bool eval_head_ = false;                 ///< PE 0 clocked separately
  std::vector<DrainSlot> drain_snapshot_;  ///< (Bs, Bc) latched at DrainLoad
  std::uint64_t drain_shifts_ = 0;         ///< virtual shift cursor
  std::uint64_t evaluations_ = 0;
  detail::SweepLanes lanes_;  ///< stream() working lanes, kept across windows
  // stream()'s sweep rung, resolved once: SWR_SIMD, clamped to the CPU.
  SimdIsa sweep_isa_ = auto_simd_isa();
};

}  // namespace swr::core
