// Lightweight trace spans: one record per served query, holding the
// per-stage wall-time breakdown the latency histograms aggregate away —
// how long THIS query waited for admission, how its chunks split across
// unit kinds, what the final merge cost.
//
// Spans land in a fixed-capacity ring buffer (recent history, O(1) memory)
// plus a bounded slow-query log that keeps every span whose total latency
// crossed a configurable threshold — the "why was that one slow" record
// that survives after the ring has wrapped.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace swr::obs {

/// Per-query stage timing record. Seconds throughout; exec_cpu/exec_board
/// are summed chunk execution time per unit kind (they can exceed the
/// dispatch window when chunks run concurrently).
struct Span {
  std::uint64_t query_id = 0;
  const char* status = "";         ///< producer-owned static string
  double admission_wait = 0.0;     ///< admitted -> first chunk dispatched
  double dispatch_window = 0.0;    ///< first dispatch -> last chunk folded
  double exec_cpu = 0.0;           ///< summed CPU chunk execution
  double exec_board = 0.0;         ///< summed board chunk execution
  double merge = 0.0;              ///< final sort + trim of the hit union
  double resolve = 0.0;            ///< end-cell location of the final top-k
  double traceback = 0.0;          ///< alignment retrieval phase (0 unless --align)
  double total = 0.0;              ///< admitted -> resolved
  std::uint32_t chunks = 0;        ///< chunks folded (dispatched or skipped)
};

/// Bounded span sink. record() is mutex-guarded — it runs once per query
/// resolution, never on the per-record hot path.
class TraceRing {
 public:
  /// `capacity` spans are retained (oldest evicted first). Spans with
  /// total >= `slow_threshold_seconds` are also copied to the slow log,
  /// which holds at most `capacity` entries (further slow spans drop the
  /// oldest). A threshold <= 0 disables the slow log.
  explicit TraceRing(std::size_t capacity, double slow_threshold_seconds = 0.0);

  void record(const Span& span);

  /// Retained spans, oldest first.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Slow-query log, oldest first.
  [[nodiscard]] std::vector<Span> slow() const;

  /// Total spans ever recorded (>= spans().size() once the ring wraps).
  [[nodiscard]] std::uint64_t recorded() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] double slow_threshold_seconds() const noexcept { return slow_threshold_; }

 private:
  const std::size_t capacity_;
  const double slow_threshold_;

  mutable std::mutex mu_;
  std::vector<Span> ring_;     ///< ring_[ (head_ + k) % capacity ] = k-th oldest
  std::size_t head_ = 0;       ///< index of the oldest span once full
  std::vector<Span> slow_;     ///< bounded FIFO of slow spans
  std::uint64_t recorded_ = 0;
};

}  // namespace swr::obs
