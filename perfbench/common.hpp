// Shared pieces of the layer benchmark binary: clocks, sample
// statistics, the in-memory span tracer, a small JSON writer and the
// host block every result carries.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// printf-style formatting into a std::string (lines up to 255 chars).
template <typename... Args>
std::string fmt(const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile of `v` (copied and sorted), q in [0, 1].
/// 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---- spans ----------------------------------------------------------------

/// One timed call into a layer: name, interval, the span that caused it
/// and the request it belongs to (0 = not request-scoped).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Keeps spans in memory; written out once at the end of a traced run.
/// Disabled tracers record nothing (the untraced end-to-end runs).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span: opened at construction, closed at destruction or end().
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::uint64_t parent = 0, std::uint64_t request = 0)
        : t_(t) {
      if (t_.enabled_) {
        span_.name = std::move(name);
        span_.parent = parent;
        span_.request = request;
        const std::lock_guard<std::mutex> lock(t_.mu_);
        span_.id = ++t_.next_id_;
      }
      span_.start_ns = now_ns();
    }
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::uint64_t id() const { return span_.id; }
    /// Duration so far, or of the closed span.
    [[nodiscard]] double seconds() const {
      return static_cast<double>((closed_ ? span_.end_ns : now_ns()) - span_.start_ns) * 1e-9;
    }
    void end() {
      if (closed_) return;
      closed_ = true;
      span_.end_ns = now_ns();
      if (!t_.enabled_) return;
      const std::lock_guard<std::mutex> lock(t_.mu_);
      t_.spans_.push_back(span_);
    }

   private:
    Tracer& t_;
    Span span_;
    bool closed_ = false;
  };

  /// Durations (seconds) of every span called `name`.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.seconds());
    }
    return out;
  }

  /// Per span name, in first-seen order: count, summed duration and self
  /// time (each span's duration minus the part of it its children cover).
  struct Totals {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::vector<Totals> totals() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
    for (const Span& c : spans_) kids[c.parent].emplace_back(c.start_ns, c.end_ns);
    std::vector<Totals> out;
    for (const Span& s : spans_) {
      auto it = std::find_if(out.begin(), out.end(), [&](const Totals& t) { return t.name == s.name; });
      if (it == out.end()) it = out.insert(out.end(), Totals{s.name});
      std::int64_t covered = 0;
      std::int64_t reach = s.start_ns;
      if (const auto k = kids.find(s.id); k != kids.end()) {
        std::vector<std::pair<std::int64_t, std::int64_t>> iv = k->second;
        std::sort(iv.begin(), iv.end());
        for (auto [a, b] : iv) {
          a = std::max(a, reach);
          b = std::min(b, s.end_ns);
          if (b > a) {
            covered += b - a;
            reach = b;
          }
        }
      }
      ++it->count;
      it->total_s += s.seconds();
      it->self_s += s.seconds() - static_cast<double>(covered) * 1e-9;
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes every span as one JSON array. False when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

// ---- JSON -----------------------------------------------------------------

/// Minimal ordered JSON object builder (values are emitted as they are
/// added; nested objects go in as already-rendered text).
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) {
    std::ostringstream os;
    os.precision(17);
    if (std::isfinite(v)) {
      os << v;
    } else {
      os << "null";
    }
    return raw(key, os.str());
  }
  JsonObject& integer(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(std::string_view key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& str(std::string_view key, std::string_view v) { return raw(key, quote(v)); }
  JsonObject& raw(std::string_view key, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += quote(key) + ": " + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

  static std::string quote(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

inline std::string json_array(const std::vector<std::uint64_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(v[i]);
  }
  return out + "]";
}

inline bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << JsonObject()
               .integer("id", s.id)
               .integer("parent", s.parent)
               .integer("request", s.request)
               .str("name", s.name)
               .integer("start_ns", static_cast<std::uint64_t>(s.start_ns))
               .integer("end_ns", static_cast<std::uint64_t>(s.end_ns))
               .text()
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// ---- host -----------------------------------------------------------------

/// Peak resident set (VmHWM) of this process in MiB; 0 when unreadable.
double peak_rss_mb();

/// The host block: nproc, SIMD ISA, interseq lanes, kernel release, THP
/// policy, compiler, build type and the clock the GCUPS ceiling uses.
std::string host_block_json();

}  // namespace perfbench
