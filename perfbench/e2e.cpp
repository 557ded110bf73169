// End-to-end runs (tracing off): each workload driven the way its users
// drive the system, timed from the outside, with every answer checked.
#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <sys/prctl.h>
#include <unistd.h>

#include "bench.hpp"
#include "core/multiboard.hpp"
#include "core/performance_model.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/fleet_scan.hpp"
#include "host/scan_engine.hpp"
#include "svc/net/client.hpp"
#include "svc/scan_service.hpp"

namespace perfbench {

using namespace swr;

namespace {

// Set-ups per run; setup_s is the fastest.
constexpr int kDaemonSetupReps = 9;
constexpr int kProteinSetupReps = 3;
constexpr int kFleetSetupReps = 11;
constexpr std::size_t kParitySamples = 64;
constexpr double kOpenLoopShare = 0.6;  // of --seconds; the rest is the capacity phase

// Open-loop offered load, fixed here so a later build is offered the same
// traffic: about a third of dna_unique's capacity on a 4-cpu host when the
// benchmark was written. Requests queue FIFO behind each other, and at
// half or two thirds of capacity a host phase running 20-30% slower
// stacked whole service times and moved p95 from 20 to 35 ms.
constexpr double kOpenLoopRps = 25.0;

// The tail percentile each workload reports (not a registered metric: on
// a shared 4-cpu VM it swung by up to two thirds between sets of runs).
// Each keeps at least ten samples beyond it at the request counts a
// --seconds 20 run produces on that host: p75 of ~80 protein queries, p90
// of ~120 fleet queries, p95 of the daemon's 300 open-loop requests.
double tail_quantile(const Workload& w) {
  if (w.daemon) return 0.95;
  return w.protein ? 0.75 : 0.90;
}

// Latency block shared by every workload: p50 and the workload's tail
// percentile, with the sample count. p99 is reported only when at least
// ten samples lie beyond it.
void latency_metrics(Outcome& out, const Workload& w, const std::vector<double>& lat_s,
                     const char* what) {
  const double q = tail_quantile(w);
  const double p50 = quantile(lat_s, 0.5) * 1e3;
  const double tail = quantile(lat_s, q) * 1e3;
  const double beyond = static_cast<double>(lat_s.size()) * (1.0 - q);
  out.metric("lat_p50_ms", p50, "ms");
  JsonObject block;
  block.str("timed", what)
      .integer("samples", lat_s.size())
      .num("p50_ms", p50)
      .num("tail_quantile", q)
      .num("tail_ms", tail)
      .boolean("tail_supported", beyond >= 10.0);
  if (static_cast<double>(lat_s.size()) * 0.01 >= 10.0) {
    block.num("p99_ms", quantile(lat_s, 0.99) * 1e3);
  }
  out.detail.raw("latency", block.text());
  out.lines.push_back("latency (" + std::string(what) + "): " + std::to_string(lat_s.size()) +
                      " samples, p50 " + fmt("%.3f ms, p%g ", p50, q * 100) +
                      fmt("%.3f ms", tail) +
                      (beyond >= 10.0 ? "" : " -- fewer than ten samples beyond the tail"));
}

// Cells the program reported against Σ|q| of the same requests: the
// checker recomputes Σ|q|·Σ|r| from the workload and compares.
void cells_block(Outcome& out, std::uint64_t cells, std::uint64_t query_residues,
                 double seconds) {
  out.detail.raw("cells", JsonObject()
                              .integer("cells", cells)
                              .integer("query_residues", query_residues)
                              .num("seconds", seconds)
                              .text());
  out.metric("scan_gcups", static_cast<double>(cells) / seconds / 1e9, "GCUPS");
}

// Starts one timed set-up. Dirty pages left by earlier set-ups are
// written back first, so the kernel's writeback of one store does not
// land in the next set-up's time.
Clock::time_point setup_start() {
  ::sync();
  return Clock::now();
}

// Records setup_s as the fastest of the set-ups: each repeats the same
// work, so the minimum is its cost with the least interference from the
// rest of the host. Then writes the last store's dirty pages back, so
// writeback does not run during the timed phases.
void setup_metric(Outcome& out, const std::vector<double>& s) {
  ::sync();
  const double fastest = *std::min_element(s.begin(), s.end());
  out.metric("setup_s", fastest, "s");
  out.lines.push_back("setup: fastest of " + std::to_string(s.size()) + " set-ups " +
                      fmt("%.4f s (median %.4f, max %.4f)", fastest, median(s),
                          *std::max_element(s.begin(), s.end())));
}

// ---- daemon workloads -----------------------------------------------------

struct Exchange {
  Request req;
  double latency_s = 0.0;
  bool ok = false;
  bool refused = false;
  std::uint64_t cells = 0;
  std::string problem;
  std::vector<std::uint8_t> raw;  // kept for the parity sample only
};

bool parity_sampled(const Request& r) { return r.planted.has_value() || r.id % 16 == 0; }

Exchange exchange(svc::net::ScanClient& client, const Request& req, Clock::time_point due) {
  Exchange x;
  x.req = req;
  svc::net::ClientResponse resp = client.scan(wire_request(req));
  x.latency_s = std::chrono::duration<double>(Clock::now() - due).count();
  x.ok = resp.ok;
  for (const auto& e : resp.errors) {
    if (e.code == svc::net::ErrorCode::Shed || e.code == svc::net::ErrorCode::Overloaded) {
      x.refused = true;
    }
  }
  if (!resp.ok) return x;
  x.cells = resp.done.cell_updates;
  if (resp.done.status != 0) {
    x.problem = "request " + std::to_string(req.id) + " ended with status " +
                std::to_string(resp.done.status);
  } else if (req.planted) {
    const svc::net::WireHit* top = resp.hits.empty() ? nullptr : &resp.hits.front();
    x.problem = planted_mismatch(req, top ? top->record : 0, top ? top->score : 0,
                                 top ? top->end_i : 0, top ? top->end_j : 0, resp.hits.size());
  }
  if (parity_sampled(req)) x.raw = std::move(resp.raw_bytes);
  return x;
}

// Per-phase request accounting. Exchanges are not kept, except the first
// parity samples and any whose output check failed.
struct Tally {
  Phase phase;
  // Closed loops: completions per one-second window from the phase start
  // (fixed size, so memory does not grow with throughput), their total,
  // and the time of the last one.
  std::vector<double> windows;
  std::uint64_t completed = 0;
  double last_finish_s = 0.0;
  // Σ cells and Σ|q| of the timed requests (all distinct on dna_unique).
  std::uint64_t cells = 0;
  std::uint64_t query_residues = 0;
  std::vector<Exchange> kept;
  std::size_t samples = 0;

  /// `timed`: the exchange completed inside its phase's window, so its
  /// cells count towards the phase's throughput.
  void add(Exchange&& x, bool timed = true) {
    ++phase.sent;
    if (!x.problem.empty()) {
      ++phase.wrong;
    } else if (x.refused) {
      ++phase.refused;
    } else if (!x.ok) {
      ++phase.failed;
    } else {
      ++phase.succeeded;
    }
    if (timed && x.ok) {
      cells += x.cells;
      query_residues += x.req.query.size();
    }
    if (!x.problem.empty() || (x.ok && !x.raw.empty() && samples++ < kParitySamples)) {
      kept.push_back(std::move(x));
    }
  }
  void merge(Tally&& o) {
    phase.sent += o.phase.sent;
    phase.succeeded += o.phase.succeeded;
    phase.failed += o.phase.failed;
    phase.refused += o.phase.refused;
    phase.wrong += o.phase.wrong;
    windows.resize(std::max(windows.size(), o.windows.size()), 0.0);
    for (std::size_t k = 0; k < o.windows.size(); ++k) windows[k] += o.windows[k];
    completed += o.completed;
    last_finish_s = std::max(last_finish_s, o.last_finish_s);
    cells += o.cells;
    query_residues += o.query_residues;
    for (Exchange& x : o.kept) kept.push_back(std::move(x));
  }
};

using Clients = std::vector<std::unique_ptr<svc::net::ScanClient>>;

// Closed loop: every connection sends its next request as soon as the
// previous one returns, until `end` passes. Only requests completed by
// `end` count; `window_s` one-second windows of completions are kept.
Tally closed_loop(Clients& clients, const std::function<Request()>& next,
                  Clock::time_point end, std::size_t window_s, const char* name) {
  Tally all;
  all.phase.name = name;
  std::mutex mu;
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, c = clients[i].get()] {
      Tally mine;
      mine.windows.assign(window_s, 0.0);
      while (Clock::now() < end) {
        Request req;
        {
          const std::lock_guard<std::mutex> lock(mu);
          req = next();
        }
        Exchange x = exchange(*c, req, Clock::now());
        const auto finished = Clock::now();
        const bool timed = finished <= end;
        if (timed && x.ok && x.problem.empty()) {
          const double at = std::chrono::duration<double>(finished - t0).count();
          const auto k = static_cast<std::size_t>(at);
          if (k < mine.windows.size()) mine.windows[k] += 1.0;
          ++mine.completed;
          mine.last_finish_s = at;
        }
        mine.add(std::move(x), timed);
      }
      const std::lock_guard<std::mutex> lock(mu);
      all.merge(std::move(mine));
    });
  }
  for (std::thread& t : threads) t.join();
  return all;
}

// Completions per second over the one-second windows of a closed loop,
// the slowest and the fastest window dropped: a stall in one window does
// not move it. Below three windows, the plain rate.
double trimmed_window_rate(std::vector<double> windows, const Tally& t) {
  if (windows.size() < 3) return static_cast<double>(t.completed) / t.last_finish_s;
  std::sort(windows.begin(), windows.end());
  double sum = 0.0;
  for (std::size_t k = 1; k + 1 < windows.size(); ++k) sum += windows[k];
  return sum / static_cast<double>(windows.size() - 2);
}

struct Daemon {
  std::unique_ptr<db::Store> store;
  std::unique_ptr<svc::net::ScanServer> server;  // declared after: destroyed first
};

Outcome run_daemon(const Workload& w, const Options& opt) {
  Outcome out;
  const svc::net::ServerConfig cfg = server_config(w, nullptr);

  std::vector<double> setup;
  Daemon d;
  for (int rep = 0; rep < kDaemonSetupReps; ++rep) {
    d.server.reset();  // before the store it serves
    d.store.reset();
    if (rep > 0) std::remove(store_path(opt, "setup" + std::to_string(rep - 1)).c_str());
    const std::string path = store_path(opt, "setup" + std::to_string(rep));
    const auto t0 = setup_start();
    db::build_store(w.records, path);
    d.store = std::make_unique<db::Store>(db::Store::open(path));
    d.server = std::make_unique<svc::net::ScanServer>(*d.store, cfg);
    std::string err;
    if (!d.server->start(err)) throw std::runtime_error("server start: " + err);
    setup.push_back(seconds_since(t0));
  }
  setup_metric(out, setup);

  auto connect = [](const svc::net::ScanServer& server) {
    Clients clients;
    for (std::size_t c = 0; c < nproc(); ++c) {
      clients.push_back(std::make_unique<svc::net::ScanClient>());
      std::string err;
      if (!clients.back()->connect("127.0.0.1", server.port(), err)) {
        throw std::runtime_error("connect: " + err);
      }
    }
    return clients;
  };
  std::vector<Tally> tallies;
  Clients clients = connect(*d.server);

  // Open loop: request k is due at t0 + k/rate whatever the system is
  // doing; latency runs from the due time, so a stall charges every
  // request queued behind it.
  const double rate = kOpenLoopRps;
  const double open_s = opt.seconds * kOpenLoopShare;
  const auto k_max = static_cast<std::uint64_t>(open_s * rate);
  // Per-request slots, allocated before the loop so memory does not depend
  // on how the requests fell to the threads. Latency NaN: failed. Lateness:
  // how long after its due time each request was sent, whether its sender
  // woke late or was still busy with an earlier request.
  std::vector<double> latency_s(k_max, std::numeric_limits<double>::quiet_NaN());
  std::vector<double> lag_s(k_max, 0.0);
  {
    Tally open;
    open.phase.name = "open_loop";
    std::mutex mu;
    std::atomic<std::uint64_t> next{0};
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      threads.emplace_back([&, c = clients[i].get()] {
        // Timed sleeps with 1 ns slack instead of the default 50 us.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        Tally mine;
        for (std::uint64_t k = next++; k < k_max; k = next++) {
          const Request req = w.request(k);
          const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(static_cast<double>(k) / rate));
          if (Clock::now() < due) std::this_thread::sleep_until(due);
          lag_s[k] = std::chrono::duration<double>(Clock::now() - due).count();
          Exchange x = exchange(*c, req, due);
          if (x.ok && x.problem.empty()) latency_s[k] = x.latency_s;
          mine.add(std::move(x));
        }
        const std::lock_guard<std::mutex> lock(mu);
        open.merge(std::move(mine));
      });
    }
    for (std::thread& t : threads) t.join();
    tallies.push_back(std::move(open));
  }

  // Capacity: closed loop, one request outstanding per connection, the
  // stream continuing where the open loop stopped.
  const double cap_s = opt.seconds - open_s;
  {
    std::uint64_t k = k_max;
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(cap_s));
    tallies.push_back(closed_loop(
        clients, [&] { return w.request(k++); }, end,
        static_cast<std::size_t>(cap_s), "capacity"));
  }
  clients.clear();

  // Parity: sampled socket bytes against the in-process encoding of the
  // same request through a ScanService on the same store.
  std::size_t checked = 0;
  {
    svc::ScanService reference(*d.store, cfg.service);
    for (Tally& t : tallies) {
      std::sort(t.kept.begin(), t.kept.end(),
                [](const Exchange& a, const Exchange& b) { return a.req.id < b.req.id; });
      for (Exchange& x : t.kept) {
        if (!x.problem.empty() || checked >= kParitySamples) continue;
        ++checked;
        seq::Sequence q(d.store->alphabet(), x.req.query);
        const svc::ScanResponse resp =
            reference.submit(std::move(q), scan_options(x.req)).response.get();
        if (svc::net::encode_response_bytes(svc::net::to_wire(resp, *d.store), x.req.id) !=
            x.raw) {
          x.problem = "request " + std::to_string(x.req.id) +
                      ": socket bytes differ from the in-process ScanService encoding";
          --t.phase.succeeded;
          ++t.phase.wrong;
        }
      }
    }
  }
  for (const Tally& t : tallies) {
    for (const Exchange& x : t.kept) {
      if (!x.problem.empty()) out.problem(x.problem);
    }
    out.phases.push_back(t.phase);
  }

  auto measured = [](const std::vector<double>& v) {
    std::vector<double> out;
    std::copy_if(v.begin(), v.end(), std::back_inserter(out), [](double x) { return !std::isnan(x); });
    return out;
  };
  latency_s = measured(latency_s);
  latency_metrics(out, w, latency_s,
                  "open loop, from each request's due time to its Done frame");
  const Tally& cap = tallies.back();
  out.metric("capacity_rps", trimmed_window_rate(cap.windows, cap), "1/s");
  out.detail.raw("capacity_windows",
                 json_array(std::vector<std::uint64_t>(cap.windows.begin(), cap.windows.end())));
  cells_block(out, cap.cells, cap.query_residues, cap.last_finish_s);

  // The generator fell behind when its requests leave after the next one
  // was due: beyond one interval between requests the offered schedule no
  // longer holds. Shorter lateness is charged to latency, which runs from
  // the due time. A limit of a few ms would measure the host: on a shared
  // VM, stalls of the whole VM delay 1-5% of wake-ups by 5-25 ms, for a
  // spinning sender as for a sleeping one.
  const double lag_limit_ms = 1e3 / rate;
  const double lag_p99 = quantile(lag_s, 0.99) * 1e3;
  const bool valid = !lag_s.empty() && lag_p99 <= lag_limit_ms;
  out.detail.raw("open_loop", JsonObject()
                                  .num("rate_rps", rate)
                                  .num("seconds", open_s)
                                  .integer("due", k_max)
                                  .num("gen_lag_p99_ms", lag_p99)
                                  .integer("gen_lag_samples", lag_s.size())
                                  .boolean("valid", valid)
                                  .text());
  out.lines.push_back("open loop: " + fmt("%.0f req/s for %.1f s", rate, open_s) +
                      ", generator lateness p99 " +
                      fmt("%.3f ms (limit %.0f ms)", lag_p99, lag_limit_ms) +
                      (valid ? " (valid)" : " -- INVALID: the generator fell behind"));
  out.lines.push_back("capacity: " + std::to_string(nproc()) + " connections closed loop, " +
                      std::to_string(cap.completed) + " completed in " +
                      fmt("%.1f s; mean of one-second windows without the slowest and fastest", cap_s));
  out.lines.push_back("output checks: " + std::to_string(checked) +
                      " responses byte-compared with an in-process ScanService, planted "
                      "homologs checked on every planted request");
  return out;
}

// ---- protein batch --------------------------------------------------------

Outcome run_protein(const Workload& w, const Options& opt) {
  Outcome out;
  const svc::ServiceConfig cfg = service_config(w, nullptr);
  std::vector<double> setup;
  std::unique_ptr<db::Store> store;
  std::unique_ptr<svc::ScanService> service;
  for (int rep = 0; rep < kProteinSetupReps; ++rep) {
    service.reset();
    store.reset();
    const std::string path = store_path(opt, "setup" + std::to_string(rep));
    const auto t0 = setup_start();
    db::build_store(w.records, path);
    store = std::make_unique<db::Store>(db::Store::open(path));
    service = std::make_unique<svc::ScanService>(*store, cfg);
    setup.push_back(seconds_since(t0));
    if (rep + 1 < kProteinSetupReps) std::remove(path.c_str());
  }
  setup_metric(out, setup);

  struct Done {
    Request req;
    double latency_s = 0.0;
    double finished_s = 0.0;  // from the loop start
    bool in_window = false;
    svc::ScanResponse resp;
  };
  std::mutex mu;
  std::vector<Done> done;
  std::atomic<std::uint64_t> next{0};
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(opt.seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < nproc(); ++c) {
      threads.emplace_back([&] {
        while (Clock::now() < end) {
          Done x;
          x.req = w.request(next++);
          seq::Sequence q(store->alphabet(), x.req.query);
          const auto sent = Clock::now();
          x.resp = service->submit(std::move(q), scan_options(x.req)).response.get();
          x.latency_s = seconds_since(sent);
          x.finished_s = seconds_since(t0);
          x.in_window = Clock::now() <= end;
          const std::lock_guard<std::mutex> lock(mu);
          done.push_back(std::move(x));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::sort(done.begin(), done.end(),
            [](const Done& a, const Done& b) { return a.req.id < b.req.id; });

  Phase ph;
  ph.name = "closed_loop";
  std::vector<double> lat;
  std::uint64_t cells = 0;
  std::uint64_t qres = 0;
  std::uint64_t in_window = 0;
  double span = 0.0;  // loop start to the last completion inside the window
  std::size_t scalar_checked = 0;
  for (Done& x : done) {
    ++ph.sent;
    const host::ScanResult& r = x.resp.result;
    std::string problem;
    if (x.resp.status != svc::QueryStatus::Done) {
      ++ph.failed;
      continue;
    }
    if (x.req.planted) {
      const host::Hit* top = r.hits.empty() ? nullptr : &r.hits.front();
      problem = planted_mismatch(
          x.req, top ? static_cast<std::uint32_t>(top->record) : 0, top ? top->result.score : 0,
          top ? static_cast<std::uint32_t>(top->result.end.i) : 0,
          top ? static_cast<std::uint32_t>(top->result.end.j) : 0, r.hits.size());
    }
    if (problem.empty() && r.alignments.size() != std::min<std::size_t>(r.hits.size(), 10)) {
      problem = "request " + std::to_string(x.req.id) + ": " +
                std::to_string(r.alignments.size()) + " alignments for " +
                std::to_string(r.hits.size()) + " hits";
    }
    // Sampled hits against the 1-thread scalar kernel: every reported hit
    // rescored exactly, and no record of a random sample may outrank the
    // last reported hit.
    if (problem.empty() && scalar_checked < 2) {
      ++scalar_checked;
      std::vector<std::uint32_t> ids;
      for (const host::Hit& h : r.hits) ids.push_back(static_cast<std::uint32_t>(h.record));
      for (std::uint32_t s = 0; s < 256; ++s) {
        ids.push_back(static_cast<std::uint32_t>((x.req.id * 7919 + s * 93) % store->size()));
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      host::ScanOptions so = scan_options(x.req);
      so.align = false;
      so.simd_policy = host::SimdPolicy::Scalar;
      so.top_k = ids.size();
      const host::ScanResult ref =
          host::scan_records_cpu(seq::Sequence(store->alphabet(), x.req.query),
                                 host::RecordSource(*store), ids, w.scoring, so);
      for (std::size_t h = 0; h < r.hits.size() && problem.empty(); ++h) {
        if (h >= ref.hits.size() || ref.hits[h].record != r.hits[h].record ||
            ref.hits[h].result.score != r.hits[h].result.score ||
            !(ref.hits[h].result.end == r.hits[h].result.end)) {
          problem = "request " + std::to_string(x.req.id) + ": hit " + std::to_string(h + 1) +
                    " differs from the 1-thread scalar scan";
        }
      }
    }
    if (!problem.empty()) {
      ++ph.wrong;
      out.problem(problem);
      continue;
    }
    ++ph.succeeded;
    lat.push_back(x.latency_s);
    if (x.in_window) {
      ++in_window;
      span = std::max(span, x.finished_s);
      cells += r.cell_updates;
      qres += x.req.query.size();
    }
  }
  out.phases.push_back(ph);
  latency_metrics(out, w, lat, "closed loop, submit to resolve");
  // Every workload reports every registered metric; here capacity_rps is
  // the closed loop's completion rate, a fixed multiple of scan_gcups.
  out.metric("capacity_rps", static_cast<double>(in_window) / span, "1/s");
  cells_block(out, cells, qres, span);
  out.lines.push_back("closed loop: " + std::to_string(nproc()) + " queries in flight, " +
                      std::to_string(in_window) + " completed in " + fmt("%.1f s", opt.seconds));
  out.lines.push_back("output checks: planted homologs on every planted query, " +
                      std::to_string(scalar_checked) +
                      " queries' hits against a 1-thread scalar scan");
  return out;
}

// ---- board fleet ----------------------------------------------------------

Outcome run_fleet(const Workload& w, const Options& opt) {
  Outcome out;
  std::vector<double> setup;
  std::unique_ptr<db::Store> store;
  core::BoardFleet fleet;
  for (int rep = 0; rep < kFleetSetupReps; ++rep) {
    fleet.clear();
    store.reset();
    const std::string path = store_path(opt, "setup" + std::to_string(rep));
    const auto t0 = setup_start();
    db::build_store(w.records, path);
    store = std::make_unique<db::Store>(db::Store::open(path));
    fleet = core::make_board_fleet(fleet_options(4), w.scoring);
    setup.push_back(seconds_since(t0));
    if (rep + 1 < kFleetSetupReps) std::remove(path.c_str());
  }
  setup_metric(out, setup);

  struct Done {
    Request req;
    double latency_s = 0.0;
    host::ScanResult result;
  };
  std::vector<Done> done;
  host::ScanOptions so;
  so.threads = nproc();
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(opt.seconds));
  for (std::uint64_t k = 0; Clock::now() < end; ++k) {
    Done x;
    x.req = w.request(k);
    const seq::Sequence q(store->alphabet(), x.req.query);
    const auto sent = Clock::now();
    x.result = host::scan_database_fleet(fleet, q, *store, so);
    x.latency_s = seconds_since(sent);
    done.push_back(std::move(x));
  }
  const double wall = seconds_since(t0);

  Phase ph;
  ph.name = "sequential";
  std::vector<double> lat;
  std::uint64_t cells = 0;
  std::uint64_t qres = 0;
  for (const Done& x : done) {
    ++ph.sent;
    const seq::Sequence q(store->alphabet(), x.req.query);
    const host::ScanResult cpu = host::scan_database_cpu(q, *store, w.scoring, so);
    std::uint64_t predicted = 0;
    for (std::size_t r = 0; r < store->size(); ++r) {
      if (store->length(r) == 0) continue;
      predicted += core::predict_cycles(q.size(), store->length(r), 100, true).total_cycles;
    }
    std::string problem;
    const host::ScanResult& b = x.result;
    if (b.hits.size() != cpu.hits.size()) problem = "hit count differs from scan_database_cpu";
    for (std::size_t h = 0; h < b.hits.size() && problem.empty(); ++h) {
      if (b.hits[h].record != cpu.hits[h].record ||
          b.hits[h].result.score != cpu.hits[h].result.score ||
          !(b.hits[h].result.end == cpu.hits[h].result.end)) {
        problem = "hit " + std::to_string(h + 1) + " differs from scan_database_cpu";
      }
    }
    if (problem.empty() && b.board_cycles != predicted) {
      problem = "measured cycles " + std::to_string(b.board_cycles) +
                " != performance_model prediction " + std::to_string(predicted);
    }
    if (problem.empty() && x.req.planted) {
      const host::Hit* top = b.hits.empty() ? nullptr : &b.hits.front();
      problem = planted_mismatch(
          x.req, top ? static_cast<std::uint32_t>(top->record) : 0, top ? top->result.score : 0,
          top ? static_cast<std::uint32_t>(top->result.end.i) : 0,
          top ? static_cast<std::uint32_t>(top->result.end.j) : 0, b.hits.size());
    }
    if (!problem.empty()) {
      ++ph.wrong;
      out.problem("request " + std::to_string(x.req.id) + ": " + problem);
      continue;
    }
    ++ph.succeeded;
    lat.push_back(x.latency_s);
    cells += b.cell_updates;
    qres += x.req.query.size();
  }
  out.phases.push_back(ph);
  latency_metrics(out, w, lat, "queries in sequence, call to return");
  // As on protein_batch: the completion rate, a fixed multiple of scan_gcups.
  out.metric("capacity_rps", static_cast<double>(done.size()) / wall, "1/s");
  cells_block(out, cells, qres, wall);
  out.lines.push_back("fleet: 4 x xc2vp70 boards, 100 PEs, event scheduler, DMA bus model, " +
                      std::to_string(so.threads) + " threads; " + std::to_string(done.size()) +
                      " queries in " + fmt("%.2f s", wall));
  out.lines.push_back(
      "output checks: every query's hits against scan_database_cpu and its cycles against "
      "core::predict_cycles");
  return out;
}

}  // namespace

Outcome run_end_to_end(const Workload& w, const Options& opt) {
  Outcome out = w.daemon ? run_daemon(w, opt)
                : w.protein ? run_protein(w, opt)
                            : run_fleet(w, opt);
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
