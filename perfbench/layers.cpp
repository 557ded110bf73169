// The traced run: the benchmark's own code calls each layer's public
// function on the workload's inputs, wraps every call in a span, and
// derives the per-layer metrics and the waterfall (each layer's number
// and its loss against the layer below) from those spans. The layers
// themselves are not instrumented; the run only reads counters and the
// per-query trace ring they already export.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include <unistd.h>

#include "align/sw_interseq.hpp"
#include "align/sw_striped.hpp"
#include "bench.hpp"
#include "core/multiboard.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/fleet_scan.hpp"
#include "host/prefilter.hpp"
#include "host/scan_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/net/client.hpp"
#include "svc/scan_service.hpp"

namespace perfbench {

using namespace swr;

namespace {

constexpr int kSetupReps = 3;
constexpr std::size_t kPingRounds = 200;
constexpr std::size_t kCacheProbes = 50;
constexpr std::size_t kEncodeRounds = 20;
constexpr std::uint64_t kFleetSliceResidues = 200'000;

// Requests replayed through every layer, and how many of them the slow
// single-thread kernel and engine layers see. Sized so a traced run of
// each workload stays near --seconds on a 4-cpu host.
std::size_t replay_count(const Workload& w) {
  if (w.protein) return 8;
  return w.daemon ? 64 : 16;
}
std::size_t kernel_count(const Workload& w) { return w.protein ? 2 : 8; }
align::Score prefilter_threshold(const Workload& w) { return w.protein ? 100 : 40; }

double gcups(std::uint64_t cells, double seconds) {
  return seconds > 0.0 ? static_cast<double>(cells) / seconds / 1e9 : 0.0;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

host::ScanOptions exact_options(std::size_t threads) {
  host::ScanOptions o;
  o.threads = threads;
  return o;
}

}  // namespace

Outcome run_traced(const Workload& w, const Options& opt, Tracer& tracer) {
  Outcome out;
  Tracer::Scope root(tracer, "run");
  const std::size_t threads = nproc();
  const align::Scoring& sc = w.scoring;
  std::vector<Request> reqs;
  for (std::uint64_t k = 0; k < replay_count(w); ++k) reqs.push_back(w.request(k));
  const std::size_t n_kernel = std::min(kernel_count(w), reqs.size());
  const std::uint64_t residues = w.residues();
  Phase ph;
  ph.name = "traced";

  // ---- db: build, open, decode -------------------------------------------
  std::unique_ptr<db::Store> store;
  {
    Tracer::Scope setup(tracer, "db.setup", root.id());
    for (int rep = 0; rep < kSetupReps; ++rep) {
      store.reset();
      const std::string path = store_path(opt, "traced" + std::to_string(rep));
      {
        Tracer::Scope s(tracer, "db.build", setup.id());
        db::build_store(w.records, path);
      }
      Tracer::Scope s(tracer, "db.open", setup.id());
      store = std::make_unique<db::Store>(db::Store::open(path));
    }
  }
  ::sync();  // no writeback of the stores during the timed layers
  out.metric("db.build_s", median(tracer.durations("db.build")), "s");
  out.metric("db.open_ms", median(tracer.durations("db.open")) * 1e3, "ms");
  {
    Tracer::Scope phase(tracer, "db.decode_all", root.id());
    std::vector<seq::Code> scratch;
    std::uint64_t checksum = 0;
    for (int pass = 0; pass < 3; ++pass) {
      Tracer::Scope s(tracer, "db.decode", phase.id());
      for (std::size_t r = 0; r < store->size(); ++r) {
        const std::span<const seq::Code> c = store->codes(r, scratch);
        checksum += c.empty() ? 0 : c[c.size() / 2];
      }
    }
    if (checksum == 0) out.problem("decode pass read nothing");
  }
  const double decode_s = median(tracer.durations("db.decode"));
  out.metric("db.decode_gbps", static_cast<double>(residues) / decode_s / 1e9, "GB/s");

  // ---- align: the kernels alone, one thread ------------------------------
  // The kernels get the records in the store's length-descending schedule
  // order, the order the engine feeds them.
  std::vector<seq::Sequence> scheduled;
  for (const std::uint32_t r : store->schedule_order()) scheduled.push_back(w.records[r]);
  const unsigned lanes = align::sw_interseq_max_lanes();
  std::uint64_t interseq_cells = 0;
  std::uint64_t striped_cells = 0;
  std::uint64_t overflow = 0;
  std::uint64_t attempts = 0;
  {
    Tracer::Scope phase(tracer, "align", root.id());
    for (std::size_t k = 0; k < n_kernel; ++k) {
      const seq::Sequence q(w.alphabet(), reqs[k].query);
      if (lanes != 0) {
        Tracer::Scope s(tracer, "align.interseq", phase.id(), reqs[k].id);
        const auto res = align::sw_interseq_batch(scheduled, q, sc, lanes);
        s.end();
        if (res) interseq_cells += q.size() * residues;
      }
      // The slower striped kernel sees half the queries (at least one).
      if (k >= std::max<std::size_t>(1, n_kernel / 2) || lanes == 0) continue;
      const align::StripedProfile prof(q, sc, lanes);
      align::StripedWorkspace ws;
      Tracer::Scope s(tracer, "align.striped", phase.id(), reqs[k].id);
      for (const seq::Sequence& rec : scheduled) {
        ++attempts;
        if (!align::sw_striped8_try(rec.codes(), prof, ws)) {
          ++overflow;
          (void)align::sw_striped16_try(rec.codes(), prof, ws);
        }
      }
      striped_cells += q.size() * residues;
    }
  }
  const double interseq = gcups(interseq_cells, sum(tracer.durations("align.interseq")));
  out.metric("align.interseq_gcups", interseq, "GCUPS");
  out.metric("align.striped_gcups", gcups(striped_cells, sum(tracer.durations("align.striped"))),
             "GCUPS");
  out.metric("align.overflow_share",
             attempts ? static_cast<double>(overflow) / static_cast<double>(attempts) : 0.0,
             "ratio");

  // ---- host / svc / net, request by request -------------------------------
  // Each request runs through the engine, the in-process service and the
  // daemon back to back, so a layer's loss against the layer below is a
  // per-request difference, not a difference of two separate passes.
  const host::RecordSource src(*store);
  std::uint64_t cells_1t = 0;
  std::uint64_t cells_nt = 0;
  std::uint64_t survivors = 0;
  std::uint64_t filtered = 0;
  std::size_t aligned_hits = 0;
  std::vector<double> svc_loss;
  std::vector<double> net_loss;
  std::vector<svc::ScanResponse> responses;
  obs::Registry net_reg;
  svc::net::ScanServer server(*store, server_config(w, &net_reg));
  {
    std::string err;
    if (!server.start(err)) throw std::runtime_error("server start: " + err);
  }
  svc::net::ScanClient client;
  {
    std::string err;
    if (!client.connect("127.0.0.1", server.port(), err)) throw std::runtime_error(err);
  }
  const svc::ServiceConfig svc_cfg = service_config(w, nullptr);
  {
    Tracer::Scope phase(tracer, "stream", root.id());
    for (std::size_t k = 0; k < n_kernel; ++k) {
      const seq::Sequence q(w.alphabet(), reqs[k].query);
      Tracer::Scope s(tracer, "host.engine_1t", phase.id(), reqs[k].id);
      cells_1t += host::scan_database_cpu(q, *store, sc, exact_options(1)).cell_updates;
    }
    svc::ScanService service(*store, svc_cfg);
    for (const Request& r : reqs) {
      Tracer::Scope rs(tracer, "request", phase.id(), r.id);
      const seq::Sequence q(w.alphabet(), r.query);
      {
        Tracer::Scope s(tracer, "host.engine_nt", rs.id(), r.id);
        cells_nt += host::scan_database_cpu(q, *store, sc, exact_options(threads)).cell_updates;
      }
      {
        host::FilterOptions fo;
        fo.threshold = prefilter_threshold(w);
        host::FilterStats fs;
        Tracer::Scope s(tracer, "host.prefilter", rs.id(), r.id);
        survivors += host::filter_candidates(*store, q, sc, fo, {}, &fs).size();
        filtered += fs.domain;
      }
      {
        host::ScanResult res = host::scan_database_cpu(q, *store, sc, exact_options(threads));
        host::ScanOptions ao = exact_options(threads);
        ao.align = true;
        ao.max_hits = 10;
        Tracer::Scope s(tracer, "retrieve.alignments", rs.id(), r.id);
        host::retrieve_alignments(q, src, sc, ao, res);
        aligned_hits += res.alignments.size();
      }
      // The request as the service runs it (its own filter and align
      // options): the engine layer under svc.query.
      host::ScanOptions o = scan_options(r);
      o.threads = threads;
      Tracer::Scope es(tracer, "host.engine", rs.id(), r.id);
      (void)host::scan_database_cpu(q, *store, sc, o);
      es.end();
      Tracer::Scope ss(tracer, "svc.query", rs.id(), r.id);
      responses.push_back(service.submit(seq::Sequence(q), scan_options(r)).response.get());
      ss.end();
      Tracer::Scope ns(tracer, "net.request", rs.id(), r.id);
      const svc::net::ClientResponse resp = client.scan(wire_request(r));
      ns.end();
      svc_loss.push_back(ss.seconds() - es.seconds());
      net_loss.push_back(ns.seconds() - ss.seconds());
      ++ph.sent;
      if (!resp.ok || responses.back().status != svc::QueryStatus::Done) {
        ++ph.failed;
      } else if (svc::net::encode_response_bytes(svc::net::to_wire(responses.back(), *store),
                                                 r.id) != resp.raw_bytes) {
        ++ph.wrong;
        out.problem("traced request " + std::to_string(r.id) +
                    ": socket bytes differ from the in-process encoding");
      } else {
        ++ph.succeeded;
      }
    }
    // One service chunk at a time: the first query over the store's
    // schedule order in chunk-sized slices.
    const seq::Sequence q(w.alphabet(), reqs.front().query);
    const std::span<const std::uint32_t> order = store->schedule_order();
    for (std::size_t lo = 0; lo < order.size(); lo += svc_cfg.chunk_records) {
      const auto ids = order.subspan(lo, std::min(svc_cfg.chunk_records, order.size() - lo));
      Tracer::Scope s(tracer, "host.chunk", phase.id(), reqs.front().id);
      (void)host::scan_records_cpu(q, src, ids, sc, exact_options(1));
    }
  }
  const obs::Snapshot snap = net_reg.snapshot();
  const double cache_hits = static_cast<double>(snap.counter("svc.cache.result.hits"));
  const double cache_misses = static_cast<double>(snap.counter("svc.cache.result.misses"));

  const double e1 = gcups(cells_1t, sum(tracer.durations("host.engine_1t")));
  const double en = gcups(cells_nt, sum(tracer.durations("host.engine_nt")));
  out.metric("host.engine_gcups_1t", e1, "GCUPS");
  out.metric("host.engine_gcups_nt", en, "GCUPS");
  out.metric("host.engine_loss", interseq > 0.0 ? 1.0 - e1 / interseq : 0.0, "ratio");
  out.metric("host.scale_eff", e1 > 0.0 ? en / (static_cast<double>(threads) * e1) : 0.0,
             "ratio");
  out.metric("host.chunk_ms_p50", median(tracer.durations("host.chunk")) * 1e3, "ms");
  out.metric("host.prefilter_us_p50", median(tracer.durations("host.prefilter")) * 1e6, "us");
  out.metric("host.prefilter_keep_ratio",
             filtered ? static_cast<double>(survivors) / static_cast<double>(filtered) : 0.0,
             "ratio");
  out.metric("retrieve.us_per_hit",
             aligned_hits ? sum(tracer.durations("retrieve.alignments")) * 1e6 /
                                static_cast<double>(aligned_hits)
                          : 0.0,
             "us");

  // ---- svc under load, net probes -----------------------------------------
  std::vector<double> queue_wait;
  {
    Tracer::Scope phase(tracer, "probes", root.id());
    // Queue wait: the requests again, nproc submitters at once, read from
    // the service's own per-query trace ring.
    obs::TraceRing ring(reqs.size() * 2);
    svc::ServiceConfig cfg = svc_cfg;
    cfg.trace = &ring;
    {
      svc::ScanService service(*store, cfg);
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> pool;
      Tracer::Scope s(tracer, "svc.concurrent", phase.id());
      for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
          for (std::size_t k = next++; k < reqs.size(); k = next++) {
            (void)service
                .submit(seq::Sequence(w.alphabet(), reqs[k].query), scan_options(reqs[k]))
                .response.get();
          }
        });
      }
      for (std::thread& t : pool) t.join();
    }
    for (const obs::Span& sp : ring.spans()) queue_wait.push_back(sp.admission_wait);
    for (std::size_t i = 0; i < kPingRounds; ++i) {
      Tracer::Scope s(tracer, "net.ping", phase.id());
      if (!client.ping()) out.problem("ping went unanswered");
    }
    // A served request replayed: the result cache's own latency.
    for (std::size_t i = 0; i < kCacheProbes; ++i) {
      Request r = reqs.front();
      r.id = 1'000'000 + i;
      Tracer::Scope s(tracer, "net.cache_hit", phase.id(), r.id);
      if (!client.scan(wire_request(r)).ok) out.problem("cache probe failed");
    }
    for (std::size_t k = 0; k < responses.size(); ++k) {
      for (std::size_t i = 0; i < kEncodeRounds; ++i) {
        Tracer::Scope s(tracer, "net.encode", phase.id(), reqs[k].id);
        const auto bytes =
            svc::net::encode_response_bytes(svc::net::to_wire(responses[k], *store), reqs[k].id);
        if (bytes.empty()) out.problem("empty encoding");
      }
    }
  }
  client.close();
  server.stop();
  const double svc_p50 = median(tracer.durations("svc.query"));
  const double engine_p50 = median(tracer.durations("host.engine"));
  const double net_p50 = median(tracer.durations("net.request"));
  out.metric("svc.query_p50_ms", svc_p50 * 1e3, "ms");
  out.metric("svc.query_p99_ms", quantile(tracer.durations("svc.query"), 0.99) * 1e3, "ms");
  out.metric("svc.overhead_ms", median(svc_loss) * 1e3, "ms");
  out.metric("svc.queue_wait_p99_ms", quantile(queue_wait, 0.99) * 1e3, "ms");
  out.metric("net.ping_rtt_us", median(tracer.durations("net.ping")) * 1e6, "us");
  out.metric("net.overhead_ms", median(net_loss) * 1e3, "ms");
  out.metric("net.cache_hit_ratio",
             cache_hits + cache_misses > 0 ? cache_hits / (cache_hits + cache_misses) : 0.0,
             "ratio");
  out.metric("net.cache_hit_ms_p50", median(tracer.durations("net.cache_hit")) * 1e3, "ms");
  out.metric("net.encode_us_p50", median(tracer.durations("net.encode")) * 1e6, "us");

  // ---- hw: the board fleet over a slice of the records --------------------
  std::vector<seq::Sequence> slice;
  std::uint64_t slice_res = 0;
  for (const seq::Sequence& r : w.records) {
    if (slice_res + r.size() > kFleetSliceResidues) break;
    slice.push_back(r);
    slice_res += r.size();
  }
  std::uint64_t fleet_cells = 0;
  std::uint64_t board_cycles = 0;
  std::uint64_t stall_cycles = 0;
  {
    Tracer::Scope phase(tracer, "hw", root.id());
    core::BoardFleet one = core::make_board_fleet(fleet_options(1), sc);
    core::BoardFleet four = core::make_board_fleet(fleet_options(4), sc);
    obs::Registry reg;
    for (auto& board : four) board->bind_bus_metrics(&reg);
    for (std::size_t k = 0; k < std::min<std::size_t>(2, reqs.size()); ++k) {
      const seq::Sequence q(w.alphabet(), reqs[k].query);
      host::ScanOptions so = exact_options(1);
      {
        Tracer::Scope s(tracer, "hw.fleet_1", phase.id(), reqs[k].id);
        fleet_cells += host::scan_database_fleet(one, q, slice, so).cell_updates;
      }
      so.threads = threads;
      Tracer::Scope s(tracer, "hw.fleet_4", phase.id(), reqs[k].id);
      board_cycles += host::scan_database_fleet(four, q, slice, so).board_cycles;
    }
    stall_cycles = reg.snapshot().counter("hw.pci.stall_cycles");
  }
  const double f1 = sum(tracer.durations("hw.fleet_1"));
  const double f4 = sum(tracer.durations("hw.fleet_4"));
  out.metric("hw.sim_cells_per_s", f1 > 0.0 ? static_cast<double>(fleet_cells) / f1 : 0.0,
             "cells/s");
  out.metric("hw.fleet_scale_eff", f4 > 0.0 ? f1 / (4.0 * f4) : 0.0, "ratio");
  out.metric("hw.dma_stall_share",
             board_cycles ? static_cast<double>(stall_cycles) / static_cast<double>(board_cycles)
                          : 0.0,
             "ratio");

  // ---- obs: the workload's own call with the layers' instrumentation ----
  // off and on, alternating per request. The instrumented side gets the
  // metrics registry and the per-query trace ring the layers export
  // (svc.*, svc.net.*, svc.cache.*, scan.*, fleet.*, hw.pci.*); the plain
  // side gets neither.
  {
    Tracer::Scope phase(tracer, "obs", root.id());
    obs::Registry reg;
    obs::TraceRing ring(reqs.size() * 2);
    std::function<void(const Request&)> plain;
    std::function<void(const Request&)> instrumented;
    std::unique_ptr<svc::net::ScanServer> plain_server;
    std::unique_ptr<svc::net::ScanServer> obs_server;
    svc::net::ScanClient a;
    svc::net::ScanClient b;
    std::unique_ptr<svc::ScanService> plain_service;
    std::unique_ptr<svc::ScanService> obs_service;
    core::BoardFleet fleet;
    if (w.daemon) {
      // Two fresh daemons, one per side, so both see the same cache history.
      svc::net::ServerConfig on = server_config(w, &reg);
      on.service.trace = &ring;
      plain_server = std::make_unique<svc::net::ScanServer>(*store, server_config(w, nullptr));
      obs_server = std::make_unique<svc::net::ScanServer>(*store, on);
      std::string err;
      if (!plain_server->start(err) || !obs_server->start(err) ||
          !a.connect("127.0.0.1", plain_server->port(), err) ||
          !b.connect("127.0.0.1", obs_server->port(), err)) {
        throw std::runtime_error("obs daemons: " + err);
      }
      plain = [&](const Request& r) { (void)a.scan(wire_request(r)); };
      instrumented = [&](const Request& r) { (void)b.scan(wire_request(r)); };
    } else if (w.protein) {
      svc::ServiceConfig on = svc_cfg;
      on.metrics = &reg;
      on.trace = &ring;
      plain_service = std::make_unique<svc::ScanService>(*store, svc_cfg);
      obs_service = std::make_unique<svc::ScanService>(*store, on);
      auto call = [&](svc::ScanService& s, const Request& r) {
        (void)s.submit(seq::Sequence(w.alphabet(), r.query), scan_options(r)).response.get();
      };
      plain = [&, call](const Request& r) { call(*plain_service, r); };
      instrumented = [&, call](const Request& r) { call(*obs_service, r); };
    } else {
      // One fleet for both sides, its metrics bound per call: two fleet
      // objects built alike, neither instrumented, ran up to 60% apart.
      fleet = core::make_board_fleet(fleet_options(4), sc);
      auto call = [&](const Request& r, obs::Registry* metrics) {
        for (auto& board : fleet) board->bind_bus_metrics(metrics);
        host::ScanOptions so = exact_options(threads);
        so.metrics = metrics;
        (void)host::scan_database_fleet(fleet, seq::Sequence(w.alphabet(), r.query), *store, so);
      };
      plain = [&, call](const Request& r) { call(r, nullptr); };
      instrumented = [&, call](const Request& r) { call(r, &reg); };
    }
    const std::size_t n = w.daemon ? reqs.size() : n_kernel;
    for (std::size_t k = 0; k < n; ++k) {
      {
        Tracer::Scope s(tracer, "obs.plain", phase.id(), reqs[k].id);
        plain(reqs[k]);
      }
      Tracer::Scope s(tracer, "obs.instrumented", phase.id(), reqs[k].id);
      instrumented(reqs[k]);
    }
    if (reg.snapshot().counters.empty()) out.problem("the instrumented side recorded no metrics");
  }
  const double plain_p50 = median(tracer.durations("obs.plain"));
  const double instrumented_p50 = median(tracer.durations("obs.instrumented"));
  out.metric("obs.trace_overhead", plain_p50 > 0.0 ? instrumented_p50 / plain_p50 - 1.0 : 0.0,
             "ratio");
  root.end();
  out.phases.push_back(ph);

  // ---- the waterfall ------------------------------------------------------
  auto value = [&](const char* name) {
    for (const Metric& m : out.metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  auto line = [&](const std::string& s) { out.lines.push_back(s); };
  line("layer waterfall (" + std::to_string(reqs.size()) + " requests, each through every "
       "layer in turn; " + std::to_string(threads) + " threads):");
  line(fmt("  net    daemon, 1 connection  p50 %9.3f ms   loss vs svc    %+9.3f ms",
           net_p50 * 1e3, value("net.overhead_ms")));
  line(fmt("  svc    in-process service    p50 %9.3f ms   loss vs host   %+9.3f ms",
           svc_p50 * 1e3, value("svc.overhead_ms")));
  line(fmt("  host   engine, %zu threads     p50 %9.3f ms   %.3f GCUPS, scale_eff %.3f", threads,
           engine_p50 * 1e3, value("host.engine_gcups_nt"), value("host.scale_eff")));
  line(fmt("  host   engine, 1 thread            %9.3f GCUPS  loss vs kernel %+9.3f",
           value("host.engine_gcups_1t"), value("host.engine_loss")));
  line(fmt("  align  interseq alone, 1 thread    %9.3f GCUPS  striped %.3f GCUPS",
           value("align.interseq_gcups"), value("align.striped_gcups")));
  line(fmt("  db     decode, %-7s             %9.3f GB/s",
           store->encoding() == db::Encoding::Packed2 ? "packed2" : "raw8",
           value("db.decode_gbps")));
  line(fmt("  hw     1 board, 1 thread           %9.3g cells/s  4-board scale_eff %.3f",
           value("hw.sim_cells_per_s"), value("hw.fleet_scale_eff")));
  line("span totals and self times (s):");
  for (const Tracer::Totals& t : tracer.totals()) {
    line(fmt("  %-22s n %5zu  total %9.4f  self %9.4f", t.name.c_str(), t.count, t.total_s,
             t.self_s));
  }
  return out;
}

}  // namespace perfbench
