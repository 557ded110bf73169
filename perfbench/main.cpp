// perfbench: runs one workload of the layer benchmark and prints
// a report, its last line one JSON object for run.py's checker.
//
//   perfbench --workload dna_unique --seed 1 --seconds 10 --trace 0 --work DIR
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the traced layer waterfall and writes its spans to --spans.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace perfbench {

using namespace swr;

svc::ServiceConfig service_config(const Workload& w, obs::Registry* metrics) {
  svc::ServiceConfig cfg;
  cfg.cpu_workers = nproc();
  cfg.max_inflight = nproc();
  cfg.queue_capacity = 64;
  cfg.chunk_records = 256;
  cfg.scoring = w.scoring;
  cfg.metrics = metrics;
  return cfg;
}

svc::net::ServerConfig server_config(const Workload& w, obs::Registry* metrics) {
  svc::net::ServerConfig cfg;
  cfg.service = service_config(w, metrics);
  cfg.result_cache_bytes = std::size_t{512} << 10;
  cfg.metrics = metrics;
  return cfg;
}

core::FleetOptions fleet_options(std::size_t boards) {
  core::FleetOptions f;
  f.device = "xc2vp70";
  f.boards = boards;
  f.pes_per_board = 100;
  f.sched = hw::SchedMode::Event;
  f.model_bus = true;
  return f;
}

svc::net::WireRequest wire_request(const Request& r) {
  svc::net::WireRequest req;
  req.request_id = r.id;
  req.query = r.query;
  req.top_k = r.top_k;
  req.align = r.align ? 1 : 0;
  req.max_hits = r.max_hits;
  return req;
}

host::ScanOptions scan_options(const Request& r) {
  host::ScanOptions opt;
  opt.top_k = r.top_k;
  opt.align = r.align;
  opt.max_hits = r.max_hits;
  return opt;
}

std::string planted_mismatch(const Request& r, std::uint32_t record, std::int32_t score,
                             std::uint32_t end_i, std::uint32_t end_j, std::size_t hits) {
  const Planted& p = *r.planted;
  if (hits != 0 && record == p.record && score == p.score && end_i == p.end_i &&
      end_j == p.end_j) {
    return {};
  }
  return "request " + std::to_string(r.id) + ": planted homolog (record " +
         std::to_string(p.record) + ", score " + std::to_string(p.score) + ", end " +
         std::to_string(p.end_i) + "," + std::to_string(p.end_j) + ") not ranked first; got " +
         (hits == 0 ? std::string("no hits")
                    : "record " + std::to_string(record) + ", score " + std::to_string(score) +
                          ", end " + std::to_string(end_i) + "," + std::to_string(end_j));
}

std::string store_path(const Options& opt, const std::string& tag) {
  return opt.work_dir + "/" + opt.workload + "-" + tag + ".swdb";
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work DIR [--spans FILE]\n",
               why);
  return 2;
}

std::string render(const Options& opt, const Workload& w, const Outcome& out) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string phases = "[";
  for (const Phase& p : out.phases) {
    attempted += p.sent;
    failed += p.failed + p.refused + p.wrong;
    phases += (phases.size() > 1 ? ", " : "") + JsonObject()
                                                    .str("name", p.name)
                                                    .integer("sent", p.sent)
                                                    .integer("succeeded", p.succeeded)
                                                    .integer("failed", p.failed)
                                                    .integer("refused", p.refused)
                                                    .integer("wrong", p.wrong)
                                                    .text();
  }
  phases += "]";
  std::vector<std::uint64_t> lengths;
  for (const auto& r : w.records) lengths.push_back(r.size());
  JsonObject metrics;
  for (const Metric& m : out.metrics) {
    metrics.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit).text());
  }
  std::string problems = "[";
  for (const std::string& p : out.problems) {
    problems += (problems.size() > 1 ? ", " : "") + JsonObject::quote(p);
  }
  problems += "]";
  JsonObject report = out.detail;
  return report.str("workload", opt.workload)
      .integer("seed", opt.seed)
      .integer("trace", opt.trace ? 1 : 0)
      .num("run_seconds", opt.seconds)
      .raw("host", host_block_json())
      .raw("shape", JsonObject()
                        .integer("records", w.records.size())
                        .raw("record_lengths", json_array(lengths))
                        .text())
      .raw("phases", phases)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .num("failed_share",
           attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0)
      .raw("problems", problems)
      .raw("metrics", metrics.text())
      .text();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = v == "1";
      } else if (a == "--work") {
        opt.work_dir = v;
      } else if (a == "--spans") {
        spans_path = v;
      } else {
        return usage(("unknown option " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  try {
    std::filesystem::create_directories(opt.work_dir);
    const Workload w = make_workload(opt.workload, opt.seed);
    Tracer tracer(opt.trace);
    const Outcome out = opt.trace ? run_traced(w, opt, tracer) : run_end_to_end(w, opt);
    std::cout << "workload " << opt.workload << ", seed " << opt.seed << ", "
              << (opt.trace ? "traced layer run" : "end-to-end run, tracing off") << "\n";
    for (const std::string& line : out.lines) std::cout << line << "\n";
    for (const std::string& p : out.problems) std::cout << "OUTPUT CHECK FAILED: " << p << "\n";
    if (opt.trace && !spans_path.empty()) {
      if (!tracer.write(spans_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
        return 1;
      }
      std::cout << tracer.size() << " spans written to " << spans_path << "\n";
    }
    std::cout << render(opt, w, out) << std::endl;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
