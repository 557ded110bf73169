// Declarations shared by the benchmark's end-to-end runs (e2e.cpp), its
// traced layer waterfall (layers.cpp) and main (main.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/multiboard.hpp"
#include "host/batch.hpp"
#include "svc/net/server.hpp"
#include "workload.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

/// Request accounting for one phase of a run. failed = the program
/// failed the request, refused = it was shed or overloaded, wrong = the
/// output check rejected the answer.
struct Phase {
  std::string name;
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
  std::uint64_t wrong = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run hands back to main: phases, metrics, output-check problems,
/// report lines for people and extra JSON fields for the checker.
struct Outcome {
  std::vector<Phase> phases;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  std::vector<std::string> lines;
  JsonObject detail;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void problem(std::string what) {
    if (problems.size() < 50) problems.push_back(std::move(what));
  }
};

// ---- helpers shared by both runs -----------------------------------------

/// Server knobs for the daemon workload: nproc workers and in-flight
/// queries, a 512 KiB result cache (about 850 unique responses fill it, so
/// dna_unique evicts late in a run), no tenant limits.
swr::svc::net::ServerConfig server_config(const Workload& w, swr::obs::Registry* metrics);

/// Service knobs for the in-process batch path (`scan --batch`).
swr::svc::ServiceConfig service_config(const Workload& w, swr::obs::Registry* metrics);

/// The board fleet of board_fleet (and of the traced hw layer): xc2vp70
/// boards of 100 PEs, event scheduler, DMA bus model on.
swr::core::FleetOptions fleet_options(std::size_t boards);

swr::svc::net::WireRequest wire_request(const Request& r);

/// The ScanOptions the server builds for `r` (without its profile cache).
swr::host::ScanOptions scan_options(const Request& r);

/// Empty when the top hit is the planted homolog at its coordinates.
std::string planted_mismatch(const Request& r, std::uint32_t record, std::int32_t score,
                             std::uint32_t end_i, std::uint32_t end_j, std::size_t hits);

/// Where a run writes its .swdb files: inside the work directory.
std::string store_path(const Options& opt, const std::string& tag);

Outcome run_end_to_end(const Workload& w, const Options& opt);
Outcome run_traced(const Workload& w, const Options& opt, Tracer& tracer);

}  // namespace perfbench
