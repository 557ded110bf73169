#include "common.hpp"

#include <fstream>
#include <string>

#include <sys/utsname.h>

#include "align/sw_interseq.hpp"
#include "core/cpu_features.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

// The bracketed token of the THP policy file ("always [madvise] never").
std::string thp_policy() {
  const std::string line = first_line("/sys/kernel/mm/transparent_hugepage/enabled");
  const std::size_t lb = line.find('[');
  const std::size_t rb = line.find(']');
  if (lb == std::string::npos || rb == std::string::npos || rb < lb) return "unknown";
  return line.substr(lb + 1, rb - lb - 1);
}

// Highest per-cpu clock /proc/cpuinfo reports, in MHz; 0 when absent.
double cpu_mhz() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  double best = 0.0;
  while (std::getline(in, line)) {
    if (line.rfind("cpu MHz", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    try {
      best = std::max(best, std::stod(line.substr(colon + 1)));
    } catch (const std::exception&) {
    }
  }
  return best;
}

}  // namespace

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string host_block_json() {
  struct utsname un {};
  const std::string kernel = ::uname(&un) == 0 ? un.release : "unknown";
  return JsonObject()
      .integer("nproc", nproc())
      .str("simd_isa", swr::core::simd_isa_name(swr::core::detected_simd_isa()))
      .integer("interseq_lanes", swr::align::sw_interseq_max_lanes())
      .str("kernel", kernel)
      .str("thp", thp_policy())
      .str("compiler", __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .num("cpu_mhz", cpu_mhz())
      .text();
}

}  // namespace perfbench
