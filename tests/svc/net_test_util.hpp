// Shared fixture for the svc/net test rig: a small deterministic store on
// disk and a loopback ScanServer wired to a fresh metrics registry.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "db/builder.hpp"
#include "db/store.hpp"
#include "obs/metrics.hpp"
#include "svc/net/client.hpp"
#include "svc/net/server.hpp"
#include "test_util.hpp"

namespace swr::test {

inline std::vector<seq::Sequence> net_records(int n = 48, std::uint64_t seed = 9100) {
  std::vector<seq::Sequence> recs;
  for (int k = 0; k < n; ++k) {
    seq::Sequence s = random_dna(12 + 17 * static_cast<std::size_t>(k % 7),
                                 seed + static_cast<std::uint64_t>(k));
    s.set_name("rec" + std::to_string(k));
    recs.push_back(std::move(s));
  }
  recs.push_back(seq::Sequence::dna("ACGTACGTACGTACGTACGTACGT", "planted"));
  return recs;
}

/// Builds a .swdb (with its default k-mer index) under the test temp dir.
inline std::string build_net_store(const std::vector<seq::Sequence>& recs,
                                   const std::string& leaf) {
  const std::string path = testing::TempDir() + "/" + unique_leaf(leaf);
  db::build_store(recs, path);
  return path;
}

/// Store + registry + running loopback server, torn down in order.
class NetServerFixture {
 public:
  explicit NetServerFixture(const std::string& leaf,
                            svc::net::ServerConfig cfg = {},
                            std::vector<seq::Sequence> recs = net_records())
      : store_(db::Store::open(build_net_store(recs, leaf))) {
    cfg.service.metrics = &registry_;
    cfg.metrics = &registry_;
    server_ = std::make_unique<svc::net::ScanServer>(store_, cfg);
    std::string error;
    if (!server_->start(error)) throw std::runtime_error("server start failed: " + error);
  }

  [[nodiscard]] const db::Store& store() const { return store_; }
  [[nodiscard]] obs::Registry& registry() { return registry_; }
  [[nodiscard]] svc::net::ScanServer& server() { return *server_; }
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }

  /// A connected client (fails the test on connection error).
  [[nodiscard]] svc::net::ScanClient connect() {
    svc::net::ScanClient client;
    std::string error;
    EXPECT_TRUE(client.connect("127.0.0.1", port(), error)) << error;
    return client;
  }

 private:
  obs::Registry registry_;
  db::Store store_;
  std::unique_ptr<svc::net::ScanServer> server_;
};

/// A request the fixture store always finds hits for.
inline svc::net::WireRequest planted_request(std::uint64_t id, const std::string& tenant = "") {
  svc::net::WireRequest req;
  req.request_id = id;
  req.tenant = tenant;
  req.query_name = std::string("q");
  req.query = "ACGTACGTACGTACGTACGT";
  req.top_k = 5;
  req.min_score = 1;
  return req;
}

}  // namespace swr::test
