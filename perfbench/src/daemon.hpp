// In-process mlecd used by the daemon workload and the server probes: an
// EstimationService with a durable state dir plus a Server on an ephemeral
// loopback port. Campaign shards run on the single runner thread.
#pragma once

#include <memory>
#include <string>

#include "server/json.hpp"
#include "server/server.hpp"
#include "server/service.hpp"

namespace perfbench {

class Daemon {
 public:
  /// Wipes and recreates `state_dir`, then starts service and server.
  explicit Daemon(std::string state_dir);
  /// Stops server and service and removes the state dir.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& dir() const { return dir_; }
  int port() const { return server_->port(); }
  mlec::server::EstimationService& service() { return *service_; }
  /// One request on a fresh connection, as `mlecctl submit` does.
  mlec::json::Value request(const mlec::json::Value& req);

 private:
  std::string dir_;
  std::unique_ptr<mlec::server::EstimationService> service_;
  std::unique_ptr<mlec::server::Server> server_;
};

mlec::json::Value submit_request(const std::string& ini, const std::string& method,
                                         std::uint64_t seed, bool wait);

}  // namespace perfbench
