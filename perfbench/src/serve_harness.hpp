// In-process ppf_serve (Service + Server on loopback TCP) and a closed-loop
// line client, timed from the client side.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/shutdown.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace perfbench {

/// Service + Server serving on a background thread until destroyed.
class Daemon {
 public:
  explicit Daemon(std::size_t workers);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] ppf::serve::Service& service() { return service_; }

 private:
  ppf::serve::Service service_;
  ppf::serve::Server server_;
  ppf::ShutdownRequest shutdown_;
  std::thread thread_;  // declared last: runs server_.serve(shutdown_)
};

/// Blocking line-JSON client over one TCP connection.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Send one request line; return the response line. Throws on I/O error.
  std::string call(const std::string& request);

 private:
  int fd_ = -1;
  std::string pending_;
};

/// One request of a closed loop: `copies` > 1 sends the same config on
/// that many connections at once (a burst).
struct LoopRequest {
  std::string config;
  std::size_t copies = 1;
};

/// How one answered request ended.
struct Reply {
  std::size_t request = 0;  ///< index into the LoopRequest list
  double latency_ms = 0.0;  ///< send to full response line, client side
  bool ok = false;          ///< a result response
  bool cached = false;      ///< answered from the memo
  bool refused = false;     ///< queue_full
  std::string body;         ///< result body after the cached flag
  std::string error;        ///< error response or I/O failure
};

/// Drive `requests` through `connections` connections, each sending its
/// next request only after the previous answer (closed loop). Replies come
/// back in issue order; reply i carries request id first_id + i. Records
/// one span per request when tracing.
std::vector<Reply> closed_loop(std::uint16_t port,
                               const std::vector<LoopRequest>& requests,
                               std::size_t connections, Tracer& tr,
                               std::uint64_t first_id = 0);

/// Request line for a `run` of `config`.
std::string run_request(std::uint64_t id, const std::string& config);

/// Parse a response line into `r` (ok/cached/refused/body/error).
void parse_reply(const std::string& line, Reply& r);

/// The service's serve.* counters by name (the `stats` verb's payload).
std::map<std::string, double> service_counters(
    const ppf::serve::Service& service);

/// For each answered reply: its client latency minus the duration of the
/// daemon's Request span for the same request id (first_id + the reply's
/// index, as closed_loop sends them).
std::vector<double> wire_samples(const ppf::serve::Service& service,
                                 const std::vector<Reply>& replies,
                                 std::uint64_t first_id = 0);

/// Result body the daemon sends for a computed result (the memoized
/// bytes after the "cached" flag).
std::string expected_body(const sim::SimResult& r);

}  // namespace perfbench
