#include "serve_harness.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "runlab/sinks.hpp"

namespace perfbench {

namespace {
ppf::serve::ServiceConfig service_config(std::size_t workers) {
  ppf::serve::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.flight_recorder = 0;  // no crash-dump file in the checkout
  return cfg;
}
}  // namespace

Daemon::Daemon(std::size_t workers)
    : service_(service_config(workers)),
      server_(service_, ppf::serve::ServerOptions{}),
      thread_([this] { server_.serve(shutdown_); }) {}

Daemon::~Daemon() {
  shutdown_.request();
  thread_.join();
}

LineClient::LineClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect: " + why);
  }
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string LineClient::call(const std::string& request) {
  const std::string line = request + "\n";
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    sent += static_cast<std::size_t>(n);
  }
  for (;;) {
    const std::size_t nl = pending_.find('\n');
    if (nl != std::string::npos) {
      std::string out = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      return out;
    }
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection closed");
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

std::string run_request(std::uint64_t id, const std::string& config) {
  return "{\"op\":\"run\",\"id\":" + std::to_string(id) + ",\"config\":\"" +
         config + "\"}";
}

void parse_reply(const std::string& line, Reply& r) {
  if (line.rfind("{\"op\":\"result\"", 0) == 0) {
    static const std::string kCached = "\"cached\":";
    const std::size_t at = line.find(kCached);
    if (at == std::string::npos) {
      r.error = "result without cached flag";
      return;
    }
    r.cached = line.compare(at + kCached.size(), 1, "1") == 0;
    r.body = line.substr(at + kCached.size() + 2);
    r.ok = r.body.rfind("\"ok\":true", 0) == 0;
    if (!r.ok) r.error = line;
    return;
  }
  r.refused = line.find("\"code\":\"queue_full\"") != std::string::npos;
  r.error = line;
}

std::map<std::string, double> service_counters(
    const ppf::serve::Service& service) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : service.metrics_snapshot().counters) {
    out[name] = static_cast<double>(value);
  }
  return out;
}

std::vector<double> wire_samples(const ppf::serve::Service& service,
                                 const std::vector<Reply>& replies,
                                 std::uint64_t first_id) {
  std::map<std::uint64_t, double> handled_ms;
  for (const ppf::obs::ConnectionSpans& conn : service.span_dump()) {
    for (const ppf::obs::Span& s : conn.spans) {
      if (s.name == ppf::obs::SpanName::Request) {
        handled_ms[s.request] = s.dur_us / 1000.0;
      }
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const auto it = handled_ms.find(first_id + i);
    if (replies[i].ok && it != handled_ms.end()) {
      out.push_back(replies[i].latency_ms - it->second);
    }
  }
  return out;
}

std::string expected_body(const sim::SimResult& r) {
  std::ostringstream os;
  os << "\"ok\":true,\"metrics\":";
  ppf::runlab::write_metrics_json(os, r);
  os << "}";
  return os.str();
}

std::vector<Reply> closed_loop(std::uint16_t port,
                               const std::vector<LoopRequest>& requests,
                               std::size_t connections, Tracer& tr,
                               std::uint64_t first_id) {
  // Flatten bursts into consecutive entries sharing a burst slot.
  struct Entry {
    std::size_t request;
    std::size_t burst;  // index into burst_taken, or npos
  };
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<Entry> entries;
  std::vector<std::size_t> burst_size;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::size_t copies = requests[i].copies;
    if (copies > connections) {
      throw std::invalid_argument("burst wider than the connection count");
    }
    const std::size_t burst = copies > 1 ? burst_size.size() : npos;
    if (copies > 1) burst_size.push_back(copies);
    for (std::size_t c = 0; c < copies; ++c) entries.push_back({i, burst});
  }

  std::vector<Reply> replies(entries.size());
  std::mutex mu;
  std::condition_variable cv;
  std::size_t next = 0;                               // guarded by mu
  std::vector<std::size_t> burst_taken(burst_size.size(), 0);  // guarded by mu

  const auto client = [&](std::size_t conn) {
    std::unique_ptr<LineClient> cl;
    std::string connect_error;
    try {
      cl = std::make_unique<LineClient>(port);
    } catch (const std::exception& e) {
      connect_error = e.what();
    }
    for (;;) {
      std::size_t e = 0;
      {
        std::unique_lock<std::mutex> lk(mu);
        if (next == entries.size()) return;
        e = next++;
        const std::size_t b = entries[e].burst;
        if (b != npos) {
          // A burst leaves only once every copy has a connection.
          ++burst_taken[b];
          cv.notify_all();
          cv.wait(lk, [&] { return burst_taken[b] == burst_size[b]; });
        }
      }
      Reply& r = replies[e];
      r.request = entries[e].request;
      if (cl == nullptr) {
        r.error = connect_error;
        continue;
      }
      const Clock::time_point t0 = Clock::now();
      try {
        const std::string line =
            cl->call(run_request(first_id + e, requests[r.request].config));
        const Clock::time_point t1 = Clock::now();
        r.latency_ms = ms_between(t0, t1);
        parse_reply(line, r);
        tr.add(r.cached ? "serve.request.hit" : "serve.request.miss", t0, t1,
               conn + 1);
      } catch (const std::exception& ex) {
        r.error = ex.what();
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  return replies;
}

}  // namespace perfbench
