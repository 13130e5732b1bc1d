#include "kvx/net/server.hpp"

#include <cerrno>
#include <cstring>
#include <iterator>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kvx/common/bits.hpp"
#include "kvx/common/error.hpp"
#include "kvx/common/strings.hpp"
#include "kvx/net/backpressure.hpp"
#include "kvx/net/frame.hpp"
#include "kvx/net/http.hpp"
#include "kvx/net/session.hpp"
#include "kvx/obs/metrics.hpp"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace kvx::net {

#if defined(__linux__)

namespace {

/// epoll user-data ids for the three non-connection fds; connection ids
/// start above so the dispatcher can tell them apart.
constexpr u64 kListenTag = 0;
constexpr u64 kStopTag = 1;
constexpr u64 kEngineTag = 2;
constexpr u64 kFirstConnId = 16;

[[noreturn]] void throw_errno(const char* what) {
  throw Error(strfmt("%s: %s", what, std::strerror(errno)));
}

}  // namespace

struct HashServer::Impl {
  enum class Mode { kUnknown, kBinary, kHttp };

  struct Conn {
    int fd = -1;
    u64 id = 0;
    Mode mode = Mode::kUnknown;
    /// Bytes buffered before the mode is known (needs 4 to decide).
    std::vector<u8> head;
    FrameReader reader;          ///< binary mode
    std::string http_buf;        ///< http mode
    std::vector<u8> out;         ///< pending egress bytes
    usize out_pos = 0;           ///< already-sent prefix of `out`
    u64 inflight = 0;            ///< engine jobs awaiting results
    bool want_close = false;     ///< close once out + inflight drain
    bool epollin = true;         ///< EPOLLIN currently in the interest set
    bool epollout = false;       ///< EPOLLOUT currently in the interest set

    explicit Conn(usize max_frame) : reader(max_frame) {}
  };

  /// Engine seq -> the connection/request the response must route to.
  struct Pending {
    u64 conn_id = 0;
    u64 request_id = 0;
  };

  ServerConfig cfg;
  engine::BatchHashEngine eng;
  SessionTable sessions;
  BackpressureGovernor governor;
  ServerCounters counters;

  int listen_fd = -1;
  int epoll_fd = -1;
  int stop_fd = -1;
  int engine_fd = -1;
  u16 bound_port = 0;
  u64 next_conn_id = kFirstConnId;
  std::unordered_map<u64, std::unique_ptr<Conn>> conns;
  std::unordered_map<u64, Pending> pending;
  std::vector<engine::JobResult> drained;  ///< reused drain buffer
  bool running = false;

  obs::Gauge* conn_gauge = nullptr;
  obs::Gauge* sess_gauge = nullptr;
  obs::Counter* bp_counter = nullptr;
  obs::Counter* req_counter = nullptr;

  static BackpressureGovernor make_governor(const ServerConfig& c) {
    usize high = c.high_watermark;
    if (high == 0) {
      high = c.engine.max_queue != 0 ? (c.engine.max_queue * 3) / 4 : 1024;
    }
    if (c.engine.max_queue != 0 && high >= c.engine.max_queue) {
      // The loop thread must never block in submit(); keep the engage
      // point strictly below the engine's blocking bound.
      high = c.engine.max_queue - 1;
    }
    if (high < 2) high = 2;
    usize low = c.low_watermark != 0 ? c.low_watermark : high / 2;
    if (low >= high) low = high - 1;
    return BackpressureGovernor(high, low);
  }

  explicit Impl(const ServerConfig& config)
      : cfg(config),
        eng(config.engine),
        sessions(config.max_sessions),
        governor(make_governor(config)) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    conn_gauge = &reg.gauge("kvx_server_connections",
                            "Live client connections (binary + http).");
    sess_gauge = &reg.gauge("kvx_server_sessions",
                            "Live streaming XOF sessions.");
    bp_counter = &reg.counter(
        "kvx_server_backpressure_events_total",
        "Socket backpressure engagements (engine queue hit the high "
        "watermark).");
    req_counter = &reg.counter("kvx_server_requests_total",
                               "Binary protocol requests decoded.");

    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listen_fd < 0) throw_errno("socket");
    try {
      const int one = 1;
      (void)::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(cfg.port);
      if (::inet_pton(AF_INET, cfg.bind_addr.c_str(), &addr.sin_addr) != 1) {
        throw Error(strfmt("invalid bind address '%s'",
                           cfg.bind_addr.c_str()));
      }
      if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof addr) != 0) {
        throw_errno("bind");
      }
      if (::listen(listen_fd, cfg.listen_backlog) != 0) throw_errno("listen");
      sockaddr_in bound{};
      socklen_t len = sizeof bound;
      if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                        &len) != 0) {
        throw_errno("getsockname");
      }
      bound_port = ntohs(bound.sin_port);

      epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      if (epoll_fd < 0) throw_errno("epoll_create1");
      stop_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
      if (stop_fd < 0) throw_errno("eventfd");
      engine_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
      if (engine_fd < 0) throw_errno("eventfd");

      epoll_add(listen_fd, kListenTag, EPOLLIN);
      epoll_add(stop_fd, kStopTag, EPOLLIN);
      epoll_add(engine_fd, kEngineTag, EPOLLIN);
      eng.set_notify_fd(engine_fd);
    } catch (...) {
      close_fds();
      throw;
    }
  }

  ~Impl() {
    // Workers may still be retiring; detach the notify fd before the fd
    // dies so notify_retire() never writes to a recycled descriptor.
    eng.set_notify_fd(-1);
    eng.close();
    for (auto& [id, conn] : conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    conns.clear();
    close_fds();
  }

  void close_fds() noexcept {
    eng.set_notify_fd(-1);
    if (listen_fd >= 0) ::close(listen_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (stop_fd >= 0) ::close(stop_fd);
    if (engine_fd >= 0) ::close(engine_fd);
    listen_fd = epoll_fd = stop_fd = engine_fd = -1;
  }

  void epoll_add(int fd, u64 tag, u32 events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw_errno("epoll_ctl(ADD)");
    }
  }

  void update_interest(Conn& conn) noexcept {
    epoll_event ev{};
    ev.events = (conn.epollin ? EPOLLIN : 0u) |
                (conn.epollout ? EPOLLOUT : 0u) | EPOLLRDHUP;
    ev.data.u64 = conn.id;
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  // --- Connection lifecycle -------------------------------------------------

  void accept_ready() {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return;  // EMFILE etc. — shed the connection, keep serving
      }
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      const u64 id = next_conn_id++;
      auto conn = std::make_unique<Conn>(cfg.max_frame);
      conn->fd = fd;
      conn->id = id;
      // New connections always read: the mode is still unknown and the
      // admin plane (HTTP) must stay reachable under backpressure. Ones
      // that turn out binary are muted the moment the mode resolves
      // (ingest()), before any of their frames are processed.
      epoll_add(fd, id, EPOLLIN | EPOLLRDHUP);
      conns.emplace(id, std::move(conn));
      counters.accepted += 1;
      conn_gauge->set(static_cast<double>(conns.size()));
    }
  }

  void close_conn(u64 id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    ::close(it->second->fd);
    const usize dropped = sessions.drop_owner(id);
    if (dropped != 0) sess_gauge->set(static_cast<double>(sessions.size()));
    conns.erase(it);
    counters.closed += 1;
    conn_gauge->set(static_cast<double>(conns.size()));
    // In-flight jobs for this conn stay in `pending`; their results are
    // discarded on arrival (the routing entry outlives the socket).
  }

  // --- Egress ---------------------------------------------------------------

  /// Send as much of conn.out as the socket accepts; arms EPOLLOUT for the
  /// remainder. Returns false when the conn died (write error).
  bool flush_writes(u64 id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return false;
    Conn& conn = *it->second;
    while (conn.out_pos < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                               conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        close_conn(id);
        return false;
      }
      conn.out_pos += static_cast<usize>(n);
    }
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
      if (conn.epollout) {
        conn.epollout = false;
        update_interest(conn);
      }
      if (conn.want_close && conn.inflight == 0) {
        close_conn(id);
        return false;
      }
    } else if (!conn.epollout) {
      conn.epollout = true;
      update_interest(conn);
    }
    return true;
  }

  void queue_response(Conn& conn, std::span<const u8> payload) {
    append_frame(conn.out, payload);
    counters.responses += 1;
  }

  // --- Binary protocol ------------------------------------------------------

  /// Handle one decoded-or-not request payload. Returns false when the
  /// connection was closed.
  bool handle_request(u64 conn_id, const std::vector<u8>& payload) {
    const auto it = conns.find(conn_id);
    if (it == conns.end()) return false;
    Conn& conn = *it->second;
    counters.requests += 1;
    req_counter->inc();

    std::string error;
    std::optional<Request> req = decode_request(payload, error);
    if (!req) {
      // Framing is intact, so the stream stays parseable: answer and keep
      // the connection. Best-effort request id (present when >= 8 bytes).
      u64 id = 0;
      if (payload.size() >= 8) {
        id = load_le64(std::span<const u8, 8>(payload.data(), 8));
      }
      counters.bad_requests += 1;
      queue_response(conn,
                     encode_response_error(id, Status::kBadRequest, error));
      return true;
    }

    switch (req->op) {
      case Opcode::kPing: {
        queue_response(conn, encode_response_ok(req->id, {}));
        return true;
      }
      case Opcode::kOpenSession: {
        const u64 sid = sessions.open(conn_id,
                                      engine::base_function(req->algo),
                                      req->message, error);
        if (sid == 0) {
          counters.bad_requests += 1;
          queue_response(
              conn, encode_response_error(req->id, Status::kBadRequest,
                                          error));
          return true;
        }
        sess_gauge->set(static_cast<double>(sessions.size()));
        u8 body[8];
        store_le64(std::span<u8, 8>(body, 8), sid);
        queue_response(conn, encode_response_ok(req->id, body));
        return true;
      }
      case Opcode::kSqueeze: {
        std::vector<u8> body;
        if (!sessions.squeeze(conn_id, req->session_id, req->squeeze_len,
                              body, error)) {
          counters.bad_requests += 1;
          queue_response(
              conn, encode_response_error(req->id, Status::kBadRequest,
                                          error));
          return true;
        }
        queue_response(conn, encode_response_ok(req->id, body));
        return true;
      }
      case Opcode::kCloseSession: {
        if (!sessions.close(conn_id, req->session_id, error)) {
          counters.bad_requests += 1;
          queue_response(
              conn, encode_response_error(req->id, Status::kBadRequest,
                                          error));
          return true;
        }
        sess_gauge->set(static_cast<double>(sessions.size()));
        queue_response(conn, encode_response_ok(req->id, {}));
        return true;
      }
      case Opcode::kHash: {
        engine::HashJob job;
        job.algo = req->algo;
        job.out_len = req->out_len;
        job.message = std::move(req->message);
        job.key = std::move(req->key);
        job.customization = std::move(req->customization);
        // Never blocks: the governor engages strictly below max_queue, so
        // there is always ring headroom when the loop thread gets here.
        // Malformed jobs (bad out_len, key on a non-KMAC algo) retire
        // immediately as per-job failures and come back via the normal
        // result path.
        const u64 seq = eng.submit(std::move(job));
        pending.emplace(seq, Pending{conn_id, req->id});
        conn.inflight += 1;
        return true;
      }
    }
    return true;
  }

  /// Drain complete frames from a binary connection, respecting
  /// backpressure between frames. Returns false when the conn died.
  bool process_frames(u64 conn_id) {
    std::vector<u8> payload;
    for (;;) {
      if (governor.engaged()) return true;  // frames stay buffered
      const auto it = conns.find(conn_id);
      if (it == conns.end()) return false;
      Conn& conn = *it->second;
      if (!conn.reader.next(payload)) {
        if (conn.reader.poisoned()) {
          counters.protocol_errors += 1;
          close_conn(conn_id);
          return false;
        }
        return true;
      }
      if (!handle_request(conn_id, payload)) return false;
      if (governor.update(eng.queue_depth())) on_backpressure_change();
    }
  }

  // --- HTTP admin plane -----------------------------------------------------

  void handle_http(u64 conn_id) {
    const auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    Conn& conn = *it->second;
    HttpRequest req;
    if (!parse_http_request(conn.http_buf, req)) {
      if (conn.http_buf.size() > usize{64} * 1024) {
        counters.protocol_errors += 1;
        close_conn(conn_id);
      }
      return;  // head incomplete — keep reading
    }
    counters.http_requests += 1;
    std::string response;
    if (req.method != "GET") {
      response = http_response(405, "Method Not Allowed", "text/plain",
                               "only GET is supported\n");
    } else if (req.path == "/metrics") {
      response = http_response(
          200, "OK", "text/plain; version=0.0.4",
          obs::MetricsRegistry::global().to_prometheus());
    } else if (req.path == "/healthz") {
      const obs::JobTotals jobs = eng.job_totals();
      const bool ok = jobs.submitted >= jobs.completed + jobs.failed;
      const std::string body = strfmt(
          "%s submitted=%llu completed=%llu failed=%llu in_flight=%llu "
          "sessions=%zu backpressure=%s\n",
          ok ? "ok" : "UNHEALTHY",
          static_cast<unsigned long long>(jobs.submitted),
          static_cast<unsigned long long>(jobs.completed),
          static_cast<unsigned long long>(jobs.failed),
          static_cast<unsigned long long>(jobs.in_flight()), sessions.size(),
          governor.engaged() ? "engaged" : "idle");
      response = http_response(ok ? 200 : 503,
                               ok ? "OK" : "Service Unavailable",
                               "text/plain", body);
    } else {
      response = http_response(404, "Not Found", "text/plain",
                               "not found (try /metrics or /healthz)\n");
    }
    conn.out.insert(conn.out.end(), response.begin(), response.end());
    conn.want_close = true;
    conn.epollin = false;
    update_interest(conn);
    flush_writes(conn_id);
  }

  // --- Ingress --------------------------------------------------------------

  void conn_readable(u64 conn_id) {
    u8 buf[64 * 1024];
    for (;;) {
      const auto it = conns.find(conn_id);
      if (it == conns.end()) return;
      Conn& conn = *it->second;
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        close_conn(conn_id);
        return;
      }
      if (n == 0) {  // orderly peer shutdown
        close_conn(conn_id);
        return;
      }
      const std::span<const u8> data(buf, static_cast<usize>(n));
      if (!ingest(conn, data)) return;
      if (static_cast<usize>(n) < sizeof buf) break;  // drained the socket
    }
    const auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    if (it->second->mode == Mode::kBinary) {
      if (!process_frames(conn_id)) return;
      flush_writes(conn_id);
    } else if (it->second->mode == Mode::kHttp) {
      handle_http(conn_id);
    }
  }

  /// Route freshly-read bytes by mode (deciding it on the first 4 bytes).
  /// Returns false when the connection was closed.
  bool ingest(Conn& conn, std::span<const u8> data) {
    if (conn.mode == Mode::kUnknown) {
      conn.head.insert(conn.head.end(), data.begin(), data.end());
      if (conn.head.size() < 4) return true;  // can't decide yet
      conn.mode = looks_like_http(conn.head) ? Mode::kHttp : Mode::kBinary;
      const std::vector<u8> head = std::move(conn.head);
      conn.head.clear();
      if (conn.mode == Mode::kHttp) {
        conn.http_buf.append(reinterpret_cast<const char*>(head.data()),
                             head.size());
        return true;
      }
      if (governor.engaged() && conn.epollin) {
        // Resolved to binary while backpressure is on: mute it like the
        // rest of the data plane (release restores EPOLLIN).
        conn.epollin = false;
        update_interest(conn);
      }
      if (!conn.reader.feed(head)) {
        counters.protocol_errors += 1;
        close_conn(conn.id);
        return false;
      }
      return true;
    }
    if (conn.mode == Mode::kHttp) {
      conn.http_buf.append(reinterpret_cast<const char*>(data.data()),
                           data.size());
      return true;
    }
    if (!conn.reader.feed(data)) {
      counters.protocol_errors += 1;
      close_conn(conn.id);
      return false;
    }
    return true;
  }

  // --- Engine completions ---------------------------------------------------

  void engine_ready() {
    u64 clear = 0;
    // Coalesced edge: one read clears however many retirements fired.
    (void)!::read(engine_fd, &clear, sizeof clear);
    drained.clear();
    eng.try_drain_ready(drained);  // retirement order; routed by seq
    for (engine::JobResult& r : drained) {
      const auto pit = pending.find(r.seq);
      if (pit == pending.end()) continue;  // job from a direct submit (none)
      const Pending route = pit->second;
      pending.erase(pit);
      const auto cit = conns.find(route.conn_id);
      if (cit == conns.end()) continue;  // client left; drop the result
      Conn& conn = *cit->second;
      conn.inflight -= 1;
      if (r.ok()) {
        queue_response(conn,
                       encode_response_ok(route.request_id, r.digest));
      } else {
        counters.engine_failures += 1;
        queue_response(conn,
                       encode_response_error(route.request_id,
                                             Status::kFailed,
                                             render_failure(r)));
      }
      flush_writes(route.conn_id);
    }
    if (governor.update(eng.queue_depth())) on_backpressure_change();
  }

  // --- Backpressure ---------------------------------------------------------

  void on_backpressure_change() {
    if (governor.engaged()) {
      counters.backpressure_engagements += 1;
      bp_counter->inc();
      for (auto& [id, conn] : conns) {
        // kUnknown conns keep reading: they may be an admin-plane curl,
        // and they are muted on resolving to binary anyway.
        if (conn->mode == Mode::kBinary && conn->epollin) {
          conn->epollin = false;
          update_interest(*conn);
        }
      }
      return;
    }
    // Released: restore EPOLLIN, then work through frames that piled up in
    // the readers while the sockets were muted. Re-engagement mid-sweep
    // stops the sweep (process_frames checks the governor per frame).
    std::vector<u64> ids;
    ids.reserve(conns.size());
    for (auto& [id, conn] : conns) {
      if (conn->mode == Mode::kBinary && !conn->want_close &&
          !conn->epollin) {
        conn->epollin = true;
        update_interest(*conn);
      }
      ids.push_back(id);
    }
    for (const u64 id : ids) {
      if (governor.engaged()) break;
      const auto it = conns.find(id);
      if (it == conns.end() || it->second->mode != Mode::kBinary) continue;
      if (process_frames(id)) flush_writes(id);
    }
  }

  // --- Event loop -----------------------------------------------------------

  void run() {
    KVX_CHECK(!running);
    running = true;
    epoll_event events[128];
    for (;;) {
      const int n = ::epoll_wait(epoll_fd, events,
                                 static_cast<int>(std::size(events)), -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("epoll_wait");
      }
      for (int i = 0; i < n; ++i) {
        const u64 tag = events[i].data.u64;
        const u32 ev = events[i].events;
        if (tag == kStopTag) {
          running = false;
          continue;
        }
        if (tag == kListenTag) {
          accept_ready();
          continue;
        }
        if (tag == kEngineTag) {
          engine_ready();
          continue;
        }
        // Connection event. The conn may have been closed by an earlier
        // event in this batch; stale tags just miss the map.
        if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
          close_conn(tag);
          continue;
        }
        if ((ev & EPOLLOUT) != 0 && !flush_writes(tag)) continue;
        if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0) conn_readable(tag);
      }
      if (!running) break;
    }
    // Graceful exit: stop intake, let queued jobs finish retiring (the
    // engine drains on close+destruct), answer nothing further.
  }

  void stop() noexcept {
    const u64 one = 1;
    (void)!::write(stop_fd, &one, sizeof one);
  }
};

HashServer::HashServer(const ServerConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

HashServer::~HashServer() = default;

u16 HashServer::port() const noexcept { return impl_->bound_port; }

void HashServer::run() { impl_->run(); }

void HashServer::stop() noexcept { impl_->stop(); }

engine::BatchHashEngine& HashServer::engine() noexcept { return impl_->eng; }

const ServerCounters& HashServer::counters() const noexcept {
  return impl_->counters;
}

usize HashServer::connections() const noexcept { return impl_->conns.size(); }

#else  // !__linux__

struct HashServer::Impl {};

HashServer::HashServer(const ServerConfig&) {
  throw Error("HashServer requires Linux (epoll/eventfd)");
}
HashServer::~HashServer() = default;
u16 HashServer::port() const noexcept { return 0; }
void HashServer::run() {}
void HashServer::stop() noexcept {}
engine::BatchHashEngine& HashServer::engine() noexcept {
  __builtin_unreachable();
}
const ServerCounters& HashServer::counters() const noexcept {
  static ServerCounters c;
  return c;
}
usize HashServer::connections() const noexcept { return 0; }

#endif

}  // namespace kvx::net
