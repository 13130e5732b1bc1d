// HashServer — the kvx-hashd service core: a single-threaded epoll event
// loop in front of a BatchHashEngine.
//
// Division of labor:
//   * The event loop owns every socket and never blocks on the engine.
//     One-shot HASH requests are submitted to the engine and the loop
//     moves on; the engine pokes a completion eventfd on every retirement
//     (BatchHashEngine::set_notify_fd) and the loop collects finished
//     results with the non-blocking try_drain_ready() when that fd fires,
//     routing each by its seq. Results come in retirement order, so a slow
//     job never holds back replies that finished after it; clients match
//     replies to requests by id. The engine's worker shards provide all
//     the parallelism — the loop only shuffles bytes.
//   * Streaming XOF sessions (OPEN/SQUEEZE/CLOSE) run host-side on the
//     loop thread (kvx/net/session.hpp): squeezing is a few permutations,
//     far below the syscall noise floor, and keeping sponge state off the
//     worker shards means a session never holds an accelerator lane.
//   * Backpressure is socket-level: when the engine queue climbs to the
//     high watermark the loop stops READING binary connections (EPOLLIN
//     off; kernel buffers and TCP flow control push back to clients) and
//     resumes at the low watermark — hysteresis via BackpressureGovernor,
//     so the epoll interest set doesn't flap. The engine's own blocking
//     max_queue bound is never hit: the derived high watermark sits below
//     it, so the loop thread cannot stall in submit().
//   * Failures stay per-job (the engine's fail-soft chain): a failed job
//     produces a kFailed response carrying the error and the backend
//     demotion path; the connection, its other requests and every other
//     client are untouched.
//   * An HTTP admin plane (GET /metrics, GET /healthz) shares the data
//     port; the first bytes of each connection pick the mode (see
//     kvx/net/http.hpp for why this is unambiguous).
//
// The implementation is Linux-only (epoll + eventfd + accept4); on other
// platforms construction throws. See docs/server.md.
#pragma once

#include <memory>
#include <string>

#include "kvx/common/types.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/net/protocol.hpp"

namespace kvx::net {

struct ServerConfig {
  /// Listen address; keep the default loopback unless fronted by real
  /// authn — the protocol itself is unauthenticated.
  std::string bind_addr = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (tests), reported by port().
  u16 port = 0;
  int listen_backlog = 128;
  /// Engine the server fronts. max_queue should be > 0: it anchors the
  /// backpressure watermarks (and bounds memory under overload).
  engine::EngineConfig engine;
  /// Frame payload cap per connection (protocol violations drop the
  /// connection); default kMaxFramePayload.
  usize max_frame = kMaxFramePayload;
  /// Live streaming-session cap (OPEN beyond it is refused).
  usize max_sessions = 1024;
  /// Queue-depth watermarks for socket backpressure. 0 = derive:
  /// high = 3/4 of engine.max_queue (1024 if unbounded), low = high / 2.
  usize high_watermark = 0;
  usize low_watermark = 0;
};

/// Event-loop-local counters (read them from the loop thread, or after
/// run() returned). The Prometheus mirrors live in the global registry:
/// kvx_server_connections, kvx_server_sessions,
/// kvx_server_backpressure_events_total, kvx_server_requests_total.
struct ServerCounters {
  u64 accepted = 0;          ///< connections accepted
  u64 closed = 0;            ///< connections torn down (any reason)
  u64 requests = 0;          ///< binary requests decoded (well-formed frames)
  u64 responses = 0;         ///< binary responses queued
  u64 protocol_errors = 0;   ///< violations that dropped a connection
  u64 bad_requests = 0;      ///< kBadRequest responses (connection kept)
  u64 engine_failures = 0;   ///< kFailed responses (per-job engine errors)
  u64 http_requests = 0;     ///< admin-plane requests served
  u64 backpressure_engagements = 0;  ///< idle -> engaged transitions
};

class HashServer {
 public:
  /// Binds and listens (throws kvx::Error on any socket failure — nothing
  /// half-constructed survives). The engine starts its workers here.
  explicit HashServer(const ServerConfig& config);
  ~HashServer();

  HashServer(const HashServer&) = delete;
  HashServer& operator=(const HashServer&) = delete;

  /// The bound TCP port (the ephemeral one when config.port was 0).
  [[nodiscard]] u16 port() const noexcept;

  /// Run the event loop until stop(). Not re-entrant; call once.
  void run();

  /// Ask the loop to exit. Thread- and async-signal-safe (one eventfd
  /// write) — call it from a SIGINT/SIGTERM handler.
  void stop() noexcept;

  /// The fronted engine (stats/shutdown introspection for the tool).
  [[nodiscard]] engine::BatchHashEngine& engine() noexcept;

  [[nodiscard]] const ServerCounters& counters() const noexcept;

  /// Live connection count (loop thread only; tests poll via /metrics).
  [[nodiscard]] usize connections() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace kvx::net
