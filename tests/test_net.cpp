// Tests for the kvx_net service layer: wire protocol total-decoding,
// frame reassembly (including slow-loris byte-at-a-time delivery and
// oversized-frame rejection), streaming XOF sessions, the backpressure
// governor, and — on Linux — the full HashServer event loop over real
// sockets: hash round-trips verified against the host golden model (on
// the interpreter and on kvx-hashd's host-simd tier), replies that do not
// wait behind a slower job, concurrent pipelined connections with every
// reply verified, injected faults answered as per-request failures,
// per-connection session lifecycle, the HTTP admin plane and backpressure
// engage/release against a tiny engine queue.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "kvx/common/bits.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/engine/job.hpp"
#include "kvx/keccak/sha3.hpp"
#include "kvx/net/backpressure.hpp"
#include "kvx/net/frame.hpp"
#include "kvx/net/protocol.hpp"
#include "kvx/net/session.hpp"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "kvx/net/server.hpp"
#include "kvx/sim/exec_backend.hpp"
#include "kvx/sim/fault_injector.hpp"
#endif

namespace kvx::net {
namespace {

std::vector<u8> bytes(std::initializer_list<int> vals) {
  std::vector<u8> out;
  for (int v : vals) out.push_back(static_cast<u8>(v));
  return out;
}

// --- Framing ----------------------------------------------------------------

TEST(Frame, RoundTripMultipleFrames) {
  std::vector<u8> wire;
  const std::vector<u8> a = bytes({1, 2, 3});
  const std::vector<u8> b = {};
  const std::vector<u8> c = bytes({0xFF});
  append_frame(wire, a);
  append_frame(wire, b);
  append_frame(wire, c);

  FrameReader reader;
  ASSERT_TRUE(reader.feed(wire));
  std::vector<u8> out;
  ASSERT_TRUE(reader.next(out));
  EXPECT_EQ(out, a);
  ASSERT_TRUE(reader.next(out));
  EXPECT_EQ(out, b);
  ASSERT_TRUE(reader.next(out));
  EXPECT_EQ(out, c);
  EXPECT_FALSE(reader.next(out));
  EXPECT_FALSE(reader.poisoned());
}

TEST(Frame, SlowLorisByteAtATime) {
  // A peer trickling one byte per read event must still produce the exact
  // frame — and never a partial one.
  std::vector<u8> wire;
  std::vector<u8> payload(300);
  SplitMix64 rng(1);
  for (u8& b : payload) b = static_cast<u8>(rng.next());
  append_frame(wire, payload);

  FrameReader reader;
  std::vector<u8> out;
  for (usize i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(reader.feed(std::span<const u8>(&wire[i], 1)));
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(reader.has_frame()) << "frame complete too early at " << i;
    }
  }
  ASSERT_TRUE(reader.next(out));
  EXPECT_EQ(out, payload);
}

TEST(Frame, OversizedDeclaredLengthPoisonsBeforeBuffering) {
  FrameReader reader(1024);
  // Header declares 1 MiB against a 1 KiB cap: rejected from the header
  // alone, payload never buffered.
  const std::vector<u8> header = bytes({0x00, 0x00, 0x10, 0x00});
  EXPECT_FALSE(reader.feed(header));
  EXPECT_TRUE(reader.poisoned());
  EXPECT_FALSE(reader.error().empty());
  EXPECT_EQ(reader.buffered(), 0u);
  // Poisoned readers stay dead.
  EXPECT_FALSE(reader.feed(bytes({1})));
  std::vector<u8> out;
  EXPECT_FALSE(reader.next(out));
}

TEST(Frame, OversizedSecondFrameDetectedAfterFirst) {
  FrameReader reader(64);
  std::vector<u8> wire;
  append_frame(wire, bytes({1, 2}));
  // Second header: 0xFFFFFFFF bytes.
  wire.insert(wire.end(), {0xFF, 0xFF, 0xFF, 0xFF});
  // The valid first frame is still delivered; the poison lands when the
  // bad header reaches the front of the buffer.
  ASSERT_TRUE(reader.feed(wire));
  std::vector<u8> out;
  ASSERT_TRUE(reader.next(out));
  EXPECT_EQ(out, bytes({1, 2}));
  EXPECT_TRUE(reader.poisoned());
  EXPECT_FALSE(reader.next(out));
  EXPECT_FALSE(reader.feed(bytes({0})));
}

TEST(Frame, MaxSizedPayloadAccepted) {
  FrameReader reader(128);
  std::vector<u8> wire;
  const std::vector<u8> payload(128, 0xAB);
  append_frame(wire, payload);
  ASSERT_TRUE(reader.feed(wire));
  std::vector<u8> out;
  ASSERT_TRUE(reader.next(out));
  EXPECT_EQ(out, payload);
}

// --- Protocol ---------------------------------------------------------------

TEST(Protocol, HashRequestRoundTrip) {
  Request req;
  req.id = 0x0123456789ABCDEFull;
  req.op = Opcode::kHash;
  req.algo = engine::Algo::kKmac256;
  req.out_len = 48;
  req.key = bytes({1, 2, 3});
  req.customization = bytes({9});
  req.message = bytes({7, 7, 7, 7});

  std::string error;
  const auto decoded = decode_request(encode_request(req), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->id, req.id);
  EXPECT_EQ(decoded->op, Opcode::kHash);
  EXPECT_EQ(decoded->algo, engine::Algo::kKmac256);
  EXPECT_EQ(decoded->out_len, 48u);
  EXPECT_EQ(decoded->key, req.key);
  EXPECT_EQ(decoded->customization, req.customization);
  EXPECT_EQ(decoded->message, req.message);
}

TEST(Protocol, SessionRequestsRoundTrip) {
  std::string error;
  Request open;
  open.id = 1;
  open.op = Opcode::kOpenSession;
  open.algo = engine::Algo::kShake128;
  open.message = bytes({5, 6});
  auto d = decode_request(encode_request(open), error);
  ASSERT_TRUE(d.has_value()) << error;
  EXPECT_EQ(d->op, Opcode::kOpenSession);
  EXPECT_EQ(d->message, open.message);

  Request sq;
  sq.id = 2;
  sq.op = Opcode::kSqueeze;
  sq.session_id = 77;
  sq.squeeze_len = 64;
  d = decode_request(encode_request(sq), error);
  ASSERT_TRUE(d.has_value()) << error;
  EXPECT_EQ(d->session_id, 77u);
  EXPECT_EQ(d->squeeze_len, 64u);

  Request close;
  close.id = 3;
  close.op = Opcode::kCloseSession;
  close.session_id = 77;
  d = decode_request(encode_request(close), error);
  ASSERT_TRUE(d.has_value()) << error;
  EXPECT_EQ(d->op, Opcode::kCloseSession);

  Request ping;
  ping.id = 4;
  ping.op = Opcode::kPing;
  d = decode_request(encode_request(ping), error);
  ASSERT_TRUE(d.has_value()) << error;
  EXPECT_EQ(d->op, Opcode::kPing);
}

TEST(Protocol, DecodeRejectsMalformedRequests) {
  std::string error;
  // Shorter than the 9-byte header.
  EXPECT_FALSE(decode_request({}, error).has_value());
  EXPECT_FALSE(decode_request(bytes({1, 2, 3}), error).has_value());
  // Unknown opcode (0 and 200).
  EXPECT_FALSE(
      decode_request(bytes({0, 0, 0, 0, 0, 0, 0, 0, 0}), error).has_value());
  EXPECT_FALSE(
      decode_request(bytes({0, 0, 0, 0, 0, 0, 0, 0, 200}), error)
          .has_value());
  // HASH with a truncated header.
  EXPECT_FALSE(
      decode_request(bytes({0, 0, 0, 0, 0, 0, 0, 0, 1, 1}), error)
          .has_value());
  // HASH with an unknown algorithm (99).
  {
    Request req;
    req.op = Opcode::kHash;
    std::vector<u8> enc = encode_request(req);
    enc[9] = 99;
    EXPECT_FALSE(decode_request(enc, error).has_value());
  }
  // HASH whose declared key length overruns the payload.
  {
    Request req;
    req.op = Opcode::kHash;
    req.message = bytes({1, 2, 3});
    std::vector<u8> enc = encode_request(req);
    enc[14] = 0xFF;  // key_len low byte: claims 255 bytes, only 3 remain
    EXPECT_FALSE(decode_request(enc, error).has_value());
    EXPECT_FALSE(error.empty());
  }
  // HASH with an absurd out_len.
  {
    Request req;
    req.op = Opcode::kHash;
    req.algo = engine::Algo::kShake128;
    req.out_len = static_cast<u32>(kMaxOutputLen) + 1;
    EXPECT_FALSE(decode_request(encode_request(req), error).has_value());
  }
  // OPEN_SESSION on a fixed-output algorithm.
  {
    Request req;
    req.op = Opcode::kOpenSession;
    req.algo = engine::Algo::kSha3_256;
    EXPECT_FALSE(decode_request(encode_request(req), error).has_value());
  }
  // SQUEEZE of zero bytes, and PING with trailing garbage.
  {
    Request req;
    req.op = Opcode::kSqueeze;
    req.session_id = 1;
    req.squeeze_len = 0;
    EXPECT_FALSE(decode_request(encode_request(req), error).has_value());
  }
  {
    Request req;
    req.op = Opcode::kPing;
    std::vector<u8> enc = encode_request(req);
    enc.push_back(0);
    EXPECT_FALSE(decode_request(enc, error).has_value());
  }
}

TEST(Protocol, DecodeIsTotalOnRandomBytes) {
  // Arbitrary payloads must decode or be diagnosed — never crash, never
  // read out of bounds (ASan/TSan matrix runs this too).
  SplitMix64 rng(42);
  std::string error;
  for (int i = 0; i < 2000; ++i) {
    std::vector<u8> payload(rng.below(64));
    for (u8& b : payload) b = static_cast<u8>(rng.next());
    (void)decode_request(payload, error);
    (void)decode_response(payload, error);
  }
}

TEST(Protocol, ResponseRoundTrip) {
  std::string error;
  const std::vector<u8> digest = bytes({0xAA, 0xBB});
  auto ok = decode_response(encode_response_ok(7, digest), error);
  ASSERT_TRUE(ok.has_value()) << error;
  EXPECT_TRUE(ok->ok());
  EXPECT_EQ(ok->id, 7u);
  EXPECT_EQ(ok->body, digest);

  auto err = decode_response(
      encode_response_error(8, Status::kFailed, "sim fault"), error);
  ASSERT_TRUE(err.has_value()) << error;
  EXPECT_EQ(err->status, Status::kFailed);
  EXPECT_EQ(err->error_text(), "sim fault");

  // Unknown status byte.
  std::vector<u8> bad = encode_response_ok(9, {});
  bad[8] = 99;
  EXPECT_FALSE(decode_response(bad, error).has_value());
}

TEST(Protocol, RenderFailureIncludesDemotionPath) {
  engine::JobResult r;
  r.error = "dispatch failed";
  r.demotion_path.push_back({"jit", "emit rejected", false});
  r.demotion_path.push_back({"trace", "injected parity flip", true});
  r.demotion_path.push_back({"interpreter", "", false});
  const std::string text = render_failure(r);
  EXPECT_NE(text.find("dispatch failed"), std::string::npos);
  EXPECT_NE(text.find("jit (emit rejected)"), std::string::npos);
  EXPECT_NE(text.find("trace (injected: injected parity flip)"),
            std::string::npos);
  EXPECT_NE(text.find("-> interpreter"), std::string::npos);
}

// --- Sessions ---------------------------------------------------------------

TEST(Session, SqueezeMatchesDirectXofAcrossCutPoints) {
  SessionTable table;
  const std::vector<u8> message = bytes({1, 2, 3, 4, 5});
  std::string error;
  const u64 id =
      table.open(1, keccak::Sha3Function::kShake128, message, error);
  ASSERT_NE(id, 0u) << error;

  // Squeeze in ragged chunks; the concatenation must equal one straight
  // squeeze of the same total — the sponge's cut-point invariance.
  std::vector<u8> streamed;
  for (const usize n : {1u, 7u, 64u, 200u, 3u}) {
    ASSERT_TRUE(table.squeeze(1, id, n, streamed, error)) << error;
  }
  keccak::Xof direct(keccak::Sha3Function::kShake128);
  direct.absorb(message);
  EXPECT_EQ(streamed, direct.squeeze(streamed.size()));
  EXPECT_TRUE(table.close(1, id, error));
  EXPECT_EQ(table.size(), 0u);
}

TEST(Session, LifecycleAndOwnership) {
  SessionTable table(2);
  std::string error;
  std::vector<u8> out;
  // Unknown id.
  EXPECT_FALSE(table.squeeze(1, 99, 8, out, error));
  EXPECT_FALSE(table.close(1, 99, error));

  const u64 a = table.open(1, keccak::Sha3Function::kShake256, {}, error);
  ASSERT_NE(a, 0u);
  // Another connection cannot see it (same diagnostic as unknown).
  EXPECT_FALSE(table.squeeze(2, a, 8, out, error));
  EXPECT_FALSE(table.close(2, a, error));
  EXPECT_EQ(table.size(), 1u);

  // Capacity cap.
  const u64 b = table.open(2, keccak::Sha3Function::kShake128, {}, error);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(table.open(3, keccak::Sha3Function::kShake128, {}, error), 0u);
  EXPECT_FALSE(error.empty());

  // Connection teardown drops only that connection's sessions.
  EXPECT_EQ(table.drop_owner(1), 1u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.squeeze(2, b, 4, out, error));
  // Closing twice fails the second time.
  EXPECT_TRUE(table.close(2, b, error));
  EXPECT_FALSE(table.close(2, b, error));
}

// --- Backpressure governor --------------------------------------------------

TEST(Backpressure, HysteresisEngageRelease) {
  BackpressureGovernor gov(8, 4);
  EXPECT_FALSE(gov.engaged());
  EXPECT_FALSE(gov.update(7));   // below high: nothing
  EXPECT_TRUE(gov.update(8));    // hits high: engage
  EXPECT_TRUE(gov.engaged());
  EXPECT_FALSE(gov.update(100));  // already engaged: no transition
  EXPECT_FALSE(gov.update(5));    // above low: stays engaged (hysteresis)
  EXPECT_TRUE(gov.update(4));     // reaches low: release
  EXPECT_FALSE(gov.engaged());
  EXPECT_FALSE(gov.update(6));    // between the marks while idle: nothing
  EXPECT_TRUE(gov.update(9));
  EXPECT_EQ(gov.engagements(), 2u);
}

TEST(Backpressure, RejectsDegenerateWatermarks) {
  EXPECT_THROW(BackpressureGovernor(4, 4), Error);
  EXPECT_THROW(BackpressureGovernor(4, 9), Error);
}

#if defined(__linux__)

// --- End-to-end over real sockets -------------------------------------------

/// The HASH request that asks the server for `job`'s digest.
Request hash_request(u64 id, const engine::HashJob& job) {
  Request req;
  req.id = id;
  req.op = Opcode::kHash;
  req.algo = job.algo;
  req.out_len = static_cast<u32>(job.out_len);
  req.key = job.key;
  req.customization = job.customization;
  req.message = job.message;
  return req;
}

/// Minimal blocking client for the framed protocol.
class TestClient {
 public:
  void connect_to(u16 port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr), 0);
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_raw(std::span<const u8> data) {
    usize sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<usize>(n);
    }
  }

  void send_request(const Request& req) {
    std::vector<u8> wire;
    append_frame(wire, encode_request(req));
    send_raw(wire);
  }

  /// Blocks for the next response; nullopt when the server closed.
  std::optional<Response> recv_response() {
    std::vector<u8> payload;
    while (!reader_.next(payload)) {
      u8 buf[16 * 1024];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return std::nullopt;
      if (!reader_.feed(std::span<const u8>(buf, static_cast<usize>(n)))) {
        return std::nullopt;
      }
    }
    std::string error;
    auto resp = decode_response(payload, error);
    EXPECT_TRUE(resp.has_value()) << error;
    return resp;
  }

  /// Blocks for `n` responses and keys them by request id: HASH replies
  /// come back in engine retirement order, not request order.
  std::map<u64, Response> recv_responses(usize n) {
    std::map<u64, Response> by_id;
    for (usize i = 0; i < n; ++i) {
      auto resp = recv_response();
      if (!resp.has_value()) break;
      const u64 id = resp->id;
      EXPECT_TRUE(by_id.emplace(id, std::move(*resp)).second)
          << "duplicate reply for id " << id;
    }
    return by_id;
  }

  /// True when reply bytes are waiting on the socket (non-blocking peek).
  bool reply_waiting() {
    u8 b = 0;
    return ::recv(fd_, &b, 1, MSG_PEEK | MSG_DONTWAIT) > 0;
  }

  /// True when the server has closed the connection (EOF on read).
  bool server_closed() {
    u8 buf[64];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    return n <= 0;
  }

  std::string http_get(const std::string& path) {
    const std::string req = "GET " + path + " HTTP/1.1\r\n\r\n";
    send_raw(std::span<const u8>(
        reinterpret_cast<const u8*>(req.data()), req.size()));
    std::string out;
    for (;;) {
      char buf[16 * 1024];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) break;  // Connection: close terminates the response
      out.append(buf, static_cast<usize>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

class ServerTest : public ::testing::Test {
 protected:
  void start(ServerConfig cfg) {
    cfg.port = 0;  // ephemeral
    server_ = std::make_unique<HashServer>(cfg);
    loop_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    if (server_) {
      server_->stop();
      loop_.join();
      server_.reset();
    }
  }

  static ServerConfig small_config() {
    ServerConfig cfg;
    cfg.engine.threads = 2;
    cfg.engine.accel = {core::Arch::k64Lmul8, 15, 24};
    cfg.engine.max_queue = 256;
    return cfg;
  }

  std::unique_ptr<HashServer> server_;
  std::thread loop_;
};

TEST_F(ServerTest, HashRoundTripsVerifyAgainstGoldenModel) {
  start(small_config());
  TestClient client;
  client.connect_to(server_->port());

  SplitMix64 rng(7);
  std::vector<engine::HashJob> jobs(24);
  for (usize i = 0; i < jobs.size(); ++i) {
    engine::HashJob& job = jobs[i];
    job.message.resize(rng.below(300));
    for (u8& b : job.message) b = static_cast<u8>(rng.next());
    if (i % 3 == 0) {
      job.algo = engine::Algo::kSha3_512;
    } else if (i % 3 == 1) {
      job.algo = engine::Algo::kShake256;
      job.out_len = 40;
    } else {
      job.algo = engine::Algo::kKmac128;
      job.out_len = 32;
      job.key.assign(16, 0x11);
      job.customization = bytes({0x42});
    }
    client.send_request(hash_request(100 + i, job));
  }
  // Responses arrive in engine retirement order; match them by id.
  const std::map<u64, Response> replies = client.recv_responses(jobs.size());
  ASSERT_EQ(replies.size(), jobs.size());
  for (usize i = 0; i < jobs.size(); ++i) {
    const auto it = replies.find(100 + i);
    ASSERT_NE(it, replies.end()) << "no reply for id " << 100 + i;
    ASSERT_TRUE(it->second.ok()) << it->second.error_text();
    EXPECT_EQ(it->second.body, engine::host_reference_digest(jobs[i]));
  }
}

TEST_F(ServerTest, SmallReplyDoesNotWaitBehindAnotherConnectionsLargeJob) {
  // Connection A's 256 KiB job hashes for a long while on the interpreter;
  // connection B's 32 B job, submitted after it, must be answered while
  // A's reply is still outstanding.
  ServerConfig cfg = small_config();
  cfg.engine.accel.backend = sim::ExecBackend::kInterpreter;
  start(cfg);
  TestClient a;
  a.connect_to(server_->port());
  TestClient b;
  b.connect_to(server_->port());

  SplitMix64 rng(17);
  const auto hash_request = [&rng](u64 id, usize len) {
    Request req;
    req.id = id;
    req.op = Opcode::kHash;
    req.algo = engine::Algo::kSha3_256;
    req.message.resize(len);
    for (u8& byte : req.message) byte = static_cast<u8>(rng.next());
    return req;
  };
  const Request large = hash_request(1, 256 * 1024);
  const Request small = hash_request(2, 32);
  a.send_request(large);
  // B sends only once the engine holds A's job.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->engine().in_flight() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  b.send_request(small);

  const auto small_resp = b.recv_response();
  ASSERT_TRUE(small_resp.has_value());
  ASSERT_TRUE(small_resp->ok()) << small_resp->error_text();
  EXPECT_EQ(small_resp->id, 2u);
  EXPECT_EQ(small_resp->body,
            keccak::hash(keccak::Sha3Function::kSha3_256, small.message, 32));
  EXPECT_FALSE(a.reply_waiting()) << "A's reply arrived before B's";

  const auto large_resp = a.recv_response();
  ASSERT_TRUE(large_resp.has_value());
  ASSERT_TRUE(large_resp->ok()) << large_resp->error_text();
  EXPECT_EQ(large_resp->id, 1u);
  EXPECT_EQ(large_resp->body,
            keccak::hash(keccak::Sha3Function::kSha3_256, large.message, 32));
}

TEST_F(ServerTest, HostSimdTierServesEveryAlgorithmAndSessions) {
  // The kvx-hashd configuration: shards start on the host-simd tier.
  ServerConfig cfg = small_config();
  cfg.engine.accel.backend = sim::ExecBackend::kHostSimd;
  start(cfg);
  TestClient client;
  client.connect_to(server_->port());

  const engine::Algo algos[] = {
      engine::Algo::kSha3_224, engine::Algo::kSha3_256,
      engine::Algo::kSha3_384, engine::Algo::kSha3_512,
      engine::Algo::kShake128, engine::Algo::kShake256,
      engine::Algo::kKmac128,  engine::Algo::kKmac256};
  SplitMix64 rng(13);
  std::vector<engine::HashJob> jobs;
  for (const engine::Algo algo : algos) {
    for (const usize len : {0u, 34u, 200u, 1000u}) {
      engine::HashJob job;
      job.algo = algo;
      job.message.resize(len);
      for (u8& b : job.message) b = static_cast<u8>(rng.next());
      if (engine::fixed_digest_bytes(algo) == 0) job.out_len = 672;
      if (algo == engine::Algo::kKmac128 || algo == engine::Algo::kKmac256) {
        job.out_len = 48;
        job.key.assign(32, 0x5a);
        job.customization = bytes({0x01, 0x02});
      }
      jobs.push_back(std::move(job));
    }
  }
  for (usize i = 0; i < jobs.size(); ++i) {
    client.send_request(hash_request(i, jobs[i]));
  }
  const std::map<u64, Response> replies = client.recv_responses(jobs.size());
  ASSERT_EQ(replies.size(), jobs.size());
  for (usize i = 0; i < jobs.size(); ++i) {
    const auto it = replies.find(i);
    ASSERT_NE(it, replies.end()) << "no reply for id " << i;
    ASSERT_TRUE(it->second.ok()) << it->second.error_text();
    EXPECT_EQ(it->second.body, engine::host_reference_digest(jobs[i]))
        << engine::algo_name(jobs[i].algo) << " len "
        << jobs[i].message.size();
  }

  const std::vector<u8> seed = bytes({0x34, 0x12, 0x00});
  Request open;
  open.id = 500;
  open.op = Opcode::kOpenSession;
  open.algo = engine::Algo::kShake128;
  open.message = seed;
  client.send_request(open);
  auto resp = client.recv_response();
  ASSERT_TRUE(resp.has_value());
  ASSERT_TRUE(resp->ok()) << resp->error_text();
  ASSERT_EQ(resp->body.size(), 8u);
  const u64 sid = load_le64(std::span<const u8, 8>(resp->body.data(), 8));
  keccak::Xof mirror(keccak::Sha3Function::kShake128);
  mirror.absorb(seed);
  for (const u32 n : {168u, 504u, 5u}) {
    Request sq;
    sq.id = 600 + n;
    sq.op = Opcode::kSqueeze;
    sq.session_id = sid;
    sq.squeeze_len = n;
    client.send_request(sq);
    resp = client.recv_response();
    ASSERT_TRUE(resp.has_value());
    ASSERT_TRUE(resp->ok()) << resp->error_text();
    EXPECT_EQ(resp->body, mirror.squeeze(n));
  }

  server_->stop();
  loop_.join();
  const engine::EngineStats st = server_->engine().stats();
  EXPECT_EQ(st.backend, "host-simd");
  EXPECT_EQ(st.effective_backend, "host-simd");
  ASSERT_EQ(st.shards.size(), 2u);
  for (const engine::ShardStats& shard : st.shards) {
    EXPECT_EQ(shard.fallbacks, 0u);
  }
  EXPECT_EQ(st.failed, 0u);
  server_.reset();
}

TEST_F(ServerTest, ConcurrentPipelinedConnectionsVerifyEveryReply) {
  // Four connections at once, each pipelining 32 requests deep: SHA3-256,
  // SHAKE128 and KMAC256 over 0-600 B, an occasional 16-64 KiB SHA3-256
  // whose reply the small ones overtake, and one SHAKE128 session squeezed
  // in uneven steps. Every reply is matched by id and verified.
  ServerConfig cfg = small_config();
  cfg.engine.accel.backend = sim::ExecBackend::kHostSimd;
  start(cfg);
  constexpr usize kConns = 4;
  constexpr usize kHashes = 160;
  constexpr usize kWindow = 32;
  constexpr u32 kSqueezes[] = {1, 167, 168, 500, 3, 1000};
  constexpr usize kOpenId = 0;
  std::atomic<usize> verified{0};

  const auto run_connection = [&](u64 seed) {
    TestClient client;
    client.connect_to(server_->port());
    SplitMix64 rng(seed);
    const std::vector<u8> absorbed =
        bytes({0x34, 0x12, static_cast<int>(seed)});
    keccak::Xof mirror(keccak::Sha3Function::kShake128);
    mirror.absorb(absorbed);
    std::map<u64, std::vector<u8>> expect;  // outstanding id -> reply body
    std::optional<u64> sid;
    usize hashes = 0;
    usize squeezes = 0;
    u64 next_id = kOpenId;

    Request open;
    open.id = next_id++;
    open.op = Opcode::kOpenSession;
    open.algo = engine::Algo::kShake128;
    open.message = absorbed;
    client.send_request(open);
    expect[open.id] = {};
    while (!expect.empty()) {
      while (expect.size() < kWindow) {
        const u64 id = next_id;
        if (sid.has_value() && squeezes < std::size(kSqueezes)) {
          Request sq;
          sq.id = id;
          sq.op = Opcode::kSqueeze;
          sq.session_id = *sid;
          sq.squeeze_len = kSqueezes[squeezes++];
          client.send_request(sq);
          expect[id] = mirror.squeeze(sq.squeeze_len);
        } else if (hashes < kHashes) {
          engine::HashJob job;
          const u64 pick = rng.below(3);
          const bool large = hashes % 40 == 39;
          job.message.resize(large ? 16 * 1024 + rng.below(48 * 1024)
                                   : rng.below(601));
          for (u8& b : job.message) b = static_cast<u8>(rng.next());
          if (!large && pick == 1) {
            job.algo = engine::Algo::kShake128;
            job.out_len = 1 + rng.below(300);
          } else if (!large && pick == 2) {
            job.algo = engine::Algo::kKmac256;
            job.out_len = 32;
            job.key.assign(32, 0x4b);
          }
          client.send_request(hash_request(id, job));
          expect[id] = engine::host_reference_digest(job);
          ++hashes;
        } else {
          break;
        }
        ++next_id;
      }
      const auto resp = client.recv_response();
      ASSERT_TRUE(resp.has_value()) << "server closed the connection";
      const auto it = expect.find(resp->id);
      ASSERT_NE(it, expect.end()) << "unexpected reply id " << resp->id;
      ASSERT_TRUE(resp->ok()) << "id " << resp->id << ": "
                              << resp->error_text();
      if (resp->id == kOpenId) {
        ASSERT_EQ(resp->body.size(), 8u);
        sid = load_le64(std::span<const u8, 8>(resp->body.data(), 8));
      } else {
        EXPECT_EQ(resp->body, it->second) << "id " << resp->id;
      }
      expect.erase(it);
      verified.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> clients;
  for (usize c = 0; c < kConns; ++c) {
    clients.emplace_back(run_connection, 100 + c);
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(verified.load(),
            kConns * (1 + kHashes + std::size(kSqueezes)));

  server_->stop();
  loop_.join();
  const engine::EngineStats st = server_->engine().stats();
  EXPECT_EQ(st.submitted, st.completed + st.failed);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.completed, kConns * kHashes);
  server_.reset();
}

TEST_F(ServerTest, InjectedFaultsAnswerFailedWithTheDemotionPath) {
  // Every accelerator dispatch faults, on every tier: the HASH comes back
  // kFailed with the engine error and each tier it tried, and the
  // connection keeps serving.
  ServerConfig cfg = small_config();
  cfg.engine.accel.backend = sim::ExecBackend::kHostSimd;
  sim::FaultPlan plan;
  plan.rate = 1.0;
  plan.kinds = static_cast<u32>(sim::FaultKind::kSimFault);
  cfg.engine.accel.fault_injector = std::make_shared<sim::FaultInjector>(plan);
  start(cfg);
  TestClient client;
  client.connect_to(server_->port());

  engine::HashJob job;
  job.message.assign(32, 0x61);
  client.send_request(hash_request(1, job));
  auto resp = client.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->id, 1u);
  ASSERT_EQ(resp->status, Status::kFailed);
  const std::string text = resp->error_text();
  EXPECT_NE(text.find("demotion path: host-simd (injected: "),
            std::string::npos)
      << text;
  for (const char* tier : {"-> fused (injected: ", "-> trace (injected: ",
                           "-> interpreter (injected: "}) {
    EXPECT_NE(text.find(tier), std::string::npos) << tier << " in " << text;
  }

  Request ping;
  ping.id = 2;
  ping.op = Opcode::kPing;
  client.send_request(ping);
  resp = client.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->ok());
  EXPECT_EQ(resp->id, 2u);
}

TEST_F(ServerTest, MalformedRequestsAnswerBadRequestAndKeepTheConnection) {
  start(small_config());
  TestClient client;
  client.connect_to(server_->port());

  // Well-framed garbage payload: 9 bytes, unknown opcode 0xEE.
  std::vector<u8> wire;
  append_frame(wire, bytes({1, 0, 0, 0, 0, 0, 0, 0, 0xEE}));
  client.send_raw(wire);
  auto resp = client.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::kBadRequest);
  EXPECT_EQ(resp->id, 1u);  // best-effort id echo
  EXPECT_FALSE(resp->error_text().empty());

  // A malformed job the ENGINE rejects (SHAKE with out_len 0) comes back
  // kFailed — per-job fail-soft, not a dropped connection.
  Request bad;
  bad.id = 2;
  bad.op = Opcode::kHash;
  bad.algo = engine::Algo::kShake128;
  bad.out_len = 0;
  client.send_request(bad);
  resp = client.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::kFailed);

  // The connection survived both: a PING still round-trips.
  Request ping;
  ping.id = 3;
  ping.op = Opcode::kPing;
  client.send_request(ping);
  resp = client.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->ok());
}

TEST_F(ServerTest, OversizedFrameDropsTheConnection) {
  start(small_config());
  TestClient client;
  client.connect_to(server_->port());
  // Header declaring a 16 MiB payload (over the 1 MiB cap).
  client.send_raw(bytes({0x00, 0x00, 0x00, 0x01}));
  EXPECT_TRUE(client.server_closed());
}

TEST_F(ServerTest, SlowLorisPartialFramesStillComplete) {
  start(small_config());
  TestClient client;
  client.connect_to(server_->port());
  Request ping;
  ping.id = 9;
  ping.op = Opcode::kPing;
  std::vector<u8> wire;
  append_frame(wire, encode_request(ping));
  for (const u8 b : wire) {  // one byte per segment
    client.send_raw(std::span<const u8>(&b, 1));
  }
  const auto resp = client.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->ok());
  EXPECT_EQ(resp->id, 9u);
}

TEST_F(ServerTest, StreamingSessionMatchesLocalMirror) {
  start(small_config());
  TestClient client;
  client.connect_to(server_->port());

  const std::vector<u8> message = bytes({10, 20, 30, 40});
  Request open;
  open.id = 1;
  open.op = Opcode::kOpenSession;
  open.algo = engine::Algo::kShake256;
  open.message = message;
  client.send_request(open);
  auto resp = client.recv_response();
  ASSERT_TRUE(resp.has_value());
  ASSERT_TRUE(resp->ok()) << resp->error_text();
  ASSERT_EQ(resp->body.size(), 8u);
  const u64 sid = load_le64(std::span<const u8, 8>(resp->body.data(), 8));

  keccak::Xof mirror(keccak::Sha3Function::kShake256);
  mirror.absorb(message);
  // XOF output streams across REQUESTS, not just reads: three squeezes
  // continue the same sponge.
  for (const u32 n : {17u, 136u, 1u}) {
    Request sq;
    sq.id = 50 + n;
    sq.op = Opcode::kSqueeze;
    sq.session_id = sid;
    sq.squeeze_len = n;
    client.send_request(sq);
    resp = client.recv_response();
    ASSERT_TRUE(resp.has_value());
    ASSERT_TRUE(resp->ok()) << resp->error_text();
    EXPECT_EQ(resp->body, mirror.squeeze(n));
  }

  Request close;
  close.id = 90;
  close.op = Opcode::kCloseSession;
  close.session_id = sid;
  client.send_request(close);
  resp = client.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->ok());

  // Squeezing the closed session is a BAD_REQUEST, not a crash.
  Request sq;
  sq.id = 91;
  sq.op = Opcode::kSqueeze;
  sq.session_id = sid;
  sq.squeeze_len = 8;
  client.send_request(sq);
  resp = client.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::kBadRequest);
}

TEST_F(ServerTest, HttpAdminPlaneServesMetricsAndHealth) {
  start(small_config());
  constexpr usize kJobs = 12;
  {
    TestClient client;
    client.connect_to(server_->port());
    SplitMix64 rng(23);
    std::vector<engine::HashJob> jobs(kJobs);
    for (usize i = 0; i < kJobs; ++i) {
      jobs[i].message.resize(rng.below(200));
      for (u8& b : jobs[i].message) b = static_cast<u8>(rng.next());
      client.send_request(hash_request(i, jobs[i]));
    }
    const std::map<u64, Response> replies = client.recv_responses(kJobs);
    ASSERT_EQ(replies.size(), kJobs);
    for (const auto& [id, resp] : replies) {
      ASSERT_TRUE(resp.ok()) << resp.error_text();
      EXPECT_EQ(resp.body, engine::host_reference_digest(jobs[id]));
    }
  }
  {
    TestClient curl;
    curl.connect_to(server_->port());
    const std::string metrics = curl.http_get("/metrics");
    EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("kvx_server_connections"), std::string::npos);
    EXPECT_NE(metrics.find("kvx_server_backpressure_events_total"),
              std::string::npos);
  }
  {
    TestClient curl;
    curl.connect_to(server_->port());
    const std::string health = curl.http_get("/healthz");
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
    // Every reply was sent after its job retired, so the totals are exact.
    EXPECT_NE(health.find("ok submitted=12 completed=12 failed=0 in_flight=0"),
              std::string::npos)
        << health;
  }
  {
    TestClient curl;
    curl.connect_to(server_->port());
    const std::string missing = curl.http_get("/nope");
    EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  }
}

TEST_F(ServerTest, BackpressureEngagesAndReleasesUnderBurst) {
  // One slow worker shard and a tiny queue: a pipelined burst MUST drive
  // the queue to the high watermark (engage), and completion of every
  // response proves the governor released and resumed reading.
  ServerConfig cfg;
  cfg.engine.threads = 1;
  cfg.engine.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.engine.max_queue = 8;  // high watermark derives to 6, low to 3
  start(cfg);

  TestClient client;
  client.connect_to(server_->port());
  const usize kJobs = 64;
  std::vector<engine::HashJob> jobs(kJobs);
  SplitMix64 rng(11);
  for (usize i = 0; i < kJobs; ++i) {
    jobs[i].algo = engine::Algo::kSha3_256;
    jobs[i].message.resize(500);
    for (u8& b : jobs[i].message) b = static_cast<u8>(rng.next());
    Request req;
    req.id = i;
    req.op = Opcode::kHash;
    req.algo = jobs[i].algo;
    req.message = jobs[i].message;
    client.send_request(req);
  }
  for (usize i = 0; i < kJobs; ++i) {
    const auto resp = client.recv_response();
    ASSERT_TRUE(resp.has_value());
    ASSERT_TRUE(resp->ok()) << resp->error_text();
    EXPECT_EQ(resp->id, i);
    EXPECT_EQ(resp->body, engine::host_reference_digest(jobs[i]));
  }

  // Quiesce the loop, then read its counters safely.
  server_->stop();
  loop_.join();
  EXPECT_GT(server_->counters().backpressure_engagements, 0u);
  EXPECT_EQ(server_->counters().requests, kJobs);
  const engine::EngineStats st = server_->engine().stats();
  EXPECT_EQ(st.submitted, st.completed + st.failed);
  server_.reset();
}

#endif  // __linux__

}  // namespace
}  // namespace kvx::net
