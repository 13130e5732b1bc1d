// The benchmark's closed-loop client: one thread, `connections` sockets,
// `window` requests in flight on each. A connection sends its next request
// as soon as a reply frees a slot, the model of RPC callers that wait for
// their replies. Every reply is verified: HASH digests against the host
// golden model (engine::host_reference_digest), SQUEEZE chunks against a
// local keccak::Xof mirror of the session.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "kvx/common/bits.hpp"
#include "kvx/keccak/sha3.hpp"
#include "kvx/net/frame.hpp"
#include "kvx/net/protocol.hpp"
#include "modes.hpp"
#include "spans.hpp"

namespace hashbench {

namespace {

using kvx::net::Opcode;

enum class Phase { kWarmup, kBaseline, kMeasure, kDrain };

struct Pending {
  u64 sent_ns = 0;
  Opcode op = Opcode::kHash;
  bool small = false;          ///< one-shot HASH with a message < 1 KiB
  usize absorbed = 0;          ///< message bytes the request carries
  std::vector<u8> expected;    ///< HASH: the golden digest
  u32 squeeze_len = 0;
};

struct Session {
  SessionScript script;
  usize step = 0;              ///< squeezes answered so far
  u64 sid = 0;
  std::optional<kvx::keccak::Xof> mirror;  ///< set once OPEN succeeded
  bool busy = false;           ///< a request of this session is in flight
};

struct Conn {
  int fd = -1;
  std::vector<u8> out;
  usize out_off = 0;
  kvx::net::FrameReader reader;
  std::unordered_map<u64, Pending> pending;
  std::optional<TrafficStream> stream;
  std::optional<Session> session;
};

/// One block of consecutive replies in the measured window. run.py reports
/// the median over blocks, so a stall of the host in one block does not
/// move the figure.
struct Slice {
  u64 start_ns = 0;
  u64 end_ns = 0;
  double cpu_start = -1.0;  ///< daemon CPU seconds at the slice bounds
  double cpu_end = -1.0;
  u64 completed = 0;
  u64 payload_bytes = 0;
  std::vector<u64> latencies;
  std::vector<u64> small_latencies;
  u64 hash_latency_sum = 0;
  u64 hash_count = 0;
};

struct Tally {
  u64 attempted = 0;
  u64 bad_status = 0;       ///< FAILED or BAD_REQUEST replies
  u64 mismatches = 0;       ///< OK replies that differ from the golden model
  u64 protocol_errors = 0;  ///< undecodable or unexpected replies
  u64 missing = 0;          ///< requests never answered
  u64 hashes = 0;           ///< HASH requests issued (corruption cadence)
  u64 baseline_completed = 0;

  [[nodiscard]] u64 failed() const noexcept {
    return bad_status + mismatches + protocol_errors + missing;
  }
};

u64 seconds_to_ns(double s) { return static_cast<u64>(s * 1e9); }
double ms(u64 ns) { return static_cast<double>(ns) / 1e6; }

u64 percentile(std::vector<u64>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<usize>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Daemon CPU time (utime + stime) in seconds, or -1 if unreadable.
double process_cpu_seconds(int pid) {
  if (pid <= 0) return -1.0;
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1.0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const usize close = line.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (rest >> field); ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

int connect_loopback(kvx::u16 port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::strerror(errno);
    return -1;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error = std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

/// GET /metrics on its own connection; writes the body to `path`.
bool scrape_metrics(kvx::u16 port, const std::string& path) {
  std::string error;
  const int fd = connect_loopback(port, error);
  if (fd < 0) return false;
  const std::string req = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
  bool ok = ::send(fd, req.data(), req.size(), 0) ==
            static_cast<ssize_t>(req.size());
  std::string reply;
  char buf[16 * 1024];
  while (ok) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reply.append(buf, static_cast<usize>(n));
  }
  ::close(fd);
  const usize body = reply.find("\r\n\r\n");
  if (!ok || body == std::string::npos) return false;
  std::ofstream out(path);
  out << reply.substr(body + 4);
  return static_cast<bool>(out);
}

class LoadClient {
 public:
  explicit LoadClient(const LoadOptions& opt)
      : opt_(opt), spans_(!opt.spans_path.empty()) {}

  ~LoadClient() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  int run();

 private:
  bool connect_all();
  void fill_window(Conn& c);
  void issue(Conn& c, kvx::net::Request req, Pending p);
  bool flush(Conn& c);
  bool read_replies(Conn& c, unsigned index);
  void on_reply(Conn& c, unsigned index, const kvx::net::Response& resp);
  void enter_phase(Phase next, u64 now);
  void close_slice(u64 now);
  void print_result() const;
  bool fatal(const char* what);

  LoadOptions opt_;
  SpanLog spans_;
  std::vector<Conn> conns_;
  Tally tally_;
  Phase phase_ = Phase::kWarmup;
  u64 next_id_ = 1;
  std::vector<Slice> slices_;  ///< the last one is open
  bool scrapes_ok_ = true;
  std::string fatal_;
};

bool LoadClient::fatal(const char* what) {
  if (fatal_.empty()) fatal_ = std::string(what) + ": " + std::strerror(errno);
  return false;
}

bool LoadClient::connect_all() {
  conns_.resize(kConnections);
  for (unsigned i = 0; i < kConnections; ++i) {
    Conn& c = conns_[i];
    c.fd = connect_loopback(opt_.port, fatal_);
    if (c.fd < 0) return false;
    if (::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK) != 0) {
      return fatal("fcntl");
    }
    c.stream.emplace(opt_.workload, opt_.seed, i);
  }
  return true;
}

void LoadClient::issue(Conn& c, kvx::net::Request req, Pending p) {
  req.id = next_id_++;
  p.sent_ns = now_ns();
  kvx::net::append_frame(c.out, kvx::net::encode_request(req));
  c.pending.emplace(req.id, std::move(p));
  ++tally_.attempted;
}

void LoadClient::fill_window(Conn& c) {
  while (c.pending.size() < kWindow) {
    kvx::net::Request req;
    Pending p;
    Session* s = c.session ? &*c.session : nullptr;
    if (s != nullptr && s->mirror && !s->busy) {
      // The open session's next step: a squeeze, or the close.
      s->busy = true;
      req.session_id = s->sid;
      if (s->step < s->script.squeezes.size()) {
        req.op = p.op = Opcode::kSqueeze;
        req.squeeze_len = p.squeeze_len = s->script.squeezes[s->step];
      } else {
        req.op = p.op = Opcode::kCloseSession;
      }
    } else if (s == nullptr && c.stream->session_due()) {
      c.session.emplace();
      c.session->script = c.stream->next_session();
      c.session->busy = true;
      req.op = p.op = Opcode::kOpenSession;
      req.algo = c.session->script.algo;
      req.message = c.session->script.message;
      p.absorbed = req.message.size();
    } else {
      kvx::engine::HashJob job = c.stream->next_job();
      ++tally_.hashes;
      p.op = Opcode::kHash;
      p.small = job.message.size() < kSmallMessageBytes;
      p.absorbed = job.message.size();
      p.expected = kvx::engine::host_reference_digest(job);
      if (opt_.corrupt_every != 0 && tally_.hashes % opt_.corrupt_every == 0) {
        p.expected[0] ^= 0x01;
      }
      req.op = Opcode::kHash;
      req.algo = job.algo;
      req.out_len = static_cast<u32>(job.out_len);
      req.key = std::move(job.key);
      req.customization = std::move(job.customization);
      req.message = std::move(job.message);
    }
    issue(c, std::move(req), std::move(p));
  }
}

bool LoadClient::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return fatal("send");
    }
    c.out_off += static_cast<usize>(n);
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

bool LoadClient::read_replies(Conn& c, unsigned index) {
  u8 buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return fatal("recv");
    }
    if (n == 0) {
      fatal_ = "daemon closed a connection";
      return false;
    }
    if (!c.reader.feed(std::span<const u8>(buf, static_cast<usize>(n)))) {
      fatal_ = "framing: " + c.reader.error();
      return false;
    }
  }
  std::vector<u8> payload;
  while (c.reader.next(payload)) {
    std::string error;
    const std::optional<kvx::net::Response> resp =
        kvx::net::decode_response(payload, error);
    if (!resp) {
      ++tally_.protocol_errors;
      continue;
    }
    on_reply(c, index, *resp);
  }
  return true;
}

void LoadClient::on_reply(Conn& c, unsigned index,
                          const kvx::net::Response& resp) {
  const u64 now = now_ns();
  const auto it = c.pending.find(resp.id);
  if (it == c.pending.end()) {
    ++tally_.protocol_errors;
    return;
  }
  const Pending p = std::move(it->second);
  c.pending.erase(it);

  bool good = false;
  usize produced = 0;
  Session* s = c.session ? &*c.session : nullptr;
  if (!resp.ok()) {
    ++tally_.bad_status;
  } else if (p.op == Opcode::kHash) {
    good = resp.body == p.expected;
    produced = resp.body.size();
  } else if (s == nullptr) {
    ++tally_.protocol_errors;  // a session reply with no session open
  } else if (p.op == Opcode::kOpenSession) {
    good = resp.body.size() == 8;
    if (good) {
      s->sid = kvx::load_le64(std::span<const u8, 8>(resp.body.data(), 8));
      s->mirror.emplace(kvx::engine::base_function(s->script.algo));
      s->mirror->absorb(s->script.message);
    }
  } else if (p.op == Opcode::kSqueeze) {
    // The wire stream must equal the local sponge squeezed at the same
    // cut points.
    good = s->mirror && resp.body == s->mirror->squeeze(p.squeeze_len);
    produced = resp.body.size();
    ++s->step;
  } else {
    good = resp.body.empty();
  }
  if (resp.ok() && !good) ++tally_.mismatches;

  if (p.op != Opcode::kHash && s != nullptr) {
    s->busy = false;
    // A failed open or a close (answered either way) ends the session.
    if (p.op == Opcode::kCloseSession || !s->mirror) c.session.reset();
  }

  if (phase_ == Phase::kBaseline) ++tally_.baseline_completed;
  if (phase_ != Phase::kMeasure) return;
  Slice& slice = slices_.back();
  const u64 latency = now - p.sent_ns;
  ++slice.completed;
  slice.latencies.push_back(latency);
  if (p.small) slice.small_latencies.push_back(latency);
  if (p.op == Opcode::kHash) {
    slice.hash_latency_sum += latency;
    ++slice.hash_count;
  }
  if (good) slice.payload_bytes += p.absorbed + produced;
  if (opt_.block != 0 && slice.completed == opt_.block) close_slice(now);
  static constexpr const char* kNames[] = {"?", "request.hash", "request.open",
                                           "request.squeeze", "request.close",
                                           "request.ping"};
  spans_.add(kNames[static_cast<unsigned>(p.op) % 6], resp.id, 0, index,
             p.sent_ns, now);
}

void LoadClient::enter_phase(Phase next, u64 now) {
  if (next == Phase::kMeasure) {
    if (!opt_.metrics_prefix.empty()) {
      scrapes_ok_ &=
          scrape_metrics(opt_.port, opt_.metrics_prefix + ".start.prom");
    }
    slices_.assign(1, Slice{});
    slices_[0].start_ns = now_ns();
    slices_[0].cpu_start = process_cpu_seconds(opt_.daemon_pid);
  } else if (next == Phase::kDrain && phase_ == Phase::kMeasure) {
    // A block left partial at the end is dropped, unless it is the only one.
    if (slices_.size() > 1) slices_.pop_back();
    Slice& last = slices_.back();
    if (last.end_ns == 0) {
      last.end_ns = now;
      last.cpu_end = process_cpu_seconds(opt_.daemon_pid);
    }
    if (!opt_.metrics_prefix.empty()) {
      scrapes_ok_ &=
          scrape_metrics(opt_.port, opt_.metrics_prefix + ".end.prom");
    }
  }
  phase_ = next;
}

void LoadClient::close_slice(u64 now) {
  Slice next;
  next.start_ns = now;
  next.cpu_start = process_cpu_seconds(opt_.daemon_pid);
  slices_.back().end_ns = now;
  slices_.back().cpu_end = next.cpu_start;
  slices_.push_back(std::move(next));
}

int LoadClient::run() {
  if (!connect_all()) {
    std::fprintf(stderr, "hashbench load: connect: %s\n", fatal_.c_str());
    return 1;
  }
  const u64 t0 = now_ns();
  const u64 baseline_at = t0 + seconds_to_ns(kWarmupS);
  const u64 measure_at = baseline_at + seconds_to_ns(opt_.baseline_s);
  const u64 drain_at = measure_at + seconds_to_ns(opt_.seconds);
  const u64 give_up_at = drain_at + seconds_to_ns(30.0);

  std::vector<pollfd> fds(conns_.size());
  bool alive = true;
  while (alive) {
    const u64 now = now_ns();
    if (phase_ == Phase::kWarmup && now >= baseline_at) {
      enter_phase(Phase::kBaseline, now);
    }
    if (phase_ == Phase::kBaseline && now >= measure_at) {
      enter_phase(Phase::kMeasure, now);
    }
    if (phase_ == Phase::kMeasure && now >= drain_at) {
      enter_phase(Phase::kDrain, now);
    }
    usize in_flight = 0;
    for (unsigned i = 0; i < conns_.size(); ++i) {
      if (phase_ != Phase::kDrain) fill_window(conns_[i]);
      alive = alive && flush(conns_[i]);
      in_flight += conns_[i].pending.size();
    }
    if (!alive || (phase_ == Phase::kDrain && in_flight == 0)) break;
    if (now >= give_up_at) {
      fatal_ = "replies still missing 30 s after the window closed";
      break;
    }
    for (usize i = 0; i < conns_.size(); ++i) {
      const int events = POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT);
      fds[i] = {conns_[i].fd, static_cast<short>(events), 0};
    }
    const int ready = ::poll(fds.data(), fds.size(), 5);
    if (ready < 0 && errno != EINTR) alive = fatal("poll");
    for (usize i = 0; alive && ready > 0 && i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        alive = read_replies(conns_[i], static_cast<unsigned>(i));
      }
    }
  }
  for (const Conn& c : conns_) tally_.missing += c.pending.size();
  if (phase_ != Phase::kDrain) {
    // The loop broke off early; close the window where it stopped.
    if (slices_.empty()) enter_phase(Phase::kMeasure, now_ns());
    enter_phase(Phase::kDrain, now_ns());
  }
  if (!fatal_.empty()) {
    std::fprintf(stderr, "hashbench load: %s\n", fatal_.c_str());
  }
  if (!scrapes_ok_) {
    std::fprintf(stderr, "hashbench load: a /metrics scrape failed\n");
  }
  if (spans_.enabled() && !spans_.write(opt_.spans_path)) {
    std::fprintf(stderr, "hashbench load: cannot write %s\n",
                 opt_.spans_path.c_str());
  }
  print_result();
  const bool clean = fatal_.empty() && scrapes_ok_ && tally_.failed() == 0;
  return clean ? 0 : 1;
}

void LoadClient::print_result() const {
  // Whole-window figures first, then each block's.
  u64 completed = 0, samples = 0, small = 0, hash_sum = 0, hash_count = 0;
  for (const Slice& s : slices_) {
    completed += s.completed;
    samples += s.latencies.size();
    small += s.small_latencies.size();
    hash_sum += s.hash_latency_sum;
    hash_count += s.hash_count;
  }
  const Slice& first = slices_.front();
  const Slice& last = slices_.back();
  const double window_s =
      static_cast<double>(last.end_ns - first.start_ns) / 1e9;
  const double baseline_rps =
      opt_.baseline_s > 0.0
          ? static_cast<double>(tally_.baseline_completed) / opt_.baseline_s
          : 0.0;
  std::printf(
      "{\"connections\": %u, \"window\": %zu, "
      "\"attempted\": %llu, \"failed\": %llu, \"bad_status\": %llu, "
      "\"mismatches\": %llu, \"protocol_errors\": %llu, \"missing\": %llu, "
      "\"fatal\": %s, \"window_s\": %.6f, \"completed\": %llu, "
      "\"samples\": %llu, \"small_samples\": %llu, "
      "\"hash_mean_ns\": %.1f, \"daemon_cpu_s\": %.6f, "
      "\"baseline_req_per_s\": %.3f, \"spans\": %zu, \"slices\": [",
      kConnections, kWindow, static_cast<unsigned long long>(tally_.attempted),
      static_cast<unsigned long long>(tally_.failed()),
      static_cast<unsigned long long>(tally_.bad_status),
      static_cast<unsigned long long>(tally_.mismatches),
      static_cast<unsigned long long>(tally_.protocol_errors),
      static_cast<unsigned long long>(tally_.missing),
      fatal_.empty() ? "false" : "true", window_s,
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(samples),
      static_cast<unsigned long long>(small),
      hash_count == 0 ? 0.0
                      : static_cast<double>(hash_sum) /
                            static_cast<double>(hash_count),
      last.cpu_end - first.cpu_start, baseline_rps, spans_.size());
  for (usize i = 0; i < slices_.size(); ++i) {
    Slice s = slices_[i];
    const double secs = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    std::printf(
        "%s{\"req_per_s\": %.6f, \"payload_mb_per_s\": %.9f, "
        "\"p50_ms\": %.6f, \"p90_ms\": %.6f, \"p99_ms\": %.6f, "
        "\"small_p90_ms\": %.6f, \"small_p99_ms\": %.6f, "
        "\"samples\": %zu, \"small_samples\": %zu}",
        i == 0 ? "" : ", ", static_cast<double>(s.completed) / secs,
        static_cast<double>(s.payload_bytes) / secs / 1e6,
        ms(percentile(s.latencies, 0.50)), ms(percentile(s.latencies, 0.90)),
        ms(percentile(s.latencies, 0.99)),
        ms(percentile(s.small_latencies, 0.90)),
        ms(percentile(s.small_latencies, 0.99)), s.latencies.size(),
        s.small_latencies.size());
  }
  std::printf("]}\n");
}

}  // namespace

int run_load(const LoadOptions& opt) {
  LoadClient client(opt);
  return client.run();
}

}  // namespace hashbench
