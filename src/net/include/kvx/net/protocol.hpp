// kvx-hashd wire protocol: the length-prefixed binary request/response
// format the hash service speaks (docs/server.md has the byte-level
// layout and examples).
//
// Transport framing (kvx/net/frame.hpp) is a u32 little-endian payload
// length followed by the payload; this header defines what is *inside* a
// payload. Both directions share the first 9 bytes:
//
//   request  = u64 id (LE) | u8 opcode | opcode-specific body
//   response = u64 id (LE) | u8 status | status-specific body
//
// Opcodes:
//   kHash (1)         u8 algo | u32 out_len | u16 key_len | u16 cust_len |
//                     key bytes | customization bytes | message bytes
//                     (message = everything after the declared prefixes).
//                     One-shot: the job goes through the BatchHashEngine
//                     and the OK response body is the digest.
//   kOpenSession (2)  u8 algo (SHAKE128/256 only) | message bytes.
//                     Absorbs the message into a server-side XOF sponge;
//                     OK body is a u64 session id (LE). The session then
//                     streams output across any number of kSqueeze
//                     requests — the protocol face of the sponge's
//                     squeeze-forever property.
//   kSqueeze (3)      u64 session_id | u32 n. OK body is n bytes of XOF
//                     output, advancing the session's squeeze offset.
//   kCloseSession (4) u64 session_id. OK body empty.
//   kPing (5)         empty body; OK body empty (liveness/latency probe).
//
// Statuses:
//   kOk (0)           request-specific body as above.
//   kBadRequest (1)   body is a human-readable UTF-8 error (unknown
//                     opcode/algo, length mismatch, unknown session, ...).
//   kFailed (2)       the engine retired the job with a per-job error;
//                     body is the error text followed by the backend
//                     demotion path the accelerator walked (fail-soft
//                     forensics, same rendering as the kvx-doctor output).
//
// Every decoder here is total: arbitrary bytes produce either a valid
// struct or a diagnostic — never UB, never an exception. That is the
// property tests/test_net.cpp fuzzes.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "kvx/common/types.hpp"
#include "kvx/engine/job.hpp"

namespace kvx::net {

/// Hard cap on a frame payload (requests and responses). Oversized frames
/// are a protocol violation: the connection is dropped, not buffered.
inline constexpr usize kMaxFramePayload = usize{1} << 20;  // 1 MiB

/// Cap on requested digest/squeeze output per request; keeps one request
/// from inflating a 13-byte frame into an arbitrarily large response.
inline constexpr usize kMaxOutputLen = usize{1} << 16;  // 64 KiB

/// Bytes shared by every request/response payload (id + opcode/status).
inline constexpr usize kHeaderBytes = 9;

enum class Opcode : u8 {
  kHash = 1,
  kOpenSession = 2,
  kSqueeze = 3,
  kCloseSession = 4,
  kPing = 5,
};

enum class Status : u8 {
  kOk = 0,
  kBadRequest = 1,
  kFailed = 2,
};

/// One decoded client request. Fields beyond `id`/`op` are only meaningful
/// for the opcodes that carry them (see the layout above).
struct Request {
  u64 id = 0;
  Opcode op = Opcode::kPing;
  // kHash
  engine::Algo algo = engine::Algo::kSha3_256;
  u32 out_len = 0;
  std::vector<u8> key;
  std::vector<u8> customization;
  std::vector<u8> message;  ///< also the kOpenSession absorb input
  // kSqueeze / kCloseSession
  u64 session_id = 0;
  u32 squeeze_len = 0;
};

/// One decoded server response.
struct Response {
  u64 id = 0;
  Status status = Status::kOk;
  /// Digest / session id / squeezed bytes for kOk; UTF-8 error text for
  /// kBadRequest and kFailed.
  std::vector<u8> body;

  [[nodiscard]] bool ok() const noexcept { return status == Status::kOk; }
  [[nodiscard]] std::string error_text() const {
    return std::string(body.begin(), body.end());
  }
};

/// Decode a request payload. Returns std::nullopt and sets `error` on any
/// malformed input (short payload, unknown opcode/algo, inconsistent
/// lengths, out-of-range output size). Never throws.
[[nodiscard]] std::optional<Request> decode_request(std::span<const u8> payload,
                                                    std::string& error);

/// Encode a request payload (client side: hashbench load, tests).
[[nodiscard]] std::vector<u8> encode_request(const Request& req);

/// Decode a response payload (client side). Same total-function contract
/// as decode_request.
[[nodiscard]] std::optional<Response> decode_response(
    std::span<const u8> payload, std::string& error);

/// Encode an OK response with `body`.
[[nodiscard]] std::vector<u8> encode_response_ok(u64 id,
                                                 std::span<const u8> body);

/// Encode an error response (`status` must not be kOk).
[[nodiscard]] std::vector<u8> encode_response_error(u64 id, Status status,
                                                    std::string_view text);

/// Render a failed JobResult the way the kFailed body carries it: the
/// per-job error, then " | demotion path: tier (err) -> ..." when the
/// accelerator recorded the tiers it walked.
[[nodiscard]] std::string render_failure(const engine::JobResult& result);

/// True if `algo` is an engine algorithm a session can stream (the XOFs).
[[nodiscard]] constexpr bool session_capable(engine::Algo algo) noexcept {
  return algo == engine::Algo::kShake128 || algo == engine::Algo::kShake256;
}

}  // namespace kvx::net
