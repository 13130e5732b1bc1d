// Traffic mixes of the benchmark, generated deterministically from a seed.
//
// Each client connection draws from its own stream (seed, stream index).
// A stream has two independent generators: HASH jobs, and streaming SHAKE
// session scripts. Which one the client takes next depends on whether the
// connection's session slot is free, which depends on timing. Keeping the
// generators apart makes the inputs themselves fixed by the seed either way.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "kvx/common/rng.hpp"
#include "kvx/common/types.hpp"
#include "kvx/engine/job.hpp"

namespace hashbench {

using kvx::u32;
using kvx::u64;
using kvx::u8;
using kvx::usize;

enum class Workload { kApiSmall, kKyberMatgen, kBulkMixed };

inline constexpr Workload kWorkloads[] = {
    Workload::kApiSmall, Workload::kKyberMatgen, Workload::kBulkMixed};

[[nodiscard]] std::string_view workload_name(Workload w) noexcept;
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// Messages below this size are the interactive requests `small_p99_ms`
/// covers.
inline constexpr usize kSmallMessageBytes = 1024;

/// One streaming XOF session: OPEN(algo, message), then SQUEEZE of each
/// length in turn, then CLOSE.
struct SessionScript {
  kvx::engine::Algo algo = kvx::engine::Algo::kShake128;
  std::vector<u8> message;
  std::vector<u32> squeezes;
};

class TrafficStream {
 public:
  TrafficStream(Workload workload, u64 seed, unsigned stream);

  /// The stream's next HASH job.
  [[nodiscard]] kvx::engine::HashJob next_job();

  /// True when the stream wants to start a session before its next job.
  /// Only bulk-mixed has sessions: one is due every kSessionEvery jobs.
  [[nodiscard]] bool session_due() const noexcept;

  /// The next session script; clears session_due() until the cadence
  /// comes round again.
  [[nodiscard]] SessionScript next_session();

  /// Squeeze size representative of the workload (the ladder times the
  /// host Xof at it): SHAKE128's 64 B in api-small, the 672 B Kyber row
  /// squeeze, and the session chunks of bulk-mixed.
  [[nodiscard]] static usize typical_squeeze_bytes(Workload w) noexcept;

 private:
  kvx::engine::HashJob small_job();
  kvx::engine::HashJob kyber_job();

  Workload workload_;
  kvx::SplitMix64 job_rng_;
  kvx::SplitMix64 session_rng_;
  u64 jobs_ = 0;
  u64 sessions_ = 0;
  u64 bulk_slot_ = 0;  ///< bulk-mixed: place of the bulk job in its block
  // Kyber matrix state: one 32-byte seed per 3 x 3 matrix.
  std::vector<u8> matrix_seed_;
  unsigned matrix_entry_ = 9;
};

/// The first `count` HASH jobs of stream 0: what the in-process ladder
/// feeds the core and engine layers.
[[nodiscard]] std::vector<kvx::engine::HashJob> ladder_jobs(Workload w,
                                                            u64 seed,
                                                            usize count);

}  // namespace hashbench
