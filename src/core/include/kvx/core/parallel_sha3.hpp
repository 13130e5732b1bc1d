// Batched SHA-3 / SHAKE / cSHAKE / KMAC on the simulated vector accelerator.
//
// This is the HW/SW co-design split of the paper's motivating workload
// (§1, CRYSTALS-Kyber matrix generation): software performs the sponge
// bookkeeping (padding, absorb XOR, squeeze copy) while the accelerator
// runs up to SN Keccak-f[1600] permutations in lockstep.
//
// Only the permutation is lockstep. Every batch call runs one sponge loop
// (sponge_batch) in which each of the SN lanes carries its own job — rate,
// domain byte, input and output length may all differ — and its own absorb
// or squeeze cursor. Each step permutes the busy lanes together; a lane
// whose job finishes takes the next job of the batch, so mixed traffic
// keeps the lanes filled (continuous batching at block granularity).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "kvx/core/vector_keccak.hpp"
#include "kvx/keccak/sha3.hpp"
#include "kvx/obs/step_cycles.hpp"

namespace kvx::core {

/// Accumulated accelerator statistics.
struct BatchStats {
  u64 accelerator_cycles = 0;   ///< simulated cycles spent in permutations
  u64 permutation_batches = 0;  ///< accelerator invocations
  u64 permutations = 0;         ///< state-permutations performed (≤ SN each)
  /// Per-step attribution of accelerator_cycles (θ/ρπ/χι/absorb/other);
  /// step_cycles.total == accelerator_cycles, exactly.
  obs::StepCycleStats step_cycles;
};

/// Domain-separation byte of cSHAKE and KMAC (SP 800-185).
inline constexpr u8 kCshakeDomain = 0x04;

/// One raw-sponge job: absorb `input` at `rate` bytes per block with the
/// `domain` byte before pad10*1, then squeeze `out_len` bytes. The input
/// is borrowed and must outlive the sponge_batch() call.
struct SpongeJob {
  usize rate = 0;
  u8 domain = 0;
  std::span<const u8> input;
  usize out_len = 0;

  /// A FIPS 202 function over `input`: its rate, domain 0x06 (SHA3-*) or
  /// 0x1F (SHAKE*).
  [[nodiscard]] static SpongeJob fips202(keccak::Sha3Function f,
                                         std::span<const u8> input,
                                         usize out_len) noexcept;
};

/// The SP 800-185 input encoding of KMAC (N = "KMAC") at the cSHAKE `rate`:
///   bytepad(encode_string(N) ‖ encode_string(S), rate) ‖
///   bytepad(encode_string(K), rate) ‖ message ‖ right_encode(8·out_len)
/// — the bytes a SpongeJob absorbs with kCshakeDomain. kmac_batch and the
/// engine's KMAC jobs both build their inputs here.
[[nodiscard]] std::vector<u8> kmac_input(usize rate, std::span<const u8> key,
                                         std::span<const u8> message,
                                         usize out_len,
                                         std::span<const u8> customization);

class ParallelSha3 {
 public:
  explicit ParallelSha3(const VectorKeccakConfig& config);

  /// Construct around a prebuilt permutation program (see
  /// VectorKeccak::build_program). All instances sharing the program still
  /// own independent simulator state, so each is safe to drive from its own
  /// thread.
  ParallelSha3(const VectorKeccakConfig& config,
               std::shared_ptr<const KeccakProgram> program);

  /// Cheap per-shard clone: a fresh instance (own simulator, zeroed stats)
  /// that shares this instance's immutable program.
  [[nodiscard]] std::unique_ptr<ParallelSha3> clone() const;

  [[nodiscard]] unsigned lanes() const noexcept { return vk_.config().sn(); }
  [[nodiscard]] const VectorKeccakConfig& config() const noexcept {
    return vk_.config();
  }
  [[nodiscard]] const std::shared_ptr<const KeccakProgram>& shared_program()
      const noexcept {
    return vk_.shared_program();
  }

  /// Backend the permutation accelerator actually uses (the configured one,
  /// downgraded to the interpreter if trace compilation was rejected).
  [[nodiscard]] sim::ExecBackend active_backend() const noexcept {
    return vk_.active_backend();
  }

  /// Backend that completed the most recent permutation dispatch — equal to
  /// active_backend() unless that dispatch demoted mid-chain (fail-soft
  /// fallback; see VectorKeccak::permute).
  [[nodiscard]] sim::ExecBackend last_backend() const noexcept {
    return vk_.last_backend();
  }

  /// Cumulative backend demotions of this accelerator (compile-time
  /// downgrades plus per-dispatch fallbacks).
  [[nodiscard]] u64 backend_fallbacks() const noexcept {
    return vk_.backend_fallbacks();
  }

  /// Tiers rejected when the accelerator was constructed (forensics; see
  /// VectorKeccak::construction_attempts).
  [[nodiscard]] const std::vector<BackendAttempt>& construction_attempts()
      const noexcept {
    return vk_.construction_attempts();
  }

  /// Tier attempts of the last sponge_batch() call: the chain of each
  /// permutation that demoted or threw, in order, then the final clean
  /// attempt if any. A call without demotions holds exactly one entry.
  [[nodiscard]] const std::vector<BackendAttempt>& last_batch_attempts()
      const noexcept {
    return batch_attempts_;
  }

  /// Fraction of trace records fused into super-kernels ([0, 1]); 0 unless
  /// the active backend is the fused trace.
  [[nodiscard]] double fusion_coverage() const noexcept {
    return vk_.fusion_coverage();
  }

  /// Fraction of trace records the host-SIMD plan lowers to host
  /// intrinsics ([0, 1]); 0 unless the active backend is host-simd or jit.
  [[nodiscard]] double host_simd_coverage() const noexcept {
    return vk_.host_simd_coverage();
  }

  /// Native code bytes of the jit compilation (page-rounded W^X buffer);
  /// 0 unless the active backend is jit.
  [[nodiscard]] usize jit_code_bytes() const noexcept {
    return vk_.jit_code_bytes();
  }

  /// Host ISA the jit code was emitted for (nullopt unless jit).
  [[nodiscard]] std::optional<sim::HostSimdIsa> jit_isa() const noexcept {
    return vk_.jit_isa();
  }

  /// Run a batch of sponge jobs through the SN lanes and return one output
  /// per job, in job order. Jobs may differ in every field; a free lane
  /// takes the next job in batch order. If a permutation dispatch throws
  /// (on every tier), the whole call throws.
  [[nodiscard]] std::vector<std::vector<u8>> sponge_batch(
      std::span<const SpongeJob> jobs);

  /// Hash a batch of messages with a fixed-output function; every message
  /// may have a different length.
  [[nodiscard]] std::vector<std::vector<u8>> hash_batch(
      keccak::Sha3Function f, std::span<const std::vector<u8>> messages);

  /// SHAKE a batch of messages to `out_len` bytes each.
  [[nodiscard]] std::vector<std::vector<u8>> xof_batch(
      keccak::Sha3Function f, std::span<const std::vector<u8>> messages,
      usize out_len);

  /// Batched cSHAKE (SP 800-185): security_bits ∈ {128, 256}.
  [[nodiscard]] std::vector<std::vector<u8>> cshake_batch(
      unsigned security_bits, std::span<const std::vector<u8>> messages,
      usize out_len, std::span<const u8> function_name,
      std::span<const u8> customization);

  /// Batched KMAC: one key, many messages (e.g. firmware chunks).
  [[nodiscard]] std::vector<std::vector<u8>> kmac_batch(
      unsigned security_bits, std::span<const u8> key,
      std::span<const std::vector<u8>> messages, usize out_len,
      std::span<const u8> customization = {});

  /// Raw sponge batch with an explicit rate and domain-separation byte —
  /// the extension point for custom sponge modes (TurboSHAKE tree nodes,
  /// Keccak-based PRFs). The permutation is whatever this instance's
  /// VectorKeccakConfig selects (24 rounds for FIPS functions; construct
  /// with rounds = 12 / first_round = 12 for TurboSHAKE).
  [[nodiscard]] std::vector<std::vector<u8>> raw_batch(
      usize rate, u8 domain, std::span<const std::vector<u8>> messages,
      usize out_len);

  [[nodiscard]] const BatchStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  void permute_states(std::span<keccak::State> states);

  VectorKeccak vk_;
  BatchStats stats_;
  std::vector<BackendAttempt> batch_attempts_;
};

}  // namespace kvx::core
