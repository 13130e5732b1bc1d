#include "kvx/core/parallel_sha3.hpp"

#include <algorithm>
#include <array>

#include "kvx/common/error.hpp"
#include "kvx/keccak/sp800_185.hpp"

namespace kvx::core {

using keccak::Sha3Function;
using keccak::State;

namespace {

/// bytepad(encode_string(N) ‖ encode_string(S), rate): the cSHAKE prefix.
std::vector<u8> cshake_prefix(usize rate, std::span<const u8> function_name,
                              std::span<const u8> customization) {
  std::vector<u8> prefix = keccak::encode_string(function_name);
  const auto s_enc = keccak::encode_string(customization);
  prefix.insert(prefix.end(), s_enc.begin(), s_enc.end());
  return keccak::bytepad(prefix, rate);
}

/// One lane's cursor into its job.
struct Lane {
  const SpongeJob* job = nullptr;
  std::vector<u8>* out = nullptr;
  usize absorbed = 0;   ///< input bytes XORed into the state so far
  bool padded = false;  ///< final block XORed in: squeezing from here on
  usize squeezed = 0;   ///< output bytes extracted so far
};

/// XOR the lane's next input block into `state`: a full rate block, or the
/// final partial block with the domain byte and pad10*1.
void absorb_next_block(State& state, Lane& lane) {
  const SpongeJob& job = *lane.job;
  const usize left = job.input.size() - lane.absorbed;
  if (left >= job.rate) {
    state.xor_bytes(job.input.subspan(lane.absorbed, job.rate));
    lane.absorbed += job.rate;
    return;
  }
  std::array<u8, keccak::kStateBytes> block{};
  std::copy_n(job.input.begin() + static_cast<std::ptrdiff_t>(lane.absorbed),
              left, block.begin());
  block[left] ^= job.domain;
  block[job.rate - 1] ^= 0x80;
  state.xor_bytes(std::span<const u8>(block).first(job.rate));
  lane.absorbed = job.input.size();
  lane.padded = true;
}

}  // namespace

SpongeJob SpongeJob::fips202(Sha3Function f, std::span<const u8> input,
                             usize out_len) noexcept {
  const u8 domain = keccak::digest_bytes(f) == 0 ? u8{0x1F} : u8{0x06};
  return {keccak::rate_bytes(f), domain, input, out_len};
}

std::vector<u8> kmac_input(usize rate, std::span<const u8> key,
                           std::span<const u8> message, usize out_len,
                           std::span<const u8> customization) {
  static constexpr u8 kName[] = {'K', 'M', 'A', 'C'};
  std::vector<u8> input = cshake_prefix(rate, kName, customization);
  const auto key_block = keccak::bytepad(keccak::encode_string(key), rate);
  const auto len_enc = keccak::right_encode(static_cast<u64>(out_len) * 8);
  input.reserve(input.size() + key_block.size() + message.size() +
                len_enc.size());
  input.insert(input.end(), key_block.begin(), key_block.end());
  input.insert(input.end(), message.begin(), message.end());
  input.insert(input.end(), len_enc.begin(), len_enc.end());
  return input;
}

ParallelSha3::ParallelSha3(const VectorKeccakConfig& config)
    : ParallelSha3(config, VectorKeccak::build_program(config)) {}

std::unique_ptr<ParallelSha3> ParallelSha3::clone() const {
  return std::make_unique<ParallelSha3>(vk_.config(), vk_.shared_program());
}

ParallelSha3::ParallelSha3(const VectorKeccakConfig& config,
                           std::shared_ptr<const KeccakProgram> program)
    : vk_(config, std::move(program)) {}

void ParallelSha3::permute_states(std::span<State> states) {
  // Keep the tier chain of every permutation that demoted or threw, so a
  // fault early in a long call is not hidden by the clean ones after it.
  const std::vector<BackendAttempt>& tried = vk_.last_dispatch_attempts();
  try {
    vk_.permute(states);
  } catch (...) {
    batch_attempts_.insert(batch_attempts_.end(), tried.begin(), tried.end());
    throw;
  }
  if (tried.size() > 1) {
    batch_attempts_.insert(batch_attempts_.end(), tried.begin(), tried.end());
  }
  stats_.accelerator_cycles += vk_.last_timing().permutation_cycles;
  stats_.permutation_batches += 1;
  stats_.permutations += states.size();
  stats_.step_cycles += vk_.last_step_cycles();
}

std::vector<std::vector<u8>> ParallelSha3::sponge_batch(
    std::span<const SpongeJob> jobs) {
  batch_attempts_.clear();
  std::vector<std::vector<u8>> outs(jobs.size());
  for (usize i = 0; i < jobs.size(); ++i) {
    KVX_CHECK_MSG(jobs[i].rate > 0 && jobs[i].rate < keccak::kStateBytes,
                  "sponge rate must be in (0, 200) bytes");
    outs[i].assign(jobs[i].out_len, 0);
  }

  // Busy lanes stay packed at the front of `states`, so each step permutes
  // the prefix states[0, busy). Free lanes take jobs in batch order.
  std::vector<State> states(lanes());
  std::vector<Lane> lane(lanes());
  usize busy = 0;
  usize next = 0;
  for (;;) {
    while (busy < lanes() && next < jobs.size()) {
      const usize i = next++;
      lane[busy] = {&jobs[i], &outs[i]};
      states[busy] = State{};
      absorb_next_block(states[busy], lane[busy]);
      ++busy;
    }
    if (busy == 0) break;
    permute_states(std::span<State>(states).first(busy));
    for (usize l = 0; l < busy;) {
      Lane& cur = lane[l];
      if (!cur.padded) {
        absorb_next_block(states[l], cur);
        ++l;
        continue;
      }
      const usize take =
          std::min(cur.job->out_len - cur.squeezed, cur.job->rate);
      states[l].extract_bytes(
          std::span<u8>(*cur.out).subspan(cur.squeezed, take));
      cur.squeezed += take;
      if (cur.squeezed < cur.job->out_len) {
        ++l;
        continue;
      }
      // Done: the last busy lane moves into this slot and is advanced next.
      --busy;
      lane[l] = lane[busy];
      states[l] = states[busy];
    }
  }
  // A clean final permutation was not kept above; it closes the chain with
  // the tier that finished the call.
  const std::vector<BackendAttempt>& last = vk_.last_dispatch_attempts();
  if (!jobs.empty() && last.size() == 1) batch_attempts_.push_back(last[0]);
  return outs;
}

std::vector<std::vector<u8>> ParallelSha3::raw_batch(
    usize rate, u8 domain, std::span<const std::vector<u8>> messages,
    usize out_len) {
  std::vector<SpongeJob> jobs;
  jobs.reserve(messages.size());
  for (const std::vector<u8>& m : messages) {
    jobs.push_back({rate, domain, m, out_len});
  }
  return sponge_batch(jobs);
}

std::vector<std::vector<u8>> ParallelSha3::hash_batch(
    Sha3Function f, std::span<const std::vector<u8>> messages) {
  const usize d = keccak::digest_bytes(f);
  KVX_CHECK_MSG(d != 0, "hash_batch requires a fixed-output function");
  return xof_batch(f, messages, d);
}

std::vector<std::vector<u8>> ParallelSha3::xof_batch(
    Sha3Function f, std::span<const std::vector<u8>> messages, usize out_len) {
  std::vector<SpongeJob> jobs;
  jobs.reserve(messages.size());
  for (const std::vector<u8>& m : messages) {
    jobs.push_back(SpongeJob::fips202(f, m, out_len));
  }
  return sponge_batch(jobs);
}

std::vector<std::vector<u8>> ParallelSha3::cshake_batch(
    unsigned security_bits, std::span<const std::vector<u8>> messages,
    usize out_len, std::span<const u8> function_name,
    std::span<const u8> customization) {
  KVX_CHECK_MSG(security_bits == 128 || security_bits == 256,
                "cSHAKE security must be 128 or 256");
  const usize rate = security_bits == 128 ? 168 : 136;
  if (function_name.empty() && customization.empty()) {
    return raw_batch(rate, 0x1F, messages, out_len);  // degrades to SHAKE
  }
  // Prepend the cSHAKE prefix to every message; the accelerator then treats
  // it as plain input.
  const auto prefix = cshake_prefix(rate, function_name, customization);
  std::vector<std::vector<u8>> prefixed(messages.size());
  for (usize i = 0; i < messages.size(); ++i) {
    prefixed[i] = prefix;
    prefixed[i].insert(prefixed[i].end(), messages[i].begin(),
                       messages[i].end());
  }
  return raw_batch(rate, kCshakeDomain, prefixed, out_len);
}

std::vector<std::vector<u8>> ParallelSha3::kmac_batch(
    unsigned security_bits, std::span<const u8> key,
    std::span<const std::vector<u8>> messages, usize out_len,
    std::span<const u8> customization) {
  KVX_CHECK_MSG(security_bits == 128 || security_bits == 256,
                "KMAC security must be 128 or 256");
  const usize rate = security_bits == 128 ? 168 : 136;
  std::vector<std::vector<u8>> inputs(messages.size());
  for (usize i = 0; i < messages.size(); ++i) {
    inputs[i] = kmac_input(rate, key, messages[i], out_len, customization);
  }
  return raw_batch(rate, kCshakeDomain, inputs, out_len);
}

}  // namespace kvx::core
