#include "workload.hpp"

namespace hashbench {

namespace {

using kvx::engine::Algo;
using kvx::engine::HashJob;

/// bulk-mixed: one job in each block of kBulkEvery is a 16-64 KiB SHA3-256
/// message (about 3% of jobs), at a random place in the block, and a
/// session starts every kSessionEvery jobs. One per block rather than a
/// coin flip per job keeps the share of bulk work the same from seed to
/// seed; the random place keeps the two connections' bulk jobs from
/// locking into one relative phase for a whole run.
constexpr u64 kBulkEvery = 32;
constexpr u64 kSessionEvery = 64;
constexpr usize kBulkMin = 16 * 1024;
constexpr usize kBulkMax = 64 * 1024;
constexpr usize kSmallMaxMessage = 600;
constexpr usize kKyberSqueeze = 672;  // 4 SHAKE128 blocks: 4 permutations

void fill(kvx::SplitMix64& rng, std::vector<u8>& bytes) {
  for (u8& b : bytes) b = static_cast<u8>(rng.next());
}

u64 stream_seed(u64 seed, unsigned stream, u64 salt) {
  return seed * 0x9E3779B97F4A7C15ull + stream * 1000003ull + salt;
}

}  // namespace

std::string_view workload_name(Workload w) noexcept {
  switch (w) {
    case Workload::kApiSmall: return "api-small";
    case Workload::kKyberMatgen: return "kyber-matgen";
    case Workload::kBulkMixed: return "bulk-mixed";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : kWorkloads) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

TrafficStream::TrafficStream(Workload workload, u64 seed, unsigned stream)
    : workload_(workload),
      job_rng_(stream_seed(seed, stream, 1)),
      session_rng_(stream_seed(seed, stream, 2)) {}

HashJob TrafficStream::small_job() {
  // The hash_server / kvx-loadgen API mix: 70% SHA3-256, 15% SHAKE128 to
  // 64 B, 15% KMAC256 to 32 B, message length uniform in [0, 600].
  HashJob job;
  const u64 pick = job_rng_.below(100);
  job.message.resize(job_rng_.below(kSmallMaxMessage + 1));
  fill(job_rng_, job.message);
  if (pick < 70) {
    job.algo = Algo::kSha3_256;
  } else if (pick < 85) {
    job.algo = Algo::kShake128;
    job.out_len = 64;
  } else {
    job.algo = Algo::kKmac256;
    job.out_len = 32;
    job.key.assign(32, 0x4B);
  }
  return job;
}

HashJob TrafficStream::kyber_job() {
  // CRYSTALS-Kyber768 matrix generation: A[i][j] = SHAKE128(rho || j || i),
  // a fresh 32-byte rho per 3 x 3 matrix, squeezed to 672 bytes.
  if (matrix_entry_ == 9) {
    matrix_seed_.resize(32);
    fill(job_rng_, matrix_seed_);
    matrix_entry_ = 0;
  }
  HashJob job;
  job.algo = Algo::kShake128;
  job.out_len = kKyberSqueeze;
  job.message = matrix_seed_;
  job.message.push_back(static_cast<u8>(matrix_entry_ % 3));
  job.message.push_back(static_cast<u8>(matrix_entry_ / 3));
  ++matrix_entry_;
  return job;
}

HashJob TrafficStream::next_job() {
  ++jobs_;
  switch (workload_) {
    case Workload::kApiSmall: return small_job();
    case Workload::kKyberMatgen: return kyber_job();
    case Workload::kBulkMixed: break;
  }
  const u64 in_block = (jobs_ - 1) % kBulkEvery;
  if (in_block == 0) bulk_slot_ = job_rng_.below(kBulkEvery);
  if (in_block != bulk_slot_) return small_job();
  HashJob job;
  job.algo = Algo::kSha3_256;
  job.message.resize(kBulkMin + job_rng_.below(kBulkMax - kBulkMin + 1));
  fill(job_rng_, job.message);
  return job;
}

bool TrafficStream::session_due() const noexcept {
  return workload_ == Workload::kBulkMixed &&
         jobs_ >= (sessions_ + 1) * kSessionEvery;
}

SessionScript TrafficStream::next_session() {
  ++sessions_;
  SessionScript s;
  s.algo = session_rng_.below(2) == 0 ? Algo::kShake128 : Algo::kShake256;
  s.message.resize(session_rng_.below(kSmallMaxMessage + 1));
  fill(session_rng_, s.message);
  s.squeezes.resize(4 + session_rng_.below(5));
  for (u32& n : s.squeezes) {
    n = static_cast<u32>(1024 + session_rng_.below(3 * 1024 + 1));
  }
  return s;
}

usize TrafficStream::typical_squeeze_bytes(Workload w) noexcept {
  switch (w) {
    case Workload::kApiSmall: return 64;
    case Workload::kKyberMatgen: return kKyberSqueeze;
    case Workload::kBulkMixed: break;
  }
  return 2560;  // mean of the uniform 1-4 KiB session chunks
}

std::vector<HashJob> ladder_jobs(Workload w, u64 seed, usize count) {
  TrafficStream stream(w, seed, 0);
  std::vector<HashJob> jobs;
  jobs.reserve(count);
  while (jobs.size() < count) jobs.push_back(stream.next_job());
  return jobs;
}

}  // namespace hashbench
