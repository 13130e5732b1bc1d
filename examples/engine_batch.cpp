// Engine API sample: push a mixed batch of SHA3-256, SHAKE128 and KMAC256
// jobs through a BatchHashEngine (worker threads × SN Keccak states per
// simulated accelerator), collect the outcomes in submission order, check
// every digest against the host golden model and print the throughput.
//
//   engine_batch        (exits 1 if any job fails or mismatches)
#include <cstdio>
#include <vector>

#include "kvx/common/rng.hpp"
#include "kvx/engine/batch_engine.hpp"

int main() {
  using namespace kvx;
  using namespace kvx::engine;

  // 70% SHA3-256, 15% SHAKE128 (64 B out), 15% KMAC256; 0-599 B messages.
  SplitMix64 rng(2026);
  const std::vector<u8> mac_key(32, 0x4B);
  std::vector<HashJob> jobs(1000);
  for (HashJob& job : jobs) {
    const u64 pick = rng.below(100);
    job.message.resize(rng.below(600));
    for (u8& b : job.message) b = static_cast<u8>(rng.next());
    if (pick < 70) {
      job.algo = Algo::kSha3_256;
    } else if (pick < 85) {
      job.algo = Algo::kShake128;
      job.out_len = 64;
    } else {
      job.algo = Algo::kKmac256;
      job.out_len = 32;
      job.key = mac_key;
    }
  }

  EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};  // SN = 3 per shard
  BatchHashEngine engine(cfg);

  engine.submit_batch(jobs);
  std::vector<JobResult> results;  // one per job, in submission order
  engine.drain_batch(results);

  usize bad = 0;
  for (usize i = 0; i < jobs.size(); ++i) {
    const JobResult& r = results[i];
    if (!r.ok()) {
      std::fprintf(stderr, "job %zu failed: %s\n", i, r.error.c_str());
      ++bad;
    } else if (r.digest != host_reference_digest(jobs[i])) {
      std::fprintf(stderr, "job %zu: digest mismatch\n", i);
      ++bad;
    }
  }
  if (bad != 0) {
    std::printf("FAILED: %zu of %zu jobs\n", bad, jobs.size());
    return 1;
  }

  const ThroughputStats tp = engine.stats().throughput();
  std::printf("%zu digests verified on %u shards x SN=%u: %.0f jobs/s, "
              "%.2f MB/s, %.0f perms/s\n",
              jobs.size(), engine.threads(), engine.lanes_per_shard(),
              tp.jobs_per_sec, tp.mb_per_sec, tp.perms_per_sec);
  return 0;
}
