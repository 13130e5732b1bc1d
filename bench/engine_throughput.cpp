// Host-parallel engine throughput: jobs/s and MB/s vs thread count × SN ×
// execution backend.
//
// The paper's two results tables measure *simulated* cycles of one
// accelerator. This bench measures the host-side dimension the ROADMAP's
// throughput goal adds: how fast a pool of worker shards (one simulated
// accelerator each) retires a batch workload, against the single-threaded
// ParallelSha3 baseline at the same SN. Each engine grid point runs once
// per execution backend (interpreter, compiled trace). Every digest is
// verified against the host golden model. Deterministic workload
// (bench_util::random_bytes, fixed seed) so only timings vary between runs.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/keccak/sha3.hpp"

namespace {

using namespace kvx;
using Clock = std::chrono::steady_clock;

constexpr usize kJobs = 240;
constexpr usize kBytes = 200;  // 2 SHA3-256 rate blocks per job

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  using keccak::Sha3Function;

  std::vector<engine::HashJob> jobs(kJobs);
  std::vector<std::vector<u8>> messages(kJobs);
  for (usize i = 0; i < kJobs; ++i) {
    messages[i] = bench::random_bytes(kBytes, /*seed=*/2026 + i);
    jobs[i] = {engine::Algo::kSha3_256, messages[i]};
  }
  std::vector<std::vector<u8>> expected(kJobs);
  for (usize i = 0; i < kJobs; ++i) {
    expected[i] = keccak::hash(Sha3Function::kSha3_256, messages[i], 32);
  }
  const double mb = static_cast<double>(kJobs * kBytes) / 1e6;

  bench::header("Engine throughput — jobs/s and MB/s vs host threads x SN x "
                "backend (SHA3-256, 240 x 200 B)");
  std::printf("host hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
  std::printf("%-28s | wall ms | jobs/s  |  MB/s  | vs baseline\n", "config");
  bench::rule();

  double sn6t8_mbs[2] = {0, 0};  // [interpreter, trace] at SN=6, 8 threads
  for (const unsigned sn : {1u, 3u, 6u}) {
    const core::VectorKeccakConfig accel{core::Arch::k64Lmul8, 5 * sn, 24};

    // Baseline: plain single-threaded ParallelSha3 over the whole batch.
    core::ParallelSha3 baseline(accel);
    auto t0 = Clock::now();
    const auto base_outs =
        baseline.hash_batch(Sha3Function::kSha3_256, messages);
    const double base_s = seconds_since(t0);
    for (usize i = 0; i < kJobs; ++i) {
      if (base_outs[i] != expected[i]) {
        std::printf("BASELINE DIGEST MISMATCH at job %zu\n", i);
        return 1;
      }
    }
    std::printf("SN=%u  ParallelSha3 baseline  | %7.1f | %7.0f | %6.2f | %9s\n",
                sn, base_s * 1e3, kJobs / base_s, mb / base_s, "1.00x");

    for (const sim::ExecBackend backend :
         {sim::ExecBackend::kInterpreter, sim::ExecBackend::kCompiledTrace}) {
      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        engine::EngineConfig cfg;
        cfg.threads = threads;
        cfg.accel = accel;
        cfg.accel.backend = backend;
        engine::BatchHashEngine eng(cfg);  // construction (incl. any trace
                                           // compile) excluded from timing
        t0 = Clock::now();
        (void)eng.submit_batch(jobs);  // one-lock bulk intake (hot path)
        std::vector<engine::JobResult> outs;
        eng.drain_batch(outs);
        const double s = seconds_since(t0);
        const u64 wall_ns = static_cast<u64>(s * 1e9);
        for (usize i = 0; i < kJobs; ++i) {
          if (outs[i].digest != expected[i]) {
            std::printf("ENGINE DIGEST MISMATCH at job %zu\n", i);
            return 1;
          }
        }
        // Derived rates come from the shared EngineStats::throughput over
        // the bench's own submit-to-drain window, not local arithmetic.
        const engine::ThroughputStats tp = eng.stats().throughput(wall_ns);
        const bool is_trace = backend == sim::ExecBackend::kCompiledTrace;
        if (sn == 6 && threads == 8) sn6t8_mbs[is_trace ? 1 : 0] = tp.mb_per_sec;
        std::printf("SN=%u  %-11s %u thread%s | %7.1f | %7.0f | %6.2f | %8.2fx\n",
                    sn, std::string(sim::backend_name(backend)).c_str(),
                    threads, threads == 1 ? " " : "s", s * 1e3, tp.jobs_per_sec,
                    tp.mb_per_sec, base_s / s);
      }
    }
    bench::rule();
  }
  std::printf("compiled trace vs interpreter at SN=6, 8 threads: %.2fx host "
              "MB/s\n",
              sn6t8_mbs[0] > 0 ? sn6t8_mbs[1] / sn6t8_mbs[0] : 0.0);
  std::printf("(speedup scales with physical cores; digests verified against "
              "the host golden model)\n");
  return 0;
}
