// hash_server — a batch "hashing service" built on the two-level
// parallelism: worker threads (host) × SN Keccak states (accelerator).
//
//   hash_server [--jobs N] [--threads N] [--postmortem DIR]
//               [--inject-faults SPEC]
//     --jobs N            jobs to pump through the engine    (default 2000)
//     --threads N         worker shards                      (default 4)
//     --postmortem DIR    crash-dump directory (default $KVX_POSTMORTEM or .)
//     --inject-faults S   deterministic fault injection, e.g. "seed=7,
//                         rate=1e-2" — demonstrates fail-soft: faulted jobs
//                         demote or fail individually, the service never
//                         aborts (see kvx/sim/fault_injector.hpp)
//   (N and N also accepted positionally for backwards compatibility.)
//
// Pumps thousands of random-length jobs with a mixed algorithm profile
// (the traffic shape of a TLS/firmware/PQC backend: mostly SHA3-256, some
// SHAKE XOFs, some KMAC authentications) through a BatchHashEngine and
// cross-checks every successful digest against the host golden model, then
// prints the per-shard accounting. Jobs fail *individually*, the way a real
// service reports them: drain_batch() hands back one JobResult per job, in
// submission order, failed or not — a single per-job failure never becomes
// a process abort that would defeat the fail-soft chain this example
// showcases — and each failed job prints its error plus the backend
// demotion path the accelerator went through. The exit code is nonzero only when a digest
// MISMATCHES the golden model (silent corruption); injected per-job
// failures are expected, reported traffic.
//
// While the batch drains, a scraper thread dumps the process-wide metrics
// registry to stderr in Prometheus text format every 250 ms — the shape a
// real service would expose on a /metrics endpoint (kvx-hashd serves the
// same text over real HTTP; see docs/server.md) — followed by a
// /healthz-style liveness line. The crash handler is armed, so a crash of
// this "service" leaves a post-mortem a kvx-doctor run can reconstruct.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kvx/common/cli.hpp"
#include "kvx/common/error.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/obs/postmortem.hpp"
#include "kvx/sim/fault_injector.hpp"

int main(int argc, char** argv) {
  using namespace kvx;
  using namespace kvx::engine;

  usize n_jobs = 2000;
  unsigned threads = 4;
  std::string dump_dir;
  std::string fault_spec;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    if (a == "--jobs" && has_next) {
      n_jobs = cli::require_usize("hash_server", "--jobs", argv[++i], 1,
                                  usize{1} << 24);
    } else if (a == "--threads" && has_next) {
      threads = cli::require_unsigned("hash_server", "--threads", argv[++i],
                                      1, 4096);
    } else if (a == "--postmortem" && has_next) {
      dump_dir = argv[++i];
    } else if (a == "--inject-faults" && has_next) {
      fault_spec = argv[++i];
    } else if (a == "-h" || a == "--help") {
      std::fprintf(stderr,
                   "usage: hash_server [--jobs N] [--threads N] "
                   "[--postmortem DIR] [--inject-faults SPEC]\n");
      return 2;
    } else if (!a.empty() && a[0] != '-') {
      // Positional compatibility: hash_server [jobs [threads [dumpdir]]].
      if (positional == 0) {
        n_jobs = cli::require_usize("hash_server", "jobs", a, 1,
                                    usize{1} << 24);
      } else if (positional == 1) {
        threads = cli::require_unsigned("hash_server", "threads", a, 1, 4096);
      } else if (positional == 2) {
        dump_dir = a;
      }
      ++positional;
    } else {
      std::fprintf(stderr, "hash_server: unknown option '%s'\n", a.c_str());
      return 2;
    }
  }

  // Deterministic mixed traffic: 70% SHA3-256, 15% SHAKE128, 15% KMAC256.
  SplitMix64 rng(2026);
  const std::vector<u8> mac_key(32, 0x4B);
  std::vector<HashJob> jobs(n_jobs);
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

  // Arm the crash post-mortem machinery before any work: a fatal signal
  // from here on leaves a .kvxdump with the flight-recorder timeline, the
  // metrics and the per-shard stats for kvx-doctor.
  if (dump_dir.empty()) {
    const char* env_dir = std::getenv("KVX_POSTMORTEM");
    dump_dir = env_dir != nullptr ? env_dir : ".";
  }
  obs::pm::set_dump_dir(dump_dir);
  obs::pm::install_crash_handler();
  std::printf("post-mortem dumps: %s/kvx_postmortem_<pid>_*.kvxdump\n",
              dump_dir.c_str());

  EngineConfig cfg;
  cfg.threads = threads;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};  // SN = 3 per shard
  cfg.max_queue = 1024;                        // streaming backpressure
  if (!fault_spec.empty()) {
    try {
      cfg.accel.fault_injector = std::make_shared<sim::FaultInjector>(
          sim::parse_fault_plan(fault_spec));
    } catch (const Error& e) {
      std::fprintf(stderr, "hash_server: --inject-faults: %s\n", e.what());
      return 2;
    }
  }
  BatchHashEngine engine(cfg);

  std::printf("hash_server: %zu jobs, %u shards x SN=%u (64-bit LMUL=8)\n",
              n_jobs, engine.threads(), engine.lanes_per_shard());

  // Periodic Prometheus scrape while the batch drains (like a /metrics
  // poller would see). Plain interval thread; stopped via timed cond-var.
  std::mutex scrape_mutex;
  std::condition_variable scrape_cv;
  bool scrape_stop = false;
  std::thread scraper([&] {
    std::unique_lock<std::mutex> lock(scrape_mutex);
    while (!scrape_cv.wait_for(lock, std::chrono::milliseconds(250),
                               [&] { return scrape_stop; })) {
      const std::string text = obs::MetricsRegistry::global().to_prometheus();
      std::fprintf(stderr, "--- metrics scrape ---\n%s", text.c_str());
      // /healthz liveness line, engine-invariant checked on the spot.
      const EngineStats st = engine.stats();
      const bool ok = st.submitted >= st.completed + st.failed;
      std::fprintf(stderr,
                   "--- healthz ---\n%s uptime_ns=%llu submitted=%llu "
                   "completed=%llu failed=%llu\n",
                   ok ? "ok" : "UNHEALTHY",
                   static_cast<unsigned long long>(st.elapsed_ns),
                   static_cast<unsigned long long>(st.submitted),
                   static_cast<unsigned long long>(st.completed),
                   static_cast<unsigned long long>(st.failed));
    }
  });

  engine.submit_batch(jobs);
  // Per-job outcomes, never an exception: one faulted job must not abort
  // the service — that is the whole point of the fail-soft chain.
  std::vector<JobResult> results;
  engine.drain_batch(results);

  {
    std::lock_guard<std::mutex> lock(scrape_mutex);
    scrape_stop = true;
  }
  scrape_cv.notify_one();
  scraper.join();

  // Report every per-job failure the way a real service would: the error,
  // and the backend tiers the accelerator tried on the way down.
  usize failed_jobs = 0;
  usize mismatches = 0;
  for (usize i = 0; i < jobs.size(); ++i) {
    const JobResult& r = results[i];
    if (!r.ok()) {
      ++failed_jobs;
      std::string path;
      for (const TierAttempt& t : r.demotion_path) {
        if (!path.empty()) path += " -> ";
        path += t.backend;
        if (!t.error.empty()) {
          path += t.injected ? " (injected: " : " (";
          path += t.error + ")";
        }
      }
      std::fprintf(stderr, "job %zu FAILED: %s%s%s\n", i, r.error.c_str(),
                   path.empty() ? "" : " | demotion path: ",
                   path.c_str());
      continue;
    }
    if (r.digest != host_reference_digest(jobs[i])) {
      ++mismatches;
      std::fprintf(stderr, "job %zu DIGEST MISMATCH vs golden model\n", i);
    }
  }
  if (mismatches != 0) {
    std::printf("FAILED: %zu of %zu digests mismatch the golden model\n",
                mismatches, n_jobs);
    return 1;
  }
  if (failed_jobs != 0) {
    std::printf(
        "%zu of %zu jobs failed individually (reported above); all %zu "
        "completed digests verified against the host golden model\n",
        failed_jobs, n_jobs, n_jobs - failed_jobs);
  } else {
    std::printf("all %zu digests verified against the host golden model\n\n",
                n_jobs);
  }

  const EngineStats st = engine.stats();
  // The fail-soft accounting invariant, checked at rest like a shutdown
  // hook would.
  if (st.submitted != st.completed + st.failed) {
    std::printf("FAILED: submitted %llu != completed %llu + failed %llu\n",
                static_cast<unsigned long long>(st.submitted),
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.failed));
    return 1;
  }
  std::printf("shard |   jobs |    bytes | dispatches |   sim cycles | host ms\n");
  std::printf("---------------------------------------------------------------\n");
  for (usize s = 0; s < st.shards.size(); ++s) {
    const ShardStats& sh = st.shards[s];
    std::printf("  %2zu  | %6llu | %8llu | %10llu | %12llu | %7.1f\n", s,
                static_cast<unsigned long long>(sh.jobs),
                static_cast<unsigned long long>(sh.bytes),
                static_cast<unsigned long long>(sh.dispatches),
                static_cast<unsigned long long>(sh.sim_cycles),
                static_cast<double>(sh.host_ns) / 1e6);
  }
  const ShardStats t = st.totals();
  std::printf("total | %6llu | %8llu | %10llu | %12llu | %7.1f\n",
              static_cast<unsigned long long>(t.jobs),
              static_cast<unsigned long long>(t.bytes),
              static_cast<unsigned long long>(t.dispatches),
              static_cast<unsigned long long>(t.sim_cycles),
              static_cast<double>(t.host_ns) / 1e6);
  std::printf("queue high-water mark: %zu\n", st.queue_high_water);

  // Derived rates come from the one shared implementation
  // (EngineStats::throughput), not ad-hoc arithmetic per tool.
  const ThroughputStats tp = st.throughput();
  std::printf("throughput: %.0f jobs/s | %.2f MB/s | %.0f perms/s\n",
              tp.jobs_per_sec, tp.mb_per_sec, tp.perms_per_sec);
  std::printf("step cycles:\n%s", format_step_cycles(t.step_cycles).c_str());

  // Final scrape — everything the periodic dumps showed, at rest.
  std::fprintf(stderr, "--- final metrics ---\n%s",
               obs::MetricsRegistry::global().to_prometheus().c_str());
  return 0;
}
