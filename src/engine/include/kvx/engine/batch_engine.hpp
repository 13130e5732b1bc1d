// BatchHashEngine — host-parallel batch hashing on top of the paper's
// SIMD-parallel accelerator.
//
// The paper parallelizes *inside* one vector register file: SN ∈ {1, 3, 6}
// Keccak states permute in lockstep per accelerator. This engine adds the
// second level the ROADMAP's throughput goal needs: a pool of worker shards,
// each owning an independent simulated accelerator (ParallelSha3), fed by a
// sharded lock-free scheduler — one bounded MPMC ring per worker, producers
// distributing round-robin, idle workers stealing runs from their victims
// (kvx/engine/job_queue.hpp). Total parallelism = threads × SN.
//
// Guarantees:
//  * Deterministic ordering where asked for — every job carries a dense
//    sequence id (JobResult::seq). drain_batch() returns outcomes in
//    submission order, independent of worker scheduling and stealing;
//    try_drain_ready() hands them out as they retire, for event loops that
//    route by seq. Digests are bit-identical to a single-threaded run.
//  * Fail-soft isolation — jobs fail individually. A malformed job fails
//    alone; an injected fault or a dispatch error that survives every tier
//    marks ONLY the jobs of that dispatch (one popped run) as failed; every
//    other job completes normally. Invariant: submitted == completed +
//    failed, exactly, at every quiescent point. stats(), the
//    kvx_engine_*_total series and post-mortem dumps all read one counter
//    block per engine (kvx/obs/engine_counters.hpp), so they cannot drift.
//  * Lane filling — workers pop runs of jobs (batch_window, default 4·SN)
//    and hand each run to ParallelSha3::sponge_batch as one call, whatever
//    the algorithms, lengths and keys in it: every SN lane keeps its own
//    sponge cursor and takes the run's next job when its own finishes.
//    submit_batch() pushes contiguous chunks of that size per queue shard.
//  * Graceful shutdown — close() stops intake; queued jobs still complete.
//    The destructor closes and joins; nothing is dropped.
//  * Backpressure — a bounded queue (max_queue) blocks submit() instead of
//    buffering without limit.
//
// See docs/engine.md for the architecture, failure semantics and sizing
// guidance.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "kvx/common/rng.hpp"
#include "kvx/core/parallel_sha3.hpp"
#include "kvx/engine/job.hpp"
#include "kvx/engine/job_queue.hpp"
#include "kvx/engine/stats.hpp"

namespace kvx::obs {
class Gauge;
}  // namespace kvx::obs

namespace kvx::engine {

struct EngineConfig {
  /// Worker shards, each with its own simulated accelerator.
  unsigned threads = 1;
  /// Per-shard accelerator configuration (SN = ele_num / 5). Set
  /// accel.fault_injector for deterministic fault injection; all shards
  /// share the injector's decision stream.
  core::VectorKeccakConfig accel{core::Arch::k64Lmul8, 15, 24};
  /// Jobs a worker grabs per queue pop; 0 = 4 × SN (enough jobs to refill
  /// each lane a few times within one dispatch).
  usize batch_window = 0;
  /// Queue bound for submit() backpressure; 0 = unbounded.
  usize max_queue = 0;
  /// Pin worker i to host CPU i mod hardware_concurrency (Linux only,
  /// best-effort). Helps cache locality on dedicated hosts; leave off on
  /// shared machines where the OS scheduler should keep the freedom.
  bool pin_workers = false;
};

class BatchHashEngine {
 public:
  explicit BatchHashEngine(const EngineConfig& config);
  ~BatchHashEngine();

  BatchHashEngine(const BatchHashEngine&) = delete;
  BatchHashEngine& operator=(const BatchHashEngine&) = delete;

  /// Submit one job; returns its sequence id (dense, starting at 0) — the
  /// ticket its JobResult::seq carries back.
  ///
  /// Malformed jobs (variable-output algorithm without out_len,
  /// fixed-output algorithm with a mismatching out_len, key material on a
  /// non-KMAC job) are accepted and retired immediately as per-job
  /// failures — they get a sequence id and a JobResult carrying the
  /// validation error, and count toward the failed totals. Only submitting
  /// after close() throws.
  u64 submit(HashJob job);

  /// Bulk submit: one sequence-id reservation, one metrics update and one
  /// validation pass for the whole span, then chunked round-robin pushes
  /// across the queue shards — the amortized path high-rate producers
  /// should use. Returns the sequence id of the first job (the span's jobs
  /// occupy the dense range [first, first + jobs.size())); for an empty
  /// span, the id the next submitted job would get. Safe to call from many
  /// producer threads concurrently: each span gets a contiguous id range.
  u64 submit_batch(std::span<const HashJob> jobs);

  /// Block until every job submitted so far has retired, then *append* all
  /// outcomes not yet collected to `out`, sorted by seq — one JobResult per
  /// job, failed or not — reusing the caller's buffer. Submission order
  /// holds even after a partial try_drain_ready(): the remainder comes back
  /// sorted. Returns the number appended. The engine stays usable for
  /// further submissions afterwards (unless closed).
  usize drain_batch(std::vector<JobResult>& out);

  /// Non-blocking drain for event loops: append every outcome retired so
  /// far, in retirement order (NOT submission order — route by
  /// JobResult::seq), and return the number appended; possibly 0, never
  /// waiting. A slow job therefore never holds back jobs that finished
  /// after it. When `out` is empty this is a swap of buffers.
  usize try_drain_ready(std::vector<JobResult>& out);

  /// Register a completion-notification fd (an eventfd or pipe write end):
  /// after every retirement the engine write()s a u64 of 1 to it, so an
  /// epoll/poll loop can sleep on the fd and call try_drain_ready() on
  /// wakeup instead of ever blocking in drain. -1 (the default) disables.
  /// The caller owns the fd and must keep it open while set; writes that
  /// fail (EAGAIN on a saturated eventfd counter is harmless — the edge is
  /// already pending) are ignored. Thread-safe.
  void set_notify_fd(int fd) noexcept {
    notify_fd_.store(fd, std::memory_order_release);
  }

  /// Stop accepting new jobs. Already-queued jobs still complete; call
  /// drain_batch() to collect them. Idempotent.
  void close();

  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }
  [[nodiscard]] unsigned lanes_per_shard() const noexcept {
    return config_.accel.sn();
  }
  /// Jobs currently queued (pushed, not yet popped by a worker) — the
  /// lock-free backpressure signal servers compare against max_queue; see
  /// also in_flight() for queued + executing.
  [[nodiscard]] usize queue_depth() const noexcept { return queue_.depth(); }
  /// Submitted/completed/failed, read lock-free; never more retired than
  /// submitted. Cheap enough for every health probe.
  [[nodiscard]] obs::JobTotals job_totals() const noexcept {
    return counters_.jobs();
  }
  /// Jobs submitted but not yet retired (queued or executing). Lock-free;
  /// cheap enough for per-event-loop-iteration use.
  [[nodiscard]] u64 in_flight() const noexcept {
    return job_totals().in_flight();
  }
  /// Snapshot of the engine counters (thread-safe at any time).
  [[nodiscard]] EngineStats stats() const;

 private:
  /// The accelerator state stats() reports, copied from a shard's
  /// accelerator by its own worker (and by the constructor before any
  /// worker starts): stats() must never read an accelerator mid-dispatch.
  struct AccelView {
    sim::ExecBackend active = sim::ExecBackend::kInterpreter;
    sim::ExecBackend last = sim::ExecBackend::kInterpreter;
    double fusion_coverage = 0.0;
    double host_simd_coverage = 0.0;
    u64 jit_code_bytes = 0;
    std::optional<sim::HostSimdIsa> jit_isa;

    static AccelView of(const core::ParallelSha3& a) noexcept {
      return {a.active_backend(), a.last_backend(), a.fusion_coverage(),
              a.host_simd_coverage(), a.jit_code_bytes(), a.jit_isa()};
    }
  };

  /// One worker's accelerator (its counters are counters_.shard(index)),
  /// cache-line-aligned so neighbouring workers never false-share.
  struct alignas(64) Shard {
    std::unique_ptr<core::ParallelSha3> accel;
    AccelView accel_view;    ///< guarded by state_mutex_; set on retire
    unsigned index = 0;      ///< dense shard id (flight-recorder dispatch tag)
  };

  void worker_loop(unsigned index, Shard& shard);
  void process_batch(Shard& shard, std::vector<QueuedJob>& batch);
  /// Retire every job of `batch` as failed with the same error (the
  /// worker-loop backstop for non-dispatch failures). process_batch clears
  /// the jobs it retired, so none is retired twice.
  void fail_batch(Shard& shard, const std::vector<QueuedJob>& batch,
                  const char* what);
  /// Record one submit-to-retire latency sample (histogram, reservoir,
  /// exact max). `flight_seq` (if nonzero) becomes the histogram bucket's
  /// exemplar when the sample is its new maximum. Caller holds state_mutex_.
  void record_latency_locked(u64 sample_ns, u64 flight_seq);
  /// Mark job `seq` failed and retired (ready_ entry + accounting + metrics
  /// + latency stamp + flight event). Caller holds state_mutex_.
  void fail_job_locked(u64 seq, u64 submit_ns, std::string error);
  /// Move ready_ to the end of `out` (a swap when `out` is empty) and
  /// return the count moved. Caller holds state_mutex_.
  usize take_ready_locked(std::vector<JobResult>& out);
  /// Poke the completion-notification fd, if one is set (one u64 write;
  /// failures ignored). Called after every retirement batch.
  void notify_retire() noexcept;

  /// Every counter of this engine. First member: joins the engine table
  /// before any dump can fire, leaves it after the workers joined.
  obs::EngineCounters counters_;
  EngineConfig config_;
  usize window_;
  ShardedJobQueue queue_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  /// Tokens for the callback-bound queue-depth gauges (aggregate + one per
  /// queue shard), unbound in the destructor before queue_ dies.
  std::vector<std::pair<obs::Gauge*, u64>> depth_gauges_;
  /// Completion-notification fd (eventfd/pipe), -1 = disabled. The caller
  /// owns it; see set_notify_fd().
  std::atomic<int> notify_fd_{-1};

  mutable std::mutex state_mutex_;
  std::condition_variable all_done_;  ///< waits on counters_' job totals
  bool closed_ = false;
  u64 backend_compile_ns_ = 0;  ///< trace compile+fuse time at construction
  std::chrono::steady_clock::time_point start_time_;
  /// Submit-to-retire latency reservoir (Algorithm R; guarded by
  /// state_mutex_): an unbiased fixed-size sample of ALL retired jobs —
  /// failed jobs are stamped too, so percentiles are never skewed by
  /// dropping failures. See LatencyStats in stats.hpp.
  std::vector<u64> latency_ns_;
  u64 latency_observed_ = 0;  ///< jobs offered to the reservoir
  u64 latency_max_ns_ = 0;    ///< exact maximum (not sampled)
  SplitMix64 latency_rng_{0x6B76785F6C6174ull};  ///< deterministic slots
  /// Retired outcomes not yet collected, in retirement order; each carries
  /// its seq. Workers append, the drains move it out.
  std::vector<JobResult> ready_;
};

/// One-shot convenience: run `jobs` through a temporary engine and return
/// the digests in submission order. Throws Error if ANY job failed (the
/// message carries the failure count and the first error).
[[nodiscard]] std::vector<std::vector<u8>> run_batch(
    const EngineConfig& config, std::span<const HashJob> jobs);

}  // namespace kvx::engine
