// Sharded lock-free job queue for the batch hashing engine.
//
// v1 was a single mutex+condvar MPMC queue; BENCH_fused.json showed it is
// exactly where host-thread scaling died (flat-to-declining fused MB/s from
// 1 to 8 threads). v2 shards the queue: one bounded lock-free MPMC ring
// (kvx/engine/job_ring.hpp) per worker. Producers distribute jobs over the
// rings round-robin — in contiguous *chunks* for bulk submits, so each
// worker pops a full window as one run (one accelerator call) — and every
// worker pops its own ring first, then steals whole runs from its victims
// when it runs dry. Push/pop fast paths are a CAS on the owning ring plus
// a handful of relaxed atomics; the only mutex left is a parking lot for
// workers with nothing to do and producers blocked on backpressure, entered
// exclusively when the fast path has already failed.
//
// Blocking semantics match v1 exactly:
//  * push() blocks while a bounded queue is full (strict bound: a CAS
//    ticket on size_ is taken BEFORE touching any ring, so the observed
//    depth can never exceed max_depth) and returns false after close().
//  * pop_bulk() blocks until jobs are available, returning 0 only once the
//    queue is closed AND fully drained.
//  * close() wakes every parked thread.
//
// Wakeups use an eventcount-style protocol (sleeper count + seq_cst fences
// on both sides) with a bounded wait as a belt-and-braces backstop, so a
// lost wakeup can cost at most one park interval, never a hang.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "kvx/engine/job_ring.hpp"

namespace kvx::engine {

class ShardedJobQueue {
 public:
  /// `shards` rings (>= 1, typically one per worker). `max_depth` = 0 means
  /// no global bound; otherwise push() blocks while `max_depth` jobs are in
  /// flight. Per-ring capacity is sized from the bound (or a default large
  /// enough that producers only park when every worker is saturated).
  explicit ShardedJobQueue(usize shards, usize max_depth = 0);

  ShardedJobQueue(const ShardedJobQueue&) = delete;
  ShardedJobQueue& operator=(const ShardedJobQueue&) = delete;

  /// Enqueue one job on the next round-robin shard (falling over to any
  /// shard with space). Blocks while the queue is full; returns false (and
  /// leaves the job unconsumed) once the queue is closed.
  bool push(QueuedJob item);

  /// Enqueue a batch, consuming `items` front to back: contiguous chunks of
  /// `chunk` jobs go to consecutive shards, and sleeping workers are woken
  /// once per chunk instead of once per job. Returns the number actually
  /// pushed — short only if the queue was closed mid-batch (items[n...]
  /// are left unconsumed for the caller to retire).
  usize push_bulk(std::span<QueuedJob> items, usize chunk);

  /// Pop between 1 and `max_items` jobs into `out` (cleared first): a run
  /// from the worker's own shard, or — only when that is empty — a stolen
  /// run from the first non-empty victim. Blocks until at least one job is
  /// available; returns 0 only on closed-and-drained.
  usize pop_bulk(usize worker, usize max_items, std::vector<QueuedJob>& out);

  /// Close the queue: push() starts failing, consumers drain what remains
  /// and then see 0 from pop_bulk(). Idempotent.
  void close();

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }
  /// Jobs currently in flight (pushed, not yet popped). Exact at quiescent
  /// points; see shard_depth() for the per-ring split.
  [[nodiscard]] usize depth() const noexcept {
    return static_cast<usize>(size_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] usize shard_count() const noexcept { return rings_.size(); }
  [[nodiscard]] usize shard_depth(usize shard) const noexcept {
    return rings_[shard]->depth();
  }
  /// Maximum total depth ever observed (strict: maintained from the size_
  /// ticket taken before each insert, so a bounded queue's high water can
  /// never exceed max_depth).
  [[nodiscard]] usize high_water() const noexcept {
    return static_cast<usize>(high_water_.load(std::memory_order_relaxed));
  }

 private:
  /// Take a size ticket (strict bound when bounded). Returns false when the
  /// queue is at max_depth; never blocks.
  bool try_reserve() noexcept;
  void release(u64 n) noexcept {
    size_.fetch_sub(n, std::memory_order_relaxed);
  }
  /// Try every ring starting from the round-robin cursor. On success the
  /// item is consumed; on failure (all rings full) it is left intact.
  bool try_push_any(QueuedJob& item) noexcept;
  void wake_consumers(bool all) noexcept;
  void wake_producers() noexcept;
  /// Park until `retry` might succeed (bounded wait; spurious wakeups fine).
  void park_consumer();
  void park_producer();

  std::vector<std::unique_ptr<JobRing>> rings_;
  usize max_depth_;

  /// Hot shared counters, one cache line each, so a producer bumping the
  /// cursor never invalidates the consumers' view of size_.
  alignas(64) std::atomic<u64> cursor_{0};      ///< round-robin shard pick
  alignas(64) std::atomic<u64> size_{0};        ///< jobs in flight
  alignas(64) std::atomic<u64> high_water_{0};
  alignas(64) std::atomic<bool> closed_{false};

  /// Parking lot (slow path only): counts are written under park_mutex_ so
  /// a waker that sees sleepers > 0 after its seq_cst fence can notify
  /// without racing the registration.
  std::atomic<u32> sleeping_consumers_{0};
  std::atomic<u32> sleeping_producers_{0};
  std::mutex park_mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
};

}  // namespace kvx::engine
