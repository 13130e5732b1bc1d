// Engine counters: the one copy of every BatchHashEngine total.
//
// Each engine owns one EngineCounters block: its job totals plus one
// cache-line-aligned ShardCounters per worker shard, a relaxed atomic for
// every ShardStats field. A shard's worker is the only writer of its
// ShardCounters; the job totals are written under the engine's state mutex
// (its drain condition waits on them). Every view reads these blocks:
// BatchHashEngine::stats() and job_totals() read the engine's own, the
// kvx_engine_*_total series are bound to engine_total(), and post-mortem
// dumps walk the process-wide table with for_each_engine().
//
// A block joins the table when constructed. When destroyed it folds its
// totals into the table's retired base and unlinks itself in one step that
// readers see atomically (a sequence counter makes them retry), so the
// process-cumulative totals never go down; it is freed once no reader can
// still be walking it. Reads are lock-free and async-signal-safe.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <utility>

#include "kvx/common/types.hpp"
#include "kvx/obs/step_cycles.hpp"

namespace kvx::obs {

/// Per-worker-shard counters (a snapshot; the live ones are ShardCounters).
/// A shard owns one simulated accelerator and processes whole batches.
struct ShardStats {
  u64 jobs = 0;               ///< jobs completed (successfully) by this shard
  u64 failures = 0;           ///< jobs retired with a per-job error
  /// Backend demotions (jit → host-simd → fused → trace → interpreter).
  u64 fallbacks = 0;
  u64 bytes = 0;              ///< message bytes hashed
  u64 dispatches = 0;         ///< batches popped from the queue
  u64 sim_cycles = 0;         ///< simulated accelerator cycles consumed
  u64 permutations = 0;       ///< Keccak state-permutations performed
  /// Accelerator permutation dispatches; permutations / permutation_batches
  /// is the mean number of SN lanes filled per dispatch.
  u64 permutation_batches = 0;
  u64 host_ns = 0;            ///< host wall time spent inside dispatches
  /// Per-step attribution of sim_cycles (θ/ρπ/χι/absorb/other);
  /// step_cycles.total == sim_cycles, exactly, on every backend.
  StepCycleStats step_cycles;
};

/// Every ShardStats counter, in shard_fields() order (also the order of a
/// shard's record in post-mortem dumps).
enum ShardField : u32 {
  kShardJobs, kShardFailures, kShardFallbacks, kShardBytes, kShardDispatches,
  kShardSimCycles, kShardPermutations, kShardPermutationBatches, kShardHostNs,
  kShardStepTheta, kShardStepRhoPi, kShardStepChiIota, kShardStepAbsorb,
  kShardStepOther, kShardStepTotal, kShardStepRounds, kShardFields,
};
/// What engine_total() can sum: a ShardField, or a per-engine job total.
enum EngineTotal : u32 {
  kTotalSubmitted = kShardFields, kTotalCompleted, kTotalFailed, kEngineTotals,
};

/// Pointers to every counter of `s` (const or not), in ShardField order.
template <class S>
[[nodiscard]] constexpr auto shard_fields(S& s) noexcept {
  auto& c = s.step_cycles;
  return std::array{&s.jobs, &s.failures, &s.fallbacks, &s.bytes,
                    &s.dispatches, &s.sim_cycles, &s.permutations,
                    &s.permutation_batches, &s.host_ns, &c.theta, &c.rho_pi,
                    &c.chi_iota, &c.absorb, &c.other, &c.total, &c.rounds};
}
static_assert(std::tuple_size_v<decltype(shard_fields(
                  std::declval<ShardStats&>()))> == kShardFields);

inline ShardStats& operator+=(ShardStats& a, const ShardStats& b) noexcept {
  const auto to = shard_fields(a);
  const auto from = shard_fields(b);
  for (usize f = 0; f < to.size(); ++f) *to[f] += *from[f];
  return a;
}

/// One engine's job totals, read together (EngineCounters::jobs()).
struct JobTotals {
  u64 submitted = 0;
  u64 completed = 0;
  u64 failed = 0;

  /// Jobs submitted but not yet retired.
  [[nodiscard]] u64 in_flight() const noexcept {
    return submitted - completed - failed;
  }
};

/// Add to an atomic with one writer at a time: a load and a release store,
/// never a read-modify-write.
inline void single_writer_add(std::atomic<u64>& a, u64 delta) noexcept {
  a.store(a.load(std::memory_order_relaxed) + delta, std::memory_order_release);
}

/// One shard's live counters; written by the shard's worker only (or by
/// its engine's constructor before the worker starts).
struct alignas(64) ShardCounters {
  std::atomic<u64> v[kShardFields] = {};

  void add(ShardField f, u64 delta) noexcept { single_writer_add(v[f], delta); }
  void add(const ShardStats& delta) noexcept {
    const auto d = shard_fields(delta);
    for (u32 f = 0; f < kShardFields; ++f) single_writer_add(v[f], *d[f]);
  }
  [[nodiscard]] ShardStats snapshot() const noexcept {
    ShardStats s;
    const auto out = shard_fields(s);
    for (u32 f = 0; f < kShardFields; ++f) *out[f] = v[f].load();
    return s;
  }
};

class EngineCounters {
 public:
  /// Zeroed counters for `shards` shards, joined to the process table.
  explicit EngineCounters(usize shards);
  ~EngineCounters();
  EngineCounters(const EngineCounters&) = delete;
  EngineCounters& operator=(const EngineCounters&) = delete;

  /// Job totals, added under the engine's state mutex. Readers without it
  /// load failed and completed (acquire) before submitted, so they never
  /// see more retired than submitted.
  std::atomic<u64> submitted{0};
  std::atomic<u64> completed{0};
  std::atomic<u64> failed{0};

  /// The three job totals, lock-free, in that acquire order.
  [[nodiscard]] JobTotals jobs() const noexcept {
    JobTotals t;
    t.failed = failed.load(std::memory_order_acquire);
    t.completed = completed.load(std::memory_order_acquire);
    t.submitted = submitted.load(std::memory_order_acquire);
    return t;
  }

  [[nodiscard]] usize shard_count() const noexcept { return shard_count_; }
  [[nodiscard]] ShardCounters& shard(usize i) noexcept { return shards_[i]; }
  [[nodiscard]] const ShardCounters& shard(usize i) const noexcept {
    return shards_[i];
  }
  /// One EngineTotal of this engine (a ShardField summed over its shards).
  [[nodiscard]] u64 total(u32 field) const noexcept;
  /// Next (older) block of the table.
  [[nodiscard]] const EngineCounters* next() const noexcept {
    return next_.load();
  }

 private:
  std::unique_ptr<ShardCounters[]> shards_;
  usize shard_count_;
  std::atomic<EngineCounters*> next_{nullptr};
};

/// Process-cumulative EngineTotal `field`: the retired base plus every live
/// engine, as one consistent cut (a reader interrupting a leave on its own
/// thread gives up retrying and returns its last read). Fits Counter::bind.
[[nodiscard]] u64 engine_total(u32 field) noexcept;

/// Bind the registry's kvx_engine_*_total counters to engine_total().
/// Idempotent; every engine construction calls it.
void bind_engine_totals();

namespace detail {
/// While pinned, no block is freed, so the list from the head can be walked.
const EngineCounters* pin_engine_table() noexcept;
void unpin_engine_table() noexcept;
}  // namespace detail

/// Call `fn(const EngineCounters&)` for every live engine, newest first
/// (a block leaving mid-walk may still be visited).
template <class Fn>
void for_each_engine(Fn&& fn) noexcept {
  for (const EngineCounters* e = detail::pin_engine_table(); e != nullptr;
       e = e->next()) {
    fn(*e);
  }
  detail::unpin_engine_table();
}

}  // namespace kvx::obs
