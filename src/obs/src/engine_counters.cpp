#include "kvx/obs/engine_counters.hpp"

#include <mutex>
#include <thread>

#include "kvx/obs/metrics.hpp"

namespace kvx::obs {

namespace {

// The process-wide engine table, constant-initialized so a signal handler
// can read it at any point of the process's life.
std::mutex g_mutex;                            ///< joins and leaves
std::atomic<EngineCounters*> g_head{nullptr};  ///< newest block first
std::atomic<u64> g_retired[kEngineTotals] = {};  ///< totals of left engines
/// Odd while a leave folds into g_retired and unlinks its block.
std::atomic<u64> g_gen{0};
std::atomic<u64> g_readers{0};  ///< pinned walkers

/// Retries before engine_total() settles for an unconfirmed read.
constexpr int kMaxReadAttempts = 1 << 16;

}  // namespace

EngineCounters::EngineCounters(usize shards)
    : shards_(std::make_unique<ShardCounters[]>(shards)), shard_count_(shards) {
  std::lock_guard lock(g_mutex);
  next_.store(g_head.load());
  g_head.store(this);
}

EngineCounters::~EngineCounters() {
  {
    std::lock_guard lock(g_mutex);
    const u64 gen = g_gen.load(std::memory_order_relaxed);
    g_gen.store(gen + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (u32 f = 0; f < kEngineTotals; ++f) {
      single_writer_add(g_retired[f], total(f));
    }
    std::atomic<EngineCounters*>* link = &g_head;
    while (link->load() != this) link = &link->load()->next_;
    link->store(next_.load());
    g_gen.store(gen + 2, std::memory_order_release);
  }
  // Walkers pinned before the unlink may still stand on this block.
  while (g_readers.load() != 0) std::this_thread::yield();
}

u64 EngineCounters::total(u32 field) const noexcept {
  switch (field) {
    case kTotalSubmitted: return submitted.load(std::memory_order_relaxed);
    case kTotalCompleted: return completed.load(std::memory_order_relaxed);
    case kTotalFailed: return failed.load(std::memory_order_relaxed);
    default: break;
  }
  u64 sum = 0;
  for (usize s = 0; s < shard_count_; ++s) {
    sum += shards_[s].v[field].load(std::memory_order_relaxed);
  }
  return sum;
}

namespace detail {

const EngineCounters* pin_engine_table() noexcept {
  g_readers.fetch_add(1);
  return g_head.load();
}
void unpin_engine_table() noexcept { g_readers.fetch_sub(1); }

}  // namespace detail

u64 engine_total(u32 field) noexcept {
  u64 sum = 0;
  (void)detail::pin_engine_table();
  for (int attempt = 0; attempt < kMaxReadAttempts; ++attempt) {
    const u64 gen = g_gen.load(std::memory_order_acquire);
    sum = g_retired[field].load(std::memory_order_relaxed);
    // The head is read after the generation: one read before it could
    // still list a block whose leave has since folded it into g_retired,
    // and that block would count twice.
    for (const EngineCounters* e = g_head.load(); e != nullptr;
         e = e->next()) {
      sum += e->total(field);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if ((gen & 1) == 0 && g_gen.load(std::memory_order_relaxed) == gen) break;
  }
  detail::unpin_engine_table();
  return sum;
}

void bind_engine_totals() {
  struct Spec { const char *name, *help; u32 field; };
  static constexpr Spec kSpecs[] = {
      {"kvx_engine_jobs_submitted_total",
       "Jobs accepted by BatchHashEngine::submit", kTotalSubmitted},
      {"kvx_engine_jobs_completed_total",
       "Jobs retired successfully (digest available)", kTotalCompleted},
      {"kvx_engine_job_failures_total", "Jobs retired with a per-job error",
       kTotalFailed},
      {"kvx_engine_fallbacks_total",
       "Backend demotions (jit->host-simd->fused->trace->interpreter)",
       kShardFallbacks},
      {"kvx_engine_bytes_hashed_total", "Message bytes hashed", kShardBytes},
      {"kvx_engine_dispatches_total",
       "Job batches dispatched to shard accelerators", kShardDispatches},
      {"kvx_engine_sim_cycles_total", "Simulated accelerator cycles consumed",
       kShardSimCycles},
      {"kvx_engine_permutations_total", "Keccak state-permutations performed",
       kShardPermutations},
      {"kvx_engine_permutation_batches_total",
       "Accelerator permutation dispatches (each permutes up to SN states in "
       "lockstep)",
       kShardPermutationBatches},
      {"kvx_engine_step_cycles_theta_total",
       "Simulated cycles attributed to the theta step", kShardStepTheta},
      {"kvx_engine_step_cycles_rho_pi_total",
       "Simulated cycles attributed to the rho+pi steps", kShardStepRhoPi},
      {"kvx_engine_step_cycles_chi_iota_total",
       "Simulated cycles attributed to the chi+iota steps", kShardStepChiIota},
      {"kvx_engine_step_cycles_other_total",
       "Simulated cycles attributed to permutation loop control",
       kShardStepOther},
  };
  MetricsRegistry& registry = MetricsRegistry::global();
  for (const Spec& s : kSpecs) {
    registry.counter(s.name, s.help).bind(engine_total, s.field);
  }
}

}  // namespace kvx::obs
