#include "kvx/engine/batch_engine.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "kvx/common/error.hpp"
#include "kvx/common/strings.hpp"
#include "kvx/obs/flight_recorder.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/obs/postmortem.hpp"
#include "kvx/obs/process_metrics.hpp"
#include "kvx/sim/host_simd.hpp"
#include "kvx/sim/jit/jit_trace.hpp"

namespace kvx::engine {

namespace {

/// Latency reservoir size: enough for stable p99.9 at any realistic batch
/// size without unbounded growth on long-lived engines. Once full, samples
/// are replaced via Algorithm R so the reservoir stays a uniform draw from
/// every job retired so far.
constexpr usize kMaxLatencySamples = 65536;

/// Submit-to-retire latency histogram, registered once in the process-wide
/// registry (the kvx_engine_*_total counters are bound to obs::engine_total).
obs::Histogram& latency_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "kvx_engine_job_latency_ns",
      "Submit-to-retire job latency (host wall time)");
  return h;
}

/// Best-effort worker pinning: worker `index` goes to host CPU
/// index mod hardware_concurrency. Failure is silently ignored — pinning is
/// a locality hint, never a correctness requirement (cgroup CPU masks,
/// non-Linux hosts and restricted environments all legitimately refuse it).
void pin_to_cpu(unsigned index) {
#if defined(__linux__)
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % hw, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
#else
  (void)index;
#endif
}

u64 steady_now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// Validation error for a malformed job, or "" if the job is well-formed.
/// Malformed jobs become immediate per-job failures (never exceptions), so
/// one bad job in a stream cannot discard its stream-mates.
std::string validate(const HashJob& job) {
  const usize fixed = fixed_digest_bytes(job.algo);
  if (fixed == 0 && job.out_len == 0) {
    return strfmt("%s job requires an explicit out_len",
                  std::string(algo_name(job.algo)).c_str());
  }
  if (fixed != 0 && job.out_len != 0 && job.out_len != fixed) {
    return strfmt("%s digest is %zu bytes, job asked for %zu",
                  std::string(algo_name(job.algo)).c_str(), fixed,
                  job.out_len);
  }
  const bool is_kmac = job.algo == Algo::kKmac128 || job.algo == Algo::kKmac256;
  if (!is_kmac && (!job.key.empty() || !job.customization.empty())) {
    return "key/customization are only valid for KMAC jobs";
  }
  return {};
}

/// The forensic demotion path of the accelerator's current state:
/// construction-time rejections (fixed per shard) followed by the tier
/// attempts of the most recent sponge_batch call.
std::vector<TierAttempt> demotion_path_of(const core::ParallelSha3& accel) {
  std::vector<TierAttempt> path;
  const auto append = [&path](const std::vector<core::BackendAttempt>& as) {
    for (const core::BackendAttempt& a : as) {
      path.push_back({std::string(sim::backend_name(a.tier)), a.error,
                      a.injected});
    }
  };
  append(accel.construction_attempts());
  append(accel.last_batch_attempts());
  return path;
}

/// Reservoir percentile: the element at rank p of a copy (nth_element).
u64 reservoir_pct(std::vector<u64>& lat, double p) {
  const usize idx = std::min(
      lat.size() - 1, static_cast<usize>(p * static_cast<double>(lat.size() - 1)));
  std::nth_element(lat.begin(), lat.begin() + static_cast<std::ptrdiff_t>(idx),
                   lat.end());
  return lat[idx];
}

}  // namespace

BatchHashEngine::BatchHashEngine(const EngineConfig& config)
    : counters_(config.threads),
      config_(config),
      window_(config.batch_window != 0 ? config.batch_window
                                       : 4 * config.accel.sn()),
      queue_(config.threads, config.max_queue),
      start_time_(std::chrono::steady_clock::now()) {
  if (config_.threads == 0) throw Error("engine needs at least one thread");
  // Reserve the whole reservoir now: growing it by doubling would briefly
  // hold the old and new buffers at once (a peak-RSS spike within the first
  // second of a busy server), while a reserve touches no page until written.
  latency_ns_.reserve(kMaxLatencySamples);
  // KVX_POSTMORTEM=<dir> switches on auto dumps + the crash handler for any
  // engine-bearing process without code changes (idempotent, cheap).
  obs::pm::init_from_env();
  // One immutable program shared by every shard; each shard still owns an
  // independent simulator, so shards never contend outside the job queue.
  const auto program = core::VectorKeccak::build_program(config_.accel);
  // Trace/fusion compile time attributable to this engine: the global cache
  // counters advance only when shard construction actually compiles (cache
  // hits add nothing, truthfully).
  const sim::TraceCacheStats tc0 = sim::TraceCache::global().stats();
  shards_.reserve(config_.threads);
  for (unsigned t = 0; t < config_.threads; ++t) {
    auto shard = std::make_unique<Shard>();
    shard->index = t;
    shard->accel = std::make_unique<core::ParallelSha3>(config_.accel, program);
    // Construction-time demotions (trace compile rejected, genuinely or by
    // an injected fault) are fallbacks too — count them before any job runs.
    counters_.shard(t).add(obs::kShardFallbacks,
                           shard->accel->backend_fallbacks());
    shard->accel_view = AccelView::of(*shard->accel);
    shards_.push_back(std::move(shard));
  }
  const sim::TraceCacheStats tc1 = sim::TraceCache::global().stats();
  backend_compile_ns_ =
      (tc1.compile_ns - tc0.compile_ns) + (tc1.fuse_ns - tc0.fuse_ns);
  // Build info, process self-metrics and the engine-total bindings ride
  // along with every engine (all idempotent).
  obs::publish_build_info(
      std::string(sim::host_simd_isa_name(
          sim::host_simd_dispatch_isa(config_.accel.sn()))),
      sim::jit_supported() ? "on" : "off");
  obs::register_process_metrics();
  obs::bind_engine_totals();
  if (counters_.total(obs::kShardFallbacks) != 0) {
    obs::pm::auto_dump("backend_demotion_at_construction");
  }
  // Register the latency histogram before any worker exists, so no worker
  // ever takes the registry mutex while it holds state_mutex_.
  (void)latency_histogram();
  // Queue-depth gauges are *bound*, not set: every scrape evaluates the
  // live ring depths, so the exported values can neither go stale nor race
  // a push/pop that lands between update and scrape. One aggregate gauge
  // plus one per queue shard. A second engine binding the same names
  // supersedes this one (tokens keep the unbinds from clobbering it).
  auto& registry = obs::MetricsRegistry::global();
  obs::Gauge& agg = registry.gauge(
      "kvx_engine_queue_depth",
      "Jobs in flight in the engine queue (evaluated at scrape time)");
  depth_gauges_.emplace_back(
      &agg, agg.bind([this] { return static_cast<double>(queue_.depth()); }));
  for (usize s = 0; s < queue_.shard_count(); ++s) {
    obs::Gauge& g = registry.gauge(
        strfmt("kvx_engine_queue_depth_shard_%zu", s),
        "Jobs in flight on one engine queue shard (evaluated at scrape time)");
    depth_gauges_.emplace_back(&g, g.bind([this, s] {
      return static_cast<double>(queue_.shard_depth(s));
    }));
  }
  workers_.reserve(config_.threads);
  for (unsigned t = 0; t < config_.threads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t, *shards_[t]); });
  }
}

BatchHashEngine::~BatchHashEngine() {
  close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Unbind before queue_ is destroyed; a scrape after this point reads the
  // frozen final value (0 once drained).
  for (auto& [gauge, token] : depth_gauges_) gauge->unbind(token);
}

void BatchHashEngine::record_latency_locked(u64 sample_ns, u64 flight_seq) {
  if (flight_seq != 0) {
    latency_histogram().observe_exemplar(sample_ns, flight_seq);
  } else {
    latency_histogram().observe(sample_ns);
  }
  latency_max_ns_ = std::max(latency_max_ns_, sample_ns);
  latency_observed_ += 1;
  if (latency_ns_.size() < kMaxLatencySamples) {
    latency_ns_.push_back(sample_ns);
  } else {
    // Algorithm R: replace a uniformly random slot with probability
    // reservoir/observed, keeping the sample unbiased over all jobs.
    const u64 slot = latency_rng_.below(latency_observed_);
    if (slot < kMaxLatencySamples) {
      latency_ns_[static_cast<usize>(slot)] = sample_ns;
    }
  }
}

void BatchHashEngine::notify_retire() noexcept {
  const int fd = notify_fd_.load(std::memory_order_acquire);
  if (fd < 0) return;
#if defined(__unix__) || defined(__APPLE__)
  // Eventfd semantics: the u64 accumulates into the counter, so one poll
  // wakeup coalesces any number of retirements. EAGAIN (counter saturated)
  // is harmless — the readable edge the caller sleeps on is already
  // pending. Pipes coalesce the same way once full.
  const u64 one = 1;
  const ssize_t ignored = ::write(fd, &one, sizeof one);
  (void)ignored;
#endif
}

void BatchHashEngine::fail_job_locked(u64 seq, u64 submit_ns,
                                      std::string error) {
  const u64 fseq = obs::FlightRecorder::global().record(
      obs::FlightEventType::kJobFail, 0, seq,
      obs::flight_hash(error.c_str()));
  JobResult& r = ready_.emplace_back();
  r.seq = seq;
  r.error = std::move(error);
  r.flight_seq = fseq;
  obs::single_writer_add(counters_.failed, 1);
  record_latency_locked(steady_now_ns() - submit_ns, fseq);
  all_done_.notify_all();
}

u64 BatchHashEngine::submit(HashJob job) {
  std::string invalid = validate(job);
  const u64 submit_ns = steady_now_ns();
  u64 seq = 0;
  {
    std::lock_guard lock(state_mutex_);
    if (closed_) throw Error("submit after close()");
    seq = counters_.submitted.load(std::memory_order_relaxed);
    obs::single_writer_add(counters_.submitted, 1);
  }
  obs::FlightRecorder::global().record(obs::FlightEventType::kJobSubmit, 0,
                                       seq, 1);
  if (!invalid.empty()) {
    // Malformed: retire right here as a per-job failure (full accounting,
    // no queue round-trip) so batch-mates are untouched.
    {
      std::lock_guard lock(state_mutex_);
      fail_job_locked(seq, submit_ns, std::move(invalid));
    }
    notify_retire();
    obs::pm::auto_dump("job_failure");
    return seq;
  }
  // Push outside state_mutex_: a bounded queue may block here, and workers
  // need the state mutex to retire jobs (holding it would deadlock).
  if (!queue_.push({seq, submit_ns, std::move(job)})) {
    // close() raced with this submit; retire the job as failed so drain
    // cannot hang, and surface the loss to the caller.
    {
      std::lock_guard lock(state_mutex_);
      fail_job_locked(seq, submit_ns,
                      "engine closed while a submit was in flight");
    }
    notify_retire();
    throw Error("submit after close()");
  }
  return seq;
}

u64 BatchHashEngine::submit_batch(std::span<const HashJob> jobs) {
  // Validate the whole span before taking any lock — the expensive part of
  // intake runs unsynchronized. Validity is recorded separately because the
  // retire loop below moves the error strings out (a moved-from error reads
  // empty, which must not make the job look well-formed afterwards).
  std::vector<std::string> errors(jobs.size());
  std::vector<char> ok(jobs.size(), 0);
  usize valid = 0;
  for (usize i = 0; i < jobs.size(); ++i) {
    errors[i] = validate(jobs[i]);
    if (errors[i].empty()) {
      ok[i] = 1;
      ++valid;
    }
  }
  const u64 submit_ns = steady_now_ns();
  u64 first = 0;
  {
    // ONE state-mutex acquisition reserves the contiguous sequence range
    // and retires the malformed jobs — concurrent submit_batch callers each
    // get a dense, disjoint range.
    std::lock_guard lock(state_mutex_);
    first = counters_.submitted.load(std::memory_order_relaxed);
    if (jobs.empty()) return first;
    if (closed_) throw Error("submit after close()");
    obs::single_writer_add(counters_.submitted, jobs.size());
    for (usize i = 0; i < jobs.size(); ++i) {
      if (ok[i] == 0) {
        fail_job_locked(first + i, submit_ns, std::move(errors[i]));
      }
    }
  }
  obs::FlightRecorder::global().record(obs::FlightEventType::kJobSubmit, 0,
                                       first, jobs.size());
  if (valid != jobs.size()) {
    notify_retire();
    obs::pm::auto_dump("job_failure");
  }
  if (valid == 0) return first;
  std::vector<QueuedJob> items;
  items.reserve(valid);
  for (usize i = 0; i < jobs.size(); ++i) {
    if (ok[i] != 0) items.push_back({first + i, submit_ns, jobs[i]});
  }
  // Push outside state_mutex_ (bounded queues block here; workers need the
  // state mutex to retire). push_bulk distributes window_-sized contiguous
  // chunks across the queue shards and wakes sleepers once per chunk.
  const usize pushed = queue_.push_bulk(items, window_);
  if (pushed != items.size()) {
    // close() raced with this submit; retire the unpushed tail as failed so
    // drain cannot hang, and surface the loss to the caller.
    {
      std::lock_guard lock(state_mutex_);
      for (usize i = pushed; i < items.size(); ++i) {
        fail_job_locked(items[i].seq, submit_ns,
                        "engine closed while a submit was in flight");
      }
    }
    notify_retire();
    throw Error("submit after close()");
  }
  return first;
}

void BatchHashEngine::close() {
  {
    std::lock_guard lock(state_mutex_);
    closed_ = true;
  }
  queue_.close();
}

usize BatchHashEngine::take_ready_locked(std::vector<JobResult>& out) {
  const usize n = ready_.size();
  if (out.empty()) {
    out.swap(ready_);  // hands the caller's spare capacity back to workers
  } else {
    out.insert(out.end(), std::make_move_iterator(ready_.begin()),
               std::make_move_iterator(ready_.end()));
    ready_.clear();
  }
  return n;
}

usize BatchHashEngine::drain_batch(std::vector<JobResult>& out) {
  const usize before = out.size();
  usize n = 0;
  {
    std::unique_lock lock(state_mutex_);
    all_done_.wait(lock, [&] {
      return counters_.completed.load(std::memory_order_relaxed) +
                 counters_.failed.load(std::memory_order_relaxed) ==
             counters_.submitted.load(std::memory_order_relaxed);
    });
    // With every submitted job retired, ready_ holds exactly the ids not
    // collected yet; sorting them restores submission order.
    n = take_ready_locked(out);
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end(),
            [](const JobResult& a, const JobResult& b) {
              return a.seq < b.seq;
            });
  return n;
}

usize BatchHashEngine::try_drain_ready(std::vector<JobResult>& out) {
  std::lock_guard lock(state_mutex_);
  return take_ready_locked(out);
}

EngineStats BatchHashEngine::stats() const {
  EngineStats st;
  // Counters are read without the state mutex.
  const obs::JobTotals jobs = job_totals();
  st.submitted = jobs.submitted;
  st.completed = jobs.completed;
  st.failed = jobs.failed;
  st.shards.reserve(counters_.shard_count());
  for (usize s = 0; s < counters_.shard_count(); ++s) {
    st.shards.push_back(counters_.shard(s).snapshot());
  }
  std::vector<u64> lat;
  u64 observed = 0;
  u64 max_ns = 0;
  AccelView view;
  {
    std::lock_guard lock(state_mutex_);
    // All shards share one program + config, so shard 0 is representative.
    if (!shards_.empty()) view = shards_.front()->accel_view;
    lat = latency_ns_;
    observed = latency_observed_;
    max_ns = latency_max_ns_;
  }
  if (!shards_.empty()) {
    st.backend = sim::backend_name(view.active);
    st.effective_backend = sim::backend_name(view.last);
    st.fusion_coverage = view.fusion_coverage;
    st.host_simd_coverage = view.host_simd_coverage;
    st.jit_code_bytes = view.jit_code_bytes;
    if (view.last == sim::ExecBackend::kJit && view.jit_isa.has_value()) {
      st.host_simd_isa = sim::host_simd_isa_name(*view.jit_isa);
    } else if (view.last == sim::ExecBackend::kHostSimd) {
      st.host_simd_isa = sim::host_simd_isa_name(
          sim::host_simd_dispatch_isa(config_.accel.sn()));
    }
  }
  st.backend_compile_ns = backend_compile_ns_;
  if (!lat.empty()) {
    st.latency.count = observed;
    st.latency.p50_ns = reservoir_pct(lat, 0.50);
    st.latency.p99_ns = reservoir_pct(lat, 0.99);
    st.latency.p999_ns = reservoir_pct(lat, 0.999);
    st.latency.max_ns = max_ns;
  }
  st.queue_high_water = queue_.high_water();
  st.queue_shard_depths.reserve(queue_.shard_count());
  for (usize s = 0; s < queue_.shard_count(); ++s) {
    st.queue_shard_depths.push_back(queue_.shard_depth(s));
  }
  st.elapsed_ns = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  return st;
}

void BatchHashEngine::worker_loop(unsigned index, Shard& shard) {
  if (config_.pin_workers) pin_to_cpu(index);
  std::vector<QueuedJob> batch;
  while (queue_.pop_bulk(index, window_, batch) > 0) {
    try {
      process_batch(shard, batch);
    } catch (const std::exception& e) {
      // Backstop for failures outside the dispatch (input encoding, retire
      // bookkeeping): every job of the batch is retired as failed, with
      // full metric and latency accounting, so drain terminates and the
      // counters stay consistent.
      fail_batch(shard, batch, e.what());
    }
  }
}

void BatchHashEngine::fail_batch(Shard& shard,
                                 const std::vector<QueuedJob>& batch,
                                 const char* what) {
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  const u64 err_hash = obs::flight_hash(what);
  const u64 retire_ns = steady_now_ns();
  counters_.shard(shard.index).add(obs::kShardFailures, batch.size());
  {
    std::lock_guard lock(state_mutex_);
    for (const QueuedJob& qj : batch) {
      const u64 fseq =
          fr.record(obs::FlightEventType::kJobFail, 0, qj.seq, err_hash);
      JobResult& r = ready_.emplace_back();
      r.seq = qj.seq;
      r.error = what;
      r.flight_seq = fseq;
      record_latency_locked(retire_ns - qj.submit_ns, fseq);
    }
    obs::single_writer_add(counters_.failed, batch.size());
    all_done_.notify_all();
  }
  notify_retire();
  obs::pm::auto_dump("job_failure");
}

void BatchHashEngine::process_batch(Shard& shard,
                                    std::vector<QueuedJob>& batch) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  core::ParallelSha3& accel = *shard.accel;
  const core::BatchStats before = accel.stats();
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  fr.record(obs::FlightEventType::kDispatch, 0, batch.size(), shard.index);

  // The whole run is one sponge_batch call: every job gets its own lane
  // cursor, whatever its algorithm, length or key. SHA-3/SHAKE jobs borrow
  // their message; KMAC jobs absorb their SP 800-185 encoding.
  std::vector<core::SpongeJob> sponge(batch.size());
  std::vector<std::vector<u8>> kmac_inputs;
  kmac_inputs.reserve(batch.size());
  u64 batch_bytes = 0;
  for (usize i = 0; i < batch.size(); ++i) {
    const HashJob& job = batch[i].job;
    const usize out_len = job.resolved_out_len();
    batch_bytes += job.message.size();
    if (job.algo == Algo::kKmac128 || job.algo == Algo::kKmac256) {
      const usize rate = keccak::rate_bytes(base_function(job.algo));
      kmac_inputs.push_back(core::kmac_input(rate, job.key, job.message,
                                             out_len, job.customization));
      sponge[i] = {rate, core::kCshakeDomain, kmac_inputs.back(), out_len};
    } else {
      sponge[i] = core::SpongeJob::fips202(base_function(job.algo),
                                           job.message, out_len);
    }
  }
  // A dispatch that throws on every tier (the interpreter is the last
  // resort) fails the run's jobs together, each with the full
  // attempted-tier chain.
  std::vector<JobResult> outcomes(batch.size());
  bool hashed = false;
  try {
    std::vector<std::vector<u8>> outs = accel.sponge_batch(sponge);
    const std::string backend(sim::backend_name(accel.last_backend()));
    for (usize i = 0; i < batch.size(); ++i) {
      outcomes[i].digest = std::move(outs[i]);
      outcomes[i].backend = backend;
    }
    hashed = true;
  } catch (const std::exception& e) {
    for (JobResult& r : outcomes) r.error = e.what();
  }
  // Forensics: a failed job, or one that succeeded only after demotions,
  // carries the tier chain of its call; the common clean call stays empty.
  if (!hashed || !accel.construction_attempts().empty() ||
      accel.last_batch_attempts().size() > 1) {
    const std::vector<TierAttempt> path = demotion_path_of(accel);
    for (JobResult& r : outcomes) r.demotion_path = path;
  }

  // This dispatch's counter deltas, added to the shard's block before the
  // retire below publishes the jobs: whoever sees them retired (drain,
  // stats(), /metrics) sees their counters too.
  const core::BatchStats after = accel.stats();
  obs::ShardCounters& counters = counters_.shard(shard.index);
  const usize failed_jobs = hashed ? 0 : batch.size();
  ShardStats d;
  d.jobs = batch.size() - failed_jobs;
  d.failures = failed_jobs;
  // Backend demotions this batch caused: the accelerator's monotone count
  // less the shard's (this worker is the shard's only writer).
  d.fallbacks = accel.backend_fallbacks() -
                counters.v[obs::kShardFallbacks].load(std::memory_order_relaxed);
  d.bytes = hashed ? batch_bytes : 0;  // only hashed bytes count
  d.dispatches = 1;
  d.sim_cycles = after.accelerator_cycles - before.accelerator_cycles;
  d.permutations = after.permutations - before.permutations;
  d.permutation_batches =
      after.permutation_batches - before.permutation_batches;
  d.host_ns = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  d.step_cycles = after.step_cycles.minus(before.step_cycles);
  counters.add(d);

  // One retire event covers the whole batch; failed jobs additionally get
  // their own kJobFail event so kvx-doctor can anchor a timeline window on
  // each failure individually.
  const u64 retire_seq = fr.record(
      obs::FlightEventType::kJobRetire,
      static_cast<u16>(std::min<usize>(failed_jobs, 0xFFFF)),
      batch.front().seq, batch.size());
  const u64 retire_ns = steady_now_ns();
  const AccelView view = AccelView::of(accel);
  {
    std::lock_guard lock(state_mutex_);
    shard.accel_view = view;
    // Reserve first (growing geometrically): past this point nothing in
    // the loop allocates or throws, so the batch retires whole or not at
    // all, and clearing it afterwards keeps the fail_batch backstop from
    // retiring a job twice.
    if (ready_.capacity() - ready_.size() < batch.size()) {
      ready_.reserve(std::max(ready_.size() + batch.size(),
                              2 * ready_.capacity()));
    }
    for (usize i = 0; i < batch.size(); ++i) {
      u64 fseq = retire_seq;
      if (!outcomes[i].ok()) {
        fseq = fr.record(obs::FlightEventType::kJobFail, 0, batch[i].seq,
                         obs::flight_hash(outcomes[i].error));
      }
      outcomes[i].seq = batch[i].seq;
      outcomes[i].flight_seq = fseq;
      ready_.push_back(std::move(outcomes[i]));
      // Every retirement is latency-stamped, failed or not — dropping
      // failures would skew p50/p99.9 toward the surviving jobs.
      record_latency_locked(retire_ns - batch[i].submit_ns, fseq);
    }
    obs::single_writer_add(counters_.completed, d.jobs);
    obs::single_writer_add(counters_.failed, d.failures);
    batch.clear();
    all_done_.notify_all();
  }
  notify_retire();
  // Post-mortem triggers run outside state_mutex_ — a dump scrapes the
  // metrics registry, and the scrape path may re-enter engine callbacks.
  if (d.fallbacks != 0) obs::pm::auto_dump("backend_demotion");
  if (failed_jobs != 0) obs::pm::auto_dump("job_failure");
}

std::vector<std::vector<u8>> run_batch(const EngineConfig& config,
                                       std::span<const HashJob> jobs) {
  BatchHashEngine engine(config);
  engine.submit_batch(jobs);
  engine.close();
  std::vector<JobResult> results;
  engine.drain_batch(results);
  usize failures = 0;
  const std::string* first = nullptr;
  for (const JobResult& r : results) {
    if (!r.ok()) {
      if (first == nullptr) first = &r.error;
      ++failures;
    }
  }
  if (failures != 0) {
    throw Error(strfmt("%zu of %zu jobs failed; first error: %s", failures,
                       results.size(), first->c_str()));
  }
  std::vector<std::vector<u8>> digests;
  digests.reserve(results.size());
  for (JobResult& r : results) digests.push_back(std::move(r.digest));
  return digests;
}

}  // namespace kvx::engine
