// Flight recorder + crash post-mortem tests: the always-on black box and
// the dump machinery it feeds.
//
// Covered here:
//  * recorder basics — sequence numbers are globally monotone, payloads
//    round-trip, disabled recording is a true no-op;
//  * the merged-timeline property under 8 concurrent writer threads: no
//    duplicated and no lost events, strictly increasing sequence order,
//    per-thread program order preserved;
//  * ring-wrap accounting (written keeps counting, stored caps at the ring
//    capacity, the snapshot holds the NEWEST events);
//  * dump_now() -> parse_dump() round-trip with a live engine: reason,
//    build info, events, metrics and every engine's counter block (every
//    ShardStats field of every shard, however many engines and shards are
//    live) survive the binary format, and the construction-demotion auto
//    dump lists the engine it reports;
//  * the trace-event export (flight_trace_json) — compile and dispatch
//    spans rebuilt from a live fused engine, ring-wrap drop reporting, and
//    no span for a dispatch whose retire was lost;
//  * histogram exemplars — the bucket max carries its flight sequence;
//  * death tests: SIGABRT (and SIGSEGV where no sanitizer intercepts it)
//    leave a parseable crash dump with the right signal recorded.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kvx/common/error.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/obs/flight_recorder.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/obs/postmortem.hpp"
#include "kvx/sim/compiled_trace.hpp"
#include "kvx/sim/fault_injector.hpp"

namespace kvx {
namespace {

using obs::FlightEvent;
using obs::FlightEventType;
using obs::FlightRecorder;

/// Events recorded by THIS test are identified by a magic a0 tag — the
/// global recorder is shared with everything else in the process (engine
/// tests, cache instrumentation), so tests filter instead of assuming
/// exclusivity.
constexpr u64 kTag = 0x7465737464617461ull;

TEST(FlightRecorder, SequencesAreMonotoneAndPayloadsRoundTrip) {
  FlightRecorder& fr = FlightRecorder::global();
  const u64 s1 = fr.record(FlightEventType::kDispatch, 7, kTag, 42);
  const u64 s2 = fr.record(FlightEventType::kJobFail, 0, kTag, 43);
  ASSERT_NE(s1, 0u);
  EXPECT_GT(s2, s1);

  bool found = false;
  for (const FlightEvent& e : fr.snapshot_merged()) {
    if (e.seq != s1) continue;
    found = true;
    EXPECT_EQ(e.type(), FlightEventType::kDispatch);
    EXPECT_EQ(e.code, 7u);
    EXPECT_EQ(e.a0, kTag);
    EXPECT_EQ(e.a1, 42u);
    EXPECT_NE(e.ns, 0u);
  }
  EXPECT_TRUE(found);
}

TEST(FlightRecorder, DisabledRecordingIsANoOp) {
  FlightRecorder& fr = FlightRecorder::global();
  fr.set_enabled(false);
  const u64 s = fr.record(FlightEventType::kDispatch, 0, kTag, 99);
  fr.set_enabled(true);
  EXPECT_EQ(s, 0u);
  for (const FlightEvent& e : fr.snapshot_merged()) {
    EXPECT_FALSE(e.a0 == kTag && e.a1 == 99) << "disabled event recorded";
  }
}

TEST(FlightRecorder, EventNamesAreStable) {
  EXPECT_EQ(obs::flight_event_name(FlightEventType::kJobSubmit),
            "job_submit");
  EXPECT_EQ(obs::flight_event_name(FlightEventType::kBackendDemotion),
            "backend_demotion");
  EXPECT_EQ(obs::flight_event_name(FlightEventType::kFaultInjected),
            "fault_injected");
  EXPECT_EQ(obs::flight_event_name(FlightEventType::kQueueSteal),
            "queue_steal");
}

TEST(FlightRecorder, HashIsStableFnv1a) {
  // FNV-1a 64 known-answer: dumps written today must hash identically in
  // any future kvx-doctor.
  EXPECT_EQ(obs::flight_hash(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(obs::flight_hash("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(obs::flight_hash("injected fault"),
            obs::flight_hash(std::string("injected fault")));
  EXPECT_NE(obs::flight_hash("x"), obs::flight_hash("y"));
}

TEST(FlightRecorder, EightThreadMergeLosesNothingAndKeepsOrder) {
  constexpr unsigned kThreads = 8;
  constexpr u64 kPerThread = 200;  // < ring capacity: nothing may wrap away
  FlightRecorder& fr = FlightRecorder::global();
  const u64 start_seq = fr.record(FlightEventType::kDispatch, 1, kTag, 0);
  ASSERT_NE(start_seq, 0u);

  // Each thread claims its ring (first record) BEFORE the barrier: rings
  // are recycled at thread exit, so without this a fast thread could
  // finish and release its ring before a slow one's first record, which
  // would then reuse (and wrap) the same ring and legitimately lose
  // events. The claim event uses code 99 so the window filter drops it.
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ready] {
      FlightRecorder::global().record(FlightEventType::kDispatch, 99, kTag,
                                      0);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (u64 i = 0; i < kPerThread; ++i) {
        // a1 encodes (thread, i) so the merged timeline can be checked for
        // per-thread program order after the fact.
        FlightRecorder::global().record(FlightEventType::kDispatch,
                                        static_cast<u16>(t + 100), kTag,
                                        (u64{t} << 32) | i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const u64 end_seq = fr.record(FlightEventType::kDispatch, 2, kTag, 0);

  std::vector<FlightEvent> window;
  for (const FlightEvent& e : fr.snapshot_merged()) {
    if (e.seq > start_seq && e.seq < end_seq && e.a0 == kTag &&
        e.code >= 100) {
      window.push_back(e);
    }
  }
  // No lost events, no duplicates (snapshot_merged returns sorted order).
  ASSERT_EQ(window.size(), kThreads * kPerThread);
  u64 last_i[kThreads];
  bool seen[kThreads] = {};
  for (usize k = 0; k < window.size(); ++k) {
    if (k > 0) ASSERT_LT(window[k - 1].seq, window[k].seq);
    const unsigned t = static_cast<unsigned>(window[k].a1 >> 32);
    const u64 i = window[k].a1 & 0xFFFFFFFFull;
    ASSERT_LT(t, kThreads);
    if (seen[t]) {
      EXPECT_EQ(i, last_i[t] + 1) << "thread " << t << " order broken";
    } else {
      EXPECT_EQ(i, 0u);
      seen[t] = true;
    }
    last_i[t] = i;
  }
}

TEST(FlightRecorder, RingWrapKeepsNewestAndCountsWritten) {
  constexpr u64 kOverfill = FlightRecorder::kRingCapacity + 64;
  FlightRecorder& fr = FlightRecorder::global();
  std::atomic<u64> first_seq{0};
  std::atomic<u64> last_seq{0};
  // A dedicated thread gets a ring of its own; overfilling it wraps that
  // ring without disturbing this thread's.
  std::thread writer([&] {
    for (u64 i = 0; i < kOverfill; ++i) {
      const u64 s =
          fr.record(FlightEventType::kTraceCacheHit, 999, kTag, i);
      if (i == 0) first_seq.store(s);
      last_seq.store(s);
    }
  });
  writer.join();

  u64 survivors = 0;
  u64 min_i = kOverfill;
  u64 max_i = 0;
  for (const FlightEvent& e : fr.snapshot_merged()) {
    if (e.a0 == kTag && e.code == 999) {
      ++survivors;
      min_i = std::min(min_i, e.a1);
      max_i = std::max(max_i, e.a1);
    }
  }
  // Exactly one ring's worth survives and it is the NEWEST window.
  EXPECT_EQ(survivors, FlightRecorder::kRingCapacity);
  EXPECT_EQ(max_i, kOverfill - 1);
  EXPECT_EQ(min_i, kOverfill - FlightRecorder::kRingCapacity);
  EXPECT_EQ(last_seq.load() - first_seq.load(), kOverfill - 1);
}

// ---------------------------------------------------------------------------
// Trace-event export

/// One object of a flight_trace_json() document. The exporter writes flat
/// objects whose only nested object is "args", and no key appears both at
/// the top level and in args, so fields are looked up by key.
struct TraceObj {
  std::string text;

  [[nodiscard]] std::string str(const char* key) const {
    const std::string k = std::string("\"") + key + "\":\"";
    const usize at = text.find(k);
    if (at == std::string::npos) return {};
    const usize from = at + k.size();
    return text.substr(from, text.find('"', from) - from);
  }
  [[nodiscard]] double num(const char* key) const {
    const std::string k = std::string("\"") + key + "\":";
    const usize at = text.find(k);
    return at == std::string::npos ? NAN
                                   : std::strtod(text.c_str() + at + k.size(),
                                                 nullptr);
  }
};

std::vector<TraceObj> trace_objects(const std::string& json) {
  std::vector<TraceObj> out;
  usize at = json.find("{\"ph\":");
  while (at != std::string::npos) {
    int depth = 0;
    usize end = at;
    do {
      if (json[end] == '{') ++depth;
      if (json[end] == '}') --depth;
      ++end;
    } while (depth != 0 && end < json.size());
    out.push_back({json.substr(at, end - at)});
    at = json.find("{\"ph\":", end);
  }
  return out;
}

std::string export_now() {
  std::vector<FlightRecorder::RingInfo> rings;
  const auto events = FlightRecorder::global().snapshot_merged(&rings);
  return obs::flight_trace_json(events, rings);
}

TEST(FlightTrace, FusedEngineExportHasCompileAndDispatchSpans) {
  // An empty cache makes engine construction compile and fuse for real.
  sim::TraceCache::global().clear();
  engine::EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = sim::ExecBackend::kFusedTrace;
  u64 first_job = 0;
  {
    engine::BatchHashEngine engine(cfg);
    std::vector<engine::HashJob> jobs(24);
    for (usize i = 0; i < jobs.size(); ++i) {
      jobs[i].algo = engine::Algo::kSha3_256;
      jobs[i].message.assign(40 + i, static_cast<u8>(i));
    }
    first_job = engine.submit_batch(jobs);
    std::vector<engine::JobResult> results;
    engine.drain_batch(results);
    for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.error;
  }

  std::vector<FlightRecorder::RingInfo> rings;
  const std::vector<FlightEvent> events =
      FlightRecorder::global().snapshot_merged(&rings);
  const std::string json = obs::flight_trace_json(events, rings);
  ASSERT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  ASSERT_NE(json.find("],\"displayTimeUnit\":\"ms\"}"), std::string::npos);

  // The submitting thread's ring, found through this run's kJobSubmit.
  u32 submit_ring = FlightRecorder::kMaxRings;
  for (const FlightEvent& e : events) {
    if (e.type() == FlightEventType::kJobSubmit && e.a0 == first_job &&
        e.a1 == 24) {
      submit_ring = e.ring;
    }
  }
  ASSERT_LT(submit_ring, FlightRecorder::kMaxRings);

  bool compile = false;
  bool fuse = false;
  bool submit = false;
  usize worker_dispatches = 0;
  for (const TraceObj& o : trace_objects(json)) {
    EXPECT_GE(o.num("ts"), 0.0) << o.text;
    const std::string ph = o.str("ph");
    const std::string name = o.str("name");
    if (ph == "X") {
      EXPECT_GE(o.num("dur"), 0.0) << o.text;
      compile |= name == "trace_compile";
      fuse |= name == "trace_fuse";
    }
    if (ph == "i" && name == "job_submit") submit = true;
    if (ph != "X" || name != "dispatch") continue;
    // args.seq names the kDispatch the span starts at; its payload and
    // ring must be what the span reports.
    const u64 seq = static_cast<u64>(o.num("seq"));
    for (const FlightEvent& e : events) {
      if (e.seq != seq) continue;
      EXPECT_EQ(e.type(), FlightEventType::kDispatch);
      EXPECT_EQ(static_cast<double>(e.a0), o.num("jobs")) << o.text;
      EXPECT_EQ(static_cast<double>(e.ring), o.num("tid")) << o.text;
      if (e.ring != submit_ring) ++worker_dispatches;
    }
  }
  EXPECT_TRUE(compile);
  EXPECT_TRUE(fuse);
  EXPECT_TRUE(submit);
  EXPECT_GE(worker_dispatches, 1u);
}

TEST(FlightTrace, OverfilledRingReportsDroppedEvents) {
  constexpr u64 kOverfill = FlightRecorder::kRingCapacity + 10;
  std::atomic<u32> ring{0};
  std::thread writer([&] {
    for (u64 i = 0; i < kOverfill; ++i) {
      FlightRecorder::global().record(FlightEventType::kTraceCacheHit, 998,
                                      kTag, i);
    }
    for (const FlightEvent& e : FlightRecorder::global().snapshot_merged()) {
      if (e.code == 998 && e.a1 == kOverfill - 1) ring.store(e.ring);
    }
  });
  writer.join();

  bool reported = false;
  for (const TraceObj& o : trace_objects(export_now())) {
    if (o.str("name") == "kvx_dropped_events" &&
        o.num("tid") == static_cast<double>(ring.load())) {
      reported = true;
      EXPECT_GE(o.num("dropped"), 10.0) << o.text;
    }
  }
  EXPECT_TRUE(reported);
}

/// A synthetic event on ring 2 at 1000·seq ns.
FlightEvent synthetic(u64 seq, FlightEventType t, u64 a0, u64 a1,
                      u16 code = 0) {
  FlightEvent e;
  e.seq = seq;
  e.ns = 1000 * seq;
  e.type_raw = static_cast<u16>(t);
  e.code = code;
  e.ring = 2;
  e.a0 = a0;
  e.a1 = a1;
  return e;
}

TEST(FlightTrace, CompileSpanEndsAtItsEventAndStartsTheClock) {
  // The compile event is the first in the snapshot but its span starts
  // a0 ns earlier: that start is ts 0, and later events count from it.
  const std::string json = obs::flight_trace_json(
      {synthetic(5, FlightEventType::kTraceCompile, 2000, 0, /*code=*/1),
       synthetic(6, FlightEventType::kJobSubmit, 0, 1)},
      {});
  const std::vector<TraceObj> objs = trace_objects(json);
  ASSERT_EQ(objs.size(), 2u) << json;
  EXPECT_EQ(objs[0].str("ph"), "X");
  EXPECT_EQ(objs[0].str("name"), "trace_fuse");
  EXPECT_EQ(objs[0].num("ts"), 0.0);
  EXPECT_EQ(objs[0].num("dur"), 2.0);
  EXPECT_EQ(objs[1].str("name"), "job_submit");
  EXPECT_EQ(objs[1].num("ts"), 3.0);
}

TEST(FlightTrace, DispatchWithoutRetireIsNoSpan) {
  // A lone dispatch (its retire lost, as after the fail_batch backstop).
  const std::string lone = obs::flight_trace_json(
      {synthetic(1, FlightEventType::kDispatch, 4, 0)}, {});
  EXPECT_EQ(lone.find("\"ph\":\"X\""), std::string::npos) << lone;
  EXPECT_NE(lone.find("\"name\":\"dispatch\""), std::string::npos) << lone;

  // A dispatch superseded by the next one on its ring: only the second,
  // which its retire closes, becomes a span.
  const std::string json = obs::flight_trace_json(
      {synthetic(1, FlightEventType::kDispatch, 4, 0),
       synthetic(2, FlightEventType::kJobFail, 9, 0),
       synthetic(3, FlightEventType::kDispatch, 5, 0),
       synthetic(4, FlightEventType::kJobRetire, 9, 5)},
      {});
  usize spans = 0;
  for (const TraceObj& o : trace_objects(json)) {
    if (o.str("ph") != "X") continue;
    ++spans;
    EXPECT_EQ(o.num("seq"), 3.0) << o.text;
    EXPECT_EQ(o.num("ts"), 2.0) << o.text;  // µs after the first event
    EXPECT_EQ(o.num("dur"), 1.0) << o.text;
  }
  EXPECT_EQ(spans, 1u);
}

TEST(Histogram, ExemplarTracksBucketMaxFlightSeq) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", "", {100, 200});
  h.observe_exemplar(50, 7);    // bucket 0
  h.observe_exemplar(90, 8);    // bucket 0: new max 90 -> seq 8
  h.observe_exemplar(60, 9);    // bucket 0: not a max, seq stays 8
  h.observe_exemplar(150, 11);  // bucket 1
  h.observe(175);               // no exemplar: must not clobber seq 11
  const auto ex = h.exemplars();
  ASSERT_EQ(ex.size(), 3u);
  EXPECT_EQ(ex[0].value, 90u);
  EXPECT_EQ(ex[0].flight_seq, 8u);
  EXPECT_EQ(ex[1].value, 150u);
  EXPECT_EQ(ex[1].flight_seq, 11u);
  EXPECT_EQ(ex[2].flight_seq, 0u);  // +Inf bucket untouched
}

// ---------------------------------------------------------------------------
// Dump round-trip

std::string fresh_dump_dir(const char* tag) {
  const std::string dir =
      testing::TempDir() + "kvx_fr_" + tag + "_" +
      std::to_string(static_cast<unsigned long long>(::getpid()));
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

TEST(Postmortem, DumpNowRoundTripsThroughParse) {
  const std::string dir = fresh_dump_dir("roundtrip");
  obs::pm::set_dump_dir(dir);

  engine::EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  engine::BatchHashEngine engine(cfg);
  std::vector<engine::HashJob> jobs(9);
  for (usize i = 0; i < jobs.size(); ++i) {
    jobs[i].algo = engine::Algo::kSha3_256;
    jobs[i].message.assign(64, static_cast<u8>(i));
  }
  engine.submit_batch(jobs);
  std::vector<engine::JobResult> results;
  engine.drain_batch(results);
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.error;

  const std::string path = obs::pm::dump_now("unit_test");
  ASSERT_FALSE(path.empty());
  const obs::pm::PostmortemDump dump = obs::pm::parse_dump(path);

  EXPECT_EQ(dump.version, obs::pm::kDumpVersion);
  EXPECT_EQ(dump.pid, static_cast<u64>(::getpid()));
  EXPECT_EQ(dump.signal, 0);
  EXPECT_EQ(dump.reason, "unit_test");
  EXPECT_NE(dump.build_info.find("version="), std::string::npos);
  EXPECT_NE(dump.build_info.find("compiler="), std::string::npos);

  // Events: non-empty, strictly increasing (merged timeline contract).
  ASSERT_FALSE(dump.events.empty());
  for (usize i = 1; i < dump.events.size(); ++i) {
    ASSERT_GT(dump.events[i].seq, dump.events[i - 1].seq);
  }

  // Metrics: the engine counters made it through the binary format.
  const obs::pm::DumpMetric* submitted = nullptr;
  const obs::pm::DumpMetric* latency = nullptr;
  for (const obs::pm::DumpMetric& m : dump.metrics) {
    if (m.name == "kvx_engine_jobs_submitted_total") submitted = &m;
    if (m.name == "kvx_engine_job_latency_ns") latency = &m;
  }
  ASSERT_NE(submitted, nullptr);
  EXPECT_GE(submitted->counter_value, jobs.size());
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->bucket_counts.size(), latency->bounds.size() + 1);
  EXPECT_EQ(latency->exemplars.size(), latency->bounds.size() + 1);

  // Engine counters: this engine is still alive, so its block must be in
  // the dump with the exact totals.
  ASSERT_FALSE(dump.engines.empty());
  bool mirror_found = false;
  for (const obs::pm::DumpEngine& e : dump.engines) {
    if (e.submitted == jobs.size() && e.completed == jobs.size() &&
        e.failed == 0 && e.shards.size() == 2) {
      mirror_found = true;
      u64 shard_jobs = 0;
      for (const obs::ShardStats& s : e.shards) shard_jobs += s.jobs;
      EXPECT_EQ(shard_jobs, jobs.size());
    }
  }
  EXPECT_TRUE(mirror_found);
  std::remove(path.c_str());
}

TEST(Postmortem, ConstructionDemotionDumpListsItsEngine) {
  // Regression: the backend_demotion_at_construction auto dump was written
  // before the engine claimed its post-mortem stat mirror, so the dump never
  // listed the engine whose demotion it reported. The engine's counter
  // block now joins the engine table before any shard is built.
  sim::TraceCache::global().clear();
  const std::string dir = fresh_dump_dir("construction");
  obs::pm::set_dump_dir(dir);  // also enables auto dumps
  engine::EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = sim::ExecBackend::kFusedTrace;
  sim::FaultPlan plan;
  plan.rate = 1.0;
  plan.kinds = static_cast<u32>(sim::FaultKind::kCompileFail);
  cfg.accel.fault_injector = std::make_shared<sim::FaultInjector>(plan);
  engine::BatchHashEngine engine(cfg);
  const u64 fallbacks = engine.stats().totals().fallbacks;
  ASSERT_GT(fallbacks, 0u);

  bool found = false;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    const obs::pm::PostmortemDump dump =
        obs::pm::parse_dump(file.path().string());
    if (dump.reason != "backend_demotion_at_construction") continue;
    found = true;
    ASSERT_EQ(dump.engines.size(), 1u);
    const obs::pm::DumpEngine& e = dump.engines.front();
    ASSERT_EQ(e.shards.size(), 2u);
    // fused -> trace -> interpreter on each shard.
    EXPECT_EQ(e.shards[0].fallbacks, 2u);
    EXPECT_EQ(e.shards[1].fallbacks, 2u);
    EXPECT_EQ(e.shards[0].fallbacks + e.shards[1].fallbacks, fallbacks);
    EXPECT_EQ(e.submitted, 0u);
  }
  EXPECT_TRUE(found) << "no backend_demotion_at_construction dump in " << dir;
  std::filesystem::remove_all(dir);
}

TEST(Postmortem, DumpCarriesEveryLiveEngineAndShardExactly) {
  // Nine live engines (the old mirror pool had eight slots), one of them
  // with 33 shards (the old limit was 32): the dump lists every engine,
  // newest first, and every field of every shard equals its stats().
  const std::string dir = fresh_dump_dir("many_engines");
  obs::pm::set_dump_dir(dir);
  std::vector<std::unique_ptr<engine::BatchHashEngine>> engines;
  for (unsigned e = 0; e < 9; ++e) {
    engine::EngineConfig cfg;
    cfg.threads = e == 4 ? 33 : 1;
    cfg.accel = {core::Arch::k64Lmul8, 15, 24};
    engines.push_back(std::make_unique<engine::BatchHashEngine>(cfg));
    std::vector<engine::HashJob> jobs(2 + e);
    for (engine::HashJob& job : jobs) {
      job.algo = engine::Algo::kShake128;
      job.out_len = 200;
      job.message.assign(30 * e, static_cast<u8>(e));
    }
    engines.back()->submit_batch(jobs);
    std::vector<engine::JobResult> results;
    engines.back()->drain_batch(results);
    for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.error;
  }
  const std::string path = obs::pm::dump_now("many_engines");
  ASSERT_FALSE(path.empty());
  const obs::pm::PostmortemDump dump = obs::pm::parse_dump(path);
  ASSERT_EQ(dump.engines.size(), engines.size());
  for (usize n = 0; n < engines.size(); ++n) {
    const engine::EngineStats st = engines[engines.size() - 1 - n]->stats();
    const obs::pm::DumpEngine& e = dump.engines[n];
    EXPECT_EQ(e.submitted, st.submitted);
    EXPECT_EQ(e.completed, st.completed);
    EXPECT_EQ(e.failed, st.failed);
    ASSERT_EQ(e.shards.size(), st.shards.size());
    for (usize s = 0; s < st.shards.size(); ++s) {
      const auto want = obs::shard_fields(st.shards[s]);
      const auto got = obs::shard_fields(e.shards[s]);
      for (usize f = 0; f < want.size(); ++f) {
        EXPECT_EQ(*got[f], *want[f]) << "engine " << n << " shard " << s
                                     << " field " << f;
      }
    }
  }
  EXPECT_GT(dump.engines[4].shards.size(), 32u);
  std::filesystem::remove_all(dir);
}

TEST(Postmortem, ParseRejectsGarbage) {
  const std::string dir = fresh_dump_dir("garbage");
  const std::string path = dir + "/not_a_dump.kvxdump";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a post-mortem dump at all", f);
  std::fclose(f);
  EXPECT_THROW(obs::pm::parse_dump(path), Error);
  EXPECT_THROW(obs::pm::parse_dump(dir + "/missing.kvxdump"), Error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Crash-path death tests. Each runs in a forked child (threadsafe style);
// the parent then parses the dump the dying child left behind.

class PostmortemDeathTest : public testing::Test {
 protected:
  void SetUp() override {
    // fork+exec style: the child re-runs from main(), so it cannot inherit
    // this process's threads mid-state (the engine tests leave workers).
    testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

/// The single *_crash.kvxdump inside `dir` (each death test uses a private
/// directory, so the one crash dump in it is the dead child's).
std::string find_crash_dump(const std::string& dir) {
  std::string crash_path;
  std::FILE* ls = ::popen(("ls " + dir).c_str(), "r");
  if (ls == nullptr) return crash_path;
  char name[512];
  while (std::fscanf(ls, "%511s", name) == 1) {
    if (std::string(name).find("_crash.kvxdump") != std::string::npos) {
      crash_path = dir + "/" + name;
    }
  }
  ::pclose(ls);
  return crash_path;
}

/// Death tests need a dump directory WITHOUT the pid in its name: the
/// threadsafe-style child re-runs the test body from main(), so a
/// pid-derived path would differ between the child (which writes the
/// dump) and the parent (which looks for it). Stale crash dumps from
/// earlier runs are removed so the one found afterwards is fresh.
std::string fixed_dump_dir(const char* tag) {
  const std::string dir = testing::TempDir() + "kvx_fr_" + tag;
  ::mkdir(dir.c_str(), 0755);
  for (std::string stale = find_crash_dump(dir); !stale.empty();
       stale = find_crash_dump(dir)) {
    std::remove(stale.c_str());
  }
  return dir;
}

TEST_F(PostmortemDeathTest, SigabrtLeavesParseableCrashDump) {
  const std::string dir = fixed_dump_dir("abrt");
  EXPECT_EXIT(
      {
        obs::pm::set_dump_dir(dir);
        obs::pm::install_crash_handler();
        // Stamp one recognizable event so the dump provably carries the
        // pre-crash timeline.
        obs::FlightRecorder::global().record(FlightEventType::kJobFail, 0,
                                             kTag, 0xABCD);
        std::abort();
      },
      testing::KilledBySignal(SIGABRT), "");

  const std::string crash_path = find_crash_dump(dir);
  ASSERT_FALSE(crash_path.empty()) << "no crash dump in " << dir;

  const obs::pm::PostmortemDump dump = obs::pm::parse_dump(crash_path);
  EXPECT_EQ(dump.signal, SIGABRT);
  EXPECT_NE(dump.reason.find("signal"), std::string::npos);
  bool stamped = false;
  for (const FlightEvent& e : dump.events) {
    if (e.type() == FlightEventType::kJobFail && e.a0 == kTag &&
        e.a1 == 0xABCD) {
      stamped = true;
    }
  }
  EXPECT_TRUE(stamped);
  std::remove(crash_path.c_str());
}

// Sanitizers intercept SIGSEGV for their own reporting, so the handler
// never runs there; SIGABRT above covers the crash path under sanitizers.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KVX_SANITIZER_OWNS_SIGSEGV 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KVX_SANITIZER_OWNS_SIGSEGV 1
#endif

#if !defined(KVX_SANITIZER_OWNS_SIGSEGV)
TEST_F(PostmortemDeathTest, SigsegvLeavesParseableCrashDump) {
  const std::string dir = fixed_dump_dir("segv");
  EXPECT_EXIT(
      {
        obs::pm::set_dump_dir(dir);
        obs::pm::install_crash_handler();
        volatile int* p = nullptr;
        *p = 1;  // NOLINT: intentional crash
      },
      testing::KilledBySignal(SIGSEGV), "");

  const std::string crash_path = find_crash_dump(dir);
  ASSERT_FALSE(crash_path.empty()) << "no crash dump in " << dir;
  const obs::pm::PostmortemDump dump = obs::pm::parse_dump(crash_path);
  EXPECT_EQ(dump.signal, SIGSEGV);
  std::remove(crash_path.c_str());
}
#endif

}  // namespace
}  // namespace kvx
