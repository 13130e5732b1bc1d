// The in-process ladder: times each layer's public function on the same
// generated inputs the daemon served, from the host Keccak-f ceiling up to
// the engine, and holds the paper's pins while doing so.
//
//   keccak   permute_fast, keccak::Xof squeeze
//   sim      core::VectorKeccak::permute per tier (full lanes), construction
//   core     ParallelSha3 batch calls on the workload's jobs
//   engine   BatchHashEngine::submit_batch + drain_batch on the same jobs
//   net      request encode -> frame -> FrameReader -> decode
//
// Any wrong output fails the run: cycles must be the paper's
// 2566 / 1894 / 3646 per permutation, and every timed tier must produce
// states bit-identical to the host permutation with identical cycle counts.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>

#include "kvx/core/parallel_sha3.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/keccak/permutation.hpp"
#include "kvx/keccak/sha3.hpp"
#include "kvx/net/frame.hpp"
#include "kvx/net/protocol.hpp"
#include "kvx/sim/compiled_trace.hpp"
#include "modes.hpp"
#include "spans.hpp"

namespace hashbench {

namespace {

using kvx::core::Arch;
using kvx::core::VectorKeccak;
using kvx::core::VectorKeccakConfig;
using kvx::engine::HashJob;
using kvx::keccak::State;
using kvx::sim::ExecBackend;

constexpr ExecBackend kTiers[] = {
    ExecBackend::kInterpreter, ExecBackend::kCompiledTrace,
    ExecBackend::kFusedTrace, ExecBackend::kHostSimd, ExecBackend::kJit};

/// Span names (stored by pointer, so literals) of each tier's timed calls.
const char* permute_span(ExecBackend tier) {
  switch (tier) {
    case ExecBackend::kCompiledTrace: return "sim.trace.permute";
    case ExecBackend::kFusedTrace: return "sim.fused.permute";
    case ExecBackend::kHostSimd: return "sim.host-simd.permute";
    case ExecBackend::kJit: return "sim.jit.permute";
    default: return "sim.interpreter.permute";
  }
}

/// Timing budget per ladder entry, in seconds.
constexpr double kBudgetS = 0.25;

/// Jobs fed to the core and engine entries: 64 covers the api-small mix
/// and two bulk messages of bulk-mixed.
constexpr usize kLadderJobs = 64;

class Ladder {
 public:
  explicit Ladder(const LadderOptions& opt)
      : opt_(opt), spans_(!opt.spans_path.empty()) {}

  int run();

 private:
  /// Time `fn` (which does `work` units per call) in samples of at least
  /// 1 ms until the budget is spent; returns the median seconds per unit.
  template <class Fn>
  double time_per_unit(const char* span, double work, Fn&& fn);

  void check_pins();
  void time_host();
  void time_tier(ExecBackend tier, unsigned sn);
  void time_setup(ExecBackend tier);
  void time_core();
  void time_engine();
  void time_codec();
  void fail(std::string what) { errors_.push_back(std::move(what)); }
  void put(const std::string& name, double value) { metrics_[name] = value; }

  LadderOptions opt_;
  SpanLog spans_;
  u64 span_id_ = 0;
  std::vector<HashJob> jobs_;
  std::vector<std::vector<u8>> golden_;
  std::map<std::string, double> metrics_;
  std::vector<std::string> errors_;
  /// Interpreter cycles per dispatch at each SN: every tier must match.
  std::map<unsigned, kvx::u64> reference_cycles_;
};

template <class Fn>
double Ladder::time_per_unit(const char* span, double work, Fn&& fn) {
  const kvx::u64 c0 = now_ns();
  fn();
  const kvx::u64 once = std::max<kvx::u64>(now_ns() - c0, 1);
  const kvx::u64 calls = std::max<kvx::u64>(1, 1'000'000 / once);
  const kvx::u64 budget_end =
      now_ns() + static_cast<kvx::u64>(kBudgetS * 1e9);
  std::vector<double> samples;
  do {
    const kvx::u64 t0 = now_ns();
    for (kvx::u64 i = 0; i < calls; ++i) fn();
    const kvx::u64 t1 = now_ns();
    spans_.add(span, ++span_id_, 0, 0, t0, t1);
    samples.push_back(static_cast<double>(t1 - t0) / 1e9 /
                      (static_cast<double>(calls) * work));
  } while (now_ns() < budget_end || samples.size() < 3);
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::vector<State> random_states(unsigned n, u64 seed) {
  kvx::SplitMix64 rng(seed);
  std::vector<State> states(n);
  for (State& s : states) {
    for (kvx::u64& lane : s.flat()) lane = rng.next();
  }
  return states;
}

void Ladder::check_pins() {
  // The paper's cycles per Keccak-f[1600] permutation (SN = 1), on the
  // oracle and on every tier the ladder times.
  static constexpr std::tuple<Arch, const char*, kvx::u64> kPins[] = {
      {Arch::k64Lmul1, "64-bit LMUL1", 2566},
      {Arch::k64Lmul8, "64-bit LMUL8", 1894},
      {Arch::k32Lmul8, "32-bit LMUL8", 3646}};
  for (const auto& [arch, label, pin] : kPins) {
    for (ExecBackend tier : kTiers) {
      VectorKeccakConfig cfg{arch, 5, 24};
      cfg.backend = tier;
      VectorKeccak vk(cfg);
      std::vector<State> states = random_states(1, pin);
      State golden = states[0];
      kvx::keccak::permute(golden);
      vk.permute(states);
      const kvx::u64 cycles = vk.last_timing().permutation_cycles;
      if (cycles != pin || states[0] != golden) {
        fail(std::string(label) + " on " +
             std::string(kvx::sim::backend_name(tier)) + ": " +
             std::to_string(cycles) + " cycles (pin " + std::to_string(pin) +
             ")" + (states[0] != golden ? ", wrong state" : ""));
      }
    }
  }
}

void Ladder::time_host() {
  State s = random_states(1, opt_.seed)[0];
  put("keccak.permute_ns",
      1e9 * time_per_unit("keccak.permute_fast", 1.0,
                          [&] { kvx::keccak::permute_fast(s); }));
  if (s == State{}) fail("host permutation collapsed to zero");

  const usize n = TrafficStream::typical_squeeze_bytes(opt_.workload);
  kvx::keccak::Xof xof(kvx::keccak::Sha3Function::kShake128);
  xof.absorb(jobs_.front().message);
  std::vector<u8> out(n);
  put("keccak.session_squeeze_us",
      1e6 * time_per_unit("keccak.xof_squeeze", 1.0,
                          [&] { xof.squeeze(out); }));
}

void Ladder::time_tier(ExecBackend tier, unsigned sn) {
  const std::string name(kvx::sim::backend_name(tier));
  VectorKeccakConfig cfg{Arch::k64Lmul8, 5 * sn, 24};
  cfg.backend = tier;
  VectorKeccak vk(cfg);
  if (vk.active_backend() != tier) {
    fail("sim." + name + ": demoted to " +
         std::string(kvx::sim::backend_name(vk.active_backend())) +
         " on this host");
  }

  // Bit-identity before timing: full lanes of random states against the
  // host permutation, and the interpreter's cycle count.
  std::vector<State> states = random_states(sn, opt_.seed + sn);
  std::vector<State> golden = states;
  for (State& g : golden) kvx::keccak::permute(g);
  vk.permute(states);
  const kvx::u64 cycles = vk.last_timing().permutation_cycles;
  if (tier == ExecBackend::kInterpreter) reference_cycles_[sn] = cycles;
  if (states != golden) fail("sim." + name + ": output state differs");
  if (reference_cycles_.count(sn) != 0 && cycles != reference_cycles_[sn]) {
    fail("sim." + name + ": " + std::to_string(cycles) +
         " cycles, interpreter " + std::to_string(reference_cycles_[sn]));
  }

  const double s_per_perm = time_per_unit(
      permute_span(tier), static_cast<double>(sn), [&] { vk.permute(states); });
  put("sim." + name + ".sn" + std::to_string(sn) + ".perms_per_s",
      1.0 / s_per_perm);
}

void Ladder::time_setup(ExecBackend tier) {
  // Cold construction, as the daemon pays it: an empty trace cache each
  // time, so trace compile, fusion, lowering and jit emission all count.
  VectorKeccakConfig cfg{Arch::k64Lmul8, 15, 24};
  cfg.backend = tier;
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    kvx::sim::TraceCache::global().clear();
    const kvx::u64 t0 = now_ns();
    VectorKeccak vk(cfg);
    const kvx::u64 t1 = now_ns();
    spans_.add("sim.construct", ++span_id_, 0, 1 + static_cast<unsigned>(tier),
               t0, t1);
    ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  std::sort(ms.begin(), ms.end());
  put("sim." + std::string(kvx::sim::backend_name(tier)) + ".setup_ms", ms[1]);
}

void Ladder::time_core() {
  VectorKeccakConfig cfg{Arch::k64Lmul8, 15, 24};
  cfg.backend = opt_.tier;
  kvx::core::ParallelSha3 core(cfg);
  if (core.active_backend() != opt_.tier) fail("core: tier demoted");

  // One batch call per (algorithm, output length, key) group, the way a
  // caller of the core layer would hash the workload's jobs.
  using Key = std::tuple<kvx::engine::Algo, usize, std::vector<u8>>;
  std::map<Key, std::vector<usize>> groups;
  for (usize i = 0; i < jobs_.size(); ++i) {
    groups[{jobs_[i].algo, jobs_[i].resolved_out_len(), jobs_[i].key}]
        .push_back(i);
  }
  std::vector<std::vector<u8>> digests(jobs_.size());
  const auto hash_all = [&] {
    for (const auto& [key, members] : groups) {
      const auto& [algo, out_len, mac_key] = key;
      std::vector<std::vector<u8>> msgs;
      for (usize i : members) msgs.push_back(jobs_[i].message);
      std::vector<std::vector<u8>> out;
      if (algo == kvx::engine::Algo::kKmac256) {
        out = core.kmac_batch(256, mac_key, msgs, out_len);
      } else if (algo == kvx::engine::Algo::kSha3_256) {
        out = core.hash_batch(kvx::keccak::Sha3Function::kSha3_256, msgs);
      } else {
        out = core.xof_batch(kvx::engine::base_function(algo), msgs, out_len);
      }
      for (usize k = 0; k < members.size(); ++k) {
        digests[members[k]] = std::move(out[k]);
      }
    }
  };
  hash_all();
  if (digests != golden_) fail("core: digest differs from the host model");
  core.reset_stats();
  put("core.jobs_per_s",
      1.0 / time_per_unit("core.batch", static_cast<double>(jobs_.size()),
                          hash_all));
  const kvx::core::BatchStats& st = core.stats();
  put("core.lanes_filled", static_cast<double>(st.permutations) /
                               static_cast<double>(st.permutation_batches));
}

void Ladder::time_engine() {
  // The daemon's engine shape: 2 shards x SN 3 on the daemon's tier.
  kvx::engine::EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = opt_.tier;
  cfg.max_queue = 1024;
  kvx::engine::BatchHashEngine engine(cfg);
  std::vector<kvx::engine::JobResult> results;
  bool wrong = false;
  const auto round_trip = [&] {
    results.clear();
    (void)engine.submit_batch(jobs_);
    engine.drain_batch(results);
    for (usize i = 0; i < results.size(); ++i) {
      wrong = wrong || !results[i].ok() || results[i].digest != golden_[i];
    }
  };
  put("engine.jobs_per_s",
      1.0 / time_per_unit("engine.submit_drain",
                          static_cast<double>(jobs_.size()), round_trip));
  const kvx::engine::EngineStats st = engine.stats();
  if (wrong) fail("engine: digest differs from the host model");
  if (st.effective_backend != kvx::sim::backend_name(opt_.tier)) {
    fail("engine: ran on " + st.effective_backend);
  }
  put("engine.p99_ms", static_cast<double>(st.latency.p99_ns) / 1e6);
}

void Ladder::time_codec() {
  std::vector<kvx::net::Request> reqs(jobs_.size());
  for (usize i = 0; i < jobs_.size(); ++i) {
    reqs[i].id = i + 1;
    reqs[i].op = kvx::net::Opcode::kHash;
    reqs[i].algo = jobs_[i].algo;
    reqs[i].out_len = static_cast<u32>(jobs_[i].out_len);
    reqs[i].key = jobs_[i].key;
    reqs[i].message = jobs_[i].message;
  }
  bool wrong = false;
  std::vector<u8> wire;
  std::vector<u8> payload;
  const auto codec = [&] {
    kvx::net::FrameReader reader;
    wire.clear();
    for (const kvx::net::Request& r : reqs) {
      kvx::net::append_frame(wire, kvx::net::encode_request(r));
    }
    (void)reader.feed(wire);
    std::string error;
    for (const kvx::net::Request& r : reqs) {
      const bool framed = reader.next(payload);
      const std::optional<kvx::net::Request> back =
          framed ? kvx::net::decode_request(payload, error) : std::nullopt;
      wrong = wrong || !back || back->message != r.message;
    }
  };
  put("net.codec_ns_per_frame",
      1e9 * time_per_unit("net.codec", static_cast<double>(reqs.size()),
                          codec));
  if (wrong) fail("net: a frame did not round-trip");
}

int Ladder::run() {
  jobs_ = ladder_jobs(opt_.workload, opt_.seed, kLadderJobs);
  golden_.reserve(jobs_.size());
  for (const HashJob& j : jobs_) {
    golden_.push_back(kvx::engine::host_reference_digest(j));
  }

  check_pins();
  time_host();
  for (ExecBackend tier : kTiers) time_tier(tier, 3);
  // SN 6 for the tiers whose kernels widen with it; the interpreter's
  // cycle count there is the reference they must match.
  reference_cycles_[6] =
      VectorKeccak(VectorKeccakConfig{Arch::k64Lmul8, 30, 24})
          .measure_permutation_cycles();
  for (ExecBackend tier : {ExecBackend::kFusedTrace, ExecBackend::kHostSimd,
                           ExecBackend::kJit}) {
    time_tier(tier, 6);
  }
  for (ExecBackend tier : kTiers) time_setup(tier);
  time_core();
  time_engine();
  time_codec();

  if (spans_.enabled() && !spans_.write(opt_.spans_path)) {
    fail("cannot write " + opt_.spans_path);
  }
  std::printf("{\"ok\": %s, \"errors\": [", errors_.empty() ? "true" : "false");
  for (usize i = 0; i < errors_.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", errors_[i].c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    std::printf("%s\"%s\": %.10g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return errors_.empty() ? 0 : 1;
}

}  // namespace

int run_ladder(const LadderOptions& opt) {
  Ladder ladder(opt);
  return ladder.run();
}

}  // namespace hashbench
