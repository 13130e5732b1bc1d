// Differential tests of the compiled-trace execution backend: replays must
// be bit-identical to the interpreter — digests, final register state, data
// memory and cycle counts — across all three paper configurations, and
// programs whose behavior depends on the staged state data must be
// rejected at compile time.
#include <gtest/gtest.h>

#include <tuple>

#include "kvx/common/error.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/core/parallel_sha3.hpp"
#include "kvx/core/vector_keccak.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/keccak/permutation.hpp"
#include "kvx/keccak/sha3.hpp"
#include "kvx/sim/compiled_trace.hpp"

namespace kvx::core {
namespace {

using keccak::State;
using sim::ExecBackend;

std::vector<State> random_states(usize n, u64 seed) {
  SplitMix64 rng(seed);
  std::vector<State> states(n);
  for (State& s : states) {
    for (u64& lane : s.flat()) lane = rng.next();
  }
  return states;
}

std::vector<std::vector<u8>> random_messages(usize n, u64 seed) {
  SplitMix64 rng(seed);
  std::vector<std::vector<u8>> msgs(n);
  for (auto& m : msgs) {
    m.resize(rng.next() % 500);  // mixes short, rate-boundary and multi-block
    for (u8& b : m) b = static_cast<u8>(rng.next());
  }
  return msgs;
}

sim::ProcessorConfig proc_config(const VectorKeccakConfig& c) {
  sim::ProcessorConfig pc;
  pc.vector.elen_bits = arch_elen(c.arch);
  pc.vector.ele_num = c.ele_num;
  pc.vector.sn = c.sn();
  return pc;
}

/// The three paper configurations (64/LMUL1, 64/LMUL8, 32/LMUL8) at their
/// full SN.
class BackendDifferential
    : public ::testing::TestWithParam<std::tuple<Arch, unsigned>> {
 protected:
  Arch arch() const { return std::get<0>(GetParam()); }
  unsigned sn() const { return std::get<1>(GetParam()); }
  VectorKeccakConfig config(ExecBackend backend) const {
    VectorKeccakConfig c{arch(), 5 * sn(), 24};
    c.backend = backend;
    return c;
  }
};

TEST_P(BackendDifferential, PermuteMatchesInterpreterBitExactly) {
  VectorKeccak interp(config(ExecBackend::kInterpreter));
  VectorKeccak traced(config(ExecBackend::kCompiledTrace));
  ASSERT_EQ(traced.active_backend(), ExecBackend::kCompiledTrace)
      << "trace compilation unexpectedly fell back to the interpreter";

  for (const u64 seed : {1u, 99u, 4242u}) {
    auto a = random_states(sn(), seed);
    auto b = a;
    auto golden = a;
    interp.permute(a);
    traced.permute(b);
    for (State& s : golden) keccak::permute(s);
    for (usize i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], golden[i]) << "interpreter diverged from golden model";
      EXPECT_EQ(b[i], a[i]) << arch_name(arch()) << " state " << i;
    }
    // Cycle accounting is recorded, so it must be bit-identical too.
    EXPECT_EQ(traced.last_timing().total_cycles,
              interp.last_timing().total_cycles);
    EXPECT_EQ(traced.last_timing().permutation_cycles,
              interp.last_timing().permutation_cycles);
    EXPECT_EQ(traced.last_timing().instructions,
              interp.last_timing().instructions);
  }
}

TEST_P(BackendDifferential, RandomizedRegisterFileSeedReplay) {
  // Seed two processors with the same random register file and state data,
  // run one through the interpreter and one through the compiled trace, and
  // compare every vector register and all of data memory.
  const VectorKeccakConfig cfg = config(ExecBackend::kInterpreter);
  const auto program = VectorKeccak::build_program(cfg);

  sim::TraceCompileOptions opts;
  opts.verify_base = program->image.symbol("state");
  opts.verify_len = usize{5} * cfg.ele_num * 8;
  const auto trace =
      sim::compile_trace(program->image, proc_config(cfg), opts);

  sim::SimdProcessor pi(proc_config(cfg));
  sim::SimdProcessor pt(proc_config(cfg));
  pi.load_program(program->image);
  pt.load_program(program->image);

  SplitMix64 rng(0xF00D);
  const usize reg_bytes = pi.vector().reg_bytes();
  std::vector<u8> row(reg_bytes);
  for (unsigned r = 0; r < 32; ++r) {
    for (u8& byte : row) byte = static_cast<u8>(rng.next());
    pi.vector().set_register(r, row);
    pt.vector().set_register(r, row);
  }
  std::vector<u8> state_data(opts.verify_len);
  for (u8& byte : state_data) byte = static_cast<u8>(rng.next());
  pi.dmem().write_block(opts.verify_base, state_data);
  pt.dmem().write_block(opts.verify_base, state_data);

  pi.run();
  trace->execute(pt.vector(), pt.dmem(), pt.config().cycle_model);

  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(pt.vector().get_register(r), pi.vector().get_register(r))
        << "v" << r;
  }
  std::vector<u8> mi(pi.dmem().size());
  std::vector<u8> mt(pt.dmem().size());
  pi.dmem().read_block(0, mi);
  pt.dmem().read_block(0, mt);
  EXPECT_EQ(mt, mi);
  EXPECT_EQ(trace->total_cycles(), pi.cycles());
  EXPECT_EQ(trace->instructions(), pi.stats().instructions);
}

TEST_P(BackendDifferential, Sha3DigestsMatchInterpreterAndGolden) {
  ParallelSha3 interp(config(ExecBackend::kInterpreter));
  ParallelSha3 traced(config(ExecBackend::kCompiledTrace));
  const auto msgs = random_messages(4 * sn() + 1, 0xC0DE + sn());

  const auto di = interp.hash_batch(keccak::Sha3Function::kSha3_256, msgs);
  const auto dt = traced.hash_batch(keccak::Sha3Function::kSha3_256, msgs);
  ASSERT_EQ(di.size(), msgs.size());
  for (usize i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(di[i],
              keccak::hash(keccak::Sha3Function::kSha3_256, msgs[i], 32));
    EXPECT_EQ(dt[i], di[i]) << "message " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, BackendDifferential,
    ::testing::Values(std::make_tuple(Arch::k64Lmul1, 1u),
                      std::make_tuple(Arch::k64Lmul8, 3u),
                      std::make_tuple(Arch::k32Lmul8, 3u)));

TEST(CompiledTrace, PermutationCyclesMatchPinnedPaperValues) {
  // The recorded timing must reproduce the interpreter's pinned values
  // (within 1% of the paper's 2564/1892/3620; see test_vector_keccak.cpp).
  const auto perm_cycles = [](Arch arch) {
    VectorKeccakConfig c{arch, 5, 24};
    c.backend = ExecBackend::kCompiledTrace;
    VectorKeccak vk(c);
    EXPECT_EQ(vk.active_backend(), ExecBackend::kCompiledTrace);
    std::vector<State> states(1);
    vk.permute(states);
    return vk.last_timing().permutation_cycles;
  };
  EXPECT_EQ(perm_cycles(Arch::k64Lmul1), 2566u);
  EXPECT_EQ(perm_cycles(Arch::k64Lmul8), 1894u);
  EXPECT_EQ(perm_cycles(Arch::k32Lmul8), 3646u);
}

TEST(CompiledTrace, CacheCountsCompilesAndHits) {
  sim::TraceCache::global().clear();
  VectorKeccakConfig c{Arch::k64Lmul8, 15, 24};
  c.backend = ExecBackend::kCompiledTrace;
  const auto program = VectorKeccak::build_program(c);
  VectorKeccak a(c, program);
  VectorKeccak b(c, program);  // same program + config: must hit the cache
  EXPECT_EQ(a.active_backend(), ExecBackend::kCompiledTrace);
  EXPECT_EQ(b.active_backend(), ExecBackend::kCompiledTrace);
  const sim::TraceCacheStats st = sim::TraceCache::global().stats();
  EXPECT_EQ(st.compiles, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.failures, 0u);
  EXPECT_GT(st.compile_ns, 0u);
}

TEST(CompiledTrace, DataDependentProgramIsRejected) {
  // Stores a value loaded from the verify region: the baked store operand
  // differs between the two recording runs, so compilation must throw and
  // the caller falls back to the interpreter.
  const auto program = assembler::assemble(R"(
    la a0, state
    lw t0, 0(a0)
    sw t0, 16(a0)
    ebreak
.data
state:
    .word 0, 0, 0, 0
scratch:
    .word 0
  )");
  sim::ProcessorConfig cfg;
  cfg.vector.elen_bits = 64;
  cfg.vector.ele_num = 5;
  sim::TraceCompileOptions opts;
  opts.verify_base = program.symbol("state");
  opts.verify_len = 16;
  EXPECT_THROW((void)sim::compile_trace(program, cfg, opts), SimError);

  // Negative caching: the cache rejects it again without recompiling.
  sim::TraceCache::global().clear();
  EXPECT_THROW((void)sim::TraceCache::global().get_or_compile(program, cfg, opts),
               SimError);
  EXPECT_THROW((void)sim::TraceCache::global().get_or_compile(program, cfg, opts),
               SimError);
  const sim::TraceCacheStats st = sim::TraceCache::global().stats();
  EXPECT_EQ(st.failures, 1u);
  EXPECT_EQ(st.hits, 1u);
}

TEST(CompiledTrace, EngineBatchesMatchAcrossBackends) {
  const auto msgs = random_messages(20, 0xE16);
  std::vector<engine::HashJob> jobs(msgs.size());
  for (usize i = 0; i < msgs.size(); ++i) {
    jobs[i] = {engine::Algo::kSha3_256, msgs[i]};
  }
  engine::EngineConfig ci;
  ci.threads = 2;
  ci.accel = {Arch::k64Lmul8, 15, 24};
  engine::EngineConfig ct = ci;
  ct.accel.backend = ExecBackend::kCompiledTrace;

  const auto di = engine::run_batch(ci, jobs);
  const auto dt = engine::run_batch(ct, jobs);
  EXPECT_EQ(dt, di);
}

TEST(CompiledTrace, EngineStatsReportBackend) {
  std::vector<engine::HashJob> jobs{{engine::Algo::kSha3_256, {0x61, 0x62}}};
  for (const ExecBackend backend :
       {ExecBackend::kInterpreter, ExecBackend::kCompiledTrace}) {
    engine::EngineConfig cfg;
    cfg.threads = 1;
    cfg.accel = {Arch::k64Lmul8, 15, 24};
    cfg.accel.backend = backend;
    engine::BatchHashEngine eng(cfg);
    eng.submit_batch(jobs);
    std::vector<engine::JobResult> results;
    eng.drain_batch(results);
    for (const engine::JobResult& r : results) ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(eng.stats().backend, sim::backend_name(backend));
  }
}

}  // namespace
}  // namespace kvx::core
