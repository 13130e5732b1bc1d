// Tests for the batched SHA-3/SHAKE co-design API: results must be
// bit-identical to the host library for every function, batch size, and
// message-length mix.
#include <gtest/gtest.h>

#include <tuple>

#include "kvx/common/error.hpp"
#include "kvx/common/hex.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/core/parallel_sha3.hpp"
#include "kvx/keccak/sp800_185.hpp"

namespace kvx::core {
namespace {

using keccak::Sha3Function;

std::vector<std::vector<u8>> random_messages(usize n, usize len, u64 seed) {
  SplitMix64 rng(seed);
  std::vector<std::vector<u8>> msgs(n);
  for (auto& m : msgs) {
    m.resize(len);
    for (u8& b : m) b = static_cast<u8>(rng.next());
  }
  return msgs;
}

TEST(ParallelSha3, SingleMessageMatchesHost) {
  ParallelSha3 ps({Arch::k64Lmul8, 5, 24});
  const auto msgs = random_messages(1, 100, 1);
  const auto outs = ps.hash_batch(Sha3Function::kSha3_256, msgs);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(to_hex(outs[0]), to_hex(keccak::sha3_256(msgs[0])));
}

class BatchTest : public ::testing::TestWithParam<Sha3Function> {};

TEST_P(BatchTest, FullBatchMatchesHost) {
  const Sha3Function f = GetParam();
  ParallelSha3 ps({Arch::k64Lmul8, 15, 24});  // SN = 3
  const auto msgs = random_messages(7, 200, 2);  // 3 groups: 3+3+1
  const usize out_len =
      keccak::digest_bytes(f) ? keccak::digest_bytes(f) : 64;
  const auto outs = ps.xof_batch(f, msgs, out_len);
  ASSERT_EQ(outs.size(), msgs.size());
  for (usize i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(to_hex(outs[i]), to_hex(keccak::hash(f, msgs[i], out_len)))
        << name(f) << " msg " << i;
  }
}

TEST_P(BatchTest, RateBoundaryLengths) {
  // Message lengths straddling the function's rate exercise the padding
  // corner cases through the full accelerator pipeline.
  const Sha3Function f = GetParam();
  ParallelSha3 ps({Arch::k64Lmul8, 10, 24});
  const usize rate = keccak::rate_bytes(f);
  const usize out_len = keccak::digest_bytes(f) ? keccak::digest_bytes(f) : 32;
  std::vector<std::vector<u8>> msgs;
  for (usize len : {rate - 1, rate, rate + 1, 2 * rate - 1, 2 * rate}) {
    msgs.push_back(random_messages(1, len, len)[0]);
  }
  const auto outs = ps.xof_batch(f, msgs, out_len);
  for (usize i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(to_hex(outs[i]), to_hex(keccak::hash(f, msgs[i], out_len)))
        << name(f) << " len " << msgs[i].size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctions, BatchTest,
    ::testing::Values(Sha3Function::kSha3_224, Sha3Function::kSha3_256,
                      Sha3Function::kSha3_384, Sha3Function::kSha3_512,
                      Sha3Function::kShake128, Sha3Function::kShake256),
    [](const auto& info) { return std::string(name(info.param)).substr(0, 4) +
                                  std::to_string(static_cast<int>(info.param)); });

TEST(ParallelSha3, MixedLengthsMatchHost) {
  ParallelSha3 ps({Arch::k64Lmul8, 15, 24});
  std::vector<std::vector<u8>> msgs;
  for (usize len : {0u, 10u, 10u, 200u, 10u, 0u, 137u}) {
    msgs.push_back(random_messages(1, len, len + 50)[0]);
  }
  const auto outs = ps.hash_batch(Sha3Function::kSha3_256, msgs);
  for (usize i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(to_hex(outs[i]), to_hex(keccak::sha3_256(msgs[i]))) << i;
  }
}

TEST(ParallelSha3, MultiBlockMessages) {
  // Longer than one rate block (136 for SHA3-256): exercises the lockstep
  // absorb loop.
  ParallelSha3 ps({Arch::k64Lmul8, 10, 24});
  const auto msgs = random_messages(2, 450, 9);
  const auto outs = ps.hash_batch(Sha3Function::kSha3_256, msgs);
  for (usize i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(to_hex(outs[i]), to_hex(keccak::sha3_256(msgs[i])));
  }
}

TEST(ParallelSha3, LongXofSqueeze) {
  // Multi-block squeeze (out_len spans several rate blocks).
  ParallelSha3 ps({Arch::k32Lmul8, 10, 24});
  const auto msgs = random_messages(2, 32, 5);
  const auto outs = ps.xof_batch(Sha3Function::kShake128, msgs, 500);
  for (usize i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(to_hex(outs[i]),
              to_hex(keccak::shake128(msgs[i], 500)));
  }
}

TEST(ParallelSha3, EmptyBatch) {
  ParallelSha3 ps({Arch::k64Lmul8, 5, 24});
  const auto outs =
      ps.hash_batch(Sha3Function::kSha3_256, std::vector<std::vector<u8>>{});
  EXPECT_TRUE(outs.empty());
}

TEST(ParallelSha3, StatsAccumulate) {
  ParallelSha3 ps({Arch::k64Lmul8, 15, 24});
  const auto msgs = random_messages(3, 50, 4);
  (void)ps.hash_batch(Sha3Function::kSha3_256, msgs);
  const auto& st = ps.stats();
  EXPECT_EQ(st.permutation_batches, 1u);  // one group, one block
  EXPECT_EQ(st.permutations, 3u);
  EXPECT_GT(st.accelerator_cycles, 0u);
  ps.reset_stats();
  EXPECT_EQ(ps.stats().permutations, 0u);
}

TEST(ParallelSha3, BatchOnAccurate32BitArch) {
  ParallelSha3 ps({Arch::k32Lmul8, 30, 24});  // SN = 6
  const auto msgs = random_messages(6, 64, 6);
  const auto outs = ps.hash_batch(Sha3Function::kSha3_512, msgs);
  for (usize i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(to_hex(outs[i]), to_hex(keccak::sha3_512(msgs[i])));
  }
}

TEST(ParallelSha3, KyberStyleSeedExpansion) {
  // The paper's motivating workload (§1): expand seed ‖ (i, j) with
  // SHAKE128 for a 4x4 matrix, 16 equal-length inputs in lockstep.
  ParallelSha3 ps({Arch::k64Lmul8, 20, 24});  // SN = 4
  std::vector<std::vector<u8>> inputs;
  SplitMix64 rng(99);
  std::vector<u8> seed(32);
  for (u8& b : seed) b = static_cast<u8>(rng.next());
  for (u8 i = 0; i < 4; ++i) {
    for (u8 j = 0; j < 4; ++j) {
      auto in = seed;
      in.push_back(i);
      in.push_back(j);
      inputs.push_back(std::move(in));
    }
  }
  const auto outs = ps.xof_batch(Sha3Function::kShake128, inputs, 168);
  for (usize k = 0; k < inputs.size(); ++k) {
    EXPECT_EQ(to_hex(outs[k]), to_hex(keccak::shake128(inputs[k], 168)));
  }
  // 16 messages at SN=4 -> 4 lockstep groups, 1 permutation each.
  EXPECT_EQ(ps.stats().permutation_batches, 4u);
  EXPECT_EQ(ps.stats().permutations, 16u);
}

// --- SP 800-185 batching --------------------------------------------------------

TEST(ParallelSha3, CshakeBatchMatchesHost) {
  ParallelSha3 ps({Arch::k64Lmul8, 15, 24});
  const auto msgs = random_messages(4, 77, 11);
  const std::vector<u8> n_str = {'A', 'p', 'p'};
  const std::vector<u8> s_str = {'v', '2'};
  for (unsigned bits : {128u, 256u}) {
    const auto outs = ps.cshake_batch(bits, msgs, 48, n_str, s_str);
    for (usize i = 0; i < msgs.size(); ++i) {
      const auto expect = bits == 128
                              ? keccak::cshake128(msgs[i], 48, n_str, s_str)
                              : keccak::cshake256(msgs[i], 48, n_str, s_str);
      EXPECT_EQ(to_hex(outs[i]), to_hex(expect)) << bits << " msg " << i;
    }
  }
}

TEST(ParallelSha3, CshakeBatchEmptyNsDegradesToShake) {
  ParallelSha3 ps({Arch::k64Lmul8, 5, 24});
  const auto msgs = random_messages(1, 30, 12);
  const auto outs = ps.cshake_batch(128, msgs, 32, {}, {});
  EXPECT_EQ(to_hex(outs[0]), to_hex(keccak::shake128(msgs[0], 32)));
}

TEST(ParallelSha3, KmacBatchMatchesHost) {
  ParallelSha3 ps({Arch::k64Lmul8, 15, 24});
  const auto msgs = random_messages(5, 200, 13);
  std::vector<u8> key(32, 0x4B);
  const std::vector<u8> custom = {'c', 't', 'x'};
  const auto outs = ps.kmac_batch(256, key, msgs, 32, custom);
  for (usize i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(to_hex(outs[i]),
              to_hex(keccak::kmac256(key, msgs[i], 32, custom)))
        << "msg " << i;
  }
}

TEST(ParallelSha3, RejectsBadSecurityBits) {
  ParallelSha3 ps({Arch::k64Lmul8, 5, 24});
  EXPECT_THROW((void)ps.cshake_batch(192, {}, 32, {}, {}), Error);
  EXPECT_THROW((void)ps.kmac_batch(512, {}, {}, 32), Error);
}

// --- one sponge loop: per-lane cursors and refill -------------------------

TEST(ParallelSha3, DifferentLengthsShareOnePermutation) {
  // Lengths 0, 50 and 120 all fit one SHA3-256 block: the three jobs take
  // one lane each and finish in a single SN=3 permutation dispatch.
  ParallelSha3 ps({Arch::k64Lmul8, 15, 24});
  std::vector<std::vector<u8>> msgs;
  for (usize len : {0u, 50u, 120u}) {
    msgs.push_back(random_messages(1, len, len + 7)[0]);
  }
  const auto outs = ps.hash_batch(Sha3Function::kSha3_256, msgs);
  for (usize i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(to_hex(outs[i]), to_hex(keccak::sha3_256(msgs[i]))) << i;
  }
  EXPECT_EQ(ps.stats().permutation_batches, 1u);
  EXPECT_EQ(ps.stats().permutations, 3u);
}

TEST(ParallelSha3, FinishedLaneIsRefilledFromTheBatch) {
  // SN=2: a 10-block message (9 full blocks + the padded tail) holds one
  // lane for 10 steps; the three 1-block messages run one after another in
  // the other lane, so the batch takes 10 dispatches, not 10 + 2.
  ParallelSha3 ps({Arch::k64Lmul8, 10, 24});
  std::vector<std::vector<u8>> msgs{random_messages(1, 1300, 21)[0]};
  for (const auto& m : random_messages(3, 40, 22)) msgs.push_back(m);
  const auto outs = ps.hash_batch(Sha3Function::kSha3_256, msgs);
  for (usize i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(to_hex(outs[i]), to_hex(keccak::sha3_256(msgs[i]))) << i;
  }
  EXPECT_EQ(ps.stats().permutation_batches, 10u);
  EXPECT_EQ(ps.stats().permutations, 13u);
}

class SpongeJobMixTest
    : public ::testing::TestWithParam<std::tuple<sim::ExecBackend, unsigned>> {
};

TEST_P(SpongeJobMixTest, MixedJobsMatchHostOnEveryTier) {
  const auto [backend, sn] = GetParam();
  VectorKeccakConfig cfg{Arch::k64Lmul8, 5 * sn, 24};
  cfg.backend = backend;
  ParallelSha3 ps(cfg);

  const auto long_msg = random_messages(1, 300, 31)[0];  // 5 SHA3-512 blocks
  const auto xof_msg = random_messages(1, 34, 32)[0];
  const auto mac_msg = random_messages(1, 90, 33)[0];
  const std::vector<u8> key(32, 0x5A);
  const std::vector<u8> custom = {'m', 'i', 'x'};
  const auto mac_in = kmac_input(136, key, mac_msg, 48, custom);
  const std::vector<SpongeJob> jobs = {
      SpongeJob::fips202(Sha3Function::kSha3_512, long_msg, 64),
      SpongeJob::fips202(Sha3Function::kShake128, xof_msg, 500),
      {136, kCshakeDomain, mac_in, 48},
      SpongeJob::fips202(Sha3Function::kSha3_256, {}, 32),
  };
  const auto outs = ps.sponge_batch(jobs);
  ASSERT_EQ(outs.size(), jobs.size());
  EXPECT_EQ(to_hex(outs[0]), to_hex(keccak::sha3_512(long_msg)));
  EXPECT_EQ(to_hex(outs[1]), to_hex(keccak::shake128(xof_msg, 500)));
  EXPECT_EQ(to_hex(outs[2]), to_hex(keccak::kmac256(key, mac_msg, 48, custom)));
  EXPECT_EQ(to_hex(outs[3]), to_hex(keccak::sha3_256({})));
}

INSTANTIATE_TEST_SUITE_P(
    TiersBySn, SpongeJobMixTest,
    ::testing::Combine(::testing::Values(sim::ExecBackend::kInterpreter,
                                         sim::ExecBackend::kCompiledTrace,
                                         sim::ExecBackend::kFusedTrace,
                                         sim::ExecBackend::kHostSimd,
                                         sim::ExecBackend::kJit),
                       ::testing::Values(1u, 3u, 6u)),
    [](const auto& info) {
      std::string name(sim::backend_name(std::get<0>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_SN" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace kvx::core
