#include "kvx/core/parallel_tree_hash.hpp"

namespace kvx::core {

namespace {

constexpr usize kTurboShake128Rate = 168;

VectorKeccakConfig turbo_config(Arch arch, unsigned ele_num) {
  VectorKeccakConfig cfg;
  cfg.arch = arch;
  cfg.ele_num = ele_num;
  cfg.rounds = 12;       // Keccak-p[1600, 12]
  cfg.first_round = 12;  // FIPS round-index convention (rounds 12..23)
  return cfg;
}

}  // namespace

ParallelTreeHash::ParallelTreeHash(Arch arch, unsigned ele_num,
                                   const keccak::TreeHashParams& params)
    : params_(params), accel_(turbo_config(arch, ele_num)) {}

std::vector<u8> ParallelTreeHash::hash(std::span<const u8> msg,
                                       usize out_len) {
  using keccak::TreeHashDomains;
  if (msg.size() <= params_.chunk_bytes) {
    const std::vector<std::vector<u8>> one = {{msg.begin(), msg.end()}};
    return accel_.raw_batch(kTurboShake128Rate, TreeHashDomains::kSingle, one,
                            out_len)[0];
  }
  const std::span<const u8> first = msg.first(params_.chunk_bytes);
  std::vector<std::vector<u8>> leaves;
  for (usize pos = params_.chunk_bytes; pos < msg.size();
       pos += params_.chunk_bytes) {
    const usize take = std::min(params_.chunk_bytes, msg.size() - pos);
    leaves.emplace_back(msg.begin() + static_cast<std::ptrdiff_t>(pos),
                        msg.begin() + static_cast<std::ptrdiff_t>(pos + take));
  }
  // One raw_batch call for every leaf: a short final leaf just frees its
  // lane a few blocks early, and the lane takes the next leaf.
  const auto cvs = accel_.raw_batch(kTurboShake128Rate, TreeHashDomains::kLeaf,
                                    leaves, params_.cv_bytes);
  const std::vector<std::vector<u8>> final_node = {
      keccak::tree_hash_final_input(first, cvs)};
  return accel_.raw_batch(kTurboShake128Rate, TreeHashDomains::kFinal,
                          final_node, out_len)[0];
}

}  // namespace kvx::core
