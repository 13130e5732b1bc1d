// The two modes of the hashbench binary. Each prints one JSON object on
// stdout and returns the process exit code.
#pragma once

#include <string>

#include "kvx/sim/exec_backend.hpp"
#include "workload.hpp"

namespace hashbench {

/// `hashbench load`: the closed-loop client against a running kvx-hashd:
/// kConnections connections with kWindow requests in flight on each, a
/// kWarmupS warm-up, then the measured window.
inline constexpr unsigned kConnections = 2;
inline constexpr usize kWindow = 16;
inline constexpr double kWarmupS = 1.0;

struct LoadOptions {
  kvx::u16 port = 0;
  int daemon_pid = 0;       ///< for the daemon's CPU time (/proc/PID/stat)
  Workload workload = Workload::kApiSmall;
  u64 seed = 1;
  /// Untraced window run before the measured one; its request rate is the
  /// base the traced window's overhead is given against. 0 = none.
  double baseline_s = 0.0;
  double seconds = 10.0;    ///< the measured window
  /// Replies per block; the window is reported block by block. 0 = the
  /// whole window is one block.
  usize block = 0;
  std::string spans_path;   ///< "" = no spans (untraced)
  /// Write the daemon's /metrics text at the start and end of the measured
  /// window to PREFIX.start.prom and PREFIX.end.prom. "" = no scrapes.
  std::string metrics_prefix;
  /// Self-test hook: corrupt the expected digest of every Nth HASH request
  /// (0 = never), which must surface as mismatches.
  u64 corrupt_every = 0;
};

int run_load(const LoadOptions& opt);

/// `hashbench ladder`: in-process timing of each layer's public function
/// on the workload's inputs, plus the paper's cycle pins and bit-identity
/// across tiers.
struct LadderOptions {
  Workload workload = Workload::kApiSmall;
  u64 seed = 1;
  /// Tier the daemon compiled (inferred from its counters); the core and
  /// engine entries run on it.
  kvx::sim::ExecBackend tier = kvx::sim::ExecBackend::kInterpreter;
  std::string spans_path;
};

int run_ladder(const LadderOptions& opt);

}  // namespace hashbench
