// hashbench — the benchmark's client and in-process ladder. run.py starts
// kvx-hashd and drives both modes; see README.md.
//
//   hashbench load --port N --workload W --seed N --seconds S
//                  [--pid PID] [--baseline S] [--block N] [--spans FILE]
//                  [--metrics-prefix P] [--corrupt-every N]
//   hashbench ladder --workload W --seed N --tier T [--spans FILE]
#include <cstdio>
#include <string>

#include "kvx/common/cli.hpp"
#include "modes.hpp"

namespace {

constexpr const char* kTool = "hashbench";

int usage() {
  std::fprintf(stderr,
               "usage: hashbench load --port N --workload W --seed N "
               "--seconds S [--pid PID] [--baseline S] [--block N] "
               "[--spans FILE] [--metrics-prefix P] [--corrupt-every N]\n"
               "       hashbench ladder --workload W --seed N --tier T "
               "[--spans FILE]\n");
  return 2;
}

bool parse_workload_arg(const char* text, hashbench::Workload& out) {
  const auto w = hashbench::parse_workload(text);
  if (!w) {
    std::fprintf(stderr, "hashbench: unknown workload '%s'\n", text);
    return false;
  }
  out = *w;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using kvx::cli::require_f64;
  using kvx::cli::require_u64;
  using kvx::cli::require_unsigned;
  using kvx::cli::require_usize;
  if (argc < 2) return usage();
  const std::string mode = argv[1];

  if (mode == "load") {
    hashbench::LoadOptions opt;
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage();
      const char* v = argv[++i];
      if (a == "--port") {
        opt.port = static_cast<kvx::u16>(
            require_unsigned(kTool, "--port", v, 1, 65535));
      } else if (a == "--pid") {
        opt.daemon_pid =
            static_cast<int>(require_unsigned(kTool, "--pid", v, 1, 1u << 30));
      } else if (a == "--workload") {
        if (!parse_workload_arg(v, opt.workload)) return 2;
      } else if (a == "--seed") {
        opt.seed = require_u64(kTool, "--seed", v);
      } else if (a == "--seconds") {
        opt.seconds = require_f64(kTool, "--seconds", v, 0.1, 3600.0);
      } else if (a == "--baseline") {
        opt.baseline_s = require_f64(kTool, "--baseline", v, 0.0, 600.0);
      } else if (a == "--block") {
        opt.block = require_usize(kTool, "--block", v, 1, kvx::usize{1} << 30);
      } else if (a == "--spans") {
        opt.spans_path = v;
      } else if (a == "--metrics-prefix") {
        opt.metrics_prefix = v;
      } else if (a == "--corrupt-every") {
        opt.corrupt_every = require_u64(kTool, "--corrupt-every", v);
      } else {
        return usage();
      }
    }
    if (opt.port == 0) return usage();
    return hashbench::run_load(opt);
  }

  if (mode == "ladder") {
    hashbench::LadderOptions opt;
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage();
      const char* v = argv[++i];
      if (a == "--workload") {
        if (!parse_workload_arg(v, opt.workload)) return 2;
      } else if (a == "--seed") {
        opt.seed = require_u64(kTool, "--seed", v);
      } else if (a == "--tier") {
        const auto tier = kvx::sim::parse_backend(v);
        if (!tier) {
          std::fprintf(stderr, "hashbench: unknown tier '%s' (%s)\n", v,
                       kvx::sim::kBackendNamesHelp.data());
          return 2;
        }
        opt.tier = *tier;
      } else if (a == "--spans") {
        opt.spans_path = v;
      } else {
        return usage();
      }
    }
    return hashbench::run_ladder(opt);
  }
  return usage();
}
