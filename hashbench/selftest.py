#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 hashbench/selftest.py

Run from the root of the source tree. Each test drives run.py the way a user
would and checks that the benchmark fails when it must:

  * a corrupted expected digest gives failed > 0 and a nonzero exit;
  * a daemon that never prints its readiness line times out, not hangs;
  * the metric names printed match BENCHMARK.json exactly, in both modes;
  * without the repository's sources it exits nonzero and prints no result.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run as bench  # noqa: E402

SHORT = ["--workload", "api-small", "--seed", "7", "--seconds", "2"]


def invoke(args, cwd=ROOT, timeout=180):
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "hashbench/run.py"] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    return proc, time.monotonic() - t0


def result(proc):
    """The JSON object on the last stdout line, or None."""
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def test_metric_names_match_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for trace, section, table in ((0, "end_to_end", bench.END_TO_END),
                                  (1, "per_layer", bench.PER_LAYER)):
        want = {m["name"]: m["unit"] for m in spec[section]}
        assert want == table, f"{section}: run.py and BENCHMARK.json differ"
        proc, _ = invoke(SHORT + ["--trace", str(trace)])
        got = result(proc)
        assert proc.returncode == 0 and got and got["correct"], proc.stderr
        printed = {k: v["unit"] for k, v in got["metrics"].items()}
        assert printed == want, f"trace {trace}: printed {sorted(printed)}"


def test_corrupted_digest_fails():
    proc, _ = invoke(SHORT + ["--trace", "0", "--corrupt-every", "50"])
    got = result(proc)
    assert proc.returncode != 0, "a wrong digest must fail the run"
    assert got is not None and not got["correct"] and got["failed"] > 0
    assert got["metrics"]["ok_ratio"]["value"] < 1.0


def test_daemon_without_readiness_times_out():
    proc, took = invoke(SHORT + ["--trace", "0", "--ready-timeout", "2",
                                 "--daemon", "sleep", "600"], timeout=120)
    assert proc.returncode != 0
    assert result(proc) is None, "no result may be printed"
    assert took < 60, f"took {took:.1f} s"
    assert "readiness" in proc.stderr


def test_bare_directory_fails():
    # BENCHMARK.json and the benchmark's own files, without the sources.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc, took = invoke(SHORT + ["--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert result(proc) is None
        assert took < 60
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    tests = [test_metric_names_match_spec, test_corrupted_digest_fails,
             test_daemon_without_readiness_times_out,
             test_bare_directory_fails]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}")
        except (AssertionError, subprocess.SubprocessError) as e:
            failed += 1
            print(f"FAIL {test.__name__}: {e}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
