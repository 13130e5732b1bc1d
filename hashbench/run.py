#!/usr/bin/env python3
"""hashbench: the repository benchmark.

Builds the shipped kvx-hashd and the benchmark's own client from source,
starts the daemon on an ephemeral loopback port with deployment flags only
(--port 0 --threads 2), drives it with a single-threaded closed-loop client
that verifies every reply, and prints the metrics. See README.md.

    python3 hashbench/run.py --workload api-small --seed 1 --seconds 30 \
        --trace 0

Run it from the root of the source tree. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. The exit code is nonzero whenever any request failed or any check did.
"""

import argparse
import http.client
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DAEMON = BUILD / "kvx" / "tools" / "kvx-hashd"
CLIENT = BUILD / "hashbench"

WORKLOADS = ("api-small", "kyber-matgen", "bulk-mixed")
DAEMON_FLAGS = ["--port", "0", "--threads", "2"]
BLOCK = 1200            # replies per block; figures are medians over blocks
SETUP_SPAWNS = 11       # set-up is timed on this many daemon starts
POLL_PERIOD_S = 0.25    # traced run: /metrics poll interval
STOP_TIMEOUT_S = 30.0

# name -> unit, in print order. BENCHMARK.json lists exactly these.
# The gated tail is p90: on a shared host p99 follows scheduler stalls of
# the host more than the program (see README.md), so it is printed beside
# them (TAILS) but not gated.
END_TO_END = {
    "req_per_s": "1/s",
    "payload_mb_per_s": "MB/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "small_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_us_per_req": "us",
}

TAILS = ("p99_ms", "small_p99_ms")

TIERS = ("interpreter", "trace", "fused", "host-simd", "jit")
PER_LAYER = {
    "engine.jobs_per_dispatch": "jobs",
    "engine.perms_per_job": "perms",
    "engine.mean_latency_ms": "ms",
    "engine.fallbacks": "count",
    "engine.queue_depth_max": "jobs",
    "engine.jobs_per_s": "1/s",
    "engine.p99_ms": "ms",
    "sim.cycles_per_perm": "cycles",
    "sim.trace_compiles": "count",
    "sim.jit_compiles": "count",
    **{f"sim.{t}.sn3.perms_per_s": "1/s" for t in TIERS},
    **{f"sim.{t}.sn6.perms_per_s": "1/s"
       for t in ("fused", "host-simd", "jit")},
    **{f"sim.{t}.setup_ms": "ms" for t in TIERS},
    "net.mean_outside_engine_ms": "ms",
    "net.backpressure_events": "count",
    "net.metrics_scrape_ms": "ms",
    "net.codec_ns_per_frame": "ns",
    "net.server_over_engine": "ratio",
    "obs.process_cpu_util": "ratio",
    "keccak.permute_ns": "ns",
    "keccak.session_squeeze_us": "us",
    "core.jobs_per_s": "1/s",
    "core.lanes_filled": "lanes",
    "trace.req_per_s_ratio": "ratio",
}


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(f"hashbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"repository sources not found in {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", str(BUILD), "-j", jobs,
            "--target", "kvx-hashd", "hashbench"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


# ---------------------------------------------------------------- daemon

class Daemon:
    """One kvx-hashd process, timed from spawn to its readiness line."""

    def __init__(self, argv, ready_timeout):
        self.lines = queue.Queue()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=BUILD, stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, text=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        deadline = t0 + ready_timeout
        while True:
            remaining = deadline - time.perf_counter()
            try:
                line = self.lines.get(timeout=max(remaining, 0.0))
            except queue.Empty:
                self.stop()
                raise BenchError(
                    f"daemon printed no readiness line in {ready_timeout} s")
            if line is None:
                self.stop()
                raise BenchError("daemon exited before it was ready")
            if "listening on" in line:
                self.setup_s = time.perf_counter() - t0
                self.port = int(line.split("listening on ")[1]
                                .split()[0].rsplit(":", 1)[1])
                return

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    @property
    def pid(self):
        return self.proc.pid

    def peak_rss_mb(self):
        with open(f"/proc/{self.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self):
        """SIGTERM and wait; returns the exit code (kill on timeout)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -signal.SIGKILL
        self.reader.join(timeout=5)
        return code


def scrape(port):
    """GET /metrics; returns (text, seconds taken)."""
    t0 = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    return text, time.perf_counter() - t0


def parse_prom(text):
    """Prometheus text -> {series: value}; series keep their labels."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            out[series] = float(value)
    return out


def read_prom(path, notes):
    try:
        return parse_prom(path.read_text())
    except OSError:
        notes.append(f"no /metrics snapshot {path.name}")
        return {}


class Poller(threading.Thread):
    """Low-rate /metrics poll during the traced run."""

    def __init__(self, port):
        super().__init__(daemon=True)
        self.port = port
        self.stopping = threading.Event()
        self.scrape_ms = []
        self.depth_max = 0.0
        self.errors = 0

    def run(self):
        while not self.stopping.wait(POLL_PERIOD_S):
            try:
                text, took = scrape(self.port)
            except OSError:
                self.errors += 1
                continue
            self.scrape_ms.append(took * 1e3)
            depth = parse_prom(text).get("kvx_engine_queue_depth", 0.0)
            self.depth_max = max(self.depth_max, depth)


def inferred_tier(prom):
    """The tier the daemon compiled: the topmost one with a nonzero count."""
    for series, tier in (("kvx_jit_compiles_total", "jit"),
                         ("kvx_hostsimd_lowerings_total", "host-simd"),
                         ("kvx_trace_cache_fusions_total", "fused"),
                         ("kvx_trace_cache_compiles_total", "trace")):
        if prom.get(series, 0.0) > 0:
            return tier
    return "interpreter"


def fingerprint(prom):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    labels = {}
    for series in prom:
        if series.startswith("kvx_build_info{"):
            for pair in series[series.index("{") + 1:-1].split(","):
                key, _, value = pair.partition("=")
                labels[key] = value.strip('"')
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "host_simd_isa": labels.get("host_simd_isa", "?"),
            "jit": labels.get("jit", "?"), "daemon_tier": inferred_tier(prom)}


# ---------------------------------------------------------------- run

def run_client(args, daemon, out_dir, traced):
    stem = out_dir / f"{args.workload}-seed{args.seed}"
    cmd = [str(CLIENT), "load", "--port", str(daemon.port),
           "--pid", str(daemon.pid), "--workload", args.workload,
           "--seed", str(args.seed)]
    if traced:
        for snapshot in (".start.prom", ".end.prom"):
            Path(f"{stem}{snapshot}").unlink(missing_ok=True)
        # Half the time untraced (the overhead base), half traced.
        half = args.seconds / 2.0
        cmd += ["--baseline", str(half), "--seconds", str(half),
                "--spans", f"{stem}-client.spans.json",
                "--metrics-prefix", str(stem)]
    else:
        cmd += ["--seconds", str(args.seconds), "--block", str(BLOCK)]
    if args.corrupt_every:
        cmd += ["--corrupt-every", str(args.corrupt_every)]
    timeout = args.seconds + 60.0
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"client printed no result (exit {proc.returncode})")
    return json.loads(lines[-1]), stem


def end_to_end(client, setup, rss_mb, failed):
    def median(name):
        return statistics.median(s[name] for s in client["slices"])

    m = {name: median(name) for name in
         ("req_per_s", "payload_mb_per_s", "p50_ms", "p90_ms",
          "small_p90_ms") + TAILS}
    # CPU time is read in clock ticks, too coarse per block: whole window.
    m["cpu_us_per_req"] = (client["daemon_cpu_s"] * 1e6
                           / max(client["completed"], 1))
    m["ok_ratio"] = 1.0 - failed / max(client["attempted"], 1)
    m["setup_s"] = statistics.median(setup)
    m["peak_rss_mb"] = rss_mb
    return m


def per_layer(client, start, end, poller, ladder):
    def delta(series):
        return end.get(series, 0.0) - start.get(series, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    jobs = delta("kvx_engine_jobs_completed_total")
    perms = delta("kvx_engine_permutations_total")
    engine_mean_ms = ratio(delta("kvx_engine_job_latency_ns_sum"),
                           delta("kvx_engine_job_latency_ns_count")) / 1e6
    traced_rps = client["completed"] / client["window_s"]
    untraced_rps = client["baseline_req_per_s"]
    m = {
        "engine.jobs_per_dispatch":
            ratio(jobs, delta("kvx_engine_dispatches_total")),
        "engine.perms_per_job": ratio(perms, jobs),
        "engine.mean_latency_ms": engine_mean_ms,
        "engine.fallbacks": end.get("kvx_engine_fallbacks_total", 0.0),
        "engine.queue_depth_max": poller.depth_max,
        "sim.cycles_per_perm":
            ratio(delta("kvx_engine_sim_cycles_total"), perms),
        "sim.trace_compiles": end.get("kvx_trace_cache_compiles_total", 0.0),
        "sim.jit_compiles": end.get("kvx_jit_compiles_total", 0.0),
        "net.mean_outside_engine_ms":
            client["hash_mean_ns"] / 1e6 - engine_mean_ms,
        "net.backpressure_events":
            delta("kvx_server_backpressure_events_total"),
        "net.metrics_scrape_ms": statistics.median(poller.scrape_ms)
            if poller.scrape_ms else 0.0,
        "net.server_over_engine":
            ratio(untraced_rps, ladder.get("engine.jobs_per_s", 0.0)),
        "obs.process_cpu_util": client["daemon_cpu_s"] / client["window_s"],
        "trace.req_per_s_ratio": ratio(traced_rps, untraced_rps),
    }
    m.update(ladder)
    return m


def run_ladder(args, tier, stem):
    cmd = [str(CLIENT), "ladder", "--workload", args.workload,
           "--seed", str(args.seed), "--tier", tier,
           "--spans", f"{stem}-ladder.spans.json"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=150)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"ok": False, "metrics": {},
                "errors": [f"ladder exited {proc.returncode} with no result"]}
    return json.loads(lines[-1])


def measure(args):
    build()
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = args.daemon or [str(DAEMON)] + DAEMON_FLAGS
    traced = args.trace == 1
    notes = []  # every reason the run is not correct

    setup = []
    daemon = None
    end_text, rss_mb = "", 0.0
    try:
        for _ in range(SETUP_SPAWNS):
            if daemon is not None and daemon.stop() != 0:
                raise BenchError("daemon exited nonzero after set-up")
            daemon = Daemon(argv, args.ready_timeout)
            setup.append(daemon.setup_s)

        poller = Poller(daemon.port)
        if traced:
            poller.start()
        try:
            client, stem = run_client(args, daemon, out_dir, traced)
        finally:
            poller.stopping.set()
            if traced:
                poller.join()
        try:
            end_text, _ = scrape(daemon.port)
            rss_mb = daemon.peak_rss_mb()
        except OSError as e:
            notes.append(f"daemon unreachable after the run: {e}")
    finally:
        code = daemon.stop() if daemon is not None else 0
    host = fingerprint(parse_prom(end_text))

    failed = client["failed"]
    if client["fatal"]:
        notes.append("client lost its connection")
    if code != 0:
        # kvx-hashd exits nonzero when submitted != completed + failed.
        failed += 1
        notes.append(f"daemon exited with {code}")

    if traced:
        ladder = run_ladder(args, host["daemon_tier"], stem)
        notes += ladder["errors"]
        if poller.errors:
            notes.append(f"{poller.errors} /metrics polls failed")
        start = read_prom(Path(f"{stem}.start.prom"), notes)
        end = read_prom(Path(f"{stem}.end.prom"), notes)
        values = per_layer(client, start, end, poller, ladder["metrics"])
        units = PER_LAYER
    else:
        values = end_to_end(client, setup, rss_mb, failed)
        units = END_TO_END

    correct = failed == 0 and not notes
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    ungated = {name: values[name] for name in TAILS if name in values}
    report(args, host, client, failed, notes, metrics, ungated)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host, "client": client,
              "correct": correct, "notes": notes, "metrics": metrics,
              "ungated_ms": ungated}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": client["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def report(args, host, client, failed, notes, metrics, ungated):
    print(f"hashbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} conns={client['connections']} "
          f"window={client['window']} daemon={' '.join(DAEMON_FLAGS)}")
    print(f"hashbench: host cpu=\"{host['cpu']}\" nproc={host['nproc']} "
          f"host_simd_isa={host['host_simd_isa']} jit={host['jit']} "
          f"daemon_tier={host['daemon_tier']}")
    attempted = max(client["attempted"], 1)
    print(f"hashbench: attempted={client['attempted']} failed={failed} "
          f"fail_ratio={failed / attempted:.6g} "
          f"(bad_status={client['bad_status']} "
          f"mismatches={client['mismatches']} "
          f"protocol_errors={client['protocol_errors']} "
          f"missing={client['missing']})")
    print(f"hashbench: latency samples={client['samples']} "
          f"small samples={client['small_samples']}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for name, value in ungated.items():
        print(f"  {name:<28} {value:>14.6g} ms (not gated)")
    for note in notes:
        print(f"hashbench: FAIL {note}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks (selftest.py).
    p.add_argument("--daemon", nargs="+", help=argparse.SUPPRESS)
    p.add_argument("--ready-timeout", type=float, default=60.0,
                   help=argparse.SUPPRESS)
    p.add_argument("--corrupt-every", type=int, default=0,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an error, so the daemon is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return measure(args)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
