#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                                --trace <0|1>

Run from the repository root. The first call configures and builds the
library, the shipped harvestd daemon and the benchmark driver into
.bench_build (or $CARGO_TARGET_DIR); later calls rebuild incrementally.

Workloads (README.md says why each was chosen):
  paper-sweep     sim::run_sweep over the paper's cost grid and families
  pool-contended  condor::run_pool_simulation, 4-shard contended fleet
  pool-ranked     condor::run_pool_simulation, model-ranked + predictor
  plan-serve      harvestd over loopback HTTP, closed loop on /plan

--trace 0 measures the end-to-end metrics of BENCHMARK.json untraced;
--trace 1 reports its per-layer metrics from a traced run. The last line
of stdout is the result object; the full run record (digest, provenance,
every measured value) is the line before it and is also written to
.bench_runs/ for compare.py.
"""

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper-sweep", "pool-contended", "pool-ranked", "plan-serve")
# The seed the published figures were taken at; any other seed is an
# unseen input for re-checking a claim.
PINNED_SEED = 20050917

PLAN_MACHINES = 512
# A fixed client count of nproc - 1 on the 4-core reference host: the
# daemon's single listener thread keeps one core.
PLAN_CLIENTS = 2
PLAN_SETUP_REPS = 5
PLAN_WARM_REQUESTS = 20000
HARVESTD_ARGS = ["--once", "--port", "0", "--machines", str(PLAN_MACHINES),
                 "--jobs", "4", "--work-hours", "1"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then build the two programs the benchmark runs."""
    out = build_dir()
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 2),
               "--target", "perfbench_driver", "harvestd"])
    return out / "perfbench_driver", out / "harvest" / "examples" / "harvestd"


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"{cmd[0]} failed with exit code {proc.returncode}")


def run_driver(driver, step, args):
    proc = subprocess.run([str(driver), step] + [str(a) for a in args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError(f"driver step {step} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- harvestd

def die_with_parent():
    """Runs in the child before exec: SIGTERM it when run.py dies, so no
    daemon outlives an interrupted run."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class Harvestd:
    """One harvestd process; stopped and reaped on exit from `with`."""

    def __init__(self, binary, seed):
        self.proc = subprocess.Popen(
            [str(binary)] + HARVESTD_ARGS + ["--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            preexec_fn=die_with_parent)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise BenchError(f"harvestd did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def get(self, path):
        url = f"http://127.0.0.1:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode()

    def wait_ready(self, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                if self.get("/readyz")[0] == 200:
                    return
            except urllib.error.HTTPError:
                pass  # 503 until the first simulation finishes
            time.sleep(0.002)
        raise BenchError("harvestd never became ready")

    def counters(self):
        """Prometheus counters of /metrics as {name: value}."""
        values = {}
        for line in self.get("/metrics")[1].splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values

    def plan_profile(self):
        """{phase: (count, self_s)} for the plan.* phases of /profile.json,
        summed over every place the phase appears in the tree."""
        totals = {}

        def walk(nodes):
            for node in nodes:
                if node["name"].startswith("plan."):
                    count, self_s = totals.get(node["name"], (0, 0.0))
                    totals[node["name"]] = (count + node["count"],
                                            self_s + node["self_s"])
                walk(node.get("children", []))

        walk(json.loads(self.get("/profile.json")[1])["phases"])
        return totals

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for harvestd")


def host_scale(driver):
    """The driver's host-speed factor (see ScaledClock in driver.hpp)."""
    return run_driver(driver, "host-scale",
                      ["--seconds", 1])["metrics"]["scale"]


def plan_serve(driver, harvestd, seed, seconds, trace):
    """Set up harvestd PLAN_SETUP_REPS times (spawn, /readyz, one warm-up
    /plan per machine), keep the last daemon, and drive the closed loop.
    Each set-up time is scaled for host speed as the driver scales its
    calls, by the mean host-scale factor measured before and after it."""
    setups, warmups, daemons = [], [], []
    # harvestd, its clients and the reference passes share one core: a
    # closed loop spread over several cores of a shared host times how fast
    # idle cores wake up, which swings with the other tenants' load.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        scale_before = host_scale(driver)
        for _ in range(PLAN_SETUP_REPS):
            for d in daemons:
                d.stop()
            start = time.perf_counter()
            daemon = Harvestd(harvestd, seed)
            daemons.append(daemon)
            daemon.wait_ready()
            warmups.append(run_driver(driver, "plan-warmup", [
                "--seed", seed, "--seconds", 1, "--trace", 0,
                "--port", daemon.port, "--machines", PLAN_MACHINES]))
            setup_s = time.perf_counter() - start
            scale_after = host_scale(driver)
            setups.append(setup_s * 0.5 * (scale_before + scale_after))
            scale_before = scale_after
        return drive(driver, daemons[-1], seed, seconds, trace, setups,
                     warmups)
    finally:
        for d in daemons:
            d.stop()


def drive(driver, daemon, seed, seconds, trace, setups, warmups):
    warm = warmups[0]
    result = {"correct": all(w["correct"] for w in warmups),
              "attempted": 0, "failed": 0, "digest": warm["digest"],
              "problems": sum((w["problems"] for w in warmups), []),
              "metrics": {}, "info": {}, "build_info": warm["build_info"]}
    if any(w["digest"] != warm["digest"] for w in warmups):
        result["correct"] = False
        result["problems"].append("warm-up plans differ between set-ups")

    def load(secs, traced, stream_seed=seed, requests=0):
        before = daemon.counters()
        out = run_driver(driver, "plan-load", [
            "--seed", stream_seed, "--seconds", secs, "--trace", int(traced),
            "--port", daemon.port, "--machines", PLAN_MACHINES,
            "--clients", PLAN_CLIENTS, "--requests", requests])
        after = daemon.counters()
        served = (after["plan_http_requests_total"]
                  - before["plan_http_requests_total"])
        result["attempted"] += out["attempted"]
        result["failed"] += out["failed"]
        result["problems"] += out["problems"]
        if not out["correct"]:
            result["correct"] = False
        if served != out["attempted"]:
            result["correct"] = False
            result["problems"].append(
                f"harvestd served {served:.0f} /plan requests, client sent "
                f"{out['attempted']}")
        return out, before, after

    # The daemon's first seconds of load run slow while its plan cache and
    # heap grow, so a fixed number of requests (their own queries, so the
    # timed loads still miss) goes first. harvestd's peak RSS is read right
    # after it: later, every miss caches one more plan, and the figure would
    # track throughput instead of memory use.
    load(170, False, stream_seed=seed + 1, requests=PLAN_WARM_REQUESTS)
    peak_rss_mb = daemon.peak_rss_mb()
    if not trace:
        out, _, _ = load(seconds, False)
        m = result["metrics"]
        m["setup_s"] = sorted(setups)[len(setups) // 2]
        m["wall_s"] = out["metrics"]["wall_s"]
        m["peak_rss_mb"] = peak_rss_mb
        for name in ("network_mb_per_useful_h", "efficiency"):
            m[name] = warm["metrics"][name]
        result["info"].update(out["info"])
    else:
        prof_before = daemon.plan_profile()
        out, before, after = load(seconds, True)
        prof_after = daemon.plan_profile()
        info = out["info"]
        delta = {k: after[k] - before[k] for k in (
            "plan_http_requests_total", "plan_cache_hits_total",
            "plan_cache_misses_total")}
        requests = delta["plan_http_requests_total"]
        hits = delta["plan_cache_hits_total"]
        misses = delta["plan_cache_misses_total"]
        m = result["metrics"]
        server_self_s = 0.0
        for phase in ("plan.cache", "plan.fit"):
            c0, s0 = prof_before.get(phase, (0, 0.0))
            c1, s1 = prof_after.get(phase, (0, 0.0))
            m[f"prof.{phase}.count"] = c1 - c0
            m[f"prof.{phase}.self_s"] = s1 - s0
            server_self_s += s1 - s0
        m["plan.cache.hit_ratio"] = hits / max(1.0, hits + misses)
        m["plan.cache.misses"] = misses
        m["plan.http_requests"] = requests
        m["http.connect_p50_us"] = info["connect_p50_us"]
        m["plan.hit_p50_us"] = info["hit_p50_us"]
        m["plan.miss_p50_us"] = info["miss_p50_us"]
        m["plan.p50_us"] = info["plan_p50_us"]
        m["plan.p99_us"] = info["plan_p99_us"]
        m["plan.rps"] = info["plan_rps"]
        m["plan.samples"] = info["samples"]
        m["http.overhead_us"] = (info["plan_mean_us"]
                                 - server_self_s / requests * 1e6)
        # No trace.overhead_ratio: harvestd's profiler is always on, so no
        # untraced server path exists to compare with.
        result["info"].update(info)
    if not result["correct"]:
        result["failed"] = result["attempted"]
    return result


# ------------------------------------------------------------------ output

def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def finish(args, raw):
    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = dict(raw["metrics"])
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in measured:
            if not args.trace:
                raise BenchError(f"end-to-end metric {name} was not measured")
            measured[name] = 0.0  # layer not exercised by this workload
        value = measured.pop(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {name} is not a finite number: {value}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    attempted = max(1, int(raw["attempted"]))
    failed = int(raw["failed"])
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "pinned_seed": PINNED_SEED,
        "nproc": os.cpu_count(), "commit": commit(),
        "build_info": raw["build_info"], "digest": raw["digest"],
        "correct": raw["correct"], "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "problems": raw["problems"],
        "metrics": metrics, "undeclared": measured, "info": raw["info"],
    }
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name, value in {**measured, **raw["info"]}.items():
        print(f"#   {name} = {value:.6g}")
    print(f"# error_rate = {record['error_rate']:.6g} fraction "
          f"({failed} of {attempted}); digest {raw['digest']}")
    for problem in raw["problems"]:
        print(f"# PROBLEM: {problem}")
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-t{args.trace}-s{args.seed}-{stamp}-{os.getpid()}"
    (runs / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": bool(raw["correct"]), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated run unwinds normally, so every daemon it started stops.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        driver, harvestd = build()
        if args.workload == "plan-serve":
            raw = plan_serve(driver, harvestd, args.seed, args.seconds,
                             args.trace)
        else:
            raw = run_driver(driver, args.workload, [
                "--seed", args.seed, "--seconds", args.seconds,
                "--trace", args.trace])
        finish(args, raw)
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"run.py: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
