#!/usr/bin/env python3
"""Build and run the RoSE benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
library sources under src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs the benchmark's
self-tests, then measures one workload. With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json; setup_s is the median over
nine cold starts, each in a fresh process. With --trace 1 it
reports the per-layer metrics and leaves a Chrome trace and a
per-layer table under <build>/traces. The last stdout line is the
JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("golden_loop", "fine_sync_tcp", "serve_short", "serve_long")
# Cold starts measured in their own processes, on top of the main
# run's own; setup_s is the median of all of them.
SETUP_REPEATS = 8
# Every child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    logpath = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j", jobs]]
    with open(logpath, "w") as logf:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT,
                                 cwd=ROOT)
            if rc != 0:
                with open(logpath) as f:
                    sys.stderr.write(f.read()[-4000:])
                log("build failed:", " ".join(cmd))
                return False
    return True


def child(args):
    """Run one benchmark process; return its last stdout line."""
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=None, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d" % (args[0], proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no result" % args[0])
    return json.loads(lines[-1])


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opt = ap.parse_args()

    out = build_dir()
    t0 = time.monotonic()
    if not build(out):
        return 1
    log("build ready in %.1f s" % (time.monotonic() - t0))

    bench = os.path.join(out, "rose_perfbench")
    selftest = os.path.join(out, "rose_perfbench_selftest")
    if subprocess.call([selftest], cwd=ROOT,
                       timeout=CHILD_TIMEOUT_S) != 0:
        log("benchmark self-tests failed")
        return 1

    base = [bench, "--workload", opt.workload, "--seed", str(opt.seed)]
    setups = []
    setup_ok = True
    if not opt.trace:
        for _ in range(SETUP_REPEATS):
            r = child(base + ["--setup-only"])
            setups.append(r["setup_s"])
            setup_ok = setup_ok and r["correct"]

    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    result = child(base + ["--seconds", str(opt.seconds),
                           "--trace", str(opt.trace),
                           "--trace-dir", traces])
    metrics = result["metrics"]
    if not opt.trace:
        setups.append(metrics["setup_s"]["value"])
        log("setup_s samples:", ", ".join("%.4f" % s for s in setups))
        metrics["setup_s"]["value"] = statistics.median(setups)
        result["correct"] = bool(result["correct"] and setup_ok)

    want = expected_metrics(opt.trace)
    if sorted(want) != sorted(metrics):
        log("metric names differ from BENCHMARK.json:",
            sorted(set(want) ^ set(metrics)))
        return 1
    result["metrics"] = {k: metrics[k] for k in want}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as e:
        log("error:", e)
        sys.exit(1)
