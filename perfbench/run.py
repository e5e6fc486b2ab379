#!/usr/bin/env python3
"""The repository benchmark: build the driver, run one workload, print
one JSON result line.

    python3 perfbench/run.py --workload library|tune|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The driver (perfbench/*.cc) is built
with CMake against src/ into .bench_build/ (or $CARGO_TARGET_DIR) and
run in a fresh directory under it. With --trace 0 the result carries
every end-to-end metric of BENCHMARK.json; with --trace 1 every
per-layer metric, including span self-times from the engine's tracer.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Pinned so that every run, on every commit, emits the same code.
NATIVE_ISA = "avx2"
# Spans kept per thread while tracing; a run that drops one is invalid.
TRACE_RING = 1 << 21
# The spans whose self-time and count are per-layer metrics.
SPANS = [
    "cost.simulate", "tune.enumerate", "sandbox.run", "prim.apply",
    "analysis.solve", "lint.pass", "cjit.compile", "cjit.dlopen",
    "verify.tri_oracle", "tune.validate", "cache.tune_probe",
    "tune.cache_replay", "serve.request",
]
# The engine's outermost span around a call the benchmark also times
# with its own clock, and how closely the two must agree (share of the
# clock's total). A library pass has no single engine root, so there
# the check is on every lint_proc call. The serve clock is the
# client's, so it also holds transport and queue wait.
ROOTS = {
    "library": ("lint.proc", 0.02),
    "tune": ("tune.autotune", 0.02),
    "serve": ("serve.request", 0.10),
}
# Per-layer metrics the driver measures on each workload; any other
# per-layer metric reads 0 there, since that workload does not run the
# layer.
DRIVER_LAYERS = {
    "library": ["sched.level1_ms", "sched.level2_ms", "sched.gemm_ms",
                "sched.halide_ms", "lint.proc_ms", "codegen.emit_ms",
                "analysis.memo_hit_ratio", "interp.run_ms", "compile_ms"],
    "tune": ["tune_s", "tune.states_scored", "tune.states_per_s",
             "tune.cost_memo_hit_ratio"] +
            ["tune.%s_%s" % (k, m)
             for k in ("saxpy", "sdot", "sgemv_n", "sgemm", "blur")
             for m in ("s", "gflops")],
    "serve": ["serve.phase_cache_ms", "serve.phase_validate_ms",
              "serve.phase_lint_ms", "serve.transport_ms",
              "serve.unattributed_ms"],
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build the driver; return its path."""
    bdir = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", bdir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(bdir, "exo2bench")


def child_env(run_dir, trace):
    env = {k: v for k, v in os.environ.items() if not k.startswith("EXO2_")}
    env["EXO2_NATIVE_ISA"] = NATIVE_ISA
    env["TMPDIR"] = os.path.join(run_dir, "tmp")
    if trace:
        env["EXO2_TRACE_RING"] = str(TRACE_RING)
    return env


def run_driver(exe, argv, run_dir, env, timeout):
    """Run the driver in its own process group, so that a timeout also
    ends the daemon it starts. Returns (exit code, stdout)."""
    proc = subprocess.Popen([exe] + argv, cwd=run_dir, env=env,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("driver timed out after %ds" % timeout)
        out, rc = b"", 124
    # The driver reaps its daemon; should one outlive it, end it and
    # wait until the process group is empty.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return rc, out.decode()


def span_self_times(paths):
    """Self time (ms) and count per span name over Chrome trace files.
    A span's self time is its duration minus the part its child spans
    on the same thread cover. Also returns every span's (name, dur_ms,
    args) in start order."""
    self_ms, count, spans = {}, {}, []
    for path in paths:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        by_tid = {}
        for e in events:
            by_tid.setdefault((e.get("pid"), e["tid"]), []).append(e)
        for evs in by_tid.values():
            evs.sort(key=lambda e: (e["ts"], -e["dur"]))
            stack = []  # [end_us, child_us, event]
            def close(entry):
                e = entry[2]
                self_ms[e["name"]] = (self_ms.get(e["name"], 0.0) +
                                      (e["dur"] - entry[1]) / 1e3)
            for e in evs:
                while stack and stack[-1][0] <= e["ts"] + 0.002:
                    close(stack.pop())
                if stack:
                    stack[-1][1] += e["dur"]
                stack.append([e["ts"] + e["dur"], 0.0, e])
                count[e["name"]] = count.get(e["name"], 0) + 1
            while stack:
                close(stack.pop())
        spans += [(e["ts"], e["name"], e["dur"] / 1e3, e.get("args", {}))
                  for e in events]
    spans.sort(key=lambda s: s[0])
    return self_ms, count, [s[1:] for s in spans]


def root_agreement(workload, res, spans):
    """Compare the traced root spans with the benchmark's own clock
    around the same calls. Returns (ratio, error or None)."""
    name, margin = ROOTS[workload]
    calls = [c for c in res["root_calls"] if c[0] == name]
    roots = [s for s in spans if s[0] == name]
    if len(calls) != len(roots) or not calls:
        return 0.0, "%d %s spans for %d timed calls" % (
            len(roots), name, len(calls))
    if workload == "serve":
        by_rid = {s[2].get("rid"): s[1] for s in roots}
        pairs = [(by_rid.get(c[2]), c[1] * 1e3) for c in calls]
        if any(p[0] is None for p in pairs):
            return 0.0, "a request has no serve.request span"
        if any(span > clock + 0.01 for span, clock in pairs):
            return 0.0, "a serve.request span outlasts its client call"
    else:
        pairs = [(s[1], c[1] * 1e3) for s, c in zip(roots, calls)]
    ratio = sum(p[0] for p in pairs) / sum(p[1] for p in pairs)
    if not (1 - margin <= ratio <= 1 + 0.001):
        return ratio, "root spans cover %.4f of the benchmark clock " \
                      "(margin %.2f)" % (ratio, margin)
    return ratio, None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not a.self_test and a.workload not in ROOTS:
        log("unknown workload %r" % a.workload)
        return 2
    exe = build()
    if exe is None:
        log("build failed")
        return 1

    run_dir = os.path.join(build_dir(), "runs",
                           "%s-%d" % (a.workload or "selftest", os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    env = child_env(run_dir, a.trace)
    if a.self_test:
        rc, out = run_driver(exe, ["selftest"], run_dir, env, 900)
        sys.stdout.write(out)
        shutil.rmtree(run_dir, ignore_errors=True)
        return rc

    rc, out = run_driver(
        exe, [a.workload, "--seed", str(a.seed), "--seconds",
              str(a.seconds), "--trace", str(a.trace)],
        run_dir, env, 170)
    lines = [l for l in out.splitlines() if l.startswith("PERFBENCH_RESULT ")]
    if rc != 0 or not lines:
        log("driver failed (exit %d); run directory kept: %s" % (rc, run_dir))
        return 1
    res = json.loads(lines[-1][len("PERFBENCH_RESULT "):])
    metrics = dict(res["metrics"])

    if a.trace:
        if res["dropped_spans"]:
            log("%d spans dropped: the traced run is invalid"
                % res["dropped_spans"])
            return 1
        self_ms, count, spans = span_self_times(
            [os.path.join(run_dir, p) for p in res["trace_files"]])
        ratio, err = root_agreement(a.workload, res, spans)
        if err:
            log("trace and benchmark clock disagree: " + err)
            return 1
        units = max(1, res["trace_units"])
        for s in SPANS:
            metrics["span.%s_ms" % s] = {
                "value": self_ms.get(s, 0.0) / units, "unit": "ms"}
            metrics["span.%s_count" % s] = {
                "value": count.get(s, 0) / units, "unit": "count"}
        metrics["trace.dropped_spans"] = {"value": 0, "unit": "count"}
        metrics["trace.root_clock_ratio"] = {"value": ratio, "unit": "ratio"}
        top = sorted(self_ms.items(), key=lambda kv: -kv[1])[:8]
        log("span self-time per unit (%d units): " % units + ", ".join(
            "%s %.1f ms" % (k, v / units) for k, v in top))
        names = [m["name"] for m in spec["per_layer"]]
        for name in names:
            if name in metrics:
                continue
            if name in DRIVER_LAYERS[a.workload]:
                log("metric %s missing" % name)
                return 1
            metrics[name] = {"value": 0.0, "unit": next(
                m["unit"] for m in spec["per_layer"] if m["name"] == name)}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        for name in names:
            if name not in metrics:
                log("metric %s missing" % name)
                return 1
    for name, m in sorted(metrics.items()):
        log("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: metrics[n] for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
