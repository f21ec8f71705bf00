#!/usr/bin/env python3
"""Caller-session benchmark for the basker solver (see README.md here).

Run from the repository root:

  python3 perfbench/run.py --workload transient --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --steadiness 10

The first form builds session_bench from the checkout's sources (into
.bench_build/perfbench), runs one workload and prints, as its last line, one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer metrics
with --trace 1. A line before it records the run's provenance.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "session_bench")
TRACE_DIR = os.path.join(BUILD, "traces")
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")
# One run must end within 180 s; leave room for start-up and reporting.
RUN_TIMEOUT_S = 170
BUILD_JOBS = 3
SELFTEST_SCALE = 0.1
# Workloads session_bench runs on request but BENCHMARK.json does not gate
# (README: gating a third workload would shorten every gated run).
UNGATED_WORKLOADS = ["transient"]


class BenchError(Exception):
    pass


def load_spec():
    with open(SPEC_FILE) as f:
        return json.load(f)


def build():
    """Configures and (re)builds session_bench, serialized by a lock. Both
    steps are quick no-ops when the build is current."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
        generator = ["-G", "Ninja"] if shutil.which("ninja") and not configured else []
        steps = [["cmake", "-S", HERE, "-B", BUILD, *generator,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", BUILD, "--target", "session_bench",
                  "-j", str(BUILD_JOBS)]]
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                raise BenchError("build failed: %s\n%s" % (" ".join(cmd), tail))


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Runs session_bench; returns its last stdout line parsed as JSON."""
    proc = subprocess.run([BINARY, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("session_bench %s exited %d: %s"
                         % (" ".join(args), proc.returncode, proc.stderr.strip()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("session_bench %s printed nothing" % " ".join(args))
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, size_scale=1.0, corrupt=False):
    args = ["--mode", "layers" if trace else "e2e", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--size-scale", str(size_scale)]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        args += ["--trace-dir", TRACE_DIR]
    if corrupt:
        args.append("--corrupt")
    return run_binary(args)


def check_metrics(report, wanted):
    """Problems with the report's metrics against the spec entries `wanted`."""
    problems = []
    got = report.get("metrics", {})
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append("missing metric %s" % m["name"])
        elif entry.get("unit") != m["unit"]:
            problems.append("metric %s has unit %r, want %r"
                            % (m["name"], entry.get("unit"), m["unit"]))
        elif not isinstance(entry.get("value"), (int, float)) or \
                not math.isfinite(entry["value"]):
            problems.append("metric %s is not a finite number" % m["name"])
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append("unexpected metrics %s" % sorted(extra))
    return problems


def result(report, wanted):
    """The contract's result object for one session_bench report."""
    problems = check_metrics(report, wanted)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    if report["failed"]:
        print("perfbench: %d failed operations, first: %s"
              % (report["failed"], report["first_error"]), file=sys.stderr)
    return {
        "correct": report["failed"] == 0 and not problems,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: report["metrics"][m["name"]]
                    for m in wanted if m["name"] in report["metrics"]},
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(report):
    keys = ["mode", "workload", "suite", "seed", "n", "nnz", "p",
            "steps_per_session", "sessions", "warmup_sessions",
            "step_samples", "rounds", "run_seconds", "max_residual",
            "quantiles", "ratio_bases", "spans_file", "numeric_trace_file"]
    prov = {k: report[k] for k in keys if k in report}
    prov["nproc"] = os.cpu_count()
    prov["cpu_model"] = cpu_model()
    return prov


def run_once(args, spec):
    build()
    report = measure(args.workload, args.seed, args.seconds, args.trace)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = result(report, wanted)
    print(json.dumps({"provenance": provenance(report)}))
    print(json.dumps(out))
    return 0


def selftest(spec):
    """Tiny-size checks: suite fidelity, every metric emitted with its unit,
    and a corrupted solution counted as a failure."""
    build()
    failures = []
    names = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
    proc = subprocess.run([BINARY, "--mode", "suite", "--size-scale",
                           str(SELFTEST_SCALE)], stdout=subprocess.PIPE, text=True)
    print(proc.stdout.strip())
    if proc.returncode != 0:
        failures.append("workload generators do not match their suite entries")
    for name in names:
        for trace in (0, 1):
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            report = measure(name, 1, 0.2, trace, size_scale=SELFTEST_SCALE)
            out = result(report, wanted)
            if not out["correct"] or out["attempted"] < 1:
                failures.append("%s trace=%d: incorrect result" % (name, trace))
            print("%-10s trace=%d: %d metrics, %d attempted, %d failed"
                  % (name, trace, len(out["metrics"]), out["attempted"],
                     out["failed"]))
    report = measure(names[0], 1, 0.2, 0, size_scale=SELFTEST_SCALE, corrupt=True)
    out = result(report, spec["end_to_end"])
    solves = ((report["sessions"] + report["warmup_sessions"])
              * report["steps_per_session"])
    print("corrupted: %d attempted, %d failed of %d solves, correct=%s"
          % (out["attempted"], out["failed"], solves, out["correct"]))
    if out["correct"] or out["failed"] != solves or report["step_samples"] != 0:
        failures.append("corrupted solutions were not all counted as failures")
    for f in failures:
        print("selftest FAILED: " + f)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def steadiness(args, spec):
    """Runs every workload `args.steadiness` times, alternating workloads and
    seeds, and prints each end-to-end metric's median, quartiles and range.
    The spread (q3 - q1) / median is what BENCHMARK.json's bounds cover."""
    build()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    values = {(w, m["name"]): [] for w in names for m in spec["end_to_end"]}
    for i in range(args.steadiness):
        for w in names:
            seed = args.seed + i
            report = measure(w, seed, args.seconds, 0)
            out = result(report, spec["end_to_end"])
            if not out["correct"]:
                raise BenchError("%s seed %d: incorrect result" % (w, seed))
            for m in spec["end_to_end"]:
                values[(w, m["name"])].append(out["metrics"][m["name"]]["value"])
            print("run %d %s seed %d: %s" % (i, w, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in out["metrics"].items())),
                flush=True)
    rows = []
    print("\n%-10s %-12s %11s %11s %11s %11s %11s %7s %6s %s"
          % ("workload", "metric", "median", "q1", "q3", "min", "max",
             "spread", "bound", "spread<bound/3"))
    for w in names:
        for m in spec["end_to_end"]:
            v = values[(w, m["name"])]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < m["bound"] / 3
            rows.append({"workload": w, "metric": m["name"], "median": med,
                         "q1": q1, "q3": q3, "min": min(v), "max": max(v),
                         "spread": spread, "bound": m["bound"], "values": v})
            print("%-10s %-12s %11.6g %11.6g %11.6g %11.6g %11.6g %6.1f%% %6.2f %s"
                  % (w, m["name"], med, q1, q3, min(v), max(v), 100 * spread,
                     m["bound"], "yes" if ok else "NO"))
    print(json.dumps({"steadiness": rows}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--steadiness", type=int, metavar="N", default=0,
                    help="run each workload N times (seeds seed..seed+N-1)")
    ap.add_argument("--workloads", nargs="*",
                    help="workloads for --steadiness (default: all)")
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        if args.selftest:
            return selftest(spec)
        if args.steadiness:
            return steadiness(args, spec)
        names = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
        if args.workload not in names:
            ap.error("--workload must be one of %s" % ", ".join(names))
        return run_once(args, spec)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
