#!/usr/bin/env python3
"""Builds and runs pfperf, the host-clock benchmark (README.md in this directory).

Run from the root of a checkout:

    python3 perfbench/run.py --workload demux_ports --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest            # attribution self-test
    python3 perfbench/run.py --spread 10           # run-to-run spread table

The first call configures and builds perfbench/ (which compiles ../src) as a
Release build under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset. An untraced run is split into pfperf
processes of about five seconds each, run one after another, whose
repetitions are pooled. The last line printed is the result object; the
report line before it carries the run environment and the exact outputs.
A run whose result does not match BENCHMARK.json's metric list, or that times
out, exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("demux_ports", "conn_churn", "stack_small", "vmtp_bulk")
RUN_TIMEOUT_S = 170  # for all processes of one run together
SECONDS_PER_PROCESS = 5
# pfperf's quiet-host quantiles and the metrics that are rates.
QUIET_COST = 0.05
QUIET_RATE = 0.95
RATES = ("throughput_pps", "goodput_MBps")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds pfperf; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ is missing: run from the root of a full checkout")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    proc = subprocess.run(["cmake", "--build", bdir, "--parallel", jobs],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed")
    return os.path.join(bdir, "pfperf")


def source_identity():
    """The commit when the checkout is a git repository, plus a digest of
    the sources the binary is built from (checkouts need not be repos)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    sha = "none"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return sha, digest.hexdigest()[:16]


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_process(binary, workload, seed, seconds, trace, extra, deadline):
    """Runs one pfperf process; returns (report, result) or exits on failure."""
    sha, digest = source_identity()
    env = dict(os.environ, PFPERF_GIT_SHA=sha, PFPERF_SRC_DIGEST=digest)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} timed out after {RUN_TIMEOUT_S}s", 4)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        fail(f"pfperf exited with {proc.returncode}", 3)
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want is not None and got != want:
        sys.stderr.write(proc.stdout)
        fail("result metrics do not match BENCHMARK.json", 3)
    return report, result


def quantile(values, q):
    """pfperf's Quantile: linear interpolation between closest ranks."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def pool(parts):
    """Merges the processes of one untraced run: each host metric is the
    quiet-host end (pfperf's rule) of all their repetitions together; the
    exact outputs must be the same in every process."""
    reports = [report for report, _ in parts]
    results = [result for _, result in parts]
    mismatch = any(r["exact"] != reports[0]["exact"] for r in reports[1:])
    if mismatch:
        print("perfbench: exact outputs differ between processes of the same inputs",
              file=sys.stderr)
    metrics = {}
    for name, m in results[0]["metrics"].items():
        if name in reports[0]["samples"]:
            values = [v for r in reports for v in r["samples"][name]]
            value = quantile(values, QUIET_RATE if name in RATES else QUIET_COST)
        elif name == "peak_rss_mb":
            value = statistics.median(r["metrics"][name]["value"] for r in results)
        else:
            value = m["value"]  # exact: equal in every process (checked above)
        metrics[name] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": all(r["correct"] for r in results) and not mismatch,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results) + (1 if mismatch else 0),
        "metrics": metrics,
    }
    report = {k: v for k, v in reports[0].items() if k != "samples"}
    report["processes"] = [
        {name: m["value"] for name, m in r["metrics"].items()} for r in results]
    return report, result


def run(binary, workload, seed, seconds, trace, extra=()):
    """One benchmark run; returns (report, result, output lines). A traced
    run is one process. An untraced run is split into processes of about
    SECONDS_PER_PROCESS each, run one after another and pooled: on a shared
    host one process can run slowed for its whole life, and a run of several
    gives each its own start, memory and core."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        report, result = run_process(binary, workload, seed, seconds, True, extra, deadline)
    else:
        count = max(1, round(seconds / SECONDS_PER_PROCESS))
        report, result = pool([
            run_process(binary, workload, seed, seconds / count, False, extra, deadline)
            for _ in range(count)])
    lines = [json.dumps({"report": report}), json.dumps(result)]
    return report, result, lines


def selftest(binary, seconds):
    """Injects a fixed delay into every pf.delivery span on demux_ports and
    checks that the traced run moves pf.delivery.ns_per_packet by that delay
    per delivered packet, and the untraced throughput by the share the
    layer->end-to-end map predicts."""
    inject_ns = 2000
    extra = ["--inject-layer", "pf.delivery", "--inject-ns", str(inject_ns)]
    seed = 7
    ok = True
    base_rep, base, _ = run(binary, "demux_ports", seed, seconds, True)
    hot_rep, hot, _ = run(binary, "demux_ports", seed, seconds, True, extra)
    calls = base_rep["counts"]["delivery_calls_per_packet"]
    moved = (hot["metrics"]["pf.delivery.ns_per_packet"]["value"] -
             base["metrics"]["pf.delivery.ns_per_packet"]["value"])
    want = inject_ns * calls
    good = abs(moved - want) <= 0.1 * want
    ok &= good
    print(f"pf.delivery.ns_per_packet moved {moved:.1f} ns; injected {want:.1f} ns "
          f"per packet ({calls:.3f} PopBatch calls/packet)  [{'ok' if good else 'FAIL'}]")

    # Alternating pairs, best of each side: the quiet-host reading, as the
    # benchmark itself reports.
    before = after = 0.0
    for _ in range(3):
        _, base_e2e, _ = run(binary, "demux_ports", seed, seconds, False)
        _, hot_e2e, _ = run(binary, "demux_ports", seed, seconds, False, extra)
        before = max(before, base_e2e["metrics"]["throughput_pps"]["value"])
        after = max(after, hot_e2e["metrics"]["throughput_pps"]["value"])
    # Traffic time per delivered packet grows by the injected delay per
    # PopBatch call.
    moved_ns = 1e9 / after - 1e9 / before
    good = abs(moved_ns - want) <= 0.2 * want
    ok &= good
    print(f"throughput_pps {before:.0f} -> {after:.0f}: time per packet moved {moved_ns:.1f} ns, "
          f"expected {want:.1f} ns  [{'ok' if good else 'FAIL'}]")

    share = hot["metrics"]["host.share.pf.delivery"]["value"]
    base_share = base["metrics"]["host.share.pf.delivery"]["value"]
    good = share > base_share
    ok &= good
    print(f"host.share.pf.delivery {base_share:.3f} -> {share:.3f}  [{'ok' if good else 'FAIL'}]")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


def spread(binary, seeds, seconds, workloads):
    """Runs every workload on `seeds` seeds and prints each end-to-end
    metric's median and quartile spread (IQR / median)."""
    for workload in workloads:
        values = {}
        for seed in range(1, seeds + 1):
            _, result, _ = run(binary, workload, seed, seconds, False)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:12s} {name:18s} median {med:14.6g}  spread {(q3 - q1) / med:7.4f}  "
                  f"min {min(vals):.6g} max {max(vals):.6g}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--spread", type=int, metavar="SEEDS")
    args = parser.parse_args()

    binary = build()
    if args.selftest:
        sys.exit(selftest(binary, min(args.seconds, 4)))
    if args.spread:
        spread(binary, args.spread, args.seconds,
               [args.workload] if args.workload else WORKLOADS)
        return
    if args.workload is None:
        parser.error("--workload is required")
    _, result, lines = run(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    print("\n".join(lines))
    sys.exit(0)


if __name__ == "__main__":
    main()
