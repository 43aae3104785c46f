#!/usr/bin/env python3
"""Benchmark entry point: build perf-ledger, run one workload, print metrics.

    python3 perf-ledger/run.py --workload <paper_grid|fleet_pop|aqm_duel|all>
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perf-ledger` package from
source (into $CARGO_TARGET_DIR, else perf-ledger/target), then:

* --trace 0: runs whole passes of the workload's grid, one process per
  pass, until --seconds have elapsed (at least PASS_SEEDS passes), and
  reports the median of each end-to-end metric over the passes, except
  the cell quantiles, which are taken over the cells of all passes. Pass k
  runs the grid on grid seed PASS_SEEDS * seed + k % PASS_SEEDS;
* --trace 1: runs one traced pass and prints the per-layer ledger of the
  workload's representative cell.

Every line before the last is human-readable context: the run manifest,
one line per pass with its output digest and simulated counts, and (traced)
the per-layer table. The last line is the JSON result:
{"correct", "attempted", "failed", "metrics"}. Any build or run failure
exits non-zero without printing a result. `--workload all` runs the three
workloads in turn and ends with one combined line whose metric names carry
the workload as a prefix. See README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "fleet_pop", "aqm_duel")
# The sweep's worker count: at most two, and never more than the host's
# CPUs.
MAX_JOBS = 2
# Seconds the calibration kernel (src/calib.rs) takes at two threads on the
# reference host (2-vCPU Intel Xeon at 2.1 GHz). Every timed metric is
# reported in reference-host seconds: measured time x REF_CALIB_S / the
# mean of the calibrations taken right before and right after the same
# pass. Shared hosts change core speed by tens of percent within minutes;
# this keeps most of that drift out of the numbers while a faster program
# still reads faster.
REF_CALIB_S = 0.100
# Grid seeds a run cycles its passes over. On fleet_pop, peak RSS and
# per-cell times differ by more than 40% between one grid seed's five cell
# seeds and another's, so each run's medians cover three grid seeds.
PASS_SEEDS = 3


def fail(msg):
    print(f"perf-ledger: {msg}", file=sys.stderr)
    sys.exit(1)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Build the release binary; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no simulator sources next to {HERE}; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Build chatter goes to stderr; stdout carries only results.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("cargo build failed")
    exe = os.path.join(os.path.abspath(target), "release", "perf-ledger")
    if not os.path.isfile(exe):
        fail(f"built binary missing at {exe}")
    return exe


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    carry no git metadata."""
    h = hashlib.sha256()
    for top in ("crates", "shims", os.path.basename(HERE)):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def grid_seed(seed, k):
    """The grid seed of pass k of a run with seed `seed`."""
    return PASS_SEEDS * seed + k % PASS_SEEDS


def manifest(args, jobs):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "grid_seeds": [grid_seed(args.seed, k) for k in range(PASS_SEEDS)],
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "build_profile": "release (thin LTO, codegen-units=1, debug symbols)",
        "features": "simulator crates at default features (sim-core: trace, telemetry)",
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "jobs": jobs,
    }


def run_binary(exe, mode, args, jobs, seed=0):
    """Run the binary in `mode` (pass, trace or calibrate) on grid seed
    `seed`; returns (report, rusage)."""
    cmd = [exe, mode, "--workload", args.workload, "--seed", str(seed),
           "--jobs", str(jobs)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        fail(f"{' '.join(cmd)} exited with status {status}")
    lines = out.decode().strip().splitlines()
    if not lines:
        fail(f"{' '.join(cmd)} printed nothing")
    return json.loads(lines[-1]), usage


def declared_units(kind):
    """Metric name -> unit for one list of BENCHMARK.json, the single
    source of the metric names (the package tests check the binary's
    per-layer names against it)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def counts_line(p):
    return (f"digest {p['digest']} events {p['events']} packets {p['packets']} "
            f"retx {p['retx']} drops {p['drops']} cells {p['attempted']} "
            f"failed {p['failed']}")


def calibration(exe, args, jobs):
    return run_binary(exe, "calibrate", args, jobs)[0]["calib_s"]


def end_to_end(exe, args, jobs):
    passes = []
    started = time.monotonic()
    # Calibrations run in their own processes, between passes: the one
    # after pass k is also the one before pass k + 1.
    before = calibration(exe, args, jobs)
    while True:
        seed = grid_seed(args.seed, len(passes))
        report, usage = run_binary(exe, "pass", args, jobs, seed)
        after = calibration(exe, args, jobs)
        cpu_s = usage.ru_utime + usage.ru_stime
        calib_s = (before + after) / 2
        before = after
        scale = REF_CALIB_S / calib_s
        passes.append({
            "wall_s": report["wall_s"] * scale,
            "cpu_s": cpu_s * scale,
            "cells_ms": [1e3 * c * scale for c in report["cell_s"]],
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "setup_s": report["setup_s"] * scale,
            "report": report,
            "seed": seed,
        })
        p = passes[-1]
        print(f"pass {len(passes)} (grid seed {seed}): measured wall {report['wall_s']:.3f} s, cpu {cpu_s:.3f} s, "
              f"setup {1e3 * report['setup_s']:.3f} ms, calibration {calib_s:.4f} s "
              f"(x{scale:.3f}); rss {p['peak_rss_mb']:.1f} MB; " + counts_line(report))
        for failure in report["failures"]:
            print(f"  FAILED {failure}")
        if len(passes) >= PASS_SEEDS and time.monotonic() - started >= args.seconds:
            break
    digests = {}
    for p in passes:
        digests.setdefault(p["seed"], set()).add(p["report"]["digest"])
    deterministic = all(len(d) == 1 for d in digests.values())
    if not deterministic:
        print(f"FAILED: passes of one grid seed disagree on the output digest: {digests}")
    # Cell quantiles pool the cells of every pass, each scaled by its own
    # pass's calibration; the other metrics are medians over the passes.
    values = {name: statistics.median(p[name] for p in passes)
              for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
    cells_ms = [c for p in passes for c in p["cells_ms"]]
    values["cell_p50_ms"] = quantile(cells_ms, 0.5)
    values["cell_p90_ms"] = quantile(cells_ms, 0.9)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_units("end_to_end").items()}
    attempted = sum(p["report"]["attempted"] for p in passes)
    failed = sum(p["report"]["failed"] for p in passes)
    metrics_line = ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    print(f"{len(passes)} passes, in reference-host seconds: {metrics_line}; "
          f"cell_fail_frac {failed / attempted:.6g}")
    return {"correct": failed == 0 and deterministic, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced(exe, args, jobs):
    report, _ = run_binary(exe, "trace", args, jobs, grid_seed(args.seed, 0))
    p = report["pass"]
    print("pass: " + counts_line(p))
    for failure in p["failures"]:
        print(f"  FAILED {failure}")
    fid = report["fidelity"]
    print(f"traced cell: {report['cell']}")
    print("  layer        ns/op        ops      self_s")
    event_ops = report["event.scheduled"] + report["event.popped"] + report["event.cancelled"]
    for layer, ns, n in (("event", "event.ns_per_op", event_ops),
                         ("cpu-model", "cpu-model.ns_per_span", report["cpu-model.spans"]),
                         ("netsim", "netsim.ns_per_send", report["netsim.sends"]),
                         ("arena", "arena.ns_per_ack", report["arena.acks"]),
                         ("congestion", "congestion.ns_per_ack", fid["cc_calls_traced"])):
        print(f"  {layer:<10} {report[ns]:8.1f} {int(n):10d} {report[layer + '.self_s']:11.6f}")
    print(f"  residual                       {report['stacksim.residual_s']:11.6f}")
    print(f"  cell wall (untraced)           {report['trace.cell_wall_s']:11.6f}"
          f"  trace overhead {report['trace.overhead_frac']:.3f}")
    print("fidelity: " + json.dumps(fid))
    ledger_ok = (fid["trace_dropped"] == 0 and fid["traced_result_identical"] is True
                 and fid["wheel_mismatches"] == 0 and fid["wheel_unknown_pops"] == 0)
    if not ledger_ok:
        print("FAILED: the traced cell dropped records, changed its result, or the wheel "
              "replay diverged")
    metrics = {name: {"value": report[name], "unit": unit}
               for name, unit in declared_units("per_layer").items()}
    failed = p["failed"] + (0 if ledger_ok else 1)
    return {"correct": failed == 0, "attempted": p["attempted"] + 1, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    jobs = max(1, min(MAX_JOBS, nproc()))
    exe = build()
    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        print("manifest: " + json.dumps(manifest(args, jobs)))
        results[workload] = (traced if args.trace else end_to_end)(exe, args, jobs)
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
        return
    for workload, result in results.items():
        print(f"{workload}: " + json.dumps(result))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
