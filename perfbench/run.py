#!/usr/bin/env python3
"""Runs one benchmark workload of the dohperf simulator and prints its metrics.

    python3 perfbench/run.py --workload cold_stream --seed 42 --seconds 35 --trace 0

Builds perfbench/ (the simulator libraries plus the benchmark driver) into
.bench_build/perfbench, then repeats the workload in fresh driver processes
until --seconds have passed, so that every repetition has its own peak RSS.
Each repetition's simulated statistics are checked against
perfbench/reference.json (pinned for seed 42) or, for other seeds, against
the first repetition; a mismatch or a failed repetition fails the run.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported over
the repetitions: set-up (each repetition's one world build) and peak RSS
as medians, run time as the mean and throughput as all sessions over all
campaign time. With --trace 1 untraced and traced repetitions
alternate; the traced ones give the per-layer metrics (medians) and write
trace.json and layers.tsv, and the traced minus the untraced run_s is the
tracing overhead. Every metric is printed as "name value unit"; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Results with the run's fingerprint are kept
in .bench_build/perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "cmake" / "perfbench_driver"
REFERENCE = BENCH_DIR / "reference.json"
REP_TIMEOUT_S = 120
MAX_REPS = 64

# Smoke variants shrink each workload for fast iteration; they keep its
# shape (sink, shards, declared outputs, enabled features).
WORKLOADS = {
    "cold_stream": ["world.client_scale=0.05",
                    "campaign.atlas_measurements_per_country=10"],
    "warm_faults": ["world.client_scale=0.02",
                    "campaign.atlas_measurements_per_country=2"],
    "retained_outputs": ["world.client_scale=0.05",
                         "campaign.atlas_measurements_per_country=10"],
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark package; False on failure."""
    cmake = BUILD_DIR / "cmake"
    steps = []
    if not (cmake / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake), "-j", "4",
                  "--target", "perfbench_driver"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return DRIVER.exists()


def source_digest():
    """SHA-256 over the simulator and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_rep(args, index, traced):
    """One repetition in a fresh driver process; returns its JSON or None."""
    name = args.workload + (".smoke" if args.smoke else "")
    out = BUILD_DIR / "runs" / f"{name}-s{args.seed}" / f"rep{index}"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [str(DRIVER), "--spec", str(BENCH_DIR / "specs" / f"{args.workload}.spec"),
           "--seed", str(args.seed), "--out", str(out)]
    for setting in WORKLOADS[args.workload] if args.smoke else []:
        cmd += ["--set", setting]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"rep {index}: timed out after {REP_TIMEOUT_S} s")
        return None
    result = None
    if proc.returncode == 0 and proc.stdout.strip():
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except json.JSONDecodeError:
            result = None
    if result is None:
        log(f"rep {index}: driver exited {proc.returncode}\n{proc.stderr}")
    elif traced:
        for artifact in ("trace.json", "layers.tsv"):
            shutil.copyfile(out / artifact, out.parent / artifact)
    shutil.rmtree(out, ignore_errors=True)
    return result


def load_reference(key, seed):
    try:
        return json.loads(REFERENCE.read_text()).get(key, {}).get(str(seed))
    except (OSError, json.JSONDecodeError) as e:
        log(f"reference {REFERENCE}: {e}")
        return {"unreadable": str(e)}


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the small-scale variant of the workload")
    parser.add_argument("--pin", action="store_true",
                        help="store this run's statistics as the reference")
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not build():
        log("perfbench: build failed")
        return 2

    key = args.workload + (".smoke" if args.smoke else "")
    reference = None if args.pin else load_reference(key, args.seed)

    reps = []  # (traced, result or None)
    start = time.monotonic()
    while len(reps) < MAX_REPS:
        batch = (False, True) if args.trace else (False,)
        for traced in batch:
            reps.append((traced, run_rep(args, len(reps), traced)))
        elapsed = time.monotonic() - start
        per_batch = elapsed / (len(reps) / len(batch))
        if elapsed + per_batch > args.seconds:
            break

    # A repetition is correct when it ran, its simulated statistics equal
    # the reference (or, without one, the first repetition's) and, when
    # traced, its spans nest.
    expected = reference
    if expected is None:
        expected = next((r["check"] for _, r in reps if r is not None), None)

    def correct(r):
        if r is None or r["check"] != expected:
            return False
        if r.get("trace_nesting", "ok") != "ok":
            log(f"perfbench: trace spans do not nest: {r['trace_nesting']}")
            return False
        return True

    ok = [(t, r) for t, r in reps if correct(r)]
    failed = len(reps) - len(ok)
    untraced = [r for t, r in ok if not t]
    traced = [r for t, r in ok if t]

    metrics = {}
    if untraced:
        # Throughput and run time are taken over all the run's work (the
        # sum of its repetitions), which spreads less from run to run on a
        # shared host than the median of 3-5 repetitions; set-up and memory
        # are medians.
        metrics["setup_s"] = median([r["setup_s"] for r in untraced])
        metrics["sessions_per_s"] = (sum(r["sessions"] for r in untraced) /
                                     sum(r["campaign_s"] for r in untraced))
        metrics["run_s"] = statistics.fmean(r["run_s"] for r in untraced)
        metrics["peak_rss_mib"] = median([r["peak_rss_mib"] for r in untraced])
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = median([r["layers"][name] for r in traced])
        metrics["host.calib_ns"] = median([r["calib_ns"] for r in traced])
        metrics["bench.trace_overhead_s"] = (
            statistics.fmean(r["run_s"] for r in traced) - metrics.get("run_s", 0.0))
    metrics["mismatch_ratio"] = failed / len(reps)

    sample = next((r for _, r in reps if r is not None), {})
    fingerprint = {
        "commit": commit(),
        "source_digest": source_digest(),
        "compiler": sample.get("compiler", "unknown"),
        "build_type": sample.get("build_type", "unknown"),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "shards": sample.get("shards", 0),
        "calib_ns": median([r["calib_ns"] for _, r in ok]),
    }
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(f"workload {key} seed {args.seed} repetitions {len(reps)} "
          f"(traced {sum(1 for t, _ in reps if t)}) failed {failed}")

    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    listed = [m["name"] for m in contract["end_to_end"]] if not args.trace \
        else [m["name"] for m in contract["per_layer"]]
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name, '')}")

    if args.pin:
        if failed or expected is None:
            log("perfbench: not pinning a run with failed repetitions")
            return 1
        table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        table.setdefault(key, {})[str(args.seed)] = expected
        REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        log(f"perfbench: pinned {key} seed {args.seed} in {REFERENCE}")

    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{key}-s{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"fingerprint": fingerprint, "metrics": metrics, "failed": failed,
         "repetitions": [{"traced": t, "result": r} for t, r in reps]}, indent=1))

    missing = [n for n in listed if n not in metrics]
    if missing and not failed:
        log(f"perfbench: metrics not produced: {missing}")
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in listed if n in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
