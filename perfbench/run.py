#!/usr/bin/env python3
"""End-to-end benchmark of the cloudrtt runs users make (see README.md).

    python3 perfbench/run.py --workload study_default --seed 42 \
        --seconds 42 --trace 0

Builds the workload program from this checkout's sources, then runs the
workload back to back for --seconds, each run a fresh process with its own
artefact directory, which is removed afterwards. Every run's outputs are
checked; a run that fails its checks counts as failed and gives no time. The
last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
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
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("study_default", "run_paper", "stream_paper_t1")
# Extra set-up-only processes per untraced run, so setup_s is a median of
# several samples even when only two full runs fit in --seconds.
SETUP_SAMPLES = 8
# Every run must end well inside the 180 s a benchmark invocation may take.
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(targets=("perfbench_workload",)):
    """Configure (once) and build the given targets; build logs go to stderr."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr)
    return out


def store_digest(store):
    """SHA-256 over the store's file names and bytes; None without a store."""
    if not store.is_dir():
        return None
    digest = hashlib.sha256()
    for path in sorted(store.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(args, timeout):
    """One fresh process of the workload program; returns (report, error)."""
    artefacts = build_dir() / "runs" / f"{os.getpid()}-{time.monotonic_ns()}"
    shutil.rmtree(artefacts, ignore_errors=True)
    try:
        proc = subprocess.run(
            [str(build_dir() / "perfbench_workload"), "--out", str(artefacts),
             *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=timeout)
        digest = store_digest(artefacts / "store")
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(artefacts, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"exit {proc.returncode}, no report: {proc.stderr.strip()}"
    if proc.returncode != 0 or report.get("errors"):
        return report, f"exit {proc.returncode}: {report.get('errors')}"
    report["store_digest"] = digest
    return report, None


def span(report, name):
    return sum(s["ms"] for s in report["spans"] if s["name"] == name)


def failed_operations(report):
    """Undelivered tasks, store append/commit failures, a degraded store."""
    c = report["counters"]
    return (c["campaign.tasks_total"] - c["campaign.tasks_delivered_total"] +
            c["store.append_failures_total"] + c["store.commit_failures_total"] +
            (1 if c["store.degraded"] else 0))


class Outputs:
    """Checks that a run's dataset is the one this (workload, seed) makes.

    The hash is compared with expected_hashes.json (pinned per workload for
    the default seed) and with every hash this checkout has seen for the
    same (scale, seed), so repeats, and the two paper-scale workloads
    (4 threads vs 1), must agree across invocations too. A streamed run
    whose command prints no hash must leave a store byte-identical to the
    run's first store, whose hash was checked.
    """

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.pinned = json.loads((BENCH_DIR / "expected_hashes.json").read_text())
        self.path = build_dir() / "hashes.json"
        self.seen = json.loads(self.path.read_text()) if self.path.exists() else {}
        self.checked = False
        self.digest = None

    def check(self, report):
        got, digest = report["hash"], report["store_digest"]
        if self.checked and digest != self.digest:
            return "store differs from the run's first, hash-checked store"
        if got is None:
            return None if self.checked else "no dataset hash to check"
        pinned = self.pinned.get(self.workload, {}).get(str(self.seed))
        if pinned is not None and pinned != got:
            return f"hash {got} != pinned {pinned}"
        key = f"{report['scale']}/{self.seed}"
        seen = self.seen.setdefault(key, got)
        if seen != got:
            return f"hash {got} != {seen} seen earlier for {key}"
        self.path.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
        self.checked, self.digest = True, digest
        return None


def end_to_end(reps, setup_ms):
    wall = [r["wall_ms"] / 1e3 for r in reps]
    return {
        "wall_s": (statistics.median(wall), "s"),
        "setup_s": (statistics.median(setup_ms) / 1e3, "s"),
        "tasks_per_s": (statistics.median(
            r["counters"]["campaign.tasks_delivered_total"] / w
            for r, w in zip(reps, wall)), "1/s"),
        "campaign_peak_rss_mib": (statistics.median(
            r["campaign_peak_rss_bytes"] for r in reps) / 2**20, "MiB"),
    }


def layers(report):
    """Per-layer metrics of one traced run."""
    c = report["counters"]
    p = report["program_spans_ms"]
    tasks = c["campaign.tasks_delivered_total"]
    busy = c["measure.worker_busy_ms_total"]
    hits = c["routing.path_cache.hits"]
    misses = c["routing.path_cache.misses"]
    sc_days = report["days_ms"]["speedchecker"]
    timed = sum(s["ms"] for s in report["spans"])
    return {
        "topology.world_build_ms": (p["topology.world.build"], "ms"),
        "probes.fleet_build_ms": (p["probes.fleet.build.speedchecker"] +
                                  p["probes.fleet.build.atlas"], "ms"),
        "measure.campaign_ms": (span(report, "campaign"), "ms"),
        "measure.schedule_ms": (p["schedule"], "ms"),
        "measure.execute_ms": (p["execute"], "ms"),
        "measure.merge_ms": (p["merge"], "ms"),
        "measure.day0_ms": (sc_days[0], "ms"),
        "measure.day_warm_p50_ms": (statistics.median(sc_days[1:]), "ms"),
        "measure.worker_busy_ms": (busy, "ms"),
        "measure.busy_us_per_task": (busy * 1e3 / tasks, "us"),
        "measure.worker_utilisation": (
            busy / (report["threads"] * p["execute"]), "ratio"),
        "measure.tasks": (tasks, "count"),
        "routing.path_cache_hits": (hits, "count"),
        "routing.path_cache_misses": (misses, "count"),
        "routing.path_cache_hit_ratio": (hits / (hits + misses), "ratio"),
        "store.drain_ms": (p["store.drain"], "ms"),
        "store.open_ms": (span(report, "store_open"), "ms"),
        "store.spill_bytes": (c["store.spill_bytes_total"], "bytes"),
        "store.bytes_per_task": (c["store.spill_bytes_total"] / tasks, "bytes"),
        "store.fsyncs": (c["store.fsyncs_total"], "count"),
        "core.hash_ms": (span(report, "hash"), "ms"),
        "core.export_csv_ms": (span(report, "export"), "ms"),
        "core.csv_rows": (c["csv_rows"], "count"),
        "analysis.report_ms": (span(report, "report"), "ms"),
        "bench.unattributed_ms": (report["wall_ms"] - timed, "ms"),
        "process.peak_rss_mib": (report["peak_rss_bytes"] / 2**20, "MiB"),
        "fail_ratio": (failed_operations(report) / c["campaign.tasks_total"],
                       "ratio"),
    }


def per_layer(traced, untraced):
    samples = [layers(r) for r in traced]
    metrics = {name: (statistics.median(s[name][0] for s in samples), unit)
               for name, (_, unit) in samples[0].items()}
    overhead = (statistics.median(r["wall_ms"] for r in traced) /
                statistics.median(r["wall_ms"] for r in untraced) - 1) * 100
    metrics["bench.trace_overhead_pct"] = (overhead, "%")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    base = ["--workload", opts.workload, "--seed", str(opts.seed)]
    outputs = Outputs(opts.workload, opts.seed)
    start = time.monotonic()
    errors = []
    setup_ms = []
    if not opts.trace:
        for _ in range(SETUP_SAMPLES):
            report, error = run_workload(base + ["--setup-only"], RUN_TIMEOUT_S)
            if error:
                errors.append(f"setup-only: {error}")
            else:
                setup_ms.append(span(report, "setup"))

    # Closed loop, one run at a time. With --trace 1, untraced and traced
    # runs alternate so the tracing overhead is measured under the same load.
    reps = {False: [], True: []}
    attempted = failed = 0
    longest = 0.0
    while True:
        traced = bool(opts.trace) and len(reps[True]) < len(reps[False])
        flags = ["--trace"] if traced else []
        if not outputs.checked:
            flags.append("--check-hash")
        began = time.monotonic()
        report, error = run_workload(base + flags,
                                     RUN_TIMEOUT_S - (began - start))
        if report is not None:
            # The next run's cost, without this run's one-off hash check.
            longest = max(longest, time.monotonic() - began -
                          report.get("check_hash_ms", 0) / 1e3)
        if error is None:
            error = outputs.check(report)
        if report is not None and "counters" in report:
            scheduled = report["counters"]["campaign.tasks_total"]
            attempted += scheduled
            failed += scheduled if error else failed_operations(report)
        if error is not None:
            errors.append(error)
            break
        reps[traced].append(report)
        setup_ms.append(span(report, "setup"))
        complete = not opts.trace or reps[True]
        if time.monotonic() - start + longest > \
                (opts.seconds if complete else RUN_TIMEOUT_S):
            break

    for error in errors:
        print(f"perfbench: {opts.workload} seed {opts.seed}: {error}",
              file=sys.stderr)
    correct = not errors and bool(reps[False]) and \
        (not opts.trace or bool(reps[True]))
    metrics = {}
    if correct:
        metrics = per_layer(reps[True], reps[False]) if opts.trace else \
            end_to_end(reps[False], setup_ms)
    print(f"perfbench: {opts.workload} seed {opts.seed}: "
          f"{len(reps[False])} untraced + {len(reps[True])} traced runs, "
          f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if correct else max(failed, 1),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
