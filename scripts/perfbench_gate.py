#!/usr/bin/env python3
"""Gate one perfbench report: correct, and a memory metric under a ceiling.

    python3 perfbench/run.py --workload run_paper --seconds 1 > report.json
    python3 scripts/perfbench_gate.py report.json campaign_peak_rss_mib 512

Reads the last line of the report (the JSON object perfbench/run.py prints)
and exits nonzero unless it says "correct": true, which run.py gives only
when every run's dataset hash matched expected_hashes.json and the hashes
seen earlier in the same build directory, and unless METRIC is present and
at most CEILING.
"""

import json
import sys


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    path, metric, ceiling = sys.argv[1], sys.argv[2], float(sys.argv[3])
    with open(path) as report_file:
        lines = report_file.read().strip().splitlines()
    if not lines:
        sys.exit(f"{path}: empty report")
    report = json.loads(lines[-1])
    if report.get("correct") is not True:
        sys.exit(f"{path}: \"correct\" is {report.get('correct')}, not true")
    value = report["metrics"].get(metric, {}).get("value")
    if value is None:
        sys.exit(f"{path}: no {metric} metric")
    print(f"{path}: correct, {metric} {value:.0f} (ceiling {ceiling:.0f})")
    if value > ceiling:
        sys.exit(f"{path}: {metric} {value:.0f} exceeds {ceiling:.0f}")


if __name__ == "__main__":
    main()
