"""Steadiness of the benchmark: two whole sets of runs of the same code.

    python3 perfbench/steadiness.py

Runs ``run.py`` ten times per workload in set A (seeds 1..10), then ten
times per workload in set B (seeds 11..20), one workload after the other,
then prints for every workload and end-to-end metric both medians, their
quartiles, each set's spread (interquartile distance over median) and
whether the two sets agree: both spreads and the gap between the medians,
in either direction, within the metric's bound.  Raw results go to
``.perfbench/steadiness.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from lib import HERE, ROOT, WORK

RUNS = 10
SETS = {"A": range(1, RUNS + 1), "B": range(RUNS + 1, 2 * RUNS + 1)}
#: Report-line figures shown beside the gated metrics.
REPORTED = ("latency_p99_ms", "wall_latency_p50_ms", "wall_jobs_per_s", "timed_steal_pct")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2])["report"]
    result["wall_s"] = time.perf_counter() - t0
    return result


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    raw: dict = {}
    for label, seeds in SETS.items():
        for workload in workloads:
            for seed in seeds:
                res = run_once(workload, seed, seconds)
                raw.setdefault(workload, {}).setdefault(label, []).append(res)
                print(f"set {label} {workload} seed {seed}: {res['wall_s']:.1f}s "
                      f"failed {res['failed']}/{res['attempted']}", file=sys.stderr)
                WORK.mkdir(exist_ok=True)
                (WORK / "steadiness.json").write_text(json.dumps(raw, indent=1))

    print("| workload | metric | A median [q1, q3] | A spread | B median [q1, q3] "
          "| B spread | B vs A | bound | agree |")
    print("|---|---|---|---|---|---|---|---|---|")
    ok = True
    for workload in workloads:
        shares = {label: {r["failed"] / r["attempted"] for r in runs}
                  for label, runs in raw[workload].items()}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = []
            meds = {}
            spread_ok = True
            for label in SETS:
                values = [r["metrics"][name]["value"] for r in raw[workload][label]]
                q1, q2, q3 = quartiles(values)
                meds[label] = q2
                spread = (q3 - q1) / q2
                spread_ok &= spread <= bound
                row.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] | {100 * spread:.1f} %")
            change = (meds["B"] - meds["A"]) / meds["A"]
            agree = abs(change) <= bound and spread_ok
            ok &= agree
            print(f"| {workload} | {name} | {row[0]} | {row[1]} | {100 * change:+.1f} % "
                  f"| {100 * bound:.0f} % | {'yes' if agree else 'NO'} |")
        for key in REPORTED:
            reported = {label: [r["report"][key] for r in runs]
                        for label, runs in raw[workload].items()}
            if any(v is None for vs in reported.values() for v in vs):
                continue
            cells = []
            for label in SETS:
                q1, q2, q3 = quartiles(reported[label])
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] | {100 * (q3 - q1) / q2:.1f} %")
            print(f"| {workload} | {key} (report, not gated) | {cells[0]} | {cells[1]} | | | |")
        same = len(shares["A"] | shares["B"]) == 1
        ok &= same
        print(f"| {workload} | failed share | {sorted(shares['A'])} | | "
              f"{sorted(shares['B'])} | | | | {'yes' if same else 'NO'} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
