#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and reports the spread.

    python3 perfbench/steady.py [--runs N] [--sets K] [--first-seed S]
                                [--out FILE]

Each set runs every workload N times, each run with the next seed (the
same seeds in every set).  Per workload and end-to-end metric it prints
the median, the quartiles (statistics.quantiles(values, n=4)), min and
max, and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  With --sets 2 it is an A/A check: both sets run the same
build back to back, and it prints how far each later set's median moved
from the first set's (positive = worse), and how many medians moved each
way.  A metric passes when every set's spread and the absolute drift stay
within its bound: a drift in the better direction would read as a gain
when a change is measured against its parent, so it fails the same way.
Before each run it also times a fixed pure-Python loop (host_s), and
prints each set's median of it, so that drift the host caused shows as
drift of host_s too.
The exit code is 1 when any metric fails.  --out writes the raw values and
the summary as JSON.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(bench, workload, seed):
    command = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.time()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {done.returncode})")
    return result, time.time() - start


def host_seconds():
    """Best of three timings of a fixed single-threaded loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    raw = {}
    for set_index in range(args.sets):
        for workload in workloads:
            for run in range(args.runs):
                seed = args.first_seed + run
                host_s = host_seconds()
                result, wall = run_once(bench, workload, seed)
                raw.setdefault(workload, {}).setdefault(set_index, []).append(
                    {"seed": seed, "wall_s": wall, "host_s": host_s, "metrics": {
                        m: v["value"] for m, v in result["metrics"].items()}})
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      f"{wall:.1f} s", file=sys.stderr)

    ok = True
    summary = {}
    moved = {"worse": 0, "better": 0}
    largest = (0.0, "")
    for workload in workloads:
        print(f"\n== {workload} ==")
        print(f"{'metric':<14}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'min':>14}{'max':>14}{'spread':>9}{'bound':>7}{'drift':>9}")
        for metric in metrics:
            name = metric["name"]
            bound = metric["bound"]
            medians = []
            for set_index in range(args.sets):
                values = [r["metrics"][name] for r in raw[workload][set_index]]
                stats = summarize(values)
                summary.setdefault(workload, {}).setdefault(name, []).append(stats)
                medians.append(stats["median"])
                drift = ""
                if set_index > 0:
                    worse = (medians[-1] - medians[0]) / medians[0]
                    if metric["better"] == "higher":
                        worse = -worse
                    drift = f"{worse:+.3f}"
                    if worse:
                        moved["worse" if worse > 0 else "better"] += 1
                    if abs(worse) > abs(largest[0]):
                        largest = (worse, f"{workload} {name}")
                    ok &= abs(worse) <= bound
                ok &= stats["spread"] <= bound
                print(f"{name:<14}{set_index + 1:>4}{stats['median']:>14.6g}"
                      f"{stats['q1']:>14.6g}{stats['q3']:>14.6g}"
                      f"{stats['min']:>14.6g}{stats['max']:>14.6g}"
                      f"{stats['spread']:>9.3f}"
                      f"{bound:>7}{drift:>9}")
        walls = [r["wall_s"] for s in raw[workload].values() for r in s]
        print(f"run wall time: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        hosts = [statistics.median(r["host_s"] for r in raw[workload][k])
                 for k in range(args.sets)]
        print("host_s median per set: " +
              ", ".join(f"{h:.4f}" for h in hosts) +
              (f" (drift {hosts[-1] / hosts[0] - 1:+.3f})"
               if args.sets > 1 else ""))
    if args.sets > 1:
        print(f"\nlater-set medians: {moved['worse']} worse, "
              f"{moved['better']} better than set 1; largest drift "
              f"{largest[0]:+.3f} ({largest[1]})")
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps({"raw": raw, "summary": summary}, indent=1))
    print("\nPASS" if ok else "\nFAIL: a spread or drift exceeds its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
