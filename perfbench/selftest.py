#!/usr/bin/env python3
"""Self-tests of the benchmark, on the small scenario (about a minute).

    python3 perfbench/selftest.py

1. Smoke: every workload, untraced and traced, exits 0 and prints a result
   whose metric names and units are exactly BENCHMARK.json's, with
   operations attempted, none failed, and every end-to-end value above 0.
   The traced run also writes a Chrome trace-event file.
2. Negative: a wrong pinned persistence digest, and a corrupted expected
   reply on each serving workload, must each count as a failed operation
   and make the run exit non-zero.
3. Bare directory: with only BENCHMARK.json and perfbench/ present, the
   command must exit non-zero without printing a result.
"""
import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run(workload, *extra, cwd=ROOT, trace=False):
    command = [*BENCH["command"], "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", "1" if trace else "0", "--small",
               *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def check_result(workload, code, result, trace):
    label = f"{workload} {'traced' if trace else 'untraced'}"
    expect(code == 0, f"{label}: exit code 0")
    if result is None:
        expect(False, f"{label}: prints a JSON result")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys")
    expect(result["correct"] and result["attempted"] > 0 and
           result["failed"] == 0, f"{label}: correct, attempted > 0, 0 failed")
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    expect({m["name"]: m["unit"] for m in wanted} ==
           {n: v["unit"] for n, v in result["metrics"].items()},
           f"{label}: metric names and units match BENCHMARK.json")
    if not trace:
        expect(all(v["value"] > 0 for v in result["metrics"].values()),
               f"{label}: every end-to-end value > 0")
    else:
        path = ROOT / ".bench_out" / f"trace-{workload}-7.json"
        events = json.loads(path.read_text())["traceEvents"]
        expect(len(events) > 0, f"{label}: trace file has spans")


def main():
    workloads = [w["name"] for w in BENCH["workloads"]]
    for workload in workloads:
        for trace in (False, True):
            code, result = run(workload, trace=trace)
            check_result(workload, code, result, trace)

    code, result = run("persistence", "--pin-digest", "0" * 32)
    expect(code != 0 and result is not None and result["failed"] >= 1 and
           not result["correct"], "wrong pinned digest counts as a failure")
    for workload in ("serve_lookup", "serve_compute"):
        code, result = run(workload, "--corrupt-expected")
        expect(code != 0 and result is not None and result["failed"] >= 1 and
               not result["correct"],
               f"{workload}: corrupted expected reply counts as a failure")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run(workloads[0], cwd=bare)
    expect(code != 0 and result is None,
           "bare directory: non-zero exit and no result")
    shutil.rmtree(bare)

    print(f"\n{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
