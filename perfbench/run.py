#!/usr/bin/env python3
"""Builds the benchmark from the sources beside it and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds
perfbench/ (which builds the library from ../src) into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the workload's
JSON result.  Trace files go to .bench_out/.  Exits non-zero, printing no
result, when the library sources are missing or the build fails; otherwise
exits with the benchmark's own code (0 only when every check passed).
"""
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    path = pathlib.Path(configured) if configured else pathlib.Path(".bench_build")
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(binary_dir):
    if not (binary_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(binary_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(
        ["cmake", "--build", str(binary_dir), "--target", "perfbench", "-j4"],
        check=True, stdout=sys.stderr, timeout=840)


def main():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("perfbench: the library sources (CMakeLists.txt and src/) are "
              "not beside the benchmark; run from a full checkout",
              file=sys.stderr)
        return 2
    binary_dir = build_dir()
    try:
        build(binary_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3
    command = [str(binary_dir / "perfbench"), *sys.argv[1:],
               "--out-dir", str(ROOT / ".bench_out")]
    try:
        return subprocess.run(command, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the run exceeded 175 s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
