"""stablecore benchmark: end-to-end and per-layer figures for one workload.

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the repository root. The runner never imports stablecore: it
starts ``worker.py`` processes, which do (one per round), times their
set-up, checks their outputs against the oracle, and prints one JSON object
as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time

import checks
from workloads import SCALES, rounds_for

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PACKAGE = os.path.join(ROOT, "src", "stablecore")
WORKER = os.path.join(BENCH, "worker.py")

# Workers that only set up; with the round workers they give the set-up samples.
SETUP_ONLY_RUNS = 8
TIMEOUT_MARGIN_S = 150


class BenchError(Exception):
    pass


def start_worker(args: list[str], deadline: float):
    """Start a worker; return (process, seconds until it printed ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready: {line.strip() or 'timeout'}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup


def finish_worker(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def source_lines() -> int:
    """Non-blank lines of the package's Python files."""
    total = 0
    for dirpath, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def run(workload: str, seed: int, seconds: float, trace: int, scale: str = "full") -> dict:
    wl = SCALES[scale][workload]
    deadline = time.monotonic() + seconds + TIMEOUT_MARGIN_S
    base = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    setups = []
    for _ in range(SETUP_ONLY_RUNS):
        proc, setup = start_worker([*base, "--setup-only"], deadline)
        finish_worker(proc, deadline)
        setups.append(setup)
    # one worker per round; a traced worker runs its own second, traced round
    results = []
    for _ in range(1 if trace else rounds_for(wl, seconds)):
        proc, setup = start_worker([*base, "--trace", str(trace)], deadline)
        setups.append(setup)
        results.append(json.loads(finish_worker(proc, deadline).splitlines()[-1]))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    rounds = [r for res in results for r in res["rounds"]]
    outcomes = [o for res in results for o in res["outcomes"]]

    problems = checks.check(wl, seed, results[0]["observation"], rounds)
    for line in problems + checks.failure_notes(outcomes):
        print(f"{workload}: {line}", file=sys.stderr)
    if trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in results[0]["layers"].items()}
        metrics["src.lines"] = {"value": source_lines(), "unit": "lines"}
    else:
        def fastest(key):
            # each slice at its fastest pass of any round, summed over the slices
            return sum(map(min, zip(*(p for r in rounds for p in r[key]))))

        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "trees_per_s": {"value": wl.trees / fastest("verify_s"), "unit": "trees/s"},
            "generate_s": {"value": fastest("generate_s"), "unit": "s"},
            "parse_s": {"value": fastest("parse_s"), "unit": "s"},
            "analyze_s": {"value": fastest("analyze_s"), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(1 for _, ok, _ in outcomes if not ok),
        "metrics": metrics,
    }


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SCALES["full"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no stablecore package under {os.path.relpath(PACKAGE)}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
