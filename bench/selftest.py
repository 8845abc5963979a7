"""Quick self-test of the benchmark; asserts no timings.

    python3 bench/selftest.py

It checks the oracle on hand cases, runs every workload on tiny inputs with
every output check (untraced and traced), checks that the printed metric
names and units are the ones BENCHMARK.json declares and that the span dump
reads back, that the output checks catch a tampered output, and that the
runner refuses to run without the package.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import checks
import oracle
import run
import tracer
from workloads import KNOWN_FAILURES, TINY, operations

SEED = 20240517


def check_oracle() -> None:
    assert oracle.SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
    assert oracle.prufer_edges([3, 3, 3], 5) == [(0, 3), (1, 3), (2, 3), (3, 4)]
    alpha, core, count = oracle.brute_force(5, oracle.path_edges(5))
    assert (alpha, core, count) == (3, oracle.bitset([0, 2, 4], 5), 1)
    for k in (1, 2, 3):
        alpha, core, _ = oracle.brute_force(2 * k + 1, oracle.spider_edges(k))
        assert alpha == k + 1
        assert core == oracle.bitset([0, *range(k + 1, 2 * k + 1)], 2 * k + 1), k
    alpha, core, count = oracle.brute_force(7, oracle.broom_of_edges(2))
    assert (alpha, core, count) == (4, oracle.bitset([1, 2], 7), 4)
    facts = oracle.expectations(oracle.exhaustive_codes(2, 7))["facts"]
    assert len(facts) == 18248
    assert sum(f.perfect_matching for f in facts) == 733
    assert all(f.alpha == f.brute[0] for f in facts), "leaf greed disagrees with brute force"
    assert all(f.perfect_matching == (f.brute[1] == 0) for f in facts)


def declared_metrics() -> tuple[dict, dict]:
    """Unit of each declared metric: (end-to-end, per-layer)."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_workloads() -> None:
    end_to_end, per_layer = declared_metrics()
    for name, wl in TINY.items():
        ops = operations(wl)
        for trace in (0, 1):
            result = run.run(name, SEED, 0, trace, scale="tiny")
            assert result["correct"], (name, trace)
            rounds = result["attempted"] // len(ops)
            assert result["attempted"] == rounds * len(ops) and rounds >= 1 + trace
            assert result["failed"] == rounds * sum(op in KNOWN_FAILURES for op in ops)
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            assert units == (per_layer if trace else end_to_end), name
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            if trace:
                names, spans = tracer.load(os.path.join(run.BENCH, "out", f"trace-{name}.spans"))
                assert spans and all(-1 <= parent < i for i, (_, parent, _, _) in enumerate(spans))
                assert all(start <= end for _, _, start, end in spans)
                assert {"harness.iter_corpus", "cli.main"} & set(names)


def check_tampering() -> None:
    """The checks must notice a wrong alpha, a wrong verdict count, rounds
    that disagree, and another seed's corpus."""
    wl = TINY["random-200"]
    deadline = run.time.monotonic() + 120
    proc, _ = run.start_worker(["--workload", wl.name, "--seed", str(SEED), "--scale", "tiny",
                                "--trace", "0"], deadline)
    result = json.loads(run.finish_worker(proc, deadline).splitlines()[-1])
    obs, rounds = result["observation"], result["rounds"]
    assert checks.check(wl, SEED, obs, rounds) == []
    bad = copy.deepcopy(obs)
    bad["analyses"][0]["alpha"] += 1
    assert any("alpha" in p for p in checks.check(wl, SEED, bad, rounds))
    bad = copy.deepcopy(obs)
    bad["verdicts"][-1]["refuted"] += 1
    assert checks.check(wl, SEED, bad, rounds)
    assert checks.check(wl, SEED, obs, rounds + [{"digest": "other"}])
    assert checks.check(wl, SEED + 1, obs, rounds), "another seed's corpus must not pass"


def check_refuses_without_package() -> None:
    bare = os.path.join(run.BENCH, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "random-200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    for step in (check_oracle, check_workloads, check_tampering, check_refuses_without_package):
        step()
        print(f"ok  {step.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
