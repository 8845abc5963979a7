"""Worker process of the benchmark: the only process that imports stablecore.

It imports the package, builds the workload's fixed inputs, prints ``ready``
(the runner times set-up up to that line), runs one round and prints one
JSON line: the round's timings, its outputs reduced to plain data for the
runner's checks, their digest, and the outcome of every operation. Each
round runs in a fresh worker, so the peak memory of a process does not
depend on how many rounds a run holds. With ``--trace 1`` the worker runs a
second, traced round, then the per-claim probe and the pool measurement,
and adds per-layer figures.

    python3 bench/worker.py --workload NAME --seed S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import gc
import hashlib
import io
import json
import os
import sys
import time
from itertools import islice

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

from oracle import broom_of_edges, degree_record, path_edges  # noqa: E402  (no expected values)
from tracer import Tracer, calls_by_layer, self_time_by_layer  # noqa: E402
from workloads import (  # noqa: E402
    ALL_CLAIMS, BROOM_LEGS, DEEP_PATH_N, KNOWN_FAILURES, SCALES, operations, program_seed,
    verify_argv,
)

# Generate, parse and analyze are timed in this many slices of the round's trees.
SLICES = 16

# Functions whose per-call time the traced run reports, by layer.
TIMED_FUNCTIONS = {
    "graph_model": ("tree_from_edges", "bipartition", "bfs_depths", "pendant_vertices"),
    "independence": (
        "alpha", "core", "mu", "count_maximum_stable_sets", "is_strong_unique_independent",
        "stable_masks", "enumerate_maximal_stable_sets", "extend_pendant_set",
        "enumerate_maximum_stable_sets",
    ),
    "harness": ("corpus_tree", "serialize_tree"),
    "cli": ("write_report",),
}


def bits(vertices, n: int) -> str:
    """Vertex set as a base64 bitset (bit v of byte v // 8)."""
    buf = bytearray((n + 7) // 8)
    for v in vertices:
        buf[v >> 3] |= 1 << (v & 7)
    return base64.b64encode(bytes(buf)).decode()


class Context:
    """The workload's fixed inputs: everything set-up builds."""

    def __init__(self, wl, seed: int):
        from stablecore import cli, graph_model, harness, independence

        self.cli, self.graph_model, self.harness, self.independence = (
            cli, graph_model, harness, independence)
        self.wl = wl
        self.seed = seed
        self.report_path = os.path.join(OUT, f"verify-{wl.name}-{os.getpid()}.json")
        self.verify_spec = harness.CorpusSpec(
            mode=wl.verify_mode, n_min=wl.n_min, n_max=wl.n_max,
            sample_size=wl.trees if wl.verify_mode == "random" else None,
            seed=program_seed(seed, wl) if wl.verify_mode == "random" else None,
        )
        self.spec = None if wl.mode == "large" else self.verify_spec
        if wl.mode == "large":
            self.deep_path = graph_model.tree_from_edges(DEEP_PATH_N, path_edges(DEEP_PATH_N))
            self.broom = graph_model.tree_from_edges(
                2 * BROOM_LEGS + 3, broom_of_edges(BROOM_LEGS))

    def generate(self):
        """The round's trees, built lazily so that slices can be timed."""
        if self.spec is None:
            yield self.graph_model.random_tree(self.wl.n_min, program_seed(self.seed, self.wl))
        else:
            yield from self.harness.iter_corpus(self.spec)


def timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def sliced(items, count: int):
    """Drain ``items`` (``count`` expected) in timed slices of count / SLICES;
    return the values and the seconds each slice took."""
    gc.collect()
    size = -(-count // SLICES)
    values, seconds = [], []
    for _ in range(SLICES):
        t0 = time.perf_counter()
        values.extend(islice(items, size))
        seconds.append(time.perf_counter() - t0)
    values.extend(items)  # more than expected: the tree count check reports it
    return values, seconds


def analysis_record(rep) -> dict:
    n = rep.n
    count = rep.num_maximum_stable_sets
    return {
        "n": n, "alpha": rep.alpha, "mu": rep.mu, "xi": rep.xi,
        "pm": rep.has_perfect_matching, "su": rep.strong_unique,
        "count": count if count.bit_length() <= 256 else None,
        "count_bits": count.bit_length(),
        "core": bits(rep.core, n), "pendants": bits(rep.pendants, n),
        "a": bits(rep.bipartition.a, n), "b": bits(rep.bipartition.b, n),
    }


def verdict_record(v: dict) -> dict:
    return {
        "claim": v["claim"], "checked": v["checked"], "held": v["held"],
        "refuted": v["refuted"], "skipped": v["skipped"],
        "subclaims": [w["witness"].get("subclaim") for w in v["witnesses"]
                      if w["status"] == "refuted" and w["witness"]],
    }


def known_failure(ctx, op: str):
    """Run one operation that fails today; return (value, error) with the
    value reduced to plain data when it succeeds."""
    try:
        if op == "write_report.broom":
            report = json.loads(ctx.cli.write_report(ctx.independence.analyze(ctx.broom)))
            return {"alpha": report["alpha"], "xi": report["xi"]}, None
        if op == "check_tree.C5.deep_path":
            return ctx.harness.check_tree("C5", ctx.deep_path).status, None
        if op == "is_strong_unique_by_definition.deep_path":
            return ctx.independence.is_strong_unique_by_definition(ctx.deep_path), None
    except Exception as exc:  # the outcome is the measurement; the runner judges it
        return None, [type(exc).__name__, str(exc)[:200]]
    raise ValueError(f"unknown operation {op}")


def timed_pass(ctx, steps: tuple[str, ...]):
    """Generate the round's trees, then parse and analyze them if ``steps``
    names those steps, each step in timed slices. Returns the slice seconds
    by metric and the outputs reduced to plain data."""
    cli = ctx.cli
    count = ctx.wl.trees
    seconds = {}
    trees, seconds["generate_s"] = sliced(ctx.generate(), count)
    texts = [cli.format_tree_file(t) for t in trees]
    text_h = hashlib.sha256()
    degree_h = hashlib.sha256()
    for t, text in zip(trees, texts):
        text_h.update(text.encode())
        degree_h.update(degree_record(len(a) for a in t.adjacency))
    out = {"text_digest": text_h.hexdigest(), "degree_digest": degree_h.hexdigest()}
    if "parse" in steps:
        parsed, seconds["parse_s"] = sliced(map(cli.parse_tree_text, texts), count)
        out["parsed_equal"] = parsed == trees
        del parsed
    del texts
    if "analyze" in steps:
        reports, seconds["analyze_s"] = sliced(map(ctx.independence.analyze, trees), count)
        del trees
        out["analyses"] = [analysis_record(r) for r in reports]
    return seconds, out


def run_round(ctx, jobs: int, tracer: Tracer | None = None):
    """One round of the workload's operations: a timed pass of generate,
    parse and analyze, the verify command, then ``wl.repeat_passes`` more
    passes of generate and ``wl.repeat_steps`` (none when traced), which
    only add timing samples and must give the same outputs as the first.

    Returns (timings, observation, outcomes). With a tracer, every call up to
    the end of the verify command is traced; the known failures never are.
    """
    cli, wl = ctx.cli, ctx.wl
    if tracer:
        tracer.install()
    seconds, first = timed_pass(ctx, ("parse", "analyze"))
    passes = [seconds]
    argv = verify_argv(wl, ctx.seed, jobs, ctx.report_path)

    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    rc, t_verify = timed(verify)
    if tracer:
        tracer.uninstall()
    repeats_equal = True
    for _ in range(0 if tracer else wl.repeat_passes):
        seconds, out = timed_pass(ctx, wl.repeat_steps)
        passes.append(seconds)
        repeats_equal &= all(first[k] == v for k, v in out.items())
        del out  # else it stays alive through the next pass
    with open(ctx.report_path, encoding="utf-8") as fh:
        verdicts = [verdict_record(v) for v in json.load(fh)]
    os.remove(ctx.report_path)
    outcomes = [[op, True, None] for op in operations(wl) if op not in KNOWN_FAILURES]
    failures = {}
    for op in KNOWN_FAILURES if wl.mode == "large" else ():
        value, error = known_failure(ctx, op)
        failures[op] = value
        outcomes.append([op, error is None, error])
    observation = {
        "tree_count": len(first["analyses"]),
        **first,
        "repeats_equal": repeats_equal,
        "verify_exit": rc,
        "verdicts": verdicts,
        "known_failures": failures,
    }
    # each metric: one list of slice seconds per pass that ran its step
    timings = {key: [p[key] for p in passes if key in p]
               for key in ("generate_s", "parse_s", "analyze_s")}
    timings["verify_s"] = [[t_verify]]
    return timings, observation, outcomes


def digest(observation: dict) -> str:
    return hashlib.sha256(json.dumps(observation, sort_keys=True).encode()).hexdigest()


def probe_claims(ctx, tracer: Tracer) -> None:
    """``check_tree`` with fresh facts, every claim on a sample of the corpus."""
    wl = ctx.wl
    if not wl.probe_trees:
        return
    harness = ctx.harness
    total = harness.corpus_size(ctx.spec)
    stride = max(1, total // wl.probe_trees)
    trees = [harness.corpus_tree(ctx.spec, i) for i in range(0, total, stride)][:wl.probe_trees]
    tracer.install()
    try:
        for claim in harness.CLAIM_IDS:
            for t in trees:
                try:
                    harness.check_tree(claim, t)
                except harness.ScaleExceeded:
                    pass  # a scan claim above the ceiling: the skip is what is timed
    finally:
        tracer.uninstall()


def pool_efficiency(ctx) -> float:
    """run_suite time at jobs 1 over twice its time at jobs 2, same corpus;
    0 for a corpus of one tree, which no pool can split."""
    if ctx.wl.trees == 1:
        return 0.0
    claims = list(ctx.wl.claims)
    _, t1 = timed(lambda: ctx.harness.run_suite(claims, ctx.verify_spec, jobs=1))
    _, t2 = timed(lambda: ctx.harness.run_suite(claims, ctx.verify_spec, jobs=2))
    return t1 / (2 * t2)


def layer_metrics(round_snap: dict, probe_snap: dict, overhead: float, pool: float) -> dict:
    out = {}
    for layer, names in TIMED_FUNCTIONS.items():
        for fname in names:
            calls, incl, _ = round_snap.get(f"{layer}.{fname}", (0, 0, 0))
            out[f"{layer}.{fname}_us"] = incl / calls / 1e3 if calls else 0.0
    for claim in ALL_CLAIMS:
        calls, incl, _ = probe_snap.get(f"harness.check.{claim}", (0, 0, 0))
        out[f"harness.check.{claim}_us"] = incl / calls / 1e3 if calls else 0.0
    out["harness.pool_efficiency"] = pool
    for layer, seconds in self_time_by_layer(round_snap).items():
        out[f"{layer}.self_s"] = seconds
    for layer, calls in calls_by_layer(round_snap).items():
        out[f"{layer}.calls"] = calls
    out["trace.overhead"] = overhead
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="full")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    wl = SCALES[args.scale][args.workload]
    ctx = Context(wl, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    os.makedirs(OUT, exist_ok=True)
    timings, observation, outcomes = run_round(ctx, wl.jobs)
    rounds = [{**timings, "digest": digest(observation), "traced": False}]
    layers = None
    if args.trace:
        tracer = Tracer()
        # traced at jobs 1: spans recorded in pool workers would be lost
        timings_t, obs, ops = run_round(ctx, 1, tracer)
        rounds.append({**timings_t, "digest": digest(obs), "traced": True})
        outcomes += ops
        round_snap = tracer.snapshot()
        probe_claims(ctx, tracer)
        probe_snap = {k: tuple(a - b for a, b in zip(v, round_snap.get(k, (0, 0, 0))))
                      for k, v in tracer.snapshot().items()}
        gpa = ("generate_s", "parse_s", "analyze_s")
        # first passes only: the traced round makes no repeat passes
        overhead = (sum(sum(timings_t[k][0]) for k in gpa)
                    / sum(sum(timings[k][0]) for k in gpa) - 1)
        layers = layer_metrics(round_snap, probe_snap, overhead, pool_efficiency(ctx))
        tracer.dump(os.path.join(OUT, f"trace-{wl.name}.spans"))
    print(json.dumps({"rounds": rounds, "observation": observation,
                      "outcomes": outcomes, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
