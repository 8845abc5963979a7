"""The benchmark's workloads: their inputs, the verify command and the
operation list. Shared by the runner (which checks outputs and never imports
stablecore) and the worker (which runs stablecore).

Why each workload exists is recorded in README.md and BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

from oracle import SplitMix64

ALL_CLAIMS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7",
              "C8", "C9", "C10", "C11", "C12", "C13", "E1")
RANDOM_CLAIMS = ("C3", "C4", "C5", "C7", "C10", "C11", "C12", "C13")

# Seed-independent inputs of the operations that fail every time today.
DEEP_PATH_N = 3001
BROOM_LEGS = 20000  # 2^20000 maximum stable sets: 6021 digits


@dataclass(frozen=True)
class Workload:
    """``mode`` picks how the round's trees are built: ``exhaustive`` and
    ``random`` are corpora built by ``iter_corpus``, which the round's verify
    command checks too; ``large`` is one ``random_tree``, and its verify
    command checks the one tree of the random corpus of the same size."""

    name: str
    mode: str
    n_min: int
    n_max: int
    trees: int  # trees per round
    claims: tuple[str, ...]  # claims of the verify command
    jobs: int  # --jobs of the verify command
    probe_trees: int  # trees per claim in the traced run's check_tree probe (0: none)
    round_s: float  # share of --seconds per round: a run holds seconds / round_s rounds
    # timed passes after verify, per round: generate, then the steps named
    repeat_passes: int = 0
    repeat_steps: tuple[str, ...] = ("parse", "analyze")

    @property
    def verify_mode(self) -> str:
        return "random" if self.mode == "large" else self.mode


def rounds_for(wl: Workload, seconds: float) -> int:
    """Rounds of a run: a fixed count for given --seconds, so that every run
    of a workload takes the same number of samples however fast it goes."""
    return max(1, round(seconds / wl.round_s))


FULL = {
    "exhaustive-2-7": Workload(
        "exhaustive-2-7", "exhaustive", 2, 7, 18248, ALL_CLAIMS, 2, 600, 7.0, 2),
    "random-200": Workload("random-200", "random", 200, 200, 200, RANDOM_CLAIMS, 1, 4, 1.25),
    "large-1e6": Workload("large-1e6", "large", 10**6, 10**6, 1, ("C7",), 1, 0, 40.0, 1, ()),
}

# Same operations on inputs small enough for the self-test.
TINY = {
    "exhaustive-2-7": Workload(
        "exhaustive-2-7", "exhaustive", 2, 5, 145, ALL_CLAIMS, 2, 20, 0.2, 1),
    "random-200": Workload("random-200", "random", 200, 200, 12, RANDOM_CLAIMS, 1, 1, 0.1),
    "large-1e6": Workload("large-1e6", "large", 2000, 2000, 1, ("C7",), 1, 0, 0.2, 1, ()),
}

SCALES = {"full": FULL, "tiny": TINY}


def program_seed(seed: int, wl: Workload) -> int:
    """Seed handed to stablecore, derived from the benchmark seed and the
    workload name; kept below 2^63 so it prints as a plain CLI integer."""
    tag = int.from_bytes(wl.name.encode()[:8].ljust(8, b"\0"), "little")
    return SplitMix64(seed ^ tag).next_u64() >> 1


def verify_argv(wl: Workload, seed: int, jobs: int, out: str) -> list[str]:
    claims = "all" if wl.claims == ALL_CLAIMS else ",".join(wl.claims)
    argv = ["verify", "--claims", claims, "--mode", wl.verify_mode,
            "--n-min", str(wl.n_min), "--n-max", str(wl.n_max)]
    if wl.verify_mode == "random":
        argv += ["--sample", str(wl.trees), "--seed", str(program_seed(seed, wl))]
    return argv + ["--jobs", str(jobs), "--out", out]


def operations(wl: Workload) -> list[str]:
    """The operations of one round, in order. Each claim verdict of the
    verify command is one operation."""
    ops = ["generate", "parse", "analyze"]
    ops += [f"verify.{c}" for c in wl.claims]
    if wl.mode == "large":
        ops += list(KNOWN_FAILURES)
    return ops


# Operations that fail every time today, with the exception each raises.
KNOWN_FAILURES = {
    "write_report.broom": ("ValueError", "Exceeds the limit (4300 digits)"),
    "check_tree.C5.deep_path": ("RecursionError", "maximum recursion depth"),
    "is_strong_unique_by_definition.deep_path": ("RecursionError", "maximum recursion depth"),
}
