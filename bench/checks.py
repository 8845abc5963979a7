"""Checks of stablecore's outputs against the oracle and against properties
the method must have. Runs in the runner process, which never imports
stablecore; the worker hands over plain data only.

Each check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import base64

import oracle
from workloads import BROOM_LEGS, KNOWN_FAILURES, Workload, program_seed

MAX_REPORTED = 20

# Claims that no tree of the workload's corpus may refute.
NEVER_REFUTED = {
    "exhaustive": ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "E1"),
    "random": ("C3", "C4", "C5", "C7", "C10", "C11"),
    "large": ("C7",),
}

# Value of each known-failing operation once it stops failing.
KNOWN_FAILURE_VALUES = {
    "write_report.broom": {"alpha": BROOM_LEGS + 2, "xi": 2},
    "check_tree.C5.deep_path": "holds",
    "is_strong_unique_by_definition.deep_path": True,
}


def expectations(wl: Workload, seed: int) -> dict:
    s = program_seed(seed, wl)
    if wl.mode == "exhaustive":
        trees = oracle.exhaustive_codes(wl.n_min, wl.n_max)
    elif wl.mode == "random":
        trees = oracle.random_corpus_codes(wl.n_min, wl.n_max, wl.trees, s)
    else:
        trees = oracle.random_tree_codes(wl.n_min, s)
    return oracle.expectations(trees, keep_edges=wl.mode == "large")


def check(wl: Workload, seed: int, obs: dict, rounds: list) -> list[str]:
    """``obs`` is the first round's outputs; every round carries a digest."""
    problems = []
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("outputs differ between rounds of the same inputs")
    exp = expectations(wl, seed)
    facts = exp["facts"]
    if obs["tree_count"] != len(facts):
        problems.append(f"generated {obs['tree_count']} trees, the oracle {len(facts)}")
    if obs["text_digest"] != exp["text"]:
        problems.append("generated trees differ from the oracle's Prufer decoding")
    if obs["degree_digest"] != exp["degrees"]:
        problems.append("a vertex degree is not 1 + its multiplicity in the Prufer code")
    if not obs["parsed_equal"]:
        problems.append("parse_tree_text(format_tree_file(T)) differs from T")
    if not obs["repeats_equal"]:
        problems.append("a repeated generate/parse/analyze pass gave other outputs")
    for i, (rec, f) in enumerate(zip(obs["analyses"], facts)):
        problems += [f"analyze, tree {i}: {p}" for p in check_analysis(rec, f)]
        if len(problems) > MAX_REPORTED:
            break
    problems += check_verdicts(wl, obs, facts)
    problems += check_known_failures(obs["known_failures"])
    return problems


def check_analysis(rec: dict, f: oracle.TreeFacts) -> list[str]:
    n = f.n
    full = (1 << n) - 1
    a_bytes = base64.b64decode(rec["a"])
    core, pend, a, b = (int.from_bytes(base64.b64decode(rec[k]), "little")
                        for k in ("core", "pendants", "a", "b"))
    xi, pm = rec["xi"], rec["pm"]
    out = []
    if rec["n"] != n:
        out.append(f"n = {rec['n']}, expected {n}")
    if rec["alpha"] != f.alpha:
        out.append(f"alpha = {rec['alpha']}, leaf-greedy alpha = {f.alpha}")
    if rec["mu"] != f.mu:
        out.append(f"mu = {rec['mu']}, leaf-greedy matching = {f.mu}")
    if rec["alpha"] + rec["mu"] != n:
        out.append("alpha + mu != n")
    if pend != f.pendants:
        out.append("pendants are not exactly the vertices of degree 1")
    if a != f.side_a or b != full ^ f.side_a:
        out.append("bipartition is not the 2-colouring with vertex 0 on side a")

    def on_a(v):
        return a_bytes[v >> 3] >> (v & 7) & 1

    if f.edges is not None and any(on_a(u) == on_a(v) for u, v in f.edges):
        out.append("an edge does not cross the bipartition")
    if xi != core.bit_count():
        out.append(f"xi = {xi} but the core has {core.bit_count()} vertices")
    if pm != f.perfect_matching:
        out.append(f"has_perfect_matching = {pm}, the oracle says {f.perfect_matching}")
    if pm != (xi == 0):
        out.append(f"perfect matching = {pm} with xi = {xi}")
    if xi == 1:
        out.append("xi = 1")
    cp = core & pend
    if not pm and (cp & a).bit_count() < 2 and (cp & b).bit_count() < 2:
        out.append("no perfect matching, yet no two core pendants share a side")
    if rec["su"] != (pend & a == pend or pend & b == pend):
        out.append(f"strong_unique = {rec['su']} disagrees with the pendants' sides")
    if rec["count_bits"] < 1:
        out.append("no maximum stable set counted")
    if f.brute is not None:
        b_alpha, b_core, b_count = f.brute
        if (rec["alpha"], core, rec["count"]) != (b_alpha, b_core, b_count):
            out.append(f"(alpha, core, count) = ({rec['alpha']}, {core:b}, {rec['count']}), "
                       f"brute force ({b_alpha}, {b_core:b}, {b_count})")
    return out


def check_verdicts(wl: Workload, obs: dict, facts: list) -> list[str]:
    verdicts = {v["claim"]: v for v in obs["verdicts"]}
    if tuple(verdicts) != wl.claims:
        return [f"verify reported claims {list(verdicts)}, expected {list(wl.claims)}"]
    out = []
    for c, v in verdicts.items():
        if v["checked"] != wl.trees:
            out.append(f"{c}: checked {v['checked']} trees, corpus has {wl.trees}")
        if v["checked"] != v["held"] + v["refuted"] + v["skipped"]:
            out.append(f"{c}: checked != held + refuted + skipped")
    for c in NEVER_REFUTED[wl.mode]:
        if verdicts[c]["refuted"]:
            out.append(f"{c} refuted on {verdicts[c]['refuted']} trees")
    if "C12" in verdicts and any(s != "b" for s in verdicts["C12"]["subclaims"]):
        out.append(f"C12 witness of subclaim {verdicts['C12']['subclaims']}, only (b) expected")
    refuted = any(v["refuted"] for v in verdicts.values())
    if obs["verify_exit"] != (3 if refuted else 0):
        out.append(f"verify exited {obs['verify_exit']} with refuted={refuted}")
    pm = sum(f.perfect_matching for f in facts)
    if wl.mode == "exhaustive":
        four = sum(f.core_pendants_at_four for f in facts)
        if verdicts["C4"]["held"] != pm:
            out.append(f"C4 held on {verdicts['C4']['held']} trees; {pm} have a perfect matching")
        if verdicts["C12"]["refuted"] != four:
            out.append(f"C12 refuted on {verdicts['C12']['refuted']} trees; the oracle finds "
                       f"{four} with exactly two core pendants at distance 4")
    if wl.mode == "random":
        c4 = verdicts["C4"]["held"] + verdicts["C4"]["refuted"]
        if c4 != pm:
            out.append(f"C4 applied to {c4} trees; {pm} have a perfect matching")
    if "C13" in verdicts and verdicts["C13"]["refuted"] != pm:
        out.append(f"C13 refuted on {verdicts['C13']['refuted']} trees; "
                   f"{pm} have a perfect matching")
    if wl.mode == "large" and verdicts["C7"]["held"] != 1:
        out.append("C7 did not hold on the one large tree")
    return out


def check_known_failures(values: dict) -> list[str]:
    """Operations that fail today are judged by their exception elsewhere;
    one that succeeds must return the right value."""
    return [f"{op} returned {value!r}, expected {KNOWN_FAILURE_VALUES[op]!r}"
            for op, value in values.items()
            if value is not None and value != KNOWN_FAILURE_VALUES[op]]


def failure_notes(outcomes: list) -> list[str]:
    """Failed operations whose exception differs from the one named for them."""
    notes = []
    for op, ok, error in outcomes:
        if ok:
            continue
        name, prefix = KNOWN_FAILURES[op]
        if error[0] != name or not error[1].startswith(prefix):
            notes.append(f"{op} failed with {error[0]}: {error[1]} (expected {name})")
    return sorted(set(notes))
