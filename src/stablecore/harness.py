"""Executable claims about trees, checked over exhaustive or sampled corpora.

Each claim is a total function of a single tree with three outcomes: it
holds, it is refuted (with a re-checkable witness), or its hypothesis
does not apply. Every checker reads only the per-tree facts, and one
table, ``_CLAIMS``, gives each claim's checker and the families of facts
it reads: a run builds each tree's facts once, and only the families its
claims read (the fact plan). It builds them for a batch of consecutive
trees, at most 256 vertices in all, then runs each claim over the whole
batch before the next claim; the bound is in vertices so that a batch
stays cache-sized, and a tree of 256 vertices or more is a batch of its
own. E1 reads the number and the intersection of the maximal stable sets
of each size it measures from one pass over the shared rooted view, at
any n. Corpora are pure functions of their spec: the runner hands each
worker a slice of corpus indices (with dedup, of the kept ones, found by
one loop); ``_trees`` steps through an exhaustive slice from its first
Prufer code and builds any other tree from its index, for each worker,
``iter_corpus`` and ``gen``, so any worker count gives the same verdicts. One
check, shared by ``check_tree`` and ``check_suite``, names every unknown
claim id.

Registry:

  C1  every stable set of size >= n/2 contains a pendant vertex
  C2  ...and if it also has a non-pendant member, then some pendant member
      sits at distance exactly two from another member
  C3  every maximum stable set contains a pendant vertex
  C4  trees with a perfect matching have two pendants at odd distance
  C5  "one maximum stable set whose complement is stable", "all pendants on
      one bipartition side" and "all pendant distances even" are equivalent;
      the side test decides both of the last two; a tree has one maximum
      stable set iff |core| = alpha
  C6  every stable set larger than the smaller bipartition side contains a
      pendant vertex, and a pendant member at distance two from a member;
      C1, C2, C3 and C6 read two sizes from one O(n) DP over T minus its
      pendants P: alpha(T - P), and the largest "lonely" stable set, in
      which no pendant member has another member at distance two
  C7  no perfect matching <=> core size >= 2; perfect matching <=> empty core
  C8  every stable set of pendant vertices extends to a maximum stable set
  C9  bonding laws at every internal vertex split T = T1 * v * T2: v is in
      core(T) iff it is in both factor cores; and then the stability numbers
      add up (minus one) and core(T) is the union of the factor cores; one
      upward pass gives each split's factor values in O(1) and, for where v
      is in both factor cores, their union: the vertices whose deletion
      drops alpha; no factor is built
  C10 no perfect matching => at least two pendants in the core
  C11 no perfect matching and a core vertex of degree >= 2k (k >= 2)
      => at least 2k pendants in the core
  C12 no perfect matching => (a) two distinct core pendants at even
      distance; (b) if exactly two, they are never four apart, that is on
      distinct supports with a common neighbor
  C13 core size >= 1 + alpha - mu (report only, never asserted:
      it fails on trees with a perfect matching)
  E1  measurement: intersection of all maximal stable sets of size k for
      k = n/2 (when integral) and k = |smaller bipartition side|, and how
      many pendants it contains
"""

from __future__ import annotations

import os
from bisect import insort
from dataclasses import dataclass
from functools import partial
from itertools import compress
from multiprocessing import get_context
from operator import itemgetter
from typing import AbstractSet, Iterable, Iterator

from .errors import OutOfRange, ParseError, StablecoreError, TooLarge, TooSmall
from .graph_model import (
    _MAX_DRAWS,
    DEFAULT_ENUMERATION_CEILING,
    SplitMix64,
    Tree,
    _check_int,
    _decode,
    _prufer_codes,
    _prufer_draw,
    canonical_form,
    derive_seed,
    labeled_tree_count,
    pendant_vertices,
    tree_from_edges,
)
from .independence import (
    _extend_pendants, _mask_to_set, _maximal_profile, _Rooted, _strong_unique_of,
)

DEFAULT_WITNESS_LIMIT = 16

_CHUNK = 2048

# a chunk checks its trees claim by claim in batches of at most this many
# vertices in all, or of one larger tree (see _fact_batches)
_BATCH_VERTICES = 256

HOLDS = "holds"
REFUTED = "refuted"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class CorpusSpec:
    """A tree population: every labeled tree with n_min <= n <= n_max, or
    ``sample_size`` seeded uniform draws with n uniform in that range."""

    mode: str  # "exhaustive" | "random"
    n_min: int
    n_max: int
    sample_size: int | None = None
    seed: int | None = None
    dedup_isomorphism: bool = False


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    tree: str  # canonical edge-list serialization, parse with tree_from_serialization
    status: str  # holds | refuted | not-applicable
    witness: dict | None


@dataclass(frozen=True)
class Verdict:
    claim: str
    corpus: CorpusSpec
    checked: int
    held: int
    refuted: int
    skipped: int
    witnesses: tuple[ClaimResult, ...]


def serialize_tree(t: Tree) -> str:
    return f"{t.n}:" + ",".join([f"{v}-{w}" for v, a in enumerate(t.adjacency) for w in a if v < w])


def tree_from_serialization(s: str) -> Tree:
    """Inverse of ``serialize_tree``. Raises ParseError (line 1) on text
    that is not of its form, or the errors of tree validation."""
    head, _, rest = s.partition(":")
    try:
        n = int(head)
        edges = []
        if rest:
            for part in rest.split(","):
                u, _, v = part.partition("-")
                edges.append((int(u), int(v)))
    except ValueError:
        raise ParseError(f"not a serialized tree: {s!r}", line=1) from None
    return tree_from_edges(n, edges)


# ---------------------------------------------------------------------------
# Reconstructed figure fixture


def fig5_tree() -> Tree:
    """Nine-vertex tree whose core meets its pendants in exactly two
    vertices, an even distance (six) apart."""
    return tree_from_edges(
        9, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 6)]
    )


# ---------------------------------------------------------------------------
# Per-tree facts, built once per tree for the claims of a run


# the families of per-tree facts, besides ``rooted`` and ``alpha``, which
# every tree gets
_FAMILIES = frozenset({"core", "pend", "bip", "free", "lonely"})

_NEG_INF = float("-inf")


class _TreeFacts:
    """The facts of one tree that the claims of a run read, each built once,
    in ``__init__``: ``rooted`` (the shared rooted view) and ``alpha``
    always, and of the families in ``_FAMILIES`` those in ``reads`` (by
    default all of them), as ``_CLAIMS`` names them per claim. A family
    left out stays an unset slot, so a checker that reads a family missing
    from its claim's entry fails with an AttributeError.

    ``bip`` (the sides) comes only with ``core``, from one top-down pass.
    ``free`` is alpha(T - P), the size of the largest stable set
    with no pendant member, and ``lonely`` the size of the largest lonely
    stable set, in which no pendant member has another member at distance
    two (n >= 3); one pendant DP sweep gives both, and each is built from
    ``pend``, so a claim that reads either reads ``pend``."""

    __slots__ = ("tree", "rooted", "alpha", "core", "pend", "bip", "free", "lonely")

    def __init__(self, tree: Tree, reads: AbstractSet[str] = _FAMILIES):
        self.tree = tree
        self.rooted = view = _Rooted(tree)
        self.alpha = view.alpha()
        if "bip" in reads:
            self.core, self.bip = view.core_and_sides()
        elif "core" in reads:
            self.core = view.core()
        if "pend" in reads:
            self.pend = pendant_vertices(tree)
        lonely = "lonely" in reads
        if lonely or "free" in reads:
            free, lonely_size, _ = _pendant_dp(tree, self.pend, view, lonely)
            if "free" in reads:
                self.free = free
            if lonely:
                self.lonely = lonely_size


def _pendant_dp(t: Tree, pend: frozenset[int], view: _Rooted, lonely: bool):
    """Downward DP over the rooted view ``view`` of t with the pendants
    ``pend`` left out. One sweep gives alpha(T - P), the size of the largest
    stable set with no pendant member, and with ``lonely`` the size of the
    largest lonely stable set S, else None.

    Per non-pendant position i, the optimum over its subtree and its
    pendants with it in S (take[i]), with one of its pendants in S and so
    neither it nor a non-pendant neighbor (hang[i], only allowed for a
    lonely set), or with neither (skip[i]). A set with no pendant member
    has take and skip tables of its own, and every hang of it is -inf. The
    tables are indexed by breadth-first position, as the view's are.
    Returns the two sizes, and the non-pendant positions with the tables
    (take, hang, skip) of the lonely set with ``lonely``, else of the set
    with no pendant member."""
    order, parent_at = view.order, view.parent_at
    inner = [i for i, v in enumerate(order) if v not in pend]
    if not inner:  # the single edge: T - P is empty
        return 0, 0 if lonely else None, None
    take = [1] * t.n
    skip = [0] * t.n
    hang = [_NEG_INF] * t.n
    free_take, free_skip = (take[:], skip[:]) if lonely else (take, skip)
    if lonely:
        # a pendant hangs on its parent; a pendant root on its one child,
        # which sits at position 1
        for v, p in zip(order, parent_at):
            if v in pend:
                hang[p if p >= 0 else 1] = 1
    # every non-pendant but the first has a non-pendant parent
    for i in inner[:0:-1]:
        p = parent_at[i]
        ti, si = free_take[i], free_skip[i]
        free_take[p] += si
        free_skip[p] += ti if ti > si else si
        if lonely:
            ti, hi, si = take[i], hang[i], skip[i]
            take[p] += si
            hs = hi if hi > si else si
            hang[p] += hs
            skip[p] += ti if ti > hs else hs
    r = inner[0]
    free = max(free_take[r], free_skip[r])
    most = max(take[r], hang[r], skip[r]) if lonely else None
    return free, most, (inner, take, hang, skip)


def _pendant_dp_set(facts: _TreeFacts, lonely: bool) -> list[int]:
    """The members of a set of the size ``_pendant_dp`` finds, top-down:
    each vertex takes its best state among those its parent's state allows
    (after take only skip, after hang no take)."""
    pend = facts.pend
    _, _, (inner, *tables) = _pendant_dp(facts.tree, pend, facts.rooted, lonely)
    allowed = ((2,), (1, 2), (0, 1, 2))
    adjacency = facts.tree.adjacency
    order, parent_at = facts.rooted.order, facts.rooted.parent_at
    state = {}
    members = []
    for i in inner:
        state[i] = k = max(allowed[state.get(parent_at[i], 2)], key=lambda s: tables[s][i])
        if k == 0:
            members.append(order[i])
        elif k == 1:
            members.append(min(w for w in adjacency[order[i]] if w in pend))
    return sorted(members)


# ---------------------------------------------------------------------------
# Claim checkers: each returns (status, witness-or-None)


def _check_c1(facts: _TreeFacts):
    if 2 * facts.free < facts.tree.n:
        return HOLDS, None
    return REFUTED, {"stable_set": _pendant_dp_set(facts, lonely=False)}


def _check_c2(facts: _TreeFacts):
    # Pendant members of a lonely set sit on distinct supports, so a lonely
    # set larger than the supports has a non-pendant member. Supports reach
    # n/2 only on a corona, where a non-pendant member leaves a neighboring
    # support and its pendant both out, so no lonely set with a non-pendant
    # member reaches n/2 there.
    t = facts.tree
    if t.n < 3:  # on the single edge a pendant's neighbor is itself a pendant
        return HOLDS, None
    supports = {t.adjacency[p][0] for p in facts.pend}
    if 2 * facts.lonely < t.n or facts.lonely <= len(supports):
        return HOLDS, None
    return REFUTED, {"stable_set": _pendant_dp_set(facts, lonely=True)}


def _check_c3(facts: _TreeFacts):
    if facts.free < facts.alpha:
        return HOLDS, None
    # a maximum stable set that avoids every pendant vertex exists
    return REFUTED, {"stable_set": _pendant_dp_set(facts, lonely=False)}


def _check_c4(facts: _TreeFacts):
    t = facts.tree
    if 2 * facts.alpha != t.n:
        return NOT_APPLICABLE, None
    pend = facts.pend
    sides = facts.bip
    if (pend & sides.a) and (pend & sides.b):
        return HOLDS, None
    return REFUTED, {
        "pendants": sorted(pend),
        "side_a": sorted(sides.a),
        "side_b": sorted(sides.b),
    }


def _check_c5(facts: _TreeFacts):
    pend = facts.pend
    sides = facts.bip
    # In a tree, d(p, q) is even iff p and q lie on one side, so the side
    # test also decides whether all pendant distances are even
    one_side = pend <= sides.a or pend <= sides.b
    definitional = _strong_unique_of(facts.tree, facts.core, facts.alpha)
    if definitional == one_side:
        return HOLDS, None
    return REFUTED, {
        "definitional": definitional,
        "pendants_on_one_side": one_side,
        "pendant_distances_even": one_side,
    }


def _check_c6(facts: _TreeFacts):
    t = facts.tree
    if t.n < 3:  # on the single edge a pendant's neighbor is itself a pendant
        return HOLDS, None
    sides = facts.bip
    if facts.lonely <= min(len(sides.a), len(sides.b)):
        return HOLDS, None
    members = _pendant_dp_set(facts, lonely=True)
    missing = "distance-2 pair" if facts.pend.intersection(members) else "pendant member"
    return REFUTED, {"stable_set": members, "missing": missing}


def _check_c7(facts: _TreeFacts):
    t = facts.tree
    a = facts.alpha
    xi = len(facts.core)
    surplus_ok = (2 * a > t.n) == (xi >= 2)
    matched_ok = (2 * a == t.n) == (xi == 0)
    if surplus_ok and matched_ok:
        return HOLDS, None
    return REFUTED, {"alpha": a, "n": t.n, "xi": xi}


def _check_c8(facts: _TreeFacts):
    # For n >= 3 the pendant set P is stable and holds every stable set of
    # pendants, so the claim holds iff P extends; on one edge, try each alone.
    t = facts.tree
    pend = sorted(facts.pend)
    start = facts.rooted.one_set()
    for subset in [pend] if t.n > 2 else [[p] for p in pend]:
        s = _extend_pendants(t, subset, start)
        ok = (
            s.issuperset(subset)
            and len(s) == facts.alpha
            and all(s.isdisjoint(t.adjacency[u]) for u in s)
        )
        if not ok:
            return REFUTED, {"pendant_subset": subset, "returned_set": sorted(s)}
    return HOLDS, None


def _bonding_splits(t: Tree, view: _Rooted, up_in: list[int], up_ex: list[int]):
    """(v, u, alpha(T1), v in core(T1), alpha(T2), v in core(T2)) for every
    split T = T1 * v * T2 at an internal v, T1 being v plus the branch behind
    neighbor u, in v-then-u order. At the positions i of v and j of u, a
    branch's (in, out) optima are down_in[j]/down_ex[j] for a child u,
    up_in[i]/up_ex[i] (from ``view.up()``) for the parent; v is in a
    factor's core iff forcing it in beats leaving it out."""
    parent_at, down_in, down_ex = view.parent_at, view.down_in, view.down_ex
    at = [0] * t.n  # vertex label -> position
    for i, v in enumerate(view.order):
        at[v] = i
    for v in range(t.n):
        neighbors = t.adjacency[v]
        if len(neighbors) < 2:
            continue
        i = at[v]
        pi, pe = up_in[i], up_ex[i]
        all_in = down_in[i] + pe
        all_best = down_ex[i] + (pi if pi > pe else pe)
        above = parent_at[i]
        for u in neighbors:
            j = at[u]
            if j == above:
                bi, be = pi, pe
            else:
                bi, be = down_in[j], down_ex[j]
            rest_in = all_in - be
            rest_ex = all_best - (bi if bi > be else be)
            yield (v, u, 1 + be if 1 + be > bi else bi, be >= bi,
                   rest_in if rest_in > rest_ex else rest_ex, rest_in > rest_ex)


def _deletion_set(view: _Rooted, up_in: list[int], up_ex: list[int]) -> frozenset[int]:
    """The x with alpha(T - x) = alpha(T) - 1, alpha(T - x) being x's subtree
    optimum with x out plus the optimum above x. Where v is in both factor
    cores, alpha(T - x) = alpha(T1 - x) + alpha(T2) - 1 for x != v in T1's
    branch, so this is the union of the factor cores at every such split."""
    target = view.alpha() - 1
    return frozenset(compress(view.order, [
        de + (ui if ui > ue else ue) == target
        for de, ui, ue in zip(view.down_ex, up_in, up_ex)
    ]))


def _check_c9(facts: _TreeFacts):
    t = facts.tree
    if t.n < 3:  # the single edge has no internal vertex
        return NOT_APPLICABLE, None
    core_t = facts.core
    alpha_t = facts.alpha
    up = facts.rooted.up()
    # the union of the factor cores is the same at every split, so it is
    # compared with core(T) once, not at each split
    factor_union = _deletion_set(facts.rooted, *up)
    union_is_core = factor_union == core_t
    for v, u, alpha1, in_core1, alpha2, in_core2 in _bonding_splits(t, facts.rooted, *up):
        bonded_in_core = v in core_t
        factors_in_core = in_core1 and in_core2
        if bonded_in_core != factors_in_core:
            return REFUTED, {
                "vertex": v, "neighbor": u, "law": "core membership biconditional",
                "in_bonded_core": bonded_in_core, "in_factor_cores": factors_in_core,
            }
        if not bonded_in_core:
            continue
        if alpha_t != alpha1 + alpha2 - 1:
            return REFUTED, {
                "vertex": v, "neighbor": u, "law": "stability numbers add up",
                "alpha": alpha_t, "alpha_factors": [alpha1, alpha2],
            }
        if not union_is_core:
            return REFUTED, {
                "vertex": v, "neighbor": u, "law": "core is union of factor cores",
                "core": sorted(core_t), "factor_union": sorted(factor_union),
            }
    return HOLDS, None


def _check_c10(facts: _TreeFacts):
    t = facts.tree
    if 2 * facts.alpha <= t.n:
        return NOT_APPLICABLE, None
    cp = facts.core & facts.pend
    if len(cp) >= 2:
        return HOLDS, None
    return REFUTED, {"core_pendants": sorted(cp)}


def _check_c11(facts: _TreeFacts):
    t = facts.tree
    if 2 * facts.alpha <= t.n:
        return NOT_APPLICABLE, None
    core_set = facts.core
    max_deg = max((t.degree(v) for v in core_set), default=0)
    if max_deg < 4:
        return NOT_APPLICABLE, None
    cp = facts.core & facts.pend
    for k in range(2, max_deg // 2 + 1):
        if len(cp) < 2 * k:
            return REFUTED, {
                "k": k, "max_core_degree": max_deg, "core_pendants": sorted(cp),
            }
    return HOLDS, None


def _check_c12(facts: _TreeFacts):
    t = facts.tree
    if 2 * facts.alpha <= t.n:
        return NOT_APPLICABLE, None
    cp = sorted(facts.core & facts.pend)
    on_a = len(facts.bip.a.intersection(cp))  # two on one side are an even distance apart
    if max(on_a, len(cp) - on_a) < 2:
        return REFUTED, {"subclaim": "a", "core_pendants": cp}
    if len(cp) == 2 and _pendants_four_apart(t, cp[0], cp[1]):
        return REFUTED, {"subclaim": "b", "core_pendants": cp, "distance": 4}
    return HOLDS, None


def _pendants_four_apart(t: Tree, p: int, q: int) -> bool:
    """Whether the distinct pendants p and q are at distance four: iff their
    supports differ and share a neighbor. A tree has no triangle, so two
    supports with a common neighbor are exactly two apart."""
    s, r = t.adjacency[p][0], t.adjacency[q][0]
    return s != r and not set(t.adjacency[s]).isdisjoint(t.adjacency[r])


def _check_c13(facts: _TreeFacts):
    xi = len(facts.core)
    a = facts.alpha
    matching = facts.tree.n - a  # alpha + mu = n on trees (Konig-Egervary)
    bound = 1 + a - matching
    if xi >= bound:
        return HOLDS, None
    return REFUTED, {"xi": xi, "alpha": a, "mu": matching, "bound": bound}


def _check_e1(facts: _TreeFacts):
    # E1 holds on every tree and its witness is the whole measurement, so the
    # witness is returned unbuilt, for the caller to build if it keeps it
    return HOLDS, partial(_e1_measurement, facts)


def _e1_measurement(facts: _TreeFacts) -> dict:
    t = facts.tree
    perfect = 2 * facts.alpha == t.n
    ks = {min(len(facts.bip.a), len(facts.bip.b))}
    if t.n % 2 == 0:
        ks.add(t.n // 2)
    profile = _maximal_profile(facts.rooted, max(ks))
    measurements = []
    for k in sorted(ks):
        num_sets, mask = profile.get(k, (0, None))
        inter = None if mask is None else _mask_to_set(mask)
        measurements.append({
            "k": k,
            "num_sets": num_sets,
            "intersection": None if inter is None else sorted(inter),
            "pendants_in_intersection": None if inter is None else len(inter & facts.pend),
        })
    return {
        "perfect_matching": perfect,
        "beyond_question": perfect,
        "measurements": measurements,
    }


# each claim's checker and the fact families it reads, witness included
_CLAIMS = {
    "C1": (_check_c1, {"pend", "free"}), "C2": (_check_c2, {"pend", "lonely"}),
    "C3": (_check_c3, {"pend", "free"}), "C4": (_check_c4, {"pend", "bip"}),
    "C5": (_check_c5, {"core", "pend", "bip"}), "C6": (_check_c6, {"pend", "bip", "lonely"}),
    "C7": (_check_c7, {"core"}), "C8": (_check_c8, {"pend"}), "C9": (_check_c9, {"core"}),
    "C10": (_check_c10, {"core", "pend"}), "C11": (_check_c11, {"core", "pend"}),
    "C12": (_check_c12, {"core", "pend", "bip"}), "C13": (_check_c13, {"core"}),
    "E1": (_check_e1, {"pend", "bip"}),
}

CLAIM_IDS = tuple(_CLAIMS)


def _check_claim_ids(claims: list[str]) -> None:
    """Raise StablecoreError naming every id in ``claims`` not in the registry."""
    unknown = [c for c in claims if c not in _CLAIMS]
    if unknown:
        raise StablecoreError(
            f"unknown claims: {', '.join(map(repr, unknown))}; valid: {', '.join(CLAIM_IDS)}"
        )


def check_tree(claim: str, t: Tree) -> ClaimResult:
    """Evaluate one claim on one tree, building only the facts it reads.
    Raises StablecoreError for an unknown claim."""
    _check_claim_ids([claim])
    check, reads = _CLAIMS[claim]
    status, witness = check(_TreeFacts(t, reads))
    if callable(witness):
        witness = witness()
    return ClaimResult(claim=claim, tree=serialize_tree(t), status=status, witness=witness)


# ---------------------------------------------------------------------------
# Corpora


def validate_corpus(spec: CorpusSpec) -> None:
    if spec.mode not in ("exhaustive", "random"):
        raise StablecoreError(f"unknown corpus mode {spec.mode!r}")
    _check_int("n_min", spec.n_min)
    _check_int("n_max", spec.n_max)
    # the flag is read for its truth: "no" or 1 would turn dedup on
    if type(spec.dedup_isomorphism) is not bool:
        raise StablecoreError(f"dedup_isomorphism={spec.dedup_isomorphism!r} is not a bool")
    if spec.n_min < 2:
        raise TooSmall(f"n_min={spec.n_min} < 2")
    if spec.n_min > spec.n_max:
        raise StablecoreError(f"n_min={spec.n_min} > n_max={spec.n_max}")
    if spec.mode == "exhaustive":
        if spec.n_max > DEFAULT_ENUMERATION_CEILING:
            raise TooLarge(
                f"exhaustive corpus needs n_max <= {DEFAULT_ENUMERATION_CEILING}, got {spec.n_max}"
            )
    else:
        # a Prufer code of n - 2 draws is one list; n stays below 2^64, a draw's range
        if spec.n_max - 2 > _MAX_DRAWS:
            raise TooLarge(f"random corpus needs n_max <= {_MAX_DRAWS + 2}, got {spec.n_max}")
        if spec.sample_size is not None:
            _check_int("sample_size", spec.sample_size)
        if not spec.sample_size or spec.sample_size < 1:
            raise StablecoreError("random corpus needs sample_size >= 1")
        if spec.seed is None:
            raise StablecoreError("random corpus needs a seed")
        _check_int("seed", spec.seed)


def corpus_size(spec: CorpusSpec) -> int:
    validate_corpus(spec)
    if spec.mode == "random":
        return spec.sample_size
    return sum(labeled_tree_count(n) for n in range(spec.n_min, spec.n_max + 1))


def corpus_tree(spec: CorpusSpec, index: int) -> Tree:
    """Tree number ``index`` of the corpus; pure in (spec, index). Raises
    the errors of ``validate_corpus`` for a bad spec, and OutOfRange for an
    index that is not an int or is outside 0..corpus_size(spec)-1."""
    size = corpus_size(spec)
    _check_int("index", index)
    if not 0 <= index < size:
        raise OutOfRange(f"corpus index {index} outside 0..{size - 1}")
    return next(_trees(spec, [index]))


def _trees(spec: CorpusSpec, indices: range | list[int]) -> Iterator[Tree]:
    """The trees at ``indices`` of a valid spec, in order, checked no more: an exhaustive
    range (of step 1) is stepped through from its first code, any other index built alone."""
    if spec.mode == "random":
        for i in indices:
            rng = SplitMix64(derive_seed(spec.seed, i))
            yield _prufer_draw(rng, spec.n_min + rng.randrange(spec.n_max - spec.n_min + 1))
        return
    for run in [indices] if type(indices) is range else [range(i, i + 1) for i in indices]:
        lo, hi = run.start, run.stop
        for n in range(spec.n_min, spec.n_max + 1):
            block = n ** (n - 2)
            for code in _prufer_codes(n, min(max(lo, 0), block), min(max(hi, 0), block)):
                yield _decode(code, n)
            lo, hi = lo - block, hi - block


def _kept_indices(spec: CorpusSpec) -> range | list[int]:
    """The corpus indices in order: every one, or with dedup a list of those
    whose tree is isomorphic to no earlier tree (finding them builds every
    tree once)."""
    if not spec.dedup_isomorphism:
        return range(corpus_size(spec))
    seen: set[str] = set()
    kept = []
    for i, t in enumerate(_trees(spec, range(corpus_size(spec)))):
        form = canonical_form(t)
        if form not in seen:
            seen.add(form)
            kept.append(i)
    return kept


def iter_corpus(spec: CorpusSpec) -> Iterator[Tree]:
    """Corpus trees in index order, with isomorphism dedup applied if asked;
    the spec is checked, and the kept indices found, at the call."""
    return _trees(spec, _kept_indices(spec))


# ---------------------------------------------------------------------------
# Runner


def _fact_batches(spec: CorpusSpec, indices, reads) -> Iterator[list[_TreeFacts]]:
    """The facts of the trees at ``indices``, in index order, in batches of
    consecutive trees of at most _BATCH_VERTICES vertices in all; a tree of
    that many vertices or more is a batch of its own. A batch closes as soon
    as another tree of its last tree's size would not fit, so a tree of more
    than half the budget is checked before the next tree is built, as it
    would be without batches."""
    batch, size = [], 0
    for t in _trees(spec, indices):
        if batch and size + t.n > _BATCH_VERTICES:
            yield batch
            batch, size = [], 0
        batch.append(_TreeFacts(t, reads))
        size += t.n
        if size + t.n > _BATCH_VERTICES:
            yield batch
            batch, size = [], 0
    if batch:
        yield batch


def _process_chunk(payload):
    """Counts and witnesses of one chunk. It builds the facts of a batch of
    trees (``_fact_batches``), each for the union of the claims' reads, then
    runs each claim over the whole batch, tree by tree, before the next
    claim: one checker over many small trees in turn costs less interpreter
    work than all the checkers over each tree. The batch is bounded by
    vertices, not trees, so that a batch's facts stay cache-sized and a
    large tree keeps the per-tree order. Each claim keeps its witnesses as
    (key, result) pairs sorted by the canonical key (n, serialization), and
    with a limit only the first ``witness_limit``. A tree's key is computed
    once, when a claim first gives it a witness; an unbuilt witness is
    built only if it is kept."""
    spec, indices, claims, witness_limit = payload
    stats = {c: [0, 0, 0, []] for c in claims}
    reads = frozenset().union(*[_CLAIMS[c][1] for c in claims])
    for batch in _fact_batches(spec, indices, reads):
        keys = [None] * len(batch)
        for c in claims:
            check = _CLAIMS[c][0]
            entry = stats[c]
            kept = entry[3]
            for j, facts in enumerate(batch):
                status, witness = check(facts)
                if status == HOLDS:
                    entry[0] += 1
                elif status == REFUTED:
                    entry[1] += 1
                else:
                    entry[2] += 1
                if witness is None:
                    continue
                key = keys[j]
                if key is None:
                    t = facts.tree
                    key = keys[j] = (t.n, serialize_tree(t))
                if len(kept) == witness_limit:
                    # a sort is stable, so a tie with the last kept one stays out
                    if not kept or key >= kept[-1][0]:
                        continue
                    kept.pop()
                if callable(witness):
                    witness = witness()
                result = ClaimResult(claim=c, tree=key[1], status=status, witness=witness)
                insort(kept, (key, result), key=itemgetter(0))
    return stats


def _chunk_payloads(spec, claims, witness_limit):
    """One payload per _CHUNK kept corpus indices; each worker reads its
    trees from ``_trees``."""
    indices = _kept_indices(spec)
    return [(spec, indices[start:start + _CHUNK], claims, witness_limit)
            for start in range(0, len(indices), _CHUNK)]


def _pool_size(jobs: int, chunks: int, cpus: int | None) -> int:
    """Workers for ``chunks`` payloads: ``jobs``, but no more than there are
    chunks to hand out or CPUs (``os.cpu_count()``, None when unknown)."""
    return min(jobs, chunks, cpus or 1)


def check_suite(
    claims: Iterable[str],
    corpus: CorpusSpec,
    jobs: int = 1,
    witness_limit: int | None = DEFAULT_WITNESS_LIMIT,
) -> list[str]:
    """The claims of a ``run_suite`` call as a list, after the checks that
    call makes before it builds any tree; raises what ``run_suite`` would."""
    claims = list(claims)
    _check_claim_ids(claims)
    for c in claims:
        if claims.count(c) > 1:
            raise StablecoreError(f"claim {c} is listed more than once")
    _check_int("jobs", jobs)
    if jobs < 1:
        raise StablecoreError(f"jobs must be >= 1, got {jobs}")
    if witness_limit is not None:
        _check_int("witness_limit", witness_limit)
        if witness_limit < 0:
            raise StablecoreError(f"witness_limit must be >= 0, got {witness_limit}")
    validate_corpus(corpus)
    return claims


def run_suite(
    claims: Iterable[str],
    corpus: CorpusSpec,
    jobs: int = 1,
    witness_limit: int | None = DEFAULT_WITNESS_LIMIT,
) -> list[Verdict]:
    """Check each claim over the whole corpus (one shared materialization):
    each chunk of _CHUNK trees builds the facts of a batch of trees of at
    most _BATCH_VERTICES vertices in all, then checks each claim over it.

    The result is a pure function of (claims, corpus, witness_limit): chunk
    boundaries, counting and witness ordering do not depend on ``jobs``. At
    most min(jobs, chunks, CPUs) workers run; with one, no pool starts.
    """
    claims = check_suite(claims, corpus, jobs, witness_limit)
    if not claims:
        return []
    totals = {c: [0, 0, 0, []] for c in claims}
    payloads = _chunk_payloads(corpus, claims, witness_limit)
    workers = _pool_size(jobs, len(payloads), os.cpu_count())
    if workers > 1:
        with get_context("fork").Pool(workers) as pool:
            partials = pool.imap(_process_chunk, payloads)
            _merge(totals, partials, claims)
    else:
        _merge(totals, map(_process_chunk, payloads), claims)
    verdicts = []
    for c in claims:
        held, refuted, skipped, witnessed = totals[c]
        witnessed.sort(key=itemgetter(0))
        if witness_limit is not None:
            del witnessed[witness_limit:]
        verdicts.append(
            Verdict(
                claim=c,
                corpus=corpus,
                checked=held + refuted + skipped,
                held=held,
                refuted=refuted,
                skipped=skipped,
                witnesses=tuple(result for _, result in witnessed),
            )
        )
    return verdicts


def _merge(totals, partials, claims):
    for stats in partials:
        for c in claims:
            totals[c][0] += stats[c][0]
            totals[c][1] += stats[c][1]
            totals[c][2] += stats[c][2]
            totals[c][3].extend(stats[c][3])


def run_claim(
    claim: str,
    corpus: CorpusSpec,
    jobs: int = 1,
    witness_limit: int | None = DEFAULT_WITNESS_LIMIT,
) -> Verdict:
    """Deterministic verdict for one claim over one corpus."""
    return run_suite([claim], corpus, jobs=jobs, witness_limit=witness_limit)[0]
