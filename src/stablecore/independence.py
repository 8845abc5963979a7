"""Stability computations on trees: maximum stable sets, core, matchings.

The core (vertices common to every maximum stable set) takes two passes
over one rooted traversal: a downward pass collects per-subtree optima with
the subtree root forced in or out, and a top-down pass puts each vertex in
every, some or no maximum stable set; where the bipartition is wanted too,
the same pass takes each vertex's depth parity. The upward pass, which
gives the stability number of T - v for every v, serves claim C9 alone.

One bottom-up recurrence over the same view counts or lists the maximal
stable sets, or gives E1 their number and intersection at each size. The
independent reference paths (the quadratic core, the subset-scan oracle
and its maximal-set filter, explicit enumeration of the maximum stable
sets) live in ``reference``, which nothing here imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add, mul
from typing import Iterable

from .errors import LimitExceeded, NotPendant, NotStable, OutOfRange
from .graph_model import (
    Bipartition, Tree, _bfs_order, _check_int, _sides, bipartition, pendant_vertices,
)

# core's states as compress selectors: in every set (2) or not
_IN_EVERY = bytes.maketrans(b"\x00\x01\x02", b"\x00\x00\x01")


class _Rooted:
    """A tree rooted at vertex ``root`` with its downward include/exclude DP,
    built once and read by every stability quantity; ``up`` by C9 alone.

    Every table is indexed by breadth-first position, not by vertex label:
    ``order[i]`` is the vertex at position i (the root at 0) and
    ``parent_at[i]`` the position of its parent, -1 at the root (see
    ``graph_model._bfs_order``); down_in[i]/down_ex[i] are the optima of
    the subtree of ``order[i]`` with it forced in/out. Parents come before
    children and ``parent_at`` never decreases, so each pass below is one
    sequential sweep over its tables; labels come back only in the sets it
    returns, selected from ``order``.
    """

    __slots__ = ("order", "parent_at", "down_in", "down_ex")

    def __init__(self, t: Tree, root: int = 0):
        order, parent_at = _bfs_order(t, root)
        m = len(order)
        down_in = [1] * m
        down_ex = [0] * m
        i = m - 1
        for p in parent_at[:0:-1]:
            di = down_in[i]
            de = down_ex[i]
            down_in[p] += de
            down_ex[p] += di if di > de else de
            i -= 1
        self.order = order
        self.parent_at = parent_at
        self.down_in = down_in
        self.down_ex = down_ex

    def alpha(self) -> int:
        di = self.down_in[0]
        de = self.down_ex[0]
        return di if di > de else de

    def up(self) -> tuple[list[int], list[int]]:
        """Upward pass: for each non-root position i, the optimum of the
        branch behind its parent, away from i, with the parent forced in
        (up_in[i]) or out (up_ex[i]); 0 at the root. Fresh lists each call;
        nothing is kept."""
        down_in, down_ex = self.down_in, self.down_ex
        m = len(down_in)
        up_in = [0] * m
        up_ex = [0] * m
        i = 1
        for p in self.parent_at[1:]:
            di = down_in[i]
            de = down_ex[i]
            ui = up_in[p]
            ue = up_ex[p]
            up_ex[i] = down_ex[p] - (di if di > de else de) + (ui if ui > ue else ue)
            up_in[i] = down_in[p] - de + ue
            i += 1
        return up_in, up_ex

    def core(self) -> frozenset[int]:
        """The vertices in every maximum stable set (see ``core_and_sides``)."""
        return self.core_and_sides(False)[0]

    def core_and_sides(self, sides: bool = True) -> tuple[frozenset[int], Bipartition | None]:
        """The core and, with ``sides``, the bipartition (else None), from
        one top-down pass. It puts each vertex in every (2), some (1) or no
        (0) maximum stable set, and the core is the vertices in every set.
        Where the parent is in none, the subtree is optimal on its own, so
        the root and such a child follow their own down_in against down_ex;
        a child of a vertex in every set is in none; a child of a vertex in
        some is in none if down_in < down_ex, else in some. The sides are
        the depth parities, side ``a`` holding the root."""
        down_in, down_ex = self.down_in, self.down_ex
        m = len(down_in)
        state = bytearray(m)
        odd = bytearray(m) if sides else None
        di, de = down_in[0], down_ex[0]
        state[0] = 2 if di > de else di == de
        i = 1
        for p in self.parent_at[1:]:
            if sides:
                odd[i] = odd[p] ^ 1
            sp = state[p]
            if sp == 0:
                di, de = down_in[i], down_ex[i]
                state[i] = 2 if di > de else di == de
            elif sp == 1:
                state[i] = down_in[i] >= down_ex[i]
            i += 1
        core = frozenset(compress(self.order, state.translate(_IN_EVERY)))
        return core, _sides(self.order, odd) if sides else None

    def count(self) -> int:
        """Number of maximum stable sets: the DP multiplicities of each
        subtree optimum, with its root forced in (in_cnt) or out (ex_cnt).
        Children are folded into their parents last position first, and
        each child's counts are popped as it is folded, so only the counts
        of subtrees still open are held: at 10^6 vertices they are ints of
        thousands of digits."""
        down_in, down_ex = self.down_in, self.down_ex
        m = len(down_in)
        in_cnt = [1] * m
        ex_cnt = [1] * m
        i = m - 1
        for p in self.parent_at[:0:-1]:
            ci = in_cnt.pop()
            ce = ex_cnt.pop()
            in_cnt[p] *= ce
            di = down_in[i]
            de = down_ex[i]
            if di > de:
                ex_cnt[p] *= ci
            elif di < de:
                ex_cnt[p] *= ce
            else:
                ex_cnt[p] *= ci + ce
            i -= 1
        if down_in[0] > down_ex[0]:
            return in_cnt[0]
        if down_in[0] < down_ex[0]:
            return ex_cnt[0]
        return in_cnt[0] + ex_cnt[0]

    def one_set(self) -> frozenset[int]:
        """Deterministic maximum stable set: top-down, take a vertex when its
        parent is out and forcing it in is optimal."""
        down_in, down_ex = self.down_in, self.down_ex
        chosen = bytearray(len(down_in))
        chosen[0] = down_in[0] >= down_ex[0]
        i = 1
        for p in self.parent_at[1:]:
            if not chosen[p]:
                chosen[i] = down_in[i] >= down_ex[i]
            i += 1
        return frozenset(compress(self.order, chosen))


def alpha(t: Tree) -> int:
    """Stability number: size of a maximum stable set."""
    return _Rooted(t).alpha()


def mu(t: Tree) -> int:
    """Matching number. Trees are bipartite, so by the Konig-Egervary
    theorem it equals the vertex cover number n - alpha."""
    return t.n - alpha(t)


def has_perfect_matching(t: Tree) -> bool:
    return 2 * mu(t) == t.n


def core(t: Tree) -> frozenset[int]:
    """Intersection of all maximum stable sets, in O(n) by one top-down
    pass over the downward DP."""
    return _Rooted(t).core()


def one_maximum_stable_set(t: Tree) -> frozenset[int]:
    """Deterministic representative of the maximum stable sets."""
    return _Rooted(t).one_set()


# ---------------------------------------------------------------------------
# Counting and enumerating stable sets


def count_maximum_stable_sets(t: Tree) -> int:
    """|Omega(T)|. Python integers make the multiplicities overflow-safe."""
    return _Rooted(t).count()


def enumerate_maximal_stable_sets(t: Tree, limit: int) -> list[frozenset[int]]:
    """All inclusion-maximal stable sets, sorted by their sorted member
    tuples. Their count, the only bound at any n, comes first: with more
    than ``limit``, LimitExceeded (carrying it) is raised before any list."""
    _check_limit(limit)
    view = _Rooted(t)
    count = _maximal_fold(view, lambda v: 1, 0, 1, mul, add)
    if count > limit:
        raise LimitExceeded(f"{count} maximal stable sets exceed limit {limit}", count=count)
    found = _maximal_masks(view)
    return sorted((_mask_to_set(m) for m in found), key=lambda s: tuple(sorted(s)))


def _check_limit(limit) -> None:
    """Raise OutOfRange unless ``limit`` is an exact int >= 1."""
    _check_int("limit", limit)
    if limit < 1:
        raise OutOfRange(f"limit={limit} < 1")


def _maximal_fold(view: _Rooted, one, empty, blank, times, plus):
    """Wilf's recurrence (1986) for the maximal stable sets of the view's
    tree: a position's family has its vertex in (ins), out beside a child in
    (held), or out with none in (bare: its parent must be in). ``one(v)`` is
    {v}, ``empty`` no set, ``blank`` the empty set; ``times`` pairs disjoint
    families, ``plus`` joins two, and neither may change its shared inputs."""
    ins = [one(v) for v in view.order]
    held = [empty] * len(ins)
    bare = [blank] * len(ins)
    for p in view.parent_at[:0:-1]:
        ci, ch, cb = ins.pop(), held.pop(), bare.pop()  # the child's families
        held[p] = plus(times(held[p], plus(ci, ch)), times(bare[p], ci))
        ins[p] = times(ins[p], plus(ch, cb))
        bare[p] = times(bare[p], ch)
    return plus(ins[0], held[0])


def _maximal_masks(view: _Rooted) -> list[int]:
    """The maximal stable sets as unordered bitmasks of labels."""
    return _maximal_fold(view, lambda v: [1 << v], [], [0],
                         lambda a, b: [s | x for x in b for s in a], list.__add__)


def _maximal_profile(view: _Rooted, most: int) -> dict[int, tuple[int, int]]:
    """Each size k <= ``most`` (>= 1) of some maximal stable set, mapped to
    (their number, the bitmask of their intersection). Pairing multiplies
    counts and unites intersections, joining adds counts and meets them (-1
    meets as nothing), and sizes past ``most`` drop out: about n^2 pairs."""

    def times(a, b):
        out = {}
        for ka, (ca, ia) in a.items():
            for kb, (cb, ib) in b.items():
                k = ka + kb
                if k <= most:
                    c, i = out.get(k, (0, -1))
                    out[k] = (c + ca * cb, i & (ia | ib))
        return out

    def plus(a, b):
        out = dict(a)
        for k, (c, i) in b.items():
            c0, i0 = out.get(k, (0, -1))
            out[k] = (c0 + c, i0 & i)
        return out

    return _maximal_fold(view, lambda v: {1: (1, 1 << v)}, {}, {0: (1, 0)}, times, plus)


def _mask_to_set(m: int) -> frozenset[int]:
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return frozenset(out)


# ---------------------------------------------------------------------------
# Pendant interaction and classification


def extend_pendant_set(t: Tree, a: Iterable[int]) -> frozenset[int]:
    """Grow a stable set of pendant vertices into a maximum stable set.

    Exchange procedure: start from any maximum stable set S; while some
    member u of ``a`` is outside S, its unique neighbor must occupy S, so
    swapping the two keeps S maximum and strictly grows the overlap with a.
    """
    members = frozenset(a)
    for v in members:
        _check_int("a", v)
    pend = pendant_vertices(t)
    stray = members - pend
    if stray:
        raise NotPendant(f"vertices {sorted(stray)} are not pendant")
    adjacency = t.adjacency
    for u in members:
        if adjacency[u][0] in members:
            raise NotStable(f"vertices {u} and {adjacency[u][0]} are adjacent")
    return _extend_pendants(t, members, one_maximum_stable_set(t))


def _extend_pendants(t: Tree, members: Iterable[int], start: frozenset[int]) -> frozenset[int]:
    """The exchange loop of ``extend_pendant_set``, from the maximum stable
    set ``start``, on pendant vertices already checked."""
    adjacency = t.adjacency
    s = set(start)
    for u in sorted(set(members) - s):
        # u's unique neighbor sits in s, or s was not maximum
        s.remove(adjacency[u][0])
        s.add(u)
    return frozenset(s)


def is_strong_unique_independent(t: Tree) -> bool:
    """True when every pendant vertex lies on one side of the bipartition,
    i.e. all pendant-to-pendant distances are even."""
    pend = pendant_vertices(t)
    sides = bipartition(t)
    return pend <= sides.a or pend <= sides.b


def is_strong_unique_by_definition(t: Tree) -> bool:
    """Definitional cross-check: exactly one maximum stable set, whose
    complement is also stable."""
    view = _Rooted(t)
    return _strong_unique_of(t, view.core(), view.alpha())


def _strong_unique_of(t: Tree, core: frozenset[int], alpha: int) -> bool:
    """``is_strong_unique_by_definition`` from t's core and alpha: t has one
    maximum stable set, the core, iff |core| = alpha (an O(1) test that most
    trees fail), and its complement is stable iff every edge meets the core."""
    return len(core) == alpha and all(
        v in core or core.issuperset(a) for v, a in enumerate(t.adjacency)
    )


# ---------------------------------------------------------------------------
# Aggregation


@dataclass(frozen=True)
class AnalysisReport:
    n: int
    alpha: int
    mu: int
    xi: int
    core: frozenset[int]
    pendants: frozenset[int]
    bipartition: Bipartition
    has_perfect_matching: bool
    num_maximum_stable_sets: int
    strong_unique: bool


def analyze(t: Tree) -> AnalysisReport:
    """One-stop bundle of the stability structure of a tree, from one rooted
    traversal."""
    view = _Rooted(t)
    a = view.alpha()
    core_set, sides = view.core_and_sides()
    pend = pendant_vertices(t)
    return AnalysisReport(
        n=t.n,
        alpha=a,
        mu=t.n - a,
        xi=len(core_set),
        core=core_set,
        pendants=pend,
        bipartition=sides,
        has_perfect_matching=2 * a == t.n,
        num_maximum_stable_sets=view.count(),
        strong_unique=pend <= sides.a or pend <= sides.b,
    )
