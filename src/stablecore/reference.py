"""Test oracles: the brute-force paths that cross-check the instrument.

The production modules (graph_model, independence, harness, cli, bonding,
errors) decide every verdict and import nothing from here; this module
imports what it needs from them. It holds vertex deletion into forests, a
quadratic per-deletion core, a matching-based core, an exhaustive bitmask
oracle for graphs that need not be trees, with its filter of the maximal
stable sets, explicit enumeration of the maximum stable sets, and the
non-tree figure fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from typing import Iterable, Iterator

from .errors import EmptyResult, LimitExceeded, OutOfRange, StablecoreError, TooLarge
from .graph_model import Tree, tree_from_edges
from .independence import _check_limit, _mask_to_set, _Rooted, alpha

BRUTE_FORCE_CEILING = 30


@dataclass(frozen=True)
class ForestComponent:
    """One connected piece left after deletion, over the original labels.

    ``tree`` is the component relabeled to 0..k-1 following the sorted
    ``vertices`` tuple; it is None for singletons (a Tree needs n >= 2).
    """

    vertices: tuple[int, ...]
    tree: Tree | None


@dataclass(frozen=True)
class Forest:
    components: tuple[ForestComponent, ...]

    @property
    def vertex_count(self) -> int:
        return sum(len(c.vertices) for c in self.components)


def delete_vertices(t: Tree, w: Iterable[int]) -> Forest:
    """Induced subgraph on V - w, decomposed into components over original labels."""
    removed = bytearray(t.n)
    for v in w:
        if not 0 <= v < t.n:
            raise OutOfRange(f"vertex {v} outside 0..{t.n - 1}")
        removed[v] = 1
    survivors = t.n - sum(removed)
    if survivors == 0:
        raise EmptyResult("deleting every vertex leaves nothing")
    adjacency = t.adjacency
    seen = bytearray(t.n)
    components = []
    for s in range(t.n):
        if removed[s] or seen[s]:
            continue
        seen[s] = 1
        comp = [s]
        i = 0
        while i < len(comp):
            v = comp[i]
            i += 1
            for x in adjacency[v]:
                if not removed[x] and not seen[x]:
                    seen[x] = 1
                    comp.append(x)
        comp.sort()
        if len(comp) == 1:
            components.append(ForestComponent(vertices=(comp[0],), tree=None))
            continue
        index = {v: i for i, v in enumerate(comp)}
        sub_edges = [
            (index[v], index[x]) for v in comp for x in adjacency[v] if not removed[x] and v < x
        ]
        components.append(
            ForestComponent(vertices=tuple(comp), tree=tree_from_edges(len(comp), sub_edges))
        )
    return Forest(components=tuple(components))


def _alpha_without(t: Tree, skip: int) -> int:
    """Stability number of T - skip, recomputed from scratch (no shared state
    with the production DP; this is the quadratic reference's inner step)."""
    n = t.n
    adjacency = t.adjacency
    parent = [-2] * n
    parent[skip] = skip
    order = []
    for s in range(n):
        if parent[s] != -2:
            continue
        parent[s] = -1
        order.append(s)
        i = len(order) - 1
        while i < len(order):
            v = order[i]
            i += 1
            for w in adjacency[v]:
                if parent[w] == -2:
                    parent[w] = v
                    order.append(w)
    sum_ex = [0] * n
    sum_best = [0] * n
    total = 0
    for idx in range(len(order) - 1, -1, -1):
        v = order[idx]
        di = 1 + sum_ex[v]
        de = sum_best[v]
        p = parent[v]
        if p < 0:
            total += di if di > de else de
        else:
            sum_ex[p] += de
            sum_best[p] += di if di > de else de
    return total


def core_naive(t: Tree) -> frozenset[int]:
    """Quadratic reference for ``core``: n independent vertex deletions,
    summing component stability numbers."""
    target = alpha(t) - 1
    return frozenset(v for v in range(t.n) if _alpha_without(t, v) == target)


def _greedy_mates(t: Tree) -> list[int]:
    """The mate of each vertex (-1 if exposed) in a maximum matching, built
    from the leaves inward: in reverse breadth-first order from vertex 0, a
    vertex still exposed is matched to its parent if that is exposed too.
    Exact on trees: at v's turn its children are matched, so v is a leaf of
    the forest left, and some maximum matching of a forest holds the edge of
    a leaf. Its own traversal; nothing is shared with the stability DP."""
    n = t.n
    adjacency = t.adjacency
    parent = [-1] * n
    seen = bytearray(n)
    seen[0] = 1
    order = [0]
    for v in order:
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = 1
                parent[w] = v
                order.append(w)
    mate = [-1] * n
    for v in reversed(order):
        p = parent[v]
        if p >= 0 and mate[v] < 0 and mate[p] < 0:
            mate[v] = p
            mate[p] = v
    return mate


def maximum_matching(t: Tree) -> list[tuple[int, int]]:
    """The edges (v, w), v < w, of a maximum matching of t, in order of v."""
    return [(v, w) for v, w in enumerate(_greedy_mates(t)) if v < w]


def core_by_matching(t: Tree) -> frozenset[int]:
    """The core from a maximum matching, independently of the stability DP.

    On a bipartite graph, v is in the core iff alpha(G - v) = alpha - 1, and
    by Konig on G and G - v iff some maximum matching misses v. Those are
    the vertices that an even alternating path reaches from an exposed
    vertex (Gallai-Edmonds; Lovasz & Plummer, Matching Theory, 1986): from
    an even vertex, a non-matching edge leads to a matched vertex, and its
    matching edge to the next even one."""
    mate = _greedy_mates(t)
    even = bytearray(v < 0 for v in mate)
    stack = [v for v, w in enumerate(mate) if w < 0]
    adjacency = t.adjacency
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            z = mate[y]
            if z < 0:
                raise AssertionError(f"augmenting path at edge ({x},{y}): matching not maximum")
            if not even[z]:
                even[z] = 1
                stack.append(z)
    return frozenset(compress(range(t.n), even))


def alpha_forest(f: Forest) -> int:
    """Stability number of a forest: components add up; singletons count 1."""
    return sum(1 if c.tree is None else alpha(c.tree) for c in f.components)


# ---------------------------------------------------------------------------
# Exhaustive oracle on small, possibly non-tree graphs


@dataclass(frozen=True)
class SmallGraph:
    """Simple graph on at most 30 vertices, adjacency kept as bitmasks."""

    n: int
    adjacency_masks: tuple[int, ...]


@dataclass(frozen=True)
class BruteForceResult:
    alpha: int
    count: int
    core: frozenset[int]
    one_witness: frozenset[int]


def small_graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> SmallGraph:
    if n > BRUTE_FORCE_CEILING:
        raise TooLarge(f"n={n} exceeds the brute-force ceiling {BRUTE_FORCE_CEILING}")
    if n < 1:
        raise StablecoreError("need at least one vertex")
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise StablecoreError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise StablecoreError(f"self-loop at vertex {u}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return SmallGraph(n=n, adjacency_masks=tuple(masks))


def small_graph_from_tree(t: Tree) -> SmallGraph:
    return small_graph_from_edges(t.n, t.edges)


def stable_masks(g: SmallGraph) -> list[int]:
    """All stable subsets of g as bitmasks, in increasing numeric order.

    Uses the subset recurrence: a set is stable iff the set minus its lowest
    vertex is stable and that vertex has no neighbor among the rest.
    Memory is 2^n bytes, so this path is capped well below the ceiling.
    """
    n = g.n
    if n > 24:
        raise TooLarge(f"stable-subset table needs 2^{n} bytes; cap is n=24")
    masks = g.adjacency_masks
    size = 1 << n
    stab = bytearray(size)
    stab[0] = 1
    out = [0]
    for m in range(1, size):
        low = m & -m
        r = m ^ low
        if stab[r] and not (masks[low.bit_length() - 1] & r):
            stab[m] = 1
            out.append(m)
    return out


def maximal_stable_masks(g: SmallGraph) -> list[int]:
    """The stable subsets of g to which no vertex can be added (each vertex
    is in the set or has a neighbor there), in increasing numeric order."""
    closed = [(1 << v) | a for v, a in enumerate(g.adjacency_masks)]
    return [m for m in stable_masks(g) if all(c & m for c in closed)]


def _stable_masks_direct(g: SmallGraph) -> Iterator[int]:
    """All stable subsets of g, each tested on its own: no 2^n table, so it
    serves sizes above ``stable_masks``' cap (slow, but within contract)."""
    masks = g.adjacency_masks
    for m in range(1 << g.n):
        probe = m
        while probe:
            low = probe & -probe
            if masks[low.bit_length() - 1] & m:
                break
            probe ^= low
        else:
            yield m


def brute_force_stability(g: SmallGraph) -> BruteForceResult:
    """Exhaustive subset scan: stability number, number of maximum stable
    sets, their intersection, and the numerically first witness."""
    n = g.n
    if n > BRUTE_FORCE_CEILING:
        raise TooLarge(f"n={n} exceeds the brute-force ceiling {BRUTE_FORCE_CEILING}")
    best = -1  # both scans yield the empty set first, which sets every total
    for m in stable_masks(g) if n <= 24 else _stable_masks_direct(g):
        c = m.bit_count()
        if c > best:
            best = c
            count = 1
            inter = m
            witness = m
        elif c == best:
            count += 1
            inter &= m
    return BruteForceResult(
        alpha=best,
        count=count,
        core=_mask_to_set(inter),
        one_witness=_mask_to_set(witness),
    )


# ---------------------------------------------------------------------------
# Explicit enumeration and the non-tree figure fixture


def enumerate_maximum_stable_sets(t: Tree, limit: int) -> list[frozenset[int]]:
    """All maximum stable sets, sorted by their sorted member tuples.

    Counts first and raises LimitExceeded (carrying the count) before
    materializing anything when more than ``limit`` sets exist. A top-down
    pass marks the (vertex, in/out) states that some maximum stable set
    uses; a bottom-up pass then builds each marked state's sets of the
    vertex's subtree. Unmarked states are never built: a vertex that every
    maximum stable set contains can have an out-state with 2^k sets.
    """
    _check_limit(limit)
    view = _Rooted(t)
    count = view.count()
    if count > limit:
        raise LimitExceeded(f"{count} maximum stable sets exceed limit {limit}", count=count)
    order, down_in, down_ex = view.order, view.down_in, view.down_ex
    n = t.n
    # per position, bit 1: in, bit 2: out; optimal[i] holds the states that
    # are optimal for i's subtree, used[i] those that some maximum stable set
    # takes
    optimal = bytearray((di >= de) | (de >= di) << 1 for di, de in zip(down_in, down_ex))
    used = bytearray(n)
    used[0] = optimal[0]
    children: list[list[int]] = [[] for _ in range(n)]
    i = 1
    for p in view.parent_at[1:]:
        children[p].append(i)
        if used[p] & 1:
            used[i] |= 2
        if used[p] & 2:
            used[i] |= optimal[i]
        i += 1
    sets_in: list[list[frozenset[int]] | None] = [None] * n
    sets_ex: list[list[frozenset[int]] | None] = [None] * n

    def optimal_sets(i: int) -> list[frozenset[int]]:
        return (sets_in[i] if optimal[i] & 1 else []) + (sets_ex[i] if optimal[i] & 2 else [])

    for i in range(n - 1, -1, -1):
        kids = children[i]
        if used[i] & 1:
            head = frozenset((order[i],))
            sets_in[i] = [head.union(*combo) for combo in product(*(sets_ex[c] for c in kids))]
        if used[i] & 2:
            parts = [optimal_sets(c) for c in kids]
            sets_ex[i] = [frozenset().union(*combo) for combo in product(*parts)]
        for c in kids:
            sets_in[c] = sets_ex[c] = None
    results = optimal_sets(0)
    results.sort(key=lambda s: tuple(sorted(s)))
    return results


def fig1_graph() -> SmallGraph:
    """Seven-vertex non-tree whose pendant vertex is avoided by some
    maximum stable set (so C3 does not extend beyond trees)."""
    return small_graph_from_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (1, 5), (2, 6), (5, 6)]
    )
