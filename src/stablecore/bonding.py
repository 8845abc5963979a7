"""Gluing two trees at a single vertex, and the degree-k core-vertex family.

``vertex_bond`` identifies one chosen vertex of each factor into a single
vertex of the result; the label maps are returned so that vertex sets
computed on a factor can be translated into the bonded tree's labels and
back.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooSmall
from .graph_model import Tree, _check_int, tree_from_edges


@dataclass(frozen=True)
class BondResult:
    """Bond of two trees at one vertex.

    ``left_map[i]`` / ``right_map[j]`` give the result label of vertex i of
    the first factor / vertex j of the second; both maps send their chosen
    vertex to ``bond_vertex``.
    """

    tree: Tree
    bond_vertex: int
    left_map: tuple[int, ...]
    right_map: tuple[int, ...]


def vertex_bond(t1: Tree, v1: int, t2: Tree, v2: int) -> BondResult:
    """Identify vertex v1 of t1 with vertex v2 of t2.

    The first factor keeps its labels (bond vertex included); the second
    factor's remaining vertices follow in label order, so the result has
    n1 + n2 - 1 vertices and is again a tree. Raises OutOfRange, naming
    the argument, for a bond vertex that is not an int of its factor's
    range (a bool or a float included).
    """
    _check_int("v1", v1, t1.n)
    _check_int("v2", v2, t2.n)
    n = t1.n + t2.n - 1
    left_map = tuple(range(t1.n))
    right = []
    nxt = t1.n
    for j in range(t2.n):
        if j == v2:
            right.append(v1)
        else:
            right.append(nxt)
            nxt += 1
    right_map = tuple(right)
    edges = list(t1.edges)
    edges.extend((right_map[u], right_map[w]) for u, w in t2.edges)
    return BondResult(
        tree=tree_from_edges(n, edges),
        bond_vertex=v1,
        left_map=left_map,
        right_map=right_map,
    )


def map_set(vertices: frozenset[int], mapping: tuple[int, ...]) -> frozenset[int]:
    """Translate a factor-label vertex set through a bond map."""
    return frozenset(mapping[v] for v in vertices)


def spider(k: int) -> Tree:
    """Tree on 2k+1 vertices: a hub (vertex 0) with k legs of two edges each.

    The hub has degree k and lies in the core together with the k outer
    leg tips; the stability number is k + 1.
    """
    _check_int("k", k)
    if k < 1:
        raise TooSmall(f"need k >= 1, got k={k}")
    edges = [(0, i) for i in range(1, k + 1)]
    edges.extend((i, i + k) for i in range(1, k + 1))
    return tree_from_edges(2 * k + 1, edges)
