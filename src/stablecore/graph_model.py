"""Trees as immutable adjacency structures, plus generation and enumeration.

Vertices are 0-based contiguous integers. A ``Tree`` always has n >= 2,
exactly n-1 edges, and is connected. It stores only its adjacency: its
``edges`` cost O(n) per access, so hot paths read the adjacency.
Vertex deletion into forests is a test oracle and lives in ``reference``.
Trees come from two constructors: ``tree_from_edges`` fully validates an
edge list from outside, and ``prufer_decode`` builds the tree of a checked
Prufer code directly, since every such code is a tree. Each edge is
checked as it is read, by ``_edge_error``, which the edge-list parser in
``cli`` shares; ``_tree_from_ends`` builds the tree of the checked edges
for both. Labeled trees are generated and enumerated through the Prufer
bijection, and compared up to isomorphism through an AHU parenthesis
encoding rooted at the tree center.

Randomness comes from an explicit SplitMix64 generator so that every
sampled corpus is reproducible bit-for-bit across machines and runs.
"""

from __future__ import annotations

import sys
from bisect import insort
from dataclasses import dataclass
from itertools import compress, product
from typing import Iterable, Iterator, MutableSequence

from .errors import NotATree, OutOfRange, StablecoreError, TooLarge, TooSmall

DEFAULT_ENUMERATION_CEILING = 9

_MASK64 = (1 << 64) - 1

# the most draws one call returns: a list of more 8-byte slots overflows
# the address space
_MAX_DRAWS = sys.maxsize // 8

# swaps the bytes 0 and 1, turning a 0/1 membership mask into its complement
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


@dataclass(frozen=True)
class Tree:
    """Connected acyclic graph on vertices 0..n-1, immutable after construction.

    ``adjacency[v]`` is the sorted tuple of neighbors of v, and it is all
    the tree stores. Build one from outside input through
    ``tree_from_edges``, which validates it; ``prufer_decode`` (and so
    ``random_tree`` and the enumeration) builds its trees directly.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The n-1 edges (v, w) with v < w, sorted; derived in O(n) per access."""
        return tuple([(v, w) for v, a in enumerate(self.adjacency) for w in a if v < w])

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class Bipartition:
    """The unique 2-coloring of a tree; side ``a`` is the one holding vertex 0."""

    a: frozenset[int]
    b: frozenset[int]


def tree_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Tree:
    """Validate and build a Tree from an edge list: the constructor for
    input from outside the program. Each edge is checked as it is read.

    Raises OutOfRange unless n is an exact int, TooSmall (n < 2), then,
    once ``edges`` is drained, NotATree for a wrong edge count, then the
    error of the first bad edge: NotATree if it is not a pair, OutOfRange
    if an endpoint is not an exact int (a bool included), else that of
    ``_edge_error``; then NotATree for a duplicate edge or a disconnected
    graph. The count is checked before anything is allocated per vertex.
    """
    _check_int("n", n)
    if n < 2:
        raise TooSmall(f"a tree needs at least 2 vertices, got n={n}")
    ends: list[int] = []
    put = ends.append
    bad = None
    count = 0
    for count, e in enumerate(edges, 1):
        try:
            u, v = e
        except (TypeError, ValueError):
            error = NotATree(f"edge {e!r} is not a pair of endpoints")
        else:
            # exact ints only: a bool passes the range check and the list
            # index, but its Tree would serialize to text that no parser
            # reads back
            if type(u) is not int or type(v) is not int:
                error = OutOfRange(f"endpoint {v if type(u) is int else u!r} is not an int")
            elif (error := _edge_error(u, v, n)) is None:
                put(u)
                put(v)
                continue
        bad = bad or error
    if count != n - 1:
        raise NotATree(f"a tree on {n} vertices needs {n - 1} edges, got {count}")
    if bad:
        raise bad
    return _tree_from_ends(n, ends)


def _edge_error(u: int, v: int, n: int) -> StablecoreError | None:
    """The error of the edge (u, v) in a tree on n vertices, which both
    readers of edges check as they read: OutOfRange for an endpoint outside
    0..n-1, NotATree for a self-loop, None for neither."""
    if not (0 <= u < n and 0 <= v < n):
        return OutOfRange(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
    if u == v:
        return NotATree(f"self-loop at vertex {u}")
    return None


# endpoints cut from ``ends`` at a time while the adjacency grows
_BLOCK_ENDS = 1 << 16


def _tree_from_ends(n: int, ends: MutableSequence[int]) -> Tree:
    """The build behind both readers: the Tree of n-1 checked edges, edge j
    being (ends[2j], ends[2j+1]). Raises NotATree only for a duplicate edge
    or a disconnected graph. ``ends`` is emptied.

    Every int in the Tree is taken from ``labels``, one object per vertex.
    The edges are added a block at a time, each cut from the end of
    ``ends``, so the endpoints shrink as the lists grow. One breadth-first
    sweep sorts and freezes each list; n-1 edges that reach all n vertices
    hold no duplicate.
    """
    labels = list(range(n))
    adj = [[] for _ in labels]
    while ends:
        block = ends[-_BLOCK_ENDS:]
        del ends[-_BLOCK_ENDS:]
        it = iter(block)
        for u, v in zip(it, it):
            adj[u].append(labels[v])
            adj[v].append(labels[u])
    seen = bytearray(n)
    seen[0] = 1
    order = [0]
    for v in order:
        a = adj[v]
        a.sort()
        adj[v] = a = tuple(a)
        for w in a:
            if not seen[w]:
                seen[w] = 1
                order.append(w)
    if len(order) != n:
        for v in range(n):
            a = sorted(adj[v])
            for w, x in zip(a, a[1:]):
                if w == x:
                    raise NotATree(f"duplicate edge ({min(v, w)},{max(v, w)})")
        raise NotATree(f"graph is disconnected ({len(order)} of {n} vertices reachable)")
    return Tree(n=n, adjacency=tuple(adj))


def pendant_vertices(t: Tree) -> frozenset[int]:
    """Vertices of degree exactly 1. Every tree has at least two."""
    return frozenset([v for v, a in enumerate(t.adjacency) if len(a) == 1])


def bipartition(t: Tree) -> Bipartition:
    """2-color by depth parity in a breadth-first traversal from vertex 0."""
    order, parent_at = _bfs_order(t, 0)
    odd = bytearray(len(order))
    i = 1
    for p in parent_at[1:]:
        odd[i] = odd[p] ^ 1
        i += 1
    return _sides(order, odd)


def _sides(order: list[int], odd: bytearray) -> Bipartition:
    """The Bipartition of a breadth-first order whose depth parity at
    position i is ``odd[i]``."""
    return Bipartition(
        frozenset(compress(order, odd.translate(_FLIP))), frozenset(compress(order, odd))
    )


def _check_int(name: str, v, n: int | None = None) -> None:
    """Raise OutOfRange, naming the argument ``name``, unless ``v`` is an
    exact int (a float fails as a list index, a bool passes as 0 or 1) and,
    with ``n`` given, a vertex in 0..n-1."""
    if type(v) is not int:
        raise OutOfRange(f"{name}={v!r} is not an int")
    if n is not None and not 0 <= v < n:
        raise OutOfRange(f"{name}={v} outside 0..{n - 1}")


def _check_n(n: int, ceiling: int | None = None) -> None:
    """Raise OutOfRange unless n is an exact int, TooSmall below 2, TooLarge above ``ceiling``."""
    _check_int("n", n)
    if n < 2:
        raise TooSmall(f"need n >= 2, got n={n}")
    if ceiling is not None and n > ceiling:
        raise TooLarge(f"n={n} exceeds the enumeration ceiling {ceiling}")


def bfs_depths(t: Tree, root: int) -> list[int]:
    """Edge-count distance from ``root`` to every vertex."""
    _check_int("root", root, t.n)
    order, parent_at = _bfs_order(t, root)
    depth_at = [0] * t.n
    i = 1
    for p in parent_at[1:]:
        depth_at[i] = depth_at[p] + 1
        i += 1
    depth = [0] * t.n
    for v, d in zip(order, depth_at):
        depth[v] = d
    return depth


def distance(t: Tree, u: int, v: int) -> int:
    """Number of edges on the unique u-v path."""
    _check_int("u", u, t.n)
    _check_int("v", v, t.n)
    return bfs_depths(t, u)[v]


# ---------------------------------------------------------------------------
# Prufer bijection


def prufer_decode(code: Iterable[int], n: int) -> Tree:
    """Tree for a Prufer sequence of length n-2 (the convention where the
    lowest-numbered leaf is removed first and vertex n-1 survives to the end).

    Raises TooSmall (n < 2) or OutOfRange (wrong length, or an entry that
    is not an exact int in 0..n-1: a bool, which would pass as 0 or 1, is
    refused). Every code that passes these checks decodes to a tree, so
    the Tree is built straight from the decoded parents, without the
    checks of ``tree_from_edges``.
    """
    _check_n(n)
    seq = list(code)
    if len(seq) != n - 2:
        raise OutOfRange(f"code length {len(seq)} != n-2 = {n - 2}")
    for x in seq:
        if type(x) is not int:
            raise OutOfRange(f"code entry {x!r} is not an int")
        if not 0 <= x < n:
            raise OutOfRange(f"code entry {x} outside 0..{n - 1}")
    return _decode(seq, n)


def _decode(seq: list[int] | tuple[int, ...], n: int) -> Tree:
    """``prufer_decode`` of a code known to be valid: the generators' own
    codes skip the entry checks."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    child_count = [d - 1 for d in degree]
    child_count[n - 1] += 1
    # Every vertex but n-1 is removed once, as a leaf, next to its parent.
    parent = [0] * (n - 1)
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        parent[leaf] = x
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    parent[leaf] = n - 1
    # Every int in the Tree is taken from ``labels``, one object per vertex.
    # Each list is dropped as soon as its tuple is made: a million live
    # lists would keep the garbage collector busy.
    labels = list(range(n))
    by_parent = labels[:-1]
    by_parent.sort(key=parent.__getitem__)  # stable: each vertex's children ascending
    adjacency = []
    start = 0
    for k, p in zip(child_count, parent):
        if k:
            a = by_parent[start:start + k]
            start += k
            insort(a, labels[p])
            adjacency.append(tuple(a))
        else:
            adjacency.append((labels[p],))
    adjacency.append(tuple(by_parent[start:]))
    return Tree(n=n, adjacency=tuple(adjacency))


def prufer_encode(t: Tree) -> tuple[int, ...]:
    """Inverse of ``prufer_decode``: peel the lowest leaf n-2 times."""
    n = t.n
    adjacency = t.adjacency
    degree = [len(a) for a in adjacency]
    alive = bytearray([1]) * n
    code = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for _ in range(n - 2):
        alive[leaf] = 0
        degree[leaf] = 0
        nb = -1
        for w in adjacency[leaf]:
            if alive[w]:
                nb = w
                break
        code.append(nb)
        degree[nb] -= 1
        if degree[nb] == 1 and nb < ptr:
            leaf = nb
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    return tuple(code)


# ---------------------------------------------------------------------------
# Canonical form (isomorphism classes of free trees)


def _centers(t: Tree) -> list[int]:
    # peel leaf layers until one or two vertices remain
    n = t.n
    degree = [len(a) for a in t.adjacency]
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for w in t.adjacency[v]:
                if degree[w] > 1:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def _rooted_encoding(t: Tree, root: int) -> str:
    _, parent_at = _bfs_order(t, root)
    # bottom-up: each position's encoding is final before its parent's turn
    below: list[list[str]] = [[] for _ in parent_at]
    for i in range(len(parent_at) - 1, 0, -1):
        below[parent_at[i]].append("(" + "".join(sorted(below[i])) + ")")
    return "(" + "".join(sorted(below[0])) + ")"


def canonical_form(t: Tree) -> str:
    """Label-independent encoding: equal strings iff the trees are isomorphic.

    AHU parenthesis string rooted at the center; a bicentral tree takes the
    lexicographically smaller of its two rooted encodings.
    """
    return min(_rooted_encoding(t, c) for c in _centers(t))


def _bfs_order(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order of the tree rooted at ``root``, as two lists over
    positions: ``order[i]`` is the vertex at position i and ``parent_at[i]``
    the position of its parent, -1 at the root (position 0).

    A parent comes before its children, and ``parent_at`` never decreases
    along the order. So a pass that walks the positions forward (top-down)
    or backward (bottom-up) and indexes its tables by position reads and
    writes them in order, where tables indexed by vertex label would be
    touched at random. Labels come back only at the edge, through ``order``.
    """
    adjacency = t.adjacency
    seen = bytearray(t.n)
    seen[root] = 1
    order = [root]
    parent_at = [-1]
    i = 0
    for v in order:
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = 1
                order.append(w)
                parent_at.append(i)
        i += 1
    return order, parent_at


# ---------------------------------------------------------------------------
# Seeded generation and exhaustive enumeration


class SplitMix64:
    """SplitMix64 generator: fixed algorithm, identical output everywhere.

    state <- state + 0x9E3779B97F4A7C15 (mod 2^64); the output is the state
    scrambled by two xor-shift-multiply rounds. Bounded draws use rejection
    sampling, so there is no modulo bias.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        _check_int("seed", seed)
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, bound: int) -> int:
        return self.draws(bound, 1)[0]

    def draws(self, bound: int, count: int) -> list[int]:
        """``count`` uniform draws from 0..bound-1: each is the next
        ``next_u64`` output below the largest multiple of bound up to 2^64,
        reduced mod bound. The limit is computed once and ``next_u64`` is
        inlined, which matters at a million draws. Raises OutOfRange unless
        1 <= bound <= 2^64 and count >= 0 are exact ints, and TooLarge,
        before it draws, for more draws than a list can hold or than memory
        can allocate."""
        _check_int("bound", bound)
        _check_int("count", count)
        if bound < 1:
            raise OutOfRange(f"bound={bound} < 1")
        if count < 0:
            raise OutOfRange(f"count={count} < 0")
        if bound > _MASK64 + 1:  # no draw would ever be below the limit, 0
            raise OutOfRange(f"bound={bound} > 2^64")
        if count > _MAX_DRAWS:
            raise TooLarge(f"count={count} > {_MAX_DRAWS}, the most draws a list can hold")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % bound)
        state = self.state
        try:
            out = [0] * count
        except MemoryError:
            raise TooLarge(f"count={count}: no memory for a list of that many draws") from None
        for i in range(count):
            while True:
                state = (state + 0x9E3779B97F4A7C15) & _MASK64
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                z ^= z >> 31
                if z < limit:
                    break
            out[i] = z % bound
        self.state = state
        return out


def derive_seed(seed: int, index: int) -> int:
    """Child seed for item ``index`` of a seeded stream.

    Pure function of (seed, index); lets corpus items be regenerated
    independently and in any order.
    """
    _check_int("seed", seed)
    _check_int("index", index)
    g = SplitMix64((seed & _MASK64) ^ (((index + 1) * 0xD1342543DE82EF95) & _MASK64))
    return g.next_u64()


def random_tree(n: int, seed: int) -> Tree:
    """Uniform random labeled tree on n vertices: a uniform Prufer code, decoded."""
    _check_n(n)
    _check_int("seed", seed)
    return _prufer_draw(SplitMix64(seed), n)


def _prufer_draw(rng: SplitMix64, n: int) -> Tree:
    """Decode the Prufer code of n - 2 uniform draws from ``rng``."""
    return _decode(rng.draws(n, n - 2), n)


def labeled_tree_count(n: int) -> int:
    """Cayley's count of labeled trees on n vertices. Raises OutOfRange
    unless n is an exact int, and TooSmall for n < 2."""
    _check_n(n)
    return n ** (n - 2)


def _prufer_codes(n: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """The Prufer codes on n vertices numbered lo..hi-1, 0 <= lo <= hi <= n^(n-2), in the
    exhaustive order: code i is i in base n with n - 2 digits. Each aligned block of n^j
    codes gets its shared high digits once, and ``product`` steps through its low j digits."""
    while lo < hi:
        j, size = 0, 1
        while j < n - 2 and lo % (size * n) == 0 and lo + size * n <= hi:
            j, size = j + 1, size * n
        head = tuple([lo // size // n ** p % n for p in range(n - 3 - j, -1, -1)])
        yield from map(head.__add__, product(range(n), repeat=j))
        lo += size


def labeled_tree_at(n: int, index: int) -> Tree:
    """Tree number ``index`` (0-based) in the order of ``enumerate_labeled_trees``,
    which checks n as this does; OutOfRange for an index outside 0..n^(n-2)-1."""
    _check_n(n, DEFAULT_ENUMERATION_CEILING)
    _check_int("index", index)
    if not 0 <= index < n ** (n - 2):
        raise OutOfRange(f"index={index} outside 0..{n ** (n - 2) - 1}")
    return _decode(next(_prufer_codes(n, index, index + 1)), n)


def enumerate_labeled_trees(n: int) -> Iterator[Tree]:
    """Every labeled tree on n vertices once (n^(n-2) of them), in lexicographic Prufer-code
    order. Raises TooLarge above DEFAULT_ENUMERATION_CEILING vertices, at the call."""
    _check_n(n, DEFAULT_ENUMERATION_CEILING)
    return (_decode(code, n) for code in _prufer_codes(n, 0, n ** (n - 2)))
