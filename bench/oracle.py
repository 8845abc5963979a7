"""Independent oracle for the benchmark's output checks.

Standard library only, and nothing here imports stablecore: every expected
value is re-derived from the README's Reproducibility section and from
textbook algorithms, so a fault in the program cannot hide by agreeing with
itself.

- ``SplitMix64``, ``derive_seed`` and ``prufer_edges`` rebuild every corpus
  tree and the 10^6-vertex tree from the seed alone. The Prufer decoder keeps
  a heap of current leaves instead of the program's pointer scan.
- ``brute_force`` gives alpha, the core and the number of maximum stable sets
  by scanning all 2^n vertex subsets (n <= 7).
- ``leaf_greedy`` gives alpha and the matching number of any tree: taken
  bottom-up, a vertex joins the stable set when none of its children did, and
  is matched to its parent when both are still free.

Vertex sets are integers with bit v set for vertex v.
"""

from __future__ import annotations

import hashlib
import heapq
from itertools import product

MASK64 = (1 << 64) - 1
BRUTE_FORCE_MAX_N = 7


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randrange(self, bound: int) -> int:
        # rejection sampling: drop the top partial block of 2^64 so u % bound is uniform
        limit = (1 << 64) - (1 << 64) % bound
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound


def derive_seed(seed: int, index: int) -> int:
    return SplitMix64((seed & MASK64) ^ (((index + 1) * 0xD1342543DE82EF95) & MASK64)).next_u64()


def prufer_edges(code: list[int], n: int) -> list[tuple[int, int]]:
    """Sorted (min, max) edges of the tree with this Prufer code.

    Removes the lowest-numbered leaf first; vertex n-1 survives to the end.
    """
    remaining = [1] * n
    for x in code:
        remaining[x] += 1
    leaves = [v for v in range(n) if remaining[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        remaining[x] -= 1
        if remaining[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), n - 1))
    edges.sort()
    return edges


def _random_code(n: int, rng: SplitMix64) -> list[int]:
    return [rng.randrange(n) for _ in range(n - 2)]


def random_tree_codes(n: int, seed: int):
    """(n, code) of ``random_tree(n, seed)``."""
    yield n, _random_code(n, SplitMix64(seed))


def random_corpus_codes(n_min: int, n_max: int, sample: int, seed: int):
    """(n, code) for each item of a seeded random corpus, in index order."""
    for i in range(sample):
        rng = SplitMix64(derive_seed(seed, i))
        n = n_min + rng.randrange(n_max - n_min + 1)
        yield n, _random_code(n, rng)


def exhaustive_codes(n_min: int, n_max: int):
    """(n, code) for every labeled tree, n ascending, codes in lexicographic order."""
    for n in range(n_min, n_max + 1):
        for code in product(range(n), repeat=n - 2):
            yield n, list(code)


def tree_text(n: int, edges) -> str:
    """The edge-list document: vertex count, then one sorted edge per line."""
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def degree_record(degrees) -> bytes:
    """One tree's degree sequence as hashed by both sides of the check."""
    return ",".join(map(str, degrees)).encode() + b";"


def bitset(vertices, n: int) -> int:
    """Vertex set as an integer mask, built in O(n) even for huge n."""
    buf = bytearray((n + 7) // 8)
    for v in vertices:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_from(adj: list[list[int]], root: int):
    """Breadth-first order from ``root`` with parent and depth arrays."""
    n = len(adj)
    parent = [-1] * n
    depth = [-1] * n
    depth[root] = 0
    order = [root]
    for v in order:
        for w in adj[v]:
            if depth[w] < 0:
                parent[w] = v
                depth[w] = depth[v] + 1
                order.append(w)
    return order, parent, depth


def leaf_greedy(order: list[int], parent: list[int]) -> tuple[int, int]:
    """(alpha, matching number) of a tree by bottom-up leaf greed, given a
    breadth-first order and parent array."""
    n = len(order)
    child_taken = bytearray(n)
    matched = bytearray(n)
    alpha = mu = 0
    for v in reversed(order):
        p = parent[v]
        if not child_taken[v]:
            alpha += 1
            if p >= 0:
                child_taken[p] = 1
        if p >= 0 and not matched[v] and not matched[p]:
            matched[v] = matched[p] = 1
            mu += 1
    return alpha, mu


def brute_force(n: int, edges) -> tuple[int, int, int]:
    """(alpha, core mask, number of maximum stable sets) by subset scan."""
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is for n <= {BRUTE_FORCE_MAX_N}, got {n}")
    best = -1
    inter = count = 0
    for m in range(1 << n):
        if any(m >> u & 1 and m >> v & 1 for u, v in edges):
            continue
        size = m.bit_count()
        if size > best:
            best, inter, count = size, m, 1
        elif size == best:
            inter &= m
            count += 1
    return best, inter, count


class TreeFacts:
    """What the oracle knows about one tree.

    ``brute`` (alpha, core, count) and ``core_pendants_at_four`` exist only
    for n <= 7; ``core_pendants_at_four`` says whether the core meets the
    pendants in exactly two vertices at distance 4.
    """

    __slots__ = ("n", "edges", "side_a", "pendants", "alpha", "mu", "brute",
                 "core_pendants_at_four")

    def __init__(self, n: int, edges, keep_edges: bool):
        adj = adjacency(n, edges)
        order, parent, depth = bfs_from(adj, 0)
        self.n = n
        self.edges = edges if keep_edges else None
        self.side_a = bitset((v for v in range(n) if depth[v] % 2 == 0), n)
        self.pendants = bitset((v for v in range(n) if len(adj[v]) == 1), n)
        self.alpha, self.mu = leaf_greedy(order, parent)
        self.brute = None
        self.core_pendants_at_four = None
        if n <= BRUTE_FORCE_MAX_N:
            self.brute = brute_force(n, edges)
            cp = [v for v in range(n) if (self.brute[1] & self.pendants) >> v & 1]
            self.core_pendants_at_four = (
                len(cp) == 2 and bfs_from(adj, cp[0])[2][cp[1]] == 4
            )

    @property
    def perfect_matching(self) -> bool:
        return 2 * self.mu == self.n


def expectations(trees, keep_edges: bool = False) -> dict:
    """Digest of the corpus documents, digest of the degree sequences read
    off the Prufer codes (1 + multiplicity), and per-tree facts.

    ``trees`` yields (n, code) in corpus order.
    """
    text_h = hashlib.sha256()
    degree_h = hashlib.sha256()
    facts = []
    for n, code in trees:
        edges = prufer_edges(code, n)
        text_h.update(tree_text(n, edges).encode())
        degrees = [1] * n
        for x in code:
            degrees[x] += 1
        degree_h.update(degree_record(degrees))
        del code
        facts.append(TreeFacts(n, edges, keep_edges))
    return {"text": text_h.hexdigest(), "degrees": degree_h.hexdigest(), "facts": facts}


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def spider_edges(k: int) -> list[tuple[int, int]]:
    """Hub 0 with k legs of two edges: 0 - i - i+k."""
    return [(0, i) for i in range(1, k + 1)] + [(i, i + k) for i in range(1, k + 1)]


def broom_of_edges(k: int) -> list[tuple[int, int]]:
    """Hub 0 with two leaves (1, 2) and k legs 0 - 2i+1 - 2i+2 (i = 1..k).

    The two leaves keep the hub out of every maximum stable set, so each leg
    is a free edge with two choices: 2^k maximum stable sets on 2k + 3
    vertices.
    """
    edges = [(0, 1), (0, 2)]
    for i in range(1, k + 1):
        edges += [(0, 2 * i + 1), (2 * i + 1, 2 * i + 2)]
    return edges
