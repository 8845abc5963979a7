import dataclasses
import re
import tracemalloc
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablecore import (
    NotATree,
    OutOfRange,
    SplitMix64,
    TooLarge,
    TooSmall,
    Tree,
    bfs_depths,
    bipartition,
    canonical_form,
    delete_vertices,
    derive_seed,
    distance,
    enumerate_labeled_trees,
    extend_pendant_set,
    labeled_tree_count,
    pendant_vertices,
    prufer_decode,
    prufer_encode,
    random_tree,
    spider,
    tree_from_edges,
    tree_from_serialization,
)
from stablecore.errors import EmptyResult


def path(n):
    return tree_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return tree_from_edges(n, [(0, i) for i in range(1, n)])


@st.composite
def trees(draw, max_n=40):
    n = draw(st.integers(2, max_n))
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(code, n)


# ---------------------------------------------------------------------------
# construction and validation


def test_smallest_trees():
    p2 = tree_from_edges(2, [(0, 1)])
    assert p2.n == 2 and p2.edges == ((0, 1),)
    p3 = tree_from_edges(3, [(0, 1), (1, 2)])
    assert p3.adjacency == ((1,), (0, 2), (1,))


def test_cycle_rejected():
    with pytest.raises(NotATree):
        tree_from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize(
    "n,edges,err",
    [
        (1, [], TooSmall),
        (0, [], TooSmall),
        (2, [(0, 2)], OutOfRange),
        (2, [(-1, 0)], OutOfRange),
        (2, [(0, 0)], NotATree),
        (3, [(0, 1), (0, 1)], NotATree),
        (4, [(0, 1), (2, 3), (0, 1)], NotATree),  # duplicate + disconnected
        (4, [(0, 1), (1, 2)], NotATree),  # too few edges
        (3, [(0, 1)], NotATree),
        (2, [(0, 1.0)], OutOfRange),  # endpoints that are not ints
        (2, [(0, "1")], OutOfRange),
        (2, [(0, None)], OutOfRange),
    ],
)
def test_invalid_inputs(n, edges, err):
    with pytest.raises(err):
        tree_from_edges(n, edges)


@pytest.mark.parametrize("bad", [1.0, "1", None, True, False])
def test_non_int_endpoint_is_named(bad):
    with pytest.raises(OutOfRange, match=r"^endpoint .* is not an int$"):
        tree_from_edges(3, [(0, 1), (bad, 2)])


@pytest.mark.parametrize("bad", [(0, 1, 2), (0,), (), 5, None])
def test_edge_that_is_not_a_pair_is_named(bad):
    message = rf"^edge {re.escape(repr(bad))} is not a pair of endpoints$"
    with pytest.raises(NotATree, match=message):
        tree_from_edges(3, [bad, (1, 2)])
    with pytest.raises(NotATree, match=message):
        tree_from_edges(3, [(0, 1), bad])
    # in edge order, after the edge count and before any later edge
    with pytest.raises(NotATree, match=message):
        tree_from_edges(4, [(0, 1), bad, (2, 2)])
    with pytest.raises(OutOfRange, match=r"^edge \(0,7\) has an endpoint outside 0..3$"):
        tree_from_edges(4, [(0, 7), bad, (2, 3)])
    with pytest.raises(NotATree, match="needs 2 edges, got 3"):
        tree_from_edges(3, [(0, 1), bad, (1, 2)])


@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda: tree_from_edges("3", [(0, 1), (1, 2)]), "n", "3"),
        (lambda: tree_from_edges(2.5, [(0, 1)]), "n", 2.5),
        (lambda: random_tree(2.5, 1), "n", 2.5),
        (lambda: random_tree(10, 1.5), "seed", 1.5),
        (lambda: prufer_decode([], 2.0), "n", 2.0),
        (lambda: list(enumerate_labeled_trees(2.5)), "n", 2.5),
        (lambda: spider(2.0), "k", 2.0),
        (lambda: spider(True), "k", True),
        (lambda: extend_pendant_set(path(3), [2.0]), "a", 2.0),
        (lambda: SplitMix64(1.5), "seed", 1.5),
        (lambda: SplitMix64(1).randrange(2.0), "bound", 2.0),
        (lambda: SplitMix64(1).draws(5, 1.0), "count", 1.0),
        (lambda: derive_seed(1.5, 0), "seed", 1.5),
        (lambda: derive_seed(1, 0.5), "index", 0.5),
        (lambda: labeled_tree_count(2.5), "n", 2.5),
    ],
    ids=["tree_from_edges-str", "tree_from_edges-float", "random_tree-n", "random_tree-seed",
         "prufer_decode", "enumerate_labeled_trees", "spider-float", "spider-bool",
         "extend_pendant_set", "SplitMix64-seed", "randrange-bound", "draws-count",
         "derive_seed-seed", "derive_seed-index", "labeled_tree_count"],
)
def test_sizes_seeds_and_vertices_must_be_exact_ints(call, name, value):
    # a float or str fails deep inside as a raw TypeError, and a bool passes
    # as 0 or 1: each is refused up front, naming the argument
    with pytest.raises(OutOfRange, match=rf"^{name}={re.escape(repr(value))} is not an int$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SplitMix64(1).randrange(0), "bound=0 < 1"),
        (lambda: SplitMix64(1).draws(0, 3), "bound=0 < 1"),
        (lambda: SplitMix64(1).draws(-2, 0), "bound=-2 < 1"),
        (lambda: SplitMix64(1).draws(5, -1), "count=-1 < 0"),
        (lambda: SplitMix64(1).draws(2**64 + 1, 0), "bound=18446744073709551617 > 2^64"),
        (lambda: random_tree(2**65, 1), "bound=36893488147419103232 > 2^64"),
    ],
    ids=["randrange-0", "draws-bound-0", "draws-bound-negative", "draws-count-negative",
         "draws-bound-past-2^64", "random_tree-n-past-2^64"],
)
def test_draw_bounds_and_counts_out_of_range(call, message):
    # randrange(0) divided by zero, and these draws returned [] without a
    # word; past 2^64 no draw is ever below the rejection limit, so a draw
    # looped for ever (random_tree raised a raw OverflowError first, sizing
    # its code)
    with pytest.raises(OutOfRange, match=rf"^{re.escape(message)}$"):
        call()


def test_labeled_tree_count_needs_two_vertices():
    assert [labeled_tree_count(n) for n in range(2, 7)] == [1, 3, 16, 125, 1296]
    for n in (1, 0, -1):
        with pytest.raises(TooSmall, match=rf"^need n >= 2, got n={n}$"):
            labeled_tree_count(n)


def test_edge_order_is_canonical():
    t = tree_from_edges(3, [(2, 1), (1, 0)])
    assert t.edges == ((0, 1), (1, 2))


def test_edge_count_checked_before_per_vertex_allocation():
    # 8 characters naming 10^6 vertices: rejected at a cost bounded by the
    # text, not by n (allocating per vertex first would peak near 60 MiB)
    tracemalloc.start()
    try:
        with pytest.raises(NotATree, match=r"^a tree on 1000000 vertices needs 999999 edges, got 0$"):
            tree_from_serialization("1000000:")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _reference_tree_from_edges(n, edges):
    """The validator with a full duplicate scan ahead of the connectivity
    search, kept as the reference for the one-sweep ``tree_from_edges``."""
    if n < 2:
        raise TooSmall(f"a tree needs at least 2 vertices, got n={n}")
    edges = list(edges)
    if len(edges) != n - 1:
        raise NotATree(f"a tree on {n} vertices needs {n - 1} edges, got {len(edges)}")
    adj = [[] for _ in range(n)]
    try:
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise OutOfRange(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise NotATree(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
    except TypeError:
        bad = next(x for e in edges for x in e if not isinstance(x, int))
        raise OutOfRange(f"endpoint {bad!r} is not an int") from None
    for v in range(n):
        adj[v].sort()
        prev = -1
        for w in adj[v]:
            if w == prev:
                raise NotATree(f"duplicate edge ({min(v, w)},{max(v, w)})")
            prev = w
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = 1
                reached += 1
                stack.append(w)
    if reached != n:
        raise NotATree(f"graph is disconnected ({reached} of {n} vertices reachable)")
    return Tree(n=n, adjacency=tuple([tuple(a) for a in adj]))


def _outcome(build, n, edges):
    try:
        return build(n, edges)
    except (NotATree, OutOfRange, TooSmall) as exc:
        return type(exc), str(exc)


def test_tree_from_edges_matches_reference_on_every_small_edge_list():
    # every list of n-1 edges: 437,922 lists, trees and every kind of rejection
    cases = [(n, range(-1, n + 1)) for n in (2, 3, 4)] + [(5, range(5))]
    total = 0
    for n, ends in cases:
        pairs = list(product(ends, repeat=2))
        for edges in product(pairs, repeat=n - 1):
            expected = _outcome(_reference_tree_from_edges, n, edges)
            assert _outcome(tree_from_edges, n, edges) == expected, (n, edges)
            total += 1
    assert total == 437_922


# ---------------------------------------------------------------------------
# pendants, bipartition, distance, deletion


def test_pendants():
    assert pendant_vertices(path(2)) == {0, 1}
    assert pendant_vertices(star(4)) == {1, 2, 3}
    assert pendant_vertices(path(5)) == {0, 4}


def test_bipartition_examples():
    b = bipartition(path(2))
    assert (b.a, b.b) == ({0}, {1})
    b = bipartition(path(4))
    assert (b.a, b.b) == ({0, 2}, {1, 3})
    b = bipartition(path(5))
    assert (b.a, b.b) == ({0, 2, 4}, {1, 3})


def test_distance():
    p5 = path(5)
    assert distance(p5, 0, 4) == 4
    assert distance(p5, 4, 0) == 4
    assert distance(p5, 2, 2) == 0
    with pytest.raises(OutOfRange):
        distance(p5, 0, 5)


@pytest.mark.parametrize("bad", [1.0, 1.5, True])
def test_vertex_arguments_must_be_exact_ints(bad):
    # a float fails as a list index and a bool passes as vertex 1: both are
    # refused up front, naming the argument
    p5 = path(5)
    with pytest.raises(OutOfRange, match=rf"^root={bad!r} is not an int$"):
        bfs_depths(p5, bad)
    with pytest.raises(OutOfRange, match=rf"^u={bad!r} is not an int$"):
        distance(p5, bad, 0)
    with pytest.raises(OutOfRange, match=rf"^v={bad!r} is not an int$"):
        distance(p5, 0, bad)
    with pytest.raises(OutOfRange, match=r"^root=5 outside 0\.\.4$"):
        bfs_depths(p5, 5)
    with pytest.raises(OutOfRange, match=r"^v=-1 outside 0\.\.4$"):
        distance(p5, 0, -1)


def test_delete_vertices():
    f = delete_vertices(path(3), {1})
    assert [c.vertices for c in f.components] == [(0,), (2,)]
    assert all(c.tree is None for c in f.components)

    f = delete_vertices(path(5), {0})
    assert len(f.components) == 1
    comp = f.components[0]
    assert comp.vertices == (1, 2, 3, 4)
    assert comp.tree.n == 4 and comp.tree.edges == ((0, 1), (1, 2), (2, 3))

    f = delete_vertices(path(5), {2})
    assert [c.vertices for c in f.components] == [(0, 1), (3, 4)]

    with pytest.raises(EmptyResult):
        delete_vertices(path(2), {0, 1})
    with pytest.raises(OutOfRange):
        delete_vertices(path(2), {5})


# ---------------------------------------------------------------------------
# Prufer bijection


def test_prufer_decode_examples():
    assert prufer_decode([], 2).edges == ((0, 1),)
    assert prufer_decode([2, 2], 4).edges == ((0, 2), (1, 2), (2, 3))
    with pytest.raises(OutOfRange):
        prufer_decode([4], 4)
    with pytest.raises(OutOfRange):
        prufer_decode([-1], 3)
    with pytest.raises(OutOfRange):
        prufer_decode([0], 4)  # wrong length
    with pytest.raises(TooSmall):
        prufer_decode([], 1)
    for entry in (1.5, "1", None):
        with pytest.raises(OutOfRange, match="is not an int"):
            prufer_decode([entry], 3)
        with pytest.raises(OutOfRange, match="is not an int"):
            prufer_decode([0, entry, 1], 5)


@pytest.mark.parametrize("entry", [True, False])
def test_prufer_decode_rejects_bools(entry):
    # a bool passes the range check as 1 or 0, but is not a vertex
    with pytest.raises(OutOfRange, match=rf"^code entry {entry} is not an int$"):
        prufer_decode([entry], 3)
    with pytest.raises(OutOfRange, match=rf"^code entry {entry} is not an int$"):
        prufer_decode([0, entry, 1], 5)


def _reference_decode(code, n):
    """The decode as an edge list, validated by ``tree_from_edges``."""
    seq = list(code)
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return tree_from_edges(n, edges)


def test_prufer_decode_matches_validated_reference_exhaustive():
    # all 280,392 codes with n <= 8
    for n in range(2, 9):
        for code in product(range(n), repeat=n - 2):
            assert prufer_decode(code, n) == _reference_decode(code, n), (n, code)


def test_generated_trees_equal_their_validated_rebuild():
    for n in (3, 4, 9, 64, 257, 1000, 4099, 20000):
        for seed in range(3):
            t = random_tree(n, seed=31 * n + seed)
            assert t == tree_from_edges(n, t.edges)
    n = 10**4
    star_tree = prufer_decode([0] * (n - 2), n)
    assert star_tree == star(n) == _reference_decode([0] * (n - 2), n)
    path_tree = prufer_decode(range(1, n - 1), n)
    assert path_tree == path(n) == _reference_decode(range(1, n - 1), n)


def test_decoded_tree_holds_one_int_object_per_vertex():
    t = random_tree(5000, seed=7)
    ids = {id(v) for a in t.adjacency for v in a}
    assert len(ids) == t.n


def test_tree_stores_only_its_adjacency():
    assert [f.name for f in dataclasses.fields(Tree)] == ["n", "adjacency"]
    t = random_tree(300, seed=2)
    pairs = {(min(v, w), max(v, w)) for v in range(t.n) for w in t.adjacency[v]}
    assert t.edges == tuple(sorted(pairs)) and len(pairs) == t.n - 1


def test_prufer_round_trip_exhaustive():
    for n in range(2, 8):
        for code in product(range(n), repeat=n - 2):
            assert prufer_encode(prufer_decode(code, n)) == code


@given(trees(max_n=80))
def test_decode_encode_identity_on_trees(t):
    assert prufer_decode(prufer_encode(t), t.n) == t


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_form_invariance_small():
    p3 = tree_from_edges(3, [(0, 1), (1, 2)])
    relabeled = tree_from_edges(3, [(1, 0), (0, 2)])  # center is 0 now
    assert canonical_form(p3) == canonical_form(relabeled)


def test_canonical_form_distinguishes():
    assert canonical_form(path(4)) != canonical_form(star(4))


def test_labeled_trees_on_four_vertices_have_two_shapes():
    forms = {canonical_form(t) for t in enumerate_labeled_trees(4)}
    assert len(forms) == 2


@pytest.mark.parametrize("n,count", [(2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23)])
def test_free_tree_counts(n, count):
    forms = {canonical_form(t) for t in enumerate_labeled_trees(n)}
    assert len(forms) == count


def _permuted(t, perm):
    return tree_from_edges(t.n, [(perm[u], perm[v]) for u, v in t.edges])


def test_canonical_form_invariant_under_permutations():
    # 100 seeded shuffles per tree, sizes 2..9
    for n in range(2, 10):
        for s in range(3):
            t = random_tree(n, seed=1000 * n + s)
            reference = canonical_form(t)
            rng = SplitMix64(seed=n * 7 + s)
            for _ in range(100):
                perm = list(range(n))
                for i in range(n - 1, 0, -1):  # Fisher-Yates
                    j = rng.randrange(i + 1)
                    perm[i], perm[j] = perm[j], perm[i]
                assert canonical_form(_permuted(t, perm)) == reference


# ---------------------------------------------------------------------------
# generation and enumeration


def test_random_tree_smallest_and_deterministic():
    assert random_tree(2, 123).edges == ((0, 1),)
    assert random_tree(17, 99) == random_tree(17, 99)
    assert random_tree(17, 99) != random_tree(17, 100)
    with pytest.raises(TooSmall):
        random_tree(1, 0)


def _reference_randrange(rng, bound):
    # one rejection-sampled draw, its limit recomputed for every draw
    limit = (1 << 64) - ((1 << 64) % bound)
    while True:
        u = rng.next_u64()
        if u < limit:
            return u % bound


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 7, 8, 9, 2**20 - 1, 2**20, 2**20 + 1,
                                   2**63 - 1, 2**63, 2**63 + 1])
def test_draws_equal_single_draws(bound):
    # 2^63 + 1 rejects almost half of the outputs
    batch, single = SplitMix64(bound), SplitMix64(bound)
    drawn = batch.draws(bound, 10**4)
    assert drawn == [_reference_randrange(single, bound) for _ in range(10**4)]
    assert batch.state == single.state
    assert [batch.randrange(bound) for _ in range(10)] == [
        _reference_randrange(single, bound) for _ in range(10)
    ]


def test_random_tree_uniform_chi_square():
    # 16 labeled trees on 4 vertices; 16000 draws; chi-square at significance
    # 0.01 with 15 degrees of freedom has critical value 30.578
    population = {t.edges for t in enumerate_labeled_trees(4)}
    counts = Counter(random_tree(4, seed).edges for seed in range(16000))
    assert set(counts) <= population
    expected = 16000 / 16
    chi2 = sum((counts.get(e, 0) - expected) ** 2 / expected for e in population)
    assert chi2 < 30.578


@pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125), (6, 1296), (7, 16807)])
def test_enumeration_counts_and_distinctness(n, count):
    seen = {t.edges for t in enumerate_labeled_trees(n)}
    assert len(seen) == count == n ** (n - 2)


def test_enumeration_ceiling():
    with pytest.raises(TooLarge):
        next(enumerate_labeled_trees(10))


# ---------------------------------------------------------------------------
# structural properties


@given(trees())
def test_every_tree_has_two_pendants_and_right_edge_count(t):
    assert len(t.edges) == t.n - 1
    assert len(pendant_vertices(t)) >= 2


@given(trees())
def test_bipartition_is_a_proper_2_coloring(t):
    b = bipartition(t)
    assert b.a | b.b == set(range(t.n))
    assert not (b.a & b.b)
    assert 0 in b.a
    for u, v in t.edges:
        assert (u in b.a) != (v in b.a)


@given(trees(max_n=14))
@settings(max_examples=50)
def test_distance_parity_matches_bipartition_and_metric_axioms(t):
    b = bipartition(t)
    pairs = list(combinations(range(t.n), 2))[:40]
    for u, v in pairs:
        d = distance(t, u, v)
        assert d == distance(t, v, u) >= 1
        assert (d % 2 == 0) == ((u in b.a) == (v in b.a))
    for u, v, w in list(combinations(range(t.n), 3))[:30]:
        assert distance(t, u, w) <= distance(t, u, v) + distance(t, v, w)
