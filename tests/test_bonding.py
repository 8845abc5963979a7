import pytest

from stablecore import (
    OutOfRange,
    TooSmall,
    alpha,
    canonical_form,
    core,
    enumerate_labeled_trees,
    map_set,
    random_tree,
    spider,
    tree_from_edges,
    vertex_bond,
)


def path(n):
    return tree_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_bond_two_edges_gives_path():
    b = vertex_bond(path(2), 1, path(2), 0)
    assert canonical_form(b.tree) == canonical_form(path(3))
    assert b.tree.n == 3


def test_bond_two_path_centers_gives_star():
    b = vertex_bond(path(3), 1, path(3), 1)
    star5 = tree_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert canonical_form(b.tree) == canonical_form(star5)
    assert b.tree.degree(b.bond_vertex) == 4  # degrees add at the bond vertex


def test_bond_p5_centers_alpha():
    b = vertex_bond(path(5), 2, path(5), 2)
    assert b.tree.n == 9
    assert alpha(b.tree) == 3 + 3 - 1


def test_bond_maps_and_edge_bijection():
    t1, t2 = path(4), spider(2)
    b = vertex_bond(t1, 3, t2, 0)
    assert b.tree.n == t1.n + t2.n - 1
    assert len(set(b.left_map)) == t1.n
    assert len(set(b.right_map)) == t2.n
    assert set(b.left_map) & set(b.right_map) == {b.bond_vertex}
    assert b.left_map[3] == b.right_map[0] == b.bond_vertex
    mapped = sorted(
        tuple(sorted((b.left_map[u], b.left_map[v]))) for u, v in t1.edges
    ) + sorted(tuple(sorted((b.right_map[u], b.right_map[v]))) for u, v in t2.edges)
    assert sorted(mapped) == list(b.tree.edges)
    assert b.tree.degree(b.bond_vertex) == t1.degree(3) + t2.degree(0)


def test_bond_out_of_range():
    with pytest.raises(OutOfRange, match="v1=2 outside"):
        vertex_bond(path(2), 2, path(2), 0)
    with pytest.raises(OutOfRange, match="v2=-1 outside"):
        vertex_bond(path(2), 0, path(2), -1)


@pytest.mark.parametrize("bad", [True, 1.0])
def test_bond_vertex_must_be_an_exact_int(bad):
    t = path(3)
    with pytest.raises(OutOfRange, match=f"v1={bad!r} is not an int"):
        vertex_bond(t, bad, t, 0)
    with pytest.raises(OutOfRange, match=f"v2={bad!r} is not an int"):
        vertex_bond(t, 0, t, bad)


def test_spider_family():
    assert canonical_form(spider(1)) == canonical_form(path(3))
    s3 = spider(3)
    assert s3.degree(0) == 3 and 0 in core(s3)
    for k in range(1, 7):
        s = spider(k)
        assert s.n == 2 * k + 1
        assert alpha(s) == k + 1
        assert 0 in core(s)
    with pytest.raises(TooSmall):
        spider(0)


def _bond_laws_hold(t1, v1, t2, v2):
    """Check the three bonding laws on one pair; returns witnesses for failures."""
    b = vertex_bond(t1, v1, t2, v2)
    core_bonded = core(b.tree)
    in_bonded = b.bond_vertex in core_bonded
    in_both = v1 in core(t1) and v2 in core(t2)
    if in_bonded != in_both:
        return "core membership biconditional"
    if in_bonded:
        if alpha(b.tree) != alpha(t1) + alpha(t2) - 1:
            return "additivity"
        union = map_set(core(t1), b.left_map) | map_set(core(t2), b.right_map)
        if union != core_bonded:
            return "core union"
    return None


def test_bond_laws_exhaustive_tiny():
    # every pair of labeled trees with up to 4 vertices, every vertex choice:
    # exercises both directions of the core-membership biconditional
    trees = [t for n in range(2, 5) for t in enumerate_labeled_trees(n)]
    for t1 in trees:
        for v1 in range(t1.n):
            for t2 in trees:
                for v2 in range(t2.n):
                    assert _bond_laws_hold(t1, v1, t2, v2) is None


def test_bond_laws_random_pairs():
    for i in range(150):
        t1 = random_tree(3 + i % 9, seed=2 * i)
        t2 = random_tree(3 + (i // 3) % 11, seed=2 * i + 1)
        for v1 in range(t1.n):
            for v2 in range(t2.n):
                assert _bond_laws_hold(t1, v1, t2, v2) is None
