import gc
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablecore import (
    AnalysisReport,
    Bipartition,
    LimitExceeded,
    NotPendant,
    NotStable,
    OutOfRange,
    SplitMix64,
    TooLarge,
    alpha,
    alpha_forest,
    analyze,
    bfs_depths,
    bipartition,
    brute_force_stability,
    canonical_form,
    check_tree,
    core,
    core_naive,
    count_maximum_stable_sets,
    delete_vertices,
    derive_seed,
    enumerate_labeled_trees,
    enumerate_maximal_stable_sets,
    enumerate_maximum_stable_sets,
    extend_pendant_set,
    has_perfect_matching,
    is_strong_unique_by_definition,
    is_strong_unique_independent,
    mu,
    one_maximum_stable_set,
    pendant_vertices,
    prufer_decode,
    random_tree,
    small_graph_from_edges,
    small_graph_from_tree,
    spider,
    tree_from_edges,
)
from stablecore.graph_model import _centers
from stablecore.harness import _deletion_set, fig5_tree
from stablecore import independence, reference
from stablecore.reference import core_by_matching, fig1_graph, maximum_matching
from stablecore.independence import _mask_to_set, _maximal_masks, _maximal_profile, _Rooted


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
# frozen single-tree values (independently brute-forced before being pinned)


def test_alpha_examples():
    assert alpha(path(2)) == 1
    assert alpha(path(5)) == 3
    assert alpha(fig5_tree()) == 5


def test_mu_examples():
    assert mu(star(4)) == 1
    assert mu(path(4)) == 2
    assert mu(path(5)) == 2
    assert mu(fig5_tree()) == 4


def test_perfect_matching():
    assert has_perfect_matching(path(2))
    assert has_perfect_matching(path(4))
    assert not has_perfect_matching(path(5))
    assert not has_perfect_matching(star(4))


def test_core_examples():
    assert core(path(4)) == frozenset()
    assert core(path(5)) == {0, 2, 4}
    assert core(path(3)) == {0, 2}
    assert core(fig5_tree()) == {0, 2, 3, 5}


def test_core_naive_examples():
    assert core_naive(path(4)) == frozenset()
    assert core_naive(path(5)) == {0, 2, 4}
    assert core_naive(star(4)) == {1, 2, 3}


def test_count_examples():
    assert count_maximum_stable_sets(path(2)) == 2
    assert count_maximum_stable_sets(path(4)) == 3
    assert count_maximum_stable_sets(path(5)) == 1
    assert count_maximum_stable_sets(fig5_tree()) == 2


def test_count_peak_memory_is_the_view_and_two_count_lists():
    # count_maximum_stable_sets builds the rooted view, then folds each child
    # into its parent and drops the child's counts: its peak is the view plus
    # two count lists and the reversed parent list, 24 bytes a vertex. Kept,
    # the counts of 2x10^5 vertices would add about 26 more.
    t = random_tree(2 * 10**5, seed=7)
    gc.collect()  # empties the free lists, whose objects would go untraced
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        view = _Rooted(t)
        view_size = tracemalloc.get_traced_memory()[0] - base
        del view
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        count = count_maximum_stable_sets(t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert count.bit_length() > 5000
    assert peak <= view_size + 32 * t.n, (peak, view_size)


def test_enumerate_maximum_examples():
    assert enumerate_maximum_stable_sets(path(5), 10) == [frozenset({0, 2, 4})]
    assert enumerate_maximum_stable_sets(path(4), 10) == [
        frozenset({0, 2}),
        frozenset({0, 3}),
        frozenset({1, 3}),
    ]
    assert enumerate_maximum_stable_sets(path(2), 10) == [frozenset({0}), frozenset({1})]


def test_enumerate_maximum_limit():
    with pytest.raises(LimitExceeded) as exc:
        enumerate_maximum_stable_sets(path(4), 2)
    assert exc.value.count == 3


def test_enumerate_maximal_examples():
    assert enumerate_maximal_stable_sets(path(2), 10) == [frozenset({0}), frozenset({1})]
    assert enumerate_maximal_stable_sets(path(3), 10) == [frozenset({0, 2}), frozenset({1})]
    assert enumerate_maximal_stable_sets(path(4), 10) == [
        frozenset({0, 2}),
        frozenset({0, 3}),
        frozenset({1, 3}),
    ]
    with pytest.raises(LimitExceeded):
        enumerate_maximal_stable_sets(path(4), 2)


@pytest.mark.parametrize("t, count", [(path(35), 17991), (star(40), 2)],
                         ids=["path-35", "star-40"])
def test_maximal_sets_past_thirty_vertices_are_listed(t, count):
    # the count of the sets is the only bound: n = 30 was a ceiling
    sets = enumerate_maximal_stable_sets(t, limit=count)
    assert len(set(sets)) == len(sets) == count
    for s in sets:
        assert all(s.isdisjoint(t.adjacency[v]) for v in s)  # stable
        assert all(v in s or not s.isdisjoint(t.adjacency[v]) for v in range(t.n))  # dominating
    with pytest.raises(LimitExceeded) as exc:
        enumerate_maximal_stable_sets(t, limit=count - 1)
    assert exc.value.count == count


def test_maximal_sets_over_the_limit_are_counted_not_listed(monkeypatch):
    listed = []

    def spy(view):
        listed.append(view)
        return _maximal_masks(view)

    monkeypatch.setattr(independence, "_maximal_masks", spy)
    with pytest.raises(LimitExceeded) as exc:
        enumerate_maximal_stable_sets(path(35), limit=17990)
    assert exc.value.count == 17991
    assert listed == []
    # within the limit the spy sees the one listing
    enumerate_maximal_stable_sets(path(35), limit=17991)
    assert len(listed) == 1


def test_maximal_sets_match_the_subset_scan_filter():
    # every labeled tree on 2..7 vertices, then 100 seeded trees with n in 8..18
    sizes = SplitMix64(1818)
    samples = [t for n in range(2, 8) for t in enumerate_labeled_trees(n)]
    samples += [random_tree(8 + sizes.randrange(11), seed=derive_seed(1818, i))
                for i in range(100)]
    for t in samples:
        expected = reference.maximal_stable_masks(small_graph_from_tree(t))
        assert sorted(_maximal_masks(_Rooted(t))) == expected, t.edges
        sets = sorted(map(_mask_to_set, expected), key=lambda s: tuple(sorted(s)))
        assert enumerate_maximal_stable_sets(t, limit=len(sets)) == sets, t.edges


def _profile_of(masks):
    """Each size of the sets ``masks`` mapped to (their number, the bitmask
    of their intersection)."""
    profile = {}
    for m in masks:
        count, inter = profile.get(m.bit_count(), (0, m))
        profile[m.bit_count()] = (count + 1, inter & m)
    return profile


def test_maximal_profile_matches_the_subset_scan_filter():
    # every labeled tree on 2..7 vertices, then seeded trees with n in
    # 8..24, the sizes the filter covers
    samples = [t for n in range(2, 8) for t in enumerate_labeled_trees(n)]
    samples += [random_tree(n, seed=derive_seed(2424, n)) for n in range(8, 25)]
    for t in samples:
        expected = _profile_of(reference.maximal_stable_masks(small_graph_from_tree(t)))
        assert _maximal_profile(_Rooted(t), t.n) == expected, t.edges
        # sizes past ``most`` are dropped, the others kept as they are
        most = (t.n + 1) // 2
        assert _maximal_profile(_Rooted(t), most) == {
            k: v for k, v in expected.items() if k <= most
        }, t.edges


@pytest.mark.parametrize("enumerate_sets", [
    enumerate_maximal_stable_sets, enumerate_maximum_stable_sets,
], ids=["maximal", "maximum"])
@pytest.mark.parametrize("limit,message", [
    ("5", "limit='5' is not an int"), (None, "limit=None is not an int"),
    (2.5, "limit=2.5 is not an int"), (True, "limit=True is not an int"),
    (0, "limit=0 < 1"), (-3, "limit=-3 < 1"),
], ids=["str", "none", "float", "bool", "zero", "negative"])
def test_limit_must_be_an_int_of_at_least_one(enumerate_sets, limit, message):
    with pytest.raises(OutOfRange) as exc:
        enumerate_sets(path(4), limit)
    assert str(exc.value) == message


def test_brute_force_examples():
    r = brute_force_stability(small_graph_from_tree(path(2)))
    assert (r.alpha, r.count, r.core) == (1, 2, frozenset())

    edgeless = small_graph_from_edges(5, [])
    r = brute_force_stability(edgeless)
    assert (r.alpha, r.count, r.core) == (5, 1, frozenset(range(5)))

    with pytest.raises(TooLarge):
        small_graph_from_edges(31, [])


def test_brute_force_fig1():
    # the non-tree fixture: its single pendant vertex (4) is avoided by the
    # maximum stable set {1, 3, 6}
    g = fig1_graph()
    r = brute_force_stability(g)
    assert r.alpha == 3
    pendants = {v for v in range(7) if g.adjacency_masks[v].bit_count() == 1}
    assert pendants == {4}
    chosen = {1, 3, 6}
    mask = sum(1 << v for v in chosen)
    assert all(not (g.adjacency_masks[v] & mask & ~(1 << v)) for v in chosen)
    assert len(chosen) == r.alpha and not (chosen & pendants)


def test_extend_pendant_set_examples():
    assert extend_pendant_set(path(2), {0}) == {0}
    assert extend_pendant_set(path(3), {0, 2}) == {0, 2}
    spider2 = tree_from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
    assert extend_pendant_set(spider2, {3, 4}) == {0, 3, 4}


def test_extend_pendant_set_errors():
    with pytest.raises(NotStable):
        extend_pendant_set(path(2), {0, 1})
    with pytest.raises(NotPendant):
        extend_pendant_set(path(5), {0, 2})


def test_strong_unique_examples():
    assert is_strong_unique_independent(path(3))
    assert is_strong_unique_independent(path(5))
    assert not is_strong_unique_independent(path(4))
    assert is_strong_unique_by_definition(path(5))
    assert not is_strong_unique_by_definition(path(4))


def test_analyze_examples():
    rep = analyze(path(4))
    assert (rep.alpha, rep.mu, rep.xi, rep.has_perfect_matching) == (2, 2, 0, True)

    rep = analyze(path(5))
    assert (rep.alpha, rep.mu, rep.xi) == (3, 2, 3)
    assert rep.core == {0, 2, 4} and rep.strong_unique

    rep = analyze(fig5_tree())
    assert rep.alpha == 5
    assert len(rep.core & rep.pendants) == 2


# ---------------------------------------------------------------------------
# oracle equivalence (the n <= 8 sweep lives in the acceptance suite)


def test_all_paths_against_brute_force():
    for n in range(2, 16):
        t = path(n)
        r = brute_force_stability(small_graph_from_tree(t))
        assert alpha(t) == r.alpha
        assert core(t) == core_naive(t) == r.core
        assert count_maximum_stable_sets(t) == r.count
        assert mu(t) == n - r.alpha


def maximum_matching_by_scan(t):
    """Largest set of pairwise disjoint edges, over all edge subsets."""
    edges = t.edges
    best = 0
    for m in range(1 << len(edges)):
        chosen = [edges[i] for i in range(len(edges)) if m >> i & 1]
        ends = [x for e in chosen for x in e]
        if len(set(ends)) == len(ends):
            best = max(best, len(chosen))
    return best


def test_exhaustive_agreement_small():
    for n in range(2, 7):
        for t in enumerate_labeled_trees(n):
            r = brute_force_stability(small_graph_from_tree(t))
            assert alpha(t) == r.alpha
            assert core(t) == r.core
            assert core_naive(t) == r.core
            matching = maximum_matching_by_scan(t)
            assert mu(t) == matching == n - r.alpha
            assert has_perfect_matching(t) == (2 * matching == n)
            assert count_maximum_stable_sets(t) == r.count
            sets = enumerate_maximum_stable_sets(t, limit=r.count)
            assert len(sets) == r.count
            assert frozenset.intersection(*sets) == r.core
            assert analyze(t) == AnalysisReport(
                n=n,
                alpha=r.alpha,
                mu=matching,
                xi=len(r.core),
                core=r.core,
                pendants=pendant_vertices(t),
                bipartition=bipartition(t),
                has_perfect_matching=2 * matching == n,
                num_maximum_stable_sets=r.count,
                strong_unique=is_strong_unique_independent(t),
            )


def _assert_matching(t, matching):
    """``matching`` is a set of edges of t with no shared endpoint."""
    ends = [x for e in matching for x in e]
    assert len(set(ends)) == len(ends)
    assert all(w in t.adjacency[v] for v, w in matching)


def test_core_by_matching_matches_core_exhaustive():
    no_perfect = 0
    for n in range(2, 9):
        for t in enumerate_labeled_trees(n):
            m = maximum_matching(t)
            _assert_matching(t, m)
            assert len(m) == mu(t)
            assert core_by_matching(t) == core(t)
            no_perfect += 2 * len(m) < n
    # criterion 9's count of trees on 2..8 vertices without a perfect matching
    assert no_perfect == 172139


def test_core_by_matching_on_the_criterion_7_tree():
    t = random_tree(10**6, seed=20260808)
    assert core_by_matching(t) == core(t)


def test_konig_certificate_on_seeded_trees():
    # a stable set and a matching whose sizes sum to n are both optimal:
    # each matching edge keeps one of its ends out of any stable set
    sizes = SplitMix64(6060)
    for i in range(12):
        n = 10**5 if i == 0 else 2 + sizes.randrange(10**5 - 1)
        t = random_tree(n, seed=derive_seed(6060, i))
        s = one_maximum_stable_set(t)
        assert all(s.isdisjoint(t.adjacency[v]) for v in s)
        m = maximum_matching(t)
        _assert_matching(t, m)
        assert len(s) + len(m) == n


def test_core_by_matching_reports_a_matching_that_is_not_maximum(monkeypatch):
    monkeypatch.setattr(reference, "_greedy_mates", lambda t: [-1] * t.n)
    with pytest.raises(AssertionError, match="augmenting path"):
        core_by_matching(path(3))


def test_deep_path_without_recursion():
    # 3001 levels below the root, far past the interpreter's recursion limit
    p = path(3001)
    assert enumerate_maximum_stable_sets(p, 1) == [frozenset(range(0, 3001, 2))]
    assert is_strong_unique_by_definition(p)
    assert check_tree("C5", p).status == "holds"


def test_enumeration_skips_unused_states():
    # the hub is in the one maximum stable set; with the hub out, the 40 legs
    # alone would give 2^40 sets of the subtree
    t = spider(40)
    assert enumerate_maximum_stable_sets(t, 1) == [frozenset({0, *range(41, 81)})]


def test_core_membership_deletion_criterion():
    # v is in the core iff deleting it drops the stability number by one
    for n in range(2, 7):
        for t in enumerate_labeled_trees(n):
            a = alpha(t)
            c = core(t)
            for v in range(n):
                drop = alpha_forest(delete_vertices(t, {v})) == a - 1
                assert drop == (v in c)


def test_xi_never_one_small():
    for n in range(2, 8):
        for t in enumerate_labeled_trees(n):
            assert len(core(t)) != 1


def test_strong_unique_agreement_small():
    for n in range(2, 8):
        for t in enumerate_labeled_trees(n):
            assert is_strong_unique_independent(t) == is_strong_unique_by_definition(t)


def strong_unique_by_count(t):
    """The definition read literally: exactly one maximum stable set, counted
    by the DP multiplicities, and the complement of that set is stable."""
    view = _Rooted(t)
    if view.count() != 1:
        return False
    s = view.one_set()
    return all(v in s or s.issuperset(a) for v, a in enumerate(t.adjacency))


def test_strong_unique_by_core_matches_count_exhaustive():
    held = 0
    for n in range(2, 9):
        for t in enumerate_labeled_trees(n):
            got = is_strong_unique_by_definition(t)
            assert got == strong_unique_by_count(t), t
            held += got
    assert held > 1000  # both outcomes are exercised


def test_strong_unique_by_core_matches_count_seeded():
    sizes = SplitMix64(5050)
    samples = [path(10**4 - 1), path(10**4), spider(4999), star(10**4)]
    samples += [random_tree(2 + sizes.randrange(10**4 - 1), seed=derive_seed(5050, i))
                for i in range(40)]
    for t in samples:
        assert is_strong_unique_by_definition(t) == strong_unique_by_count(t), t.n
    assert [is_strong_unique_by_definition(t) for t in samples[:4]] == [True, False, True, True]


# ---------------------------------------------------------------------------
# randomized properties


@given(trees())
def test_alpha_plus_mu_is_n(t):
    assert alpha(t) + mu(t) == t.n


@given(trees())
def test_one_maximum_stable_set_contract(t):
    s = one_maximum_stable_set(t)
    assert len(s) == alpha(t)
    for u, v in t.edges:
        assert not (u in s and v in s)


@given(trees())
def test_cores_agree(t):
    assert core(t) == core_naive(t)


@given(trees(max_n=16), st.integers(0, 2**32))
@settings(max_examples=60)
def test_extend_pendant_random_subsets(t, seed):
    pend = sorted(pendant_vertices(t))
    rng = SplitMix64(seed)
    picked = [v for v in pend if rng.randrange(2)]
    m = {v: t.adjacency[v][0] for v in picked}
    if any(m[v] in picked for v in picked):  # adjacent pendants only in the 2-path
        return
    s = extend_pendant_set(t, picked)
    assert set(picked) <= s
    assert len(s) == alpha(t)
    for u, v in t.edges:
        assert not (u in s and v in s)


@given(trees(max_n=12))
@settings(max_examples=60)
def test_enumerated_maximum_sets_are_sound_and_complete(t):
    count = count_maximum_stable_sets(t)
    sets = enumerate_maximum_stable_sets(t, limit=count)
    assert len(sets) == len(set(sets)) == count
    a = alpha(t)
    for s in sets:
        assert len(s) == a
        for u, v in t.edges:
            assert not (u in s and v in s)
    keys = [tuple(sorted(s)) for s in sets]
    assert keys == sorted(keys)


@given(trees(max_n=12))
@settings(max_examples=60)
def test_maximal_sets_are_maximal_and_complete(t):
    sets = enumerate_maximal_stable_sets(t, limit=1 << 20)
    r = brute_force_stability(small_graph_from_tree(t))
    assert any(len(s) == r.alpha for s in sets)
    adjacency = t.adjacency
    for s in sets:
        for v in range(t.n):
            if v not in s:
                assert any(w in s for w in adjacency[v])  # not extendable
    # every maximum stable set is maximal, so counts are consistent
    assert len(sets) >= r.count


def test_core_agreement_large_random_sample():
    # 10^4 seeded trees with sizes up to 200: top-down core == quadratic core
    from stablecore.graph_model import derive_seed

    sizes = SplitMix64(4242)
    for i in range(10_000):
        n = 2 + sizes.randrange(199)
        t = random_tree(n, seed=derive_seed(31337, i))
        assert core(t) == core_naive(t), (n, i)


def test_extend_on_larger_random_trees():
    for i in range(25):
        t = random_tree(60, seed=500 + i)
        pend = sorted(pendant_vertices(t))
        rng = SplitMix64(i)
        picked = [v for v in pend if rng.randrange(2)]
        s = extend_pendant_set(t, picked)
        assert set(picked) <= s and len(s) == alpha(t)


# ---------------------------------------------------------------------------
# the position-indexed rooted view against a label-indexed reference


def _label_bfs(t, root):
    """Breadth-first order and parent labels, every table indexed by label
    (-1 at the root)."""
    parent = [-1] * t.n
    parent[root] = root
    order = [root]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for w in t.adjacency[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    parent[root] = -1
    return order, parent


class _LabelRooted:
    """The rooted view with its tables indexed by vertex label."""

    def __init__(self, t, root=0):
        self.order, self.parent = _label_bfs(t, root)
        self.down_in = [1] * t.n
        self.down_ex = [0] * t.n
        for v in self.order[:0:-1]:
            p = self.parent[v]
            self.down_in[p] += self.down_ex[v]
            self.down_ex[p] += max(self.down_in[v], self.down_ex[v])

    def alpha(self):
        r = self.order[0]
        return max(self.down_in[r], self.down_ex[r])

    def up(self):
        up_in = [0] * len(self.parent)
        up_ex = [0] * len(self.parent)
        for v in self.order[1:]:
            p = self.parent[v]
            up_ex[v] = (self.down_ex[p] - max(self.down_in[v], self.down_ex[v])
                        + max(up_in[p], up_ex[p]))
            up_in[v] = self.down_in[p] - self.down_ex[v] + up_ex[p]
        return up_in, up_ex

    def core(self):
        up_in, up_ex = self.up()
        target = self.alpha() - 1
        return frozenset(
            v for v in self.order if self.down_ex[v] + max(up_in[v], up_ex[v]) == target
        )

    def count(self):
        in_cnt = [1] * len(self.parent)
        ex_cnt = [1] * len(self.parent)
        for v in self.order[:0:-1]:
            p = self.parent[v]
            in_cnt[p] *= ex_cnt[v]
            di, de = self.down_in[v], self.down_ex[v]
            ex_cnt[p] *= in_cnt[v] if di > de else ex_cnt[v] if di < de else in_cnt[v] + ex_cnt[v]
        r = self.order[0]
        di, de = self.down_in[r], self.down_ex[r]
        return in_cnt[r] if di > de else ex_cnt[r] if di < de else in_cnt[r] + ex_cnt[r]

    def one_set(self):
        chosen = set()
        for v in self.order:
            p = self.parent[v]
            if (p < 0 or p not in chosen) and self.down_in[v] >= self.down_ex[v]:
                chosen.add(v)
        return frozenset(chosen)

    def depths(self):
        depth = [0] * len(self.parent)
        for v in self.order[1:]:
            depth[v] = depth[self.parent[v]] + 1
        return depth

    def bipartition(self):
        depth = self.depths()
        return Bipartition(
            a=frozenset(v for v in self.order if depth[v] % 2 == 0),
            b=frozenset(v for v in self.order if depth[v] % 2),
        )

    def maximum_sets(self):
        """Every maximum stable set, bottom-up over all (vertex, state)
        pairs, sorted as ``enumerate_maximum_stable_sets`` sorts them."""
        children = {v: [] for v in self.order}
        for v in self.order[1:]:
            children[self.parent[v]].append(v)
        best_in, best_ex = {}, {}
        for v in reversed(self.order):
            best_in[v] = [frozenset((v,)).union(*c)
                          for c in product(*(best_ex[w] for w in children[v]))]
            best_ex[v] = [frozenset().union(*c) for c in product(*(
                (best_in[w] if self.down_in[w] >= self.down_ex[w] else [])
                + (best_ex[w] if self.down_ex[w] >= self.down_in[w] else [])
                for w in children[v]))]
        r = self.order[0]
        sets = ((best_in[r] if self.down_in[r] >= self.down_ex[r] else [])
                + (best_ex[r] if self.down_ex[r] >= self.down_in[r] else []))
        return sorted(sets, key=lambda s: tuple(sorted(s)))


def _label_canonical_form(t):
    def encoding(root):
        order, parent = _label_bfs(t, root)
        enc = {}
        for v in reversed(order):
            enc[v] = "(" + "".join(sorted(enc[w] for w in t.adjacency[v] if parent[w] == v)) + ")"
        return enc[root]

    return min(encoding(c) for c in _centers(t))


def _assert_view_matches(t, root):
    view, ref = _Rooted(t, root), _LabelRooted(t, root)
    order, parent_at = view.order, view.parent_at
    where = (t.edges, root)
    assert order == ref.order, where
    assert len(parent_at) == len(view.down_in) == len(view.down_ex) == len(order), where
    # the root at position 0; parents before children, in nondecreasing order
    assert parent_at[0] == -1, where
    assert all(p <= q < i for i, p, q in zip(range(2, len(order)), parent_at[1:], parent_at[2:])), where
    assert [order[p] for p in parent_at[1:]] == [ref.parent[v] for v in order[1:]], where
    assert view.down_in == [ref.down_in[v] for v in order], where
    assert view.down_ex == [ref.down_ex[v] for v in order], where
    up_in, up_ex = view.up()
    ref_in, ref_ex = ref.up()
    assert up_in == [ref_in[v] for v in order], where
    assert up_ex == [ref_ex[v] for v in order], where
    assert view.alpha() == ref.alpha(), where
    assert view.core() == ref.core(), where
    assert view.count() == ref.count(), where
    assert view.one_set() == ref.one_set(), where
    sides = view.core_and_sides()[1]
    assert sides == ref.bipartition(), where
    # bipartition(t) takes the same parities from vertex 0's traversal
    whole = bipartition(t)
    assert {whole.a, whole.b} == {sides.a, sides.b} and 0 in whole.a, where
    assert bfs_depths(t, root) == ref.depths(), where


def _assert_tree_matches(t, roots):
    for r in roots:
        _assert_view_matches(t, r)
    assert canonical_form(t) == _label_canonical_form(t)
    ref = _LabelRooted(t)
    if ref.count() <= 1000:  # the reference builds every state's sets
        assert enumerate_maximum_stable_sets(t, limit=1000) == ref.maximum_sets()


def test_positional_view_matches_label_reference_exhaustive():
    # every root for n <= 6; at n = 7 and 8 the root turns with the tree
    # index, so each root is taken on thousands of trees. The 262,144 trees
    # on 8 vertices check the rooted view only: the rest would take minutes.
    for n in range(2, 9):
        for k, t in enumerate(enumerate_labeled_trees(n)):
            if n <= 6:
                _assert_tree_matches(t, range(n))
            elif n == 7:
                _assert_tree_matches(t, (k % n,))
            else:
                _assert_view_matches(t, k % n)


def test_positional_view_matches_label_reference_seeded():
    for n, seed in ((30, 1), (200, 2), (1999, 3), (20_000, 4)):
        t = random_tree(n, seed)
        _assert_tree_matches(t, (0, *SplitMix64(seed).draws(n, 3)))


def test_top_down_core_matches_rerooting_core_on_large_trees():
    # the top-down core against C9's deletion set from the upward pass, and
    # against the matching oracle; every labeled tree on 2..8 vertices is
    # covered by the exhaustive test above, here seeded trees up to 10^5
    # vertices, from the rooted view at vertex 0 and at a drawn root
    for n, seed in ((50, 5), (1_000, 6), (30_000, 7), (100_000, 8)):
        t = random_tree(n, seed)
        by_matching = core_by_matching(t)
        for root in (0, SplitMix64(seed).randrange(n)):
            view = _Rooted(t, root)
            deleted = _deletion_set(view)
            assert view.core() == deleted == core(t) == by_matching, (n, seed, root)
