import ast
import importlib
import inspect
from dataclasses import replace

import pytest

import stablecore
from stablecore import (
    CLAIM_IDS,
    Bipartition,
    CorpusSpec,
    OutOfRange,
    ParseError,
    SplitMix64,
    StablecoreError,
    TooLarge,
    TooSmall,
    alpha,
    alpha_forest,
    analyze,
    bfs_depths,
    bipartition,
    brute_force_stability,
    check_tree,
    core,
    corpus_size,
    corpus_tree,
    delete_vertices,
    derive_seed,
    distance,
    enumerate_labeled_trees,
    extend_pendant_set,
    fig1_graph,
    fig5_tree,
    is_strong_unique_independent,
    iter_corpus,
    pendant_vertices,
    prufer_decode,
    random_tree,
    run_claim,
    run_suite,
    serialize_tree,
    small_graph_from_tree,
    tree_from_edges,
    tree_from_serialization,
)
from stablecore import graph_model, harness
from stablecore.harness import (
    _BATCH_VERTICES,
    _CHUNK,
    HOLDS,
    NOT_APPLICABLE,
    REFUTED,
    _bonding_splits,
    _check_c1,
    _check_c2,
    _check_c3,
    _check_c5,
    _check_c6,
    _check_c8,
    _check_c9,
    _deletion_set,
    _pendant_dp,
    _pendant_dp_set,
    _pendants_four_apart,
    _pool_size,
    _trees,
    _TreeFacts,
)
from stablecore.independence import _mask_to_set, _Rooted
from stablecore.reference import maximal_stable_masks, stable_masks


def path(n):
    return tree_from_edges(n, [(i, i + 1) for i in range(n - 1)])


CORPUS_26 = CorpusSpec(mode="exhaustive", n_min=2, n_max=6)


# ---------------------------------------------------------------------------
# single-tree checks


def test_check_tree_examples():
    assert check_tree("C10", path(5)).status == "holds"
    assert check_tree("C7", path(4)).status == "holds"


def test_c12_on_p5_refutes_the_distance_clause():
    res = check_tree("C12", path(5))
    assert res.status == "refuted"
    assert res.witness == {"subclaim": "b", "core_pendants": [0, 4], "distance": 4}


def test_c12_even_distance_subclaim_on_fixtures():
    assert check_tree("C12", fig5_tree()).status == "holds"
    assert check_tree("C12", path(3)).status == "holds"
    assert check_tree("C12", path(4)).status == "not-applicable"


def _assert_four_apart_rule(t):
    """``_pendants_four_apart`` against the distance for every ordered pair
    of distinct pendants; bfs_depths(t, p)[q] is distance(t, p, q), one
    sweep per pendant."""
    pend = sorted(pendant_vertices(t))
    for p in pend:
        depth = bfs_depths(t, p)
        for q in pend:
            if q != p:
                assert _pendants_four_apart(t, p, q) == (depth[q] == 4), (serialize_tree(t), p, q)


def test_pendants_four_apart_matches_distance_exhaustive():
    for n in range(2, 9):
        for t in enumerate_labeled_trees(n):
            _assert_four_apart_rule(t)


def test_pendants_four_apart_matches_distance_seeded():
    assert distance(path(5), 0, 4) == 4 and _pendants_four_apart(path(5), 0, 4)
    sizes = SplitMix64(4040)
    for i in range(30):
        _assert_four_apart_rule(random_tree(9 + sizes.randrange(992), seed=derive_seed(4040, i)))


def _assert_c5_distance_arm(t):
    """All pairwise pendant distances are even iff the pendants lie on one
    side: C5 reports that side test under both of its witness keys (with
    its definitional arm patched out, so every tree is refuted)."""
    pend = sorted(pendant_vertices(t))
    even = all(distance(t, p, q) % 2 == 0 for i, p in enumerate(pend) for q in pend[i + 1:])
    assert is_strong_unique_independent(t) == even, serialize_tree(t)
    status, witness = _check_c5(_TreeFacts(t))
    assert status == REFUTED
    assert witness["pendants_on_one_side"] == witness["pendant_distances_even"] == even


def _one_sided(t):
    """t with a new leaf on each pendant at odd depth from vertex 0, so that
    every pendant lies on vertex 0's side."""
    depth = bfs_depths(t, 0)
    odd = [p for p in sorted(pendant_vertices(t)) if depth[p] % 2]
    return tree_from_edges(t.n + len(odd), [*t.edges, *((p, t.n + i) for i, p in enumerate(odd))])


def test_c5_distance_arm_is_the_side_test_exhaustive(monkeypatch):
    monkeypatch.setattr(harness, "_strong_unique_of", lambda t, core, alpha: None)
    for n in range(2, 8):
        for t in enumerate_labeled_trees(n):
            _assert_c5_distance_arm(t)


def test_c5_distance_arm_is_the_side_test_seeded(monkeypatch):
    monkeypatch.setattr(harness, "_strong_unique_of", lambda t, core, alpha: None)
    sizes = SplitMix64(5050)
    for i in range(20):
        t = random_tree(8 + sizes.randrange(143), seed=derive_seed(5050, i))
        _assert_c5_distance_arm(t)
        _assert_c5_distance_arm(_one_sided(t))


def test_unknown_claim_rejected():
    with pytest.raises(StablecoreError, match=r"^unknown claims: 'C99'; valid: C1, C2, .*, E1$"):
        check_tree("C99", path(3))
    # one message names every unknown id, wherever it is checked
    for call in (lambda: run_suite(["C99", "C7", "X1"], CORPUS_26),
                 lambda: harness.check_suite(["C99", "C7", "X1"], CORPUS_26)):
        with pytest.raises(StablecoreError, match=r"^unknown claims: 'C99', 'X1'; valid: C1, "):
            call()


def test_serialization_round_trip():
    for t in [path(2), path(5), fig5_tree()]:
        assert tree_from_serialization(serialize_tree(t)) == t
    assert serialize_tree(path(3)) == "3:0-1,1-2"


@pytest.mark.parametrize("text", ["3:0-1,x-2", "abc", "", "3:0-1,1", "2:0-1-"])
def test_serialization_rejects_malformed_text(text):
    with pytest.raises(ParseError) as exc:
        tree_from_serialization(text)
    assert exc.value.line == 1


def test_claim_registry_is_complete():
    # the registry's order is the report's claim order
    assert CLAIM_IDS == ("C1", "C2", "C3", "C4", "C5", "C6", "C7",
                         "C8", "C9", "C10", "C11", "C12", "C13", "E1")
    for claim in CLAIM_IDS:
        res = check_tree(claim, path(5))
        assert res.status in ("holds", "refuted", "not-applicable")


# ---------------------------------------------------------------------------
# fixtures


def test_fig1_fixture_breaks_the_tree_only_claim():
    g = fig1_graph()
    r = brute_force_stability(g)
    pend = {v for v in range(g.n) if g.adjacency_masks[v].bit_count() == 1}
    # some maximum stable set avoids every pendant vertex of this non-tree
    masks = g.adjacency_masks
    avoiding = [
        s
        for s in range(1 << g.n)
        if s.bit_count() == r.alpha
        and not any(masks[v] & s for v in range(g.n) if s >> v & 1)
        and not any(s >> v & 1 for v in pend)
    ]
    assert avoiding


def test_fig5_fixture_values():
    t = fig5_tree()
    rep = analyze(t)
    cp = sorted(rep.core & rep.pendants)
    assert len(cp) == 2
    assert rep.alpha == 5
    d = distance(t, cp[0], cp[1])
    assert d == 6 and d % 2 == 0


# ---------------------------------------------------------------------------
# suites and corpora


def test_run_claim_c3_and_c10_hold_exhaustively():
    assert run_claim("C3", CORPUS_26).refuted == 0
    v = run_claim("C10", CORPUS_26)
    assert v.refuted == 0
    assert v.held > 0 and v.skipped > 0  # perfect-matching trees are not applicable


def test_run_suite_shared_counts():
    verdicts = run_suite(["C3", "C7", "C13"], CORPUS_26)
    assert [v.claim for v in verdicts] == ["C3", "C7", "C13"]
    for v in verdicts:
        assert v.checked == 1441  # = sum of n^(n-2) for n = 2..6
        assert v.checked == v.held + v.refuted + v.skipped


def test_empty_suite():
    assert run_suite([], CORPUS_26) == []
    # the corpus is checked whatever the claims
    with pytest.raises(TooSmall):
        run_suite([], CorpusSpec(mode="exhaustive", n_min=1, n_max=0))


def test_claims_once_scanned_give_verdicts_at_twenty_vertices():
    # C1, C2, C6, C8 and E1 once listed sets and skipped trees past 16
    # vertices; each gives a verdict at any size now
    corpus = CorpusSpec(mode="random", n_min=20, n_max=20, sample_size=40, seed=5)
    for claim in ("C1", "C2", "C6", "C8", "E1"):
        v = run_claim(claim, corpus)
        assert (v.checked, v.held, v.refuted, v.skipped) == (40, 40, 0, 0), claim


def _e1_reference(t):
    """E1's measurement of t from the maximal-set filter of the subset scan."""
    sides = bipartition(t)
    ks = sorted({min(len(sides.a), len(sides.b))} | ({t.n // 2} if t.n % 2 == 0 else set()))
    maximal = maximal_stable_masks(small_graph_from_tree(t))
    pend = pendant_vertices(t)
    measurements = []
    for k in ks:
        of_size = [m for m in maximal if m.bit_count() == k]
        inter = set(range(t.n))
        for m in of_size:
            inter &= _mask_to_set(m)
        measurements.append({
            "k": k,
            "num_sets": len(of_size),
            "intersection": sorted(inter) if of_size else None,
            "pendants_in_intersection": len(inter & pend) if of_size else None,
        })
    perfect = 2 * alpha(t) == t.n
    return {"perfect_matching": perfect, "beyond_question": perfect,
            "measurements": measurements}


def test_e1_past_sixteen_vertices_matches_the_maximal_set_filter():
    # the path on 17 vertices, where E1 stopped before, then a seeded tree
    # at each n in 17..24, the sizes the subset-scan filter covers
    trees = [path(17)] + [random_tree(n, derive_seed(2417, n)) for n in range(17, 25)]
    for t in trees:
        res = check_tree("E1", t)
        assert res.status == "holds"
        assert res.witness == _e1_reference(t), serialize_tree(t)


def test_only_e1_scans_and_harness_binds_no_brute_force_path():
    # E1 reads a per-size pass, not a listing of the maximal sets, and no
    # claim has a scan ceiling
    for name in (
        "stable_masks", "small_graph_from_tree", "brute_force_stability",
        "core_naive", "_stable_masks_direct", "_maximal_masks", "ScaleExceeded",
        "SCAN_CEILING",
    ):
        assert not hasattr(harness, name), name
    # the instrument imports none of its oracles, by any import form
    for name in ("graph_model", "independence", "harness", "cli", "bonding", "errors"):
        module = importlib.import_module(f"stablecore.{name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            else:
                continue
            assert not any("reference" in m.split(".") for m in imported), (name, node.lineno)
        # the subset scans' ceiling belongs to them alone
        assert not hasattr(module, "BRUTE_FORCE_CEILING"), name
        for attr, value in vars(module).items():
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ != "stablecore.reference", (name, attr)


# The public top-level names of stablecore; moving code between modules
# must not break an import of any of them.
PUBLIC_NAMES = {
    "AnalysisReport", "Bipartition", "BondResult", "BruteForceResult", "CLAIM_IDS",
    "ClaimResult", "CorpusSpec", "EmptyResult", "Forest", "ForestComponent",
    "LimitExceeded", "NotATree", "NotPendant", "NotStable", "OutOfRange", "ParseError",
    "ScaleExceeded", "SmallGraph", "SplitMix64", "StablecoreError", "TooLarge",
    "TooSmall", "Tree", "Verdict", "alpha", "alpha_forest", "analyze", "bfs_depths",
    "bipartition", "brute_force_stability", "canonical_form", "check_tree", "core",
    "core_naive", "corpus_size", "corpus_tree", "count_maximum_stable_sets",
    "delete_vertices", "derive_seed", "distance", "enumerate_labeled_trees",
    "enumerate_maximal_stable_sets", "enumerate_maximum_stable_sets",
    "extend_pendant_set", "fig1_graph", "fig5_tree", "has_perfect_matching",
    "is_strong_unique_by_definition", "is_strong_unique_independent", "iter_corpus",
    "labeled_tree_count", "map_set", "mu", "one_maximum_stable_set", "pendant_vertices",
    "prufer_decode", "prufer_encode", "random_tree", "run_claim", "run_suite",
    "serialize_tree", "small_graph_from_edges", "small_graph_from_tree", "spider",
    "tree_from_edges", "tree_from_serialization", "vertex_bond",
}


def test_public_top_level_names_still_resolve():
    assert len(PUBLIC_NAMES) == 67
    missing = [name for name in sorted(PUBLIC_NAMES) if not hasattr(stablecore, name)]
    assert missing == []


@pytest.mark.parametrize("bad", [1.5, 1.0, True])
def test_run_suite_rejects_non_int_jobs_and_witness_limit(bad):
    with pytest.raises(StablecoreError, match=rf"^jobs={bad!r} is not an int$"):
        run_suite(["C7"], CORPUS_26, jobs=bad)
    with pytest.raises(StablecoreError, match=rf"^witness_limit={bad!r} is not an int$"):
        run_suite(["C7"], CORPUS_26, witness_limit=bad)


def test_run_suite_rejects_bad_jobs_and_witness_limit():
    with pytest.raises(StablecoreError, match="jobs"):
        run_suite(["C7"], CORPUS_26, jobs=0)
    with pytest.raises(StablecoreError, match="witness_limit"):
        run_suite(["C7"], CORPUS_26, witness_limit=-1)
    assert run_claim("C12", CORPUS_26, witness_limit=0).witnesses == ()


def test_pool_size_is_clamped_to_chunks_and_cpus():
    # a pure function: large values start no process
    assert _pool_size(5000, 9, 2) == 2
    assert _pool_size(2, 9, 2) == 2
    assert _pool_size(10**9, 10**6, 10**4) == 10**4
    assert _pool_size(10**9, 3, 10**4) == 3
    assert _pool_size(8, 1, 64) == 1  # one chunk: no pool
    assert _pool_size(10**9, 10**6, None) == 1  # CPU count unknown
    assert _pool_size(1, 10**6, 10**4) == 1


def test_run_suite_starts_no_pool_for_one_chunk(monkeypatch):
    def no_pool(method):
        raise AssertionError("a one-chunk corpus started a pool")

    expected = run_suite(["C7", "C12"], CORPUS_26, jobs=1)
    monkeypatch.setattr(harness, "get_context", no_pool)
    assert run_suite(["C7", "C12"], CORPUS_26, jobs=5000) == expected


def test_run_suite_pool_never_exceeds_cpu_count(monkeypatch):
    sizes = []
    real = harness.get_context

    class Spy:
        def Pool(self, processes):
            sizes.append(processes)
            return real("fork").Pool(processes)

    corpus = CorpusSpec(mode="exhaustive", n_min=2, n_max=7)  # 9 chunks
    expected = run_suite(["C7"], corpus, jobs=1)
    monkeypatch.setattr(harness, "get_context", lambda method: Spy())
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert run_suite(["C7"], corpus, jobs=5000) == expected
    assert sizes == [2]


def test_run_suite_rejects_repeated_claim():
    with pytest.raises(StablecoreError, match="C7"):
        run_suite(["C7", "C12", "C7"], CORPUS_26)


def test_determinism_across_job_counts():
    v1 = run_suite(["C12", "C13"], CORPUS_26, jobs=1)
    v3 = run_suite(["C12", "C13"], CORPUS_26, jobs=3)
    assert v1 == v3


def test_witness_replay_reproduces_refutation():
    for claim in ("C12", "C13"):
        verdict = run_claim(claim, CORPUS_26, witness_limit=None)
        assert verdict.refuted == len(verdict.witnesses) > 0
        for w in verdict.witnesses:
            again = check_tree(w.claim, tree_from_serialization(w.tree))
            assert again == w


def test_witness_order_and_bound():
    unbounded = run_claim("C12", CORPUS_26, witness_limit=None)
    bounded = run_claim("C12", CORPUS_26)  # default limit 16
    assert bounded.witnesses == unbounded.witnesses[:16]
    keys = [(int(w.tree.partition(":")[0]), w.tree) for w in unbounded.witnesses]
    assert keys == sorted(keys)


def test_corpus_validation_errors():
    with pytest.raises(TooSmall):
        corpus_size(CorpusSpec(mode="exhaustive", n_min=1, n_max=3))
    with pytest.raises(TooLarge):
        corpus_size(CorpusSpec(mode="exhaustive", n_min=2, n_max=20))
    with pytest.raises(StablecoreError):
        corpus_size(CorpusSpec(mode="random", n_min=2, n_max=5))
    with pytest.raises(StablecoreError):
        corpus_size(CorpusSpec(mode="upside-down", n_min=2, n_max=5))


@pytest.mark.parametrize("n_max", [2**61, 2**63, 2**64, 2**64 + 1, 2**70])
def test_random_corpus_sizes_past_a_list_of_draws_are_rejected(n_max):
    # a tree's Prufer code is one list of n - 2 draws; past sys.maxsize // 8
    # slots no such list fits, and [0] * count raised a raw MemoryError or
    # OverflowError. The bound is below 2^64, so no size is drawn below more
    # than 2^64, which looped for ever. No call here builds a tree.
    spec = CorpusSpec(mode="random", n_min=2, n_max=n_max, sample_size=1, seed=1)
    for call in (harness.validate_corpus, corpus_size, lambda s: corpus_tree(s, 0),
                 lambda s: list(iter_corpus(s)), lambda s: run_suite(["C7"], s)):
        with pytest.raises(TooLarge, match=rf"^random corpus needs n_max <= \d+, got {n_max}$"):
            call(spec)


def test_exhaustive_corpus_matches_enumeration():
    spec = CorpusSpec(mode="exhaustive", n_min=2, n_max=5)
    total = corpus_size(spec)
    assert total == 1 + 3 + 16 + 125
    listed = [corpus_tree(spec, i) for i in range(total)]
    expected = [t for n in range(2, 6) for t in enumerate_labeled_trees(n)]
    assert listed == expected


def _tree_by_digits(spec, index):
    """Exhaustive corpus tree number ``index``, found without the stepper:
    its size block by Cayley's counts, its code by base-n digits."""
    for n in range(spec.n_min, spec.n_max + 1):
        if index < n ** (n - 2):
            digits = []
            for _ in range(n - 2):
                index, d = divmod(index, n)
                digits.append(d)
            return prufer_decode(digits[::-1], n)
        index -= n ** (n - 2)
    raise AssertionError("index past the corpus")


def test_trees_step_through_ranges_across_size_blocks():
    spec = CorpusSpec("exhaustive", 2, 8)
    total = corpus_size(spec)
    starts = [0, 1, 4, 20, 145, 1441, 18248]  # the first index of each size
    ranges = [range(0, 0), range(total, total), range(0, 30), range(total - 5, total),
              range(140, 1500), range(18000, 20100), range(3, 3 + _CHUNK)]
    ranges += [range(b - 3, b + 3) for b in starts[2:]]
    rng = SplitMix64(8)
    for _ in range(20):
        lo = rng.randrange(total)
        ranges.append(range(lo, min(total, lo + rng.randrange(2 * _CHUNK))))
    for r in ranges:
        assert list(_trees(spec, r)) == [_tree_by_digits(spec, i) for i in r], r
    # an index list, as isomorphism dedup keeps, is built index by index
    kept = sorted({rng.randrange(total) for _ in range(200)})
    assert list(_trees(spec, kept)) == [_tree_by_digits(spec, i) for i in kept]


def test_exhaustive_walks_decode_each_tree_once_and_skip_the_per_index_path(monkeypatch):
    # iter_corpus and a worker's chunk step through their Prufer codes: one
    # decode a tree, and neither labeled_tree_at nor corpus_tree
    decoded = []
    decode = graph_model._decode

    def counted(code, n):
        t = decode(code, n)
        decoded.append(t)
        return t

    def per_index(*args):
        raise AssertionError("an exhaustive walk built a tree by its index")

    # _decode is bound in both modules that walk the corpus
    monkeypatch.setattr(graph_model, "_decode", counted)
    monkeypatch.setattr(harness, "_decode", counted)
    for module in (graph_model, harness):
        monkeypatch.setattr(module, "labeled_tree_at", per_index, raising=False)
    monkeypatch.setattr(harness, "corpus_tree", per_index)
    walked = list(iter_corpus(CORPUS_26))
    assert len(walked) == 1 + 3 + 16 + 125 + 1296
    assert len(decoded) == len(walked) and all(a is b for a, b in zip(decoded, walked))
    assert walked == [_tree_by_digits(CORPUS_26, i) for i in range(len(walked))]
    decoded.clear()
    assert run_suite(["C7"], CORPUS_26)[0].checked == len(walked)
    assert decoded == walked


def test_corpus_tree_rejects_indices_and_specs_outside_the_corpus():
    exhaustive = CorpusSpec(mode="exhaustive", n_min=2, n_max=5)
    last = corpus_size(exhaustive) - 1
    assert corpus_tree(exhaustive, last) == corpus_tree(CorpusSpec("exhaustive", 5, 5), 124)
    for index in (-1, -200, last + 1, 10**6):
        with pytest.raises(OutOfRange):
            corpus_tree(exhaustive, index)
    sample = CorpusSpec(mode="random", n_min=4, n_max=9, sample_size=3, seed=1)
    corpus_tree(sample, 2)
    for index in (-1, 3, 10):
        with pytest.raises(OutOfRange):
            corpus_tree(sample, index)
    with pytest.raises(StablecoreError):
        corpus_tree(CorpusSpec("bogus", 2, 3), 0)
    with pytest.raises(TooSmall):
        corpus_tree(CorpusSpec("random", 0, 3, sample_size=5, seed=1), 0)
    with pytest.raises(TooLarge):
        corpus_tree(CorpusSpec("exhaustive", 12, 12), 0)


@pytest.mark.parametrize("bad", [2.5, 3.0, True])
@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_corpus_tree_rejects_a_non_int_index(mode, bad):
    spec = CorpusSpec(mode, 2, 5, sample_size=10, seed=1)
    with pytest.raises(OutOfRange, match=rf"^index={bad!r} is not an int$"):
        corpus_tree(spec, bad)


@pytest.mark.parametrize("field, bad", [
    ("n_min", 2.5), ("n_min", True), ("n_max", 5.0),
    ("sample_size", 2.5), ("sample_size", True), ("seed", 1.5), ("seed", False),
])
def test_corpus_spec_fields_must_be_exact_ints(field, bad):
    fields = {"mode": "random", "n_min": 2, "n_max": 5, "sample_size": 10, "seed": 1}
    spec = CorpusSpec(**{**fields, field: bad})
    for call in (lambda: harness.validate_corpus(spec), lambda: corpus_tree(spec, 0),
                 lambda: harness.check_suite(["C7"], spec)):
        with pytest.raises(StablecoreError, match=rf"^{field}={bad!r} is not an int$"):
            call()


@pytest.mark.parametrize("bad", ["no", 0, 1, None])
def test_dedup_isomorphism_must_be_a_bool(bad):
    # "no" is true and 0 is false: read for truth, either would pick a corpus
    spec = CorpusSpec(mode="exhaustive", n_min=4, n_max=4, dedup_isomorphism=bad)
    for call in (lambda: harness.validate_corpus(spec), lambda: corpus_tree(spec, 0),
                 lambda: run_suite(["C7"], spec)):
        with pytest.raises(StablecoreError, match=rf"^dedup_isomorphism={bad!r} is not a bool$"):
            call()


def test_random_corpus_is_reproducible_and_in_range():
    spec = CorpusSpec(mode="random", n_min=7, n_max=31, sample_size=60, seed=42)
    a = list(iter_corpus(spec))
    b = list(iter_corpus(spec))
    assert a == b
    assert {t.n for t in a} <= set(range(7, 32))
    assert len({t.n for t in a}) > 5  # sizes actually vary


def test_dedup_isomorphism_counts_free_trees():
    for n, free in [(4, 2), (5, 3), (6, 6), (7, 11)]:
        spec = CorpusSpec(mode="exhaustive", n_min=n, n_max=n, dedup_isomorphism=True)
        assert run_claim("C7", spec).checked == free


def test_dedup_corpus_is_job_count_invariant():
    spec = CorpusSpec(mode="exhaustive", n_min=5, n_max=7, dedup_isomorphism=True)
    serial = run_suite(["C7", "C12"], spec, jobs=1)
    parallel = run_suite(["C7", "C12"], spec, jobs=2)
    assert serial == parallel
    assert serial[0].checked == 3 + 6 + 11


def test_dedup_corpus_over_two_chunks():
    spec = CorpusSpec("random", 14, 16, sample_size=5000, seed=1, dedup_isomorphism=True)
    kept = len(list(iter_corpus(spec)))
    assert kept > _CHUNK
    serial = run_suite(["C7", "C12"], spec, jobs=1)
    assert serial == run_suite(["C7", "C12"], spec, jobs=2)
    assert serial[0].checked == kept


def _eager_suite(claims, spec, witness_limit):
    """run_suite's verdicts from check_tree on every tree: every witness
    built, then sorted by canonical key and cut to the limit."""
    verdicts = []
    for c in claims:
        counts = {HOLDS: 0, REFUTED: 0, NOT_APPLICABLE: 0}
        witnessed = []
        for t in iter_corpus(spec):
            res = check_tree(c, t)
            counts[res.status] += 1
            if res.witness is not None:
                witnessed.append(res)
        witnessed.sort(key=lambda r: (int(r.tree.partition(":")[0]), r.tree))
        verdicts.append(harness.Verdict(
            claim=c, corpus=spec, checked=sum(counts.values()), held=counts[HOLDS],
            refuted=counts[REFUTED], skipped=counts[NOT_APPLICABLE],
            witnesses=tuple(witnessed if witness_limit is None else witnessed[:witness_limit]),
        ))
    return verdicts


@pytest.mark.parametrize("spec", [
    CORPUS_26,
    # 3,000 draws of 146 labeled trees: most trees come back many times
    CorpusSpec("random", 4, 6, sample_size=3000, seed=17),
], ids=["exhaustive-2-6", "random-4-6-repeats"])
def test_run_suite_matches_eager_witness_reference(spec):
    eager = {limit: _eager_suite(CLAIM_IDS, spec, limit) for limit in (0, 1, 16, None)}
    assert [len(v.witnesses) for v in eager[None]] != [len(v.witnesses) for v in eager[16]]
    for limit, expected in eager.items():
        for jobs in (1, 2):
            assert run_suite(CLAIM_IDS, spec, jobs=jobs, witness_limit=limit) == expected, (
                limit, jobs)


# n in 2..300: one chunk of trees below, across and above the batch budget
_MIXED = CorpusSpec("random", 2, 300, sample_size=300, seed=19)


def test_batched_runner_matches_eager_reference_across_the_budget():
    sizes = [t.n for t in iter_corpus(_MIXED)]
    assert min(sizes) < _BATCH_VERTICES // 8 and max(sizes) >= _BATCH_VERTICES
    assert len(sizes) <= _CHUNK
    everything = _eager_suite(CLAIM_IDS, _MIXED, None)
    assert any(len(v.witnesses) > 1 for v in everything)  # a limit of 1 cuts
    for limit in (0, 1, 16, None):
        # _eager_suite cuts its sorted witnesses to the limit
        expected = [replace(v, witnesses=v.witnesses[:limit]) for v in everything]
        for jobs in (1, 2):
            assert run_suite(CLAIM_IDS, _MIXED, jobs=jobs, witness_limit=limit) == expected, (
                limit, jobs)


def _checked_batches(monkeypatch, claims, spec):
    """The batches of a one-worker run_suite call, from spies on the
    checkers and on the trees ``_trees`` yields: the calls must come claim
    by claim over one batch of facts, in the order of ``claims``, before the
    next batch.
    Returns each batch's trees and how many trees were built before its
    last check."""
    events = []  # a built tree, or (claim, facts) for a checker call
    for c in claims:
        real, reads = harness._CLAIMS[c]

        def spy(facts, c=c, real=real):
            events.append((c, facts))
            return real(facts)

        monkeypatch.setitem(harness._CLAIMS, c, (spy, reads))
    walk = harness._trees

    def built(spec, indices):
        for t in walk(spec, indices):
            events.append(t)
            yield t

    monkeypatch.setattr(harness, "_trees", built)
    run_suite(claims, spec, jobs=1)
    runs = []  # [claim, facts seen, trees built by its last call] for each run of one claim
    trees = 0
    for event in events:
        if isinstance(event, harness.Tree):
            trees += 1
            continue
        c, facts = event
        if not runs or runs[-1][0] != c:
            runs.append([c, [], 0])
        runs[-1][1].append(facts)
        runs[-1][2] = trees
    assert len(runs) % len(claims) == 0
    batches = []
    for start in range(0, len(runs), len(claims)):
        group = runs[start:start + len(claims)]
        assert [c for c, _, _ in group] == list(claims)
        batch = group[0][1]
        for _, seen, _ in group:
            assert len(seen) == len(batch) and all(a is b for a, b in zip(seen, batch))
        batches.append(([facts.tree for facts in batch], group[-1][2]))
    return batches


@pytest.mark.parametrize("spec", [
    CORPUS_26, _MIXED, CorpusSpec("random", 100, 200, sample_size=40, seed=3),
], ids=["exhaustive-2-6", "random-2-300", "random-100-200"])
def test_batches_respect_the_vertex_budget(monkeypatch, spec):
    claims = ["C7", "E1", "C12"]
    batches = _checked_batches(monkeypatch, claims, spec)
    trees = [t for batch, _ in batches for t in batch]
    # every tree once per claim, in index order
    assert [serialize_tree(t) for t in trees] == [serialize_tree(t) for t in iter_corpus(spec)]
    done = 0
    for k, (batch, built) in enumerate(batches):
        sizes = [t.n for t in batch]
        # the budget is reached only with the last tree, and a tree at or
        # over it runs alone
        assert sum(sizes[:-1]) < _BATCH_VERTICES
        assert len(sizes) == 1 or sum(sizes) <= _BATCH_VERTICES
        done += len(batch)
        # the batch closes when the corpus ends, or when one more tree of
        # its last tree's size would take it over the budget, or else the
        # next tree would: only then is that tree built before the checks
        if k + 1 == len(batches) or sum(sizes) + sizes[-1] > _BATCH_VERTICES:
            assert built == done
        else:
            assert sum(sizes) + batches[k + 1][0][0].n > _BATCH_VERTICES
            assert built == done + 1
    if spec is CORPUS_26:
        assert max(len(batch) for batch, _ in batches) > 1
    else:
        # a tree of more than half the budget keeps the per-tree order
        assert any(2 * t.n > _BATCH_VERTICES for t in trees)
        assert all(len(batch) == 1 for batch, _ in batches if 2 * batch[0].n > _BATCH_VERTICES)


def test_e1_builds_measurements_only_for_kept_witnesses(monkeypatch):
    calls = 0
    maximal_profile = harness._maximal_profile

    def counted(view, most):
        nonlocal calls
        calls += 1
        return maximal_profile(view, most)

    monkeypatch.setattr(harness, "_maximal_profile", counted)
    spec = CorpusSpec("exhaustive", 2, 7)
    assert run_claim("E1", spec).checked == 18_248
    assert 0 < calls <= 1_000
    calls = 0
    assert len(run_claim("E1", spec, witness_limit=None).witnesses) == 18_248
    assert calls == 18_248


# ---------------------------------------------------------------------------
# hypothesis filters and cross-claim consistency


def test_applicability_filters():
    for n in range(2, 7):
        for t in enumerate_labeled_trees(n):
            a = alpha(t)
            c4 = check_tree("C4", t)
            assert (c4.status != "not-applicable") == (2 * a == t.n)
            for claim in ("C10", "C12"):
                res = check_tree(claim, t)
                assert (res.status != "not-applicable") == (2 * a > t.n)


def test_c7_and_c10_are_consistent():
    # part (i) of C7 holding means C10 applies exactly when the core has
    # at least two vertices
    for n in range(2, 7):
        for t in enumerate_labeled_trees(n):
            assert check_tree("C7", t).status == "holds"
            applicable = check_tree("C10", t).status != "not-applicable"
            assert applicable == (len(core(t)) >= 2)


def test_c9_holds_on_small_corpus():
    v = run_claim("C9", CorpusSpec(mode="exhaustive", n_min=2, n_max=6))
    assert v.refuted == 0
    assert v.skipped == 1  # only the 2-vertex tree has no internal vertex


def test_c11_positive_cases_on_spiders():
    # no tree with at most 8 vertices has a core vertex of degree >= 4, so
    # the exhaustive sweeps exercise C11 only vacuously; the hub-and-legs
    # family provides real instances (hub degree k, all k leg tips in core)
    from stablecore import spider

    assert check_tree("C11", spider(3)).status == "not-applicable"  # degree 3 < 4
    for k in (4, 5, 6):
        res = check_tree("C11", spider(k))
        assert res.status == "holds", res


def test_c13_reports_expected_violations():
    # the bound fails exactly on perfect-matching trees among small cases
    res = check_tree("C13", path(4))
    assert res.status == "refuted"
    assert res.witness == {"xi": 0, "alpha": 2, "mu": 2, "bound": 1}
    assert check_tree("C13", path(5)).status == "holds"


def test_c8_and_scan_claims_on_small_corpus():
    for claim in ("C1", "C2", "C6", "C8"):
        assert run_claim(claim, CORPUS_26).refuted == 0


# ---------------------------------------------------------------------------
# C8 and C9 against the per-subset and per-factor-tree references


def _split_at(t, v, u):
    """Split T at internal vertex v into (side of neighbor u) + v and the rest.

    Returns (tree1, v1, map1, tree2, v2, map2) with mapX tuples sending
    factor labels back to T's labels.
    """
    adjacency = t.adjacency
    side = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for w in adjacency[x]:
            if w != v and w not in side:
                side.add(w)
                stack.append(w)

    def build(members):
        index = {x: i for i, x in enumerate(members)}
        edges = [
            (index[x], index[w])
            for x in members
            for w in adjacency[x]
            if w in index and x < w
        ]
        return tree_from_edges(len(members), edges), index

    members1 = sorted(side | {v})
    members2 = sorted(set(range(t.n)) - side)
    t1, index1 = build(members1)
    t2, index2 = build(members2)
    return t1, index1[v], tuple(members1), t2, index2[v], tuple(members2)


def _check_c9_reference(facts):
    """C9 decided on two relabeled factor trees per split."""
    t = facts.tree
    internal = [v for v in range(t.n) if t.degree(v) >= 2]
    if not internal:
        return NOT_APPLICABLE, None
    core_t = facts.core
    alpha_t = facts.alpha
    for v in internal:
        for u in t.adjacency[v]:
            t1, v1, map1, t2, v2, map2 = _split_at(t, v, u)
            core1 = core(t1)
            core2 = core(t2)
            bonded_in_core = v in core_t
            factors_in_core = v1 in core1 and v2 in core2
            if bonded_in_core != factors_in_core:
                return REFUTED, {
                    "vertex": v, "neighbor": u, "law": "core membership biconditional",
                    "in_bonded_core": bonded_in_core, "in_factor_cores": factors_in_core,
                }
            if not bonded_in_core:
                continue
            if alpha_t != alpha(t1) + alpha(t2) - 1:
                return REFUTED, {
                    "vertex": v, "neighbor": u, "law": "stability numbers add up",
                    "alpha": alpha_t, "alpha_factors": [alpha(t1), alpha(t2)],
                }
            mapped = {map1[x] for x in core1} | {map2[x] for x in core2}
            if mapped != core_t:
                return REFUTED, {
                    "vertex": v, "neighbor": u, "law": "core is union of factor cores",
                    "core": sorted(core_t), "factor_union": sorted(mapped),
                }
    return HOLDS, None


def _check_c8_reference(facts):
    """C8 decided by extending every stable subset of the pendants."""
    t = facts.tree
    pend = sorted(facts.pend)
    adj = small_graph_from_tree(t).adjacency_masks

    def mask(vertices):
        return sum(1 << x for x in vertices)

    for bits in range(1, 1 << len(pend)):
        subset = [pend[i] for i in range(len(pend)) if bits >> i & 1]
        m = mask(subset)
        if any(adj[v] & m for v in subset):
            continue
        s = extend_pendant_set(t, subset)
        sm = mask(s)
        ok = m & sm == m and len(s) == facts.alpha and not any(adj[v] & sm for v in s)
        if not ok:
            return REFUTED, {"pendant_subset": subset, "returned_set": sorted(s)}
    return HOLDS, None


def _split_test_trees():
    for n in range(2, 8):
        yield from enumerate_labeled_trees(n)
    for i in range(200):
        yield random_tree(20 + i % 41, derive_seed(9, i))


def test_c9_split_values_match_factor_trees():
    splits = unions = 0
    for t in _split_test_trees():
        view = _Rooted(t)
        up_in, up_ex = view.up()
        got = list(_bonding_splits(t, view, up_in, up_ex))
        assert [(v, u) for v, u, *_ in got] == [
            (v, u) for v in range(t.n) if t.degree(v) >= 2 for u in t.adjacency[v]
        ]
        core_t = view.core()
        deleted = _deletion_set(view, up_in, up_ex)
        for v, u, alpha1, in_core1, alpha2, in_core2 in got:
            t1, v1, map1, t2, v2, map2 = _split_at(t, v, u)
            core1, core2 = core(t1), core(t2)
            assert (alpha1, in_core1, alpha2, in_core2) == (
                alpha(t1), v1 in core1, alpha(t2), v2 in core2
            ), (serialize_tree(t), v, u)
            if v in core_t:
                # what C9 compares with core(T) in place of the factor union
                union = {map1[x] for x in core1} | {map2[x] for x in core2}
                assert deleted == union, (serialize_tree(t), v, u)
                unions += 1
            splits += 1
    assert splits > 150_000 and unions > 25_000


def test_upward_pass_runs_once_per_c9_tree_and_nowhere_else(monkeypatch):
    calls = 0
    up = _Rooted.up

    def counted(view):
        nonlocal calls
        calls += 1
        return up(view)

    monkeypatch.setattr(_Rooted, "up", counted)
    run_suite(CLAIM_IDS, CORPUS_26, jobs=1)
    assert calls == corpus_size(CORPUS_26) - 1  # every tree but the single edge
    calls = 0
    run_suite([c for c in CLAIM_IDS if c != "C9"], CORPUS_26, jobs=1)
    assert calls == 0


# ---------------------------------------------------------------------------
# the fact plan: each tree's facts, built once for the claims of the run

_PLAN_CORPORA = {
    "exhaustive-2-7": CorpusSpec(mode="exhaustive", n_min=2, n_max=7),
    "random-8-40": CorpusSpec(mode="random", n_min=8, n_max=40, sample_size=300, seed=1717),
}


@pytest.mark.parametrize("name", list(_PLAN_CORPORA))
def test_each_claim_alone_gives_its_verdict_from_the_all_claims_run(name):
    # a claim run alone gets only the families its entry in the table names,
    # so a checker reading another one fails here with an AttributeError
    spec = _PLAN_CORPORA[name]
    together = run_suite(CLAIM_IDS, spec, jobs=1)
    assert [v.claim for v in together] == list(CLAIM_IDS)
    for verdict in together:
        assert run_suite([verdict.claim], spec, jobs=1) == [verdict], verdict.claim


def test_a_family_left_out_of_the_plan_is_an_unset_slot():
    facts = _TreeFacts(fig5_tree(), frozenset({"core"}))
    assert facts.core == core(fig5_tree()) and facts.alpha == alpha(fig5_tree())
    for family in ("pend", "bip", "free", "lonely"):
        with pytest.raises(AttributeError):
            getattr(facts, family)


def _spy_on_fact_builders(monkeypatch):
    """Patch the builders of the fact families to record each call: the
    pendant set, the top-down pass (with or without sides) and the pendant
    DP (with or without the lonely set)."""
    built = []

    def spy(owner, name, label):
        real = getattr(owner, name)

        def recorded(*args, **kwargs):
            built.append(label(*args, **kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)

    spy(harness, "pendant_vertices", lambda t: "pend")
    spy(_Rooted, "core_and_sides",
        lambda view, sides=True: "core+sides" if sides else "core")
    spy(harness, "_pendant_dp",
        lambda t, pend, view, lonely: "free+lonely" if lonely else "free")
    return built


_RANDOM_200_CLAIMS = ["C3", "C4", "C5", "C7", "C10", "C11", "C12", "C13"]


@pytest.mark.parametrize("claims, per_tree", [
    (["C7"], ["core"]),
    (_RANDOM_200_CLAIMS, ["core+sides", "pend", "free"]),
    (["C4", "E1"], ["core+sides", "pend"]),
    (["C2"], ["pend", "free+lonely"]),
    (list(CLAIM_IDS), ["core+sides", "pend", "free+lonely"]),
], ids=["C7", "random-200", "C4-E1", "C2", "all"])
def test_each_tree_builds_the_families_its_claims_read_once(monkeypatch, claims, per_tree):
    built = _spy_on_fact_builders(monkeypatch)
    for spec in (CORPUS_26, CorpusSpec(mode="random", n_min=20, n_max=60, sample_size=40, seed=9)):
        built.clear()
        run_suite(claims, spec, jobs=1)
        # no claim here is refuted on a tree the witness would rebuild a DP for
        assert built == per_tree * corpus_size(spec), claims


class _CountedCore(frozenset):
    """A core that counts its equality comparisons."""

    compared = 0

    def __eq__(self, other):
        _CountedCore.compared += 1
        return frozenset.__eq__(self, other)

    def __ne__(self, other):
        _CountedCore.compared += 1
        return frozenset.__ne__(self, other)

    __hash__ = frozenset.__hash__


def test_c9_compares_the_core_once_per_tree():
    # the factor union is one set for every split, so comparing it with
    # core(T) at each split where v is in the core made C9 quadratic
    for t in (random_tree(200, 3), path(41), fig5_tree()):
        facts = _TreeFacts(t)
        facts.core = _CountedCore(facts.core)
        _CountedCore.compared = 0
        assert _check_c9(facts) == (HOLDS, None)
        assert _CountedCore.compared <= 1, serialize_tree(t)


def test_c9_refutations_match_reference_on_tampered_facts():
    laws = set()
    for n in range(2, 7):
        for t in enumerate_labeled_trees(n):
            true_core, true_alpha = core(t), alpha(t)
            variants = [(true_core ^ {x}, true_alpha) for x in range(n)]
            variants += [(true_core, true_alpha + d) for d in (-1, 1)]
            for tampered_core, tampered_alpha in variants:
                facts = _TreeFacts(t)
                facts.core = tampered_core
                facts.alpha = tampered_alpha
                got = _check_c9(facts)
                assert got == _check_c9_reference(facts), serialize_tree(t)
                if got[0] == REFUTED:
                    laws.add(got[1]["law"])
    assert laws == {
        "core membership biconditional",
        "stability numbers add up",
        "core is union of factor cores",
    }


def test_c8_single_extension_matches_subset_loop():
    for n in range(2, 8):
        for t in enumerate_labeled_trees(n):
            facts = _TreeFacts(t)
            assert _check_c8(facts) == _check_c8_reference(facts)
            facts.alpha += 1
            assert _check_c8(facts)[0] == REFUTED
            assert _check_c8_reference(facts)[0] == REFUTED


# ---------------------------------------------------------------------------
# C1, C2, C3 and C6 against the subset scan


def _scan(facts):
    """Stable subsets, the pendant mask and, per vertex, the mask of the
    vertices at distance exactly two: what the subset loops read."""
    t = facts.tree
    g = small_graph_from_tree(t)
    adj = g.adjacency_masks
    dist2 = []
    for v in range(t.n):
        nn = 0
        for w in t.adjacency[v]:
            nn |= adj[w]
        dist2.append(nn & ~adj[v] & ~(1 << v))
    pend_mask = sum(1 << p for p in facts.pend)
    return stable_masks(g), pend_mask, dist2


def _lonely(m, pend_mask, dist2):
    """No pendant member of m has another member at distance two."""
    return not any(m >> p & 1 and dist2[p] & m for p in range(len(dist2)) if pend_mask >> p & 1)


def _check_c1_reference(facts, scan):
    stable, pend_mask, _ = scan
    for m in stable:
        if 2 * m.bit_count() >= facts.tree.n and not (m & pend_mask):
            return REFUTED, {"stable_set": sorted(_mask_to_set(m))}
    return HOLDS, None


def _check_c2_reference(facts, scan):
    stable, pend_mask, dist2 = scan
    for m in stable:
        if 2 * m.bit_count() < facts.tree.n or not (m & ~pend_mask):
            continue
        if _lonely(m, pend_mask, dist2):
            return REFUTED, {"stable_set": sorted(_mask_to_set(m))}
    return HOLDS, None


def _check_c3_reference(facts, scan):
    """C3 decided on the forest T - P."""
    t = facts.tree
    if len(facts.pend) == t.n or alpha_forest(delete_vertices(t, facts.pend)) < facts.alpha:
        return HOLDS, None
    return REFUTED, None


def _check_c6_reference(facts, scan):
    stable, pend_mask, dist2 = scan
    smaller = min(len(facts.bip.a), len(facts.bip.b))
    for m in stable:
        if m.bit_count() <= smaller:
            continue
        if not (m & pend_mask):
            return REFUTED, {"stable_set": sorted(_mask_to_set(m)), "missing": "pendant member"}
        if _lonely(m, pend_mask, dist2):
            return REFUTED, {"stable_set": sorted(_mask_to_set(m)), "missing": "distance-2 pair"}
    return HOLDS, None


_PENDANT_DP_CLAIMS = {
    "C1": (_check_c1, _check_c1_reference),
    "C2": (_check_c2, _check_c2_reference),
    "C3": (_check_c3, _check_c3_reference),
    "C6": (_check_c6, _check_c6_reference),
}


def _compare_with_scan(facts, refuted):
    """Same status as the reference for each claim, and a refutation's
    witness is stable and shows what the claim rules out."""
    t = facts.tree
    scan = _scan(facts)
    _, pend_mask, dist2 = scan
    for claim, (check, reference) in _PENDANT_DP_CLAIMS.items():
        status, witness = check(facts)
        assert status == reference(facts, scan)[0], (claim, serialize_tree(t), sorted(facts.pend))
        if status != REFUTED:
            continue
        members = witness["stable_set"]
        m = sum(1 << v for v in members)
        assert members == sorted(members) and m.bit_count() == len(members)
        assert not any(u in members and w in members for u, w in t.edges)
        if claim == "C1":
            assert 2 * len(members) >= t.n and not m & pend_mask
        elif claim == "C2":
            assert 2 * len(members) >= t.n and m & ~pend_mask
            assert _lonely(m, pend_mask, dist2)
        elif claim == "C3":
            assert len(members) == facts.alpha and not m & pend_mask
        else:
            assert len(members) > min(len(facts.bip.a), len(facts.bip.b))
            assert _lonely(m, pend_mask, dist2)
            has_pendant = bool(m & pend_mask)
            assert witness["missing"] == ("distance-2 pair" if has_pendant else "pendant member")
        refuted.add(witness.get("missing", claim))


def _with(t, pend, bip=None):
    """t's facts with the pendants ``pend`` (and the sides ``bip``) in place
    of its own, and free and lonely recomputed from them by the DP that
    ``_TreeFacts`` runs."""
    facts = _TreeFacts(t)
    facts.pend = frozenset(pend)
    facts.free, facts.lonely, _ = _pendant_dp(t, facts.pend, facts.rooted, lonely=True)
    if bip is not None:
        facts.bip = bip
    return facts


def test_pendant_dp_claims_match_subset_scan():
    refuted = set()
    for n in range(2, 8):
        for t in enumerate_labeled_trees(n):
            pend = sorted(pendant_vertices(t))
            if n == 2:
                _compare_with_scan(_TreeFacts(t), refuted)
                continue
            if n == 7:
                for subset in (pend, []):
                    _compare_with_scan(_with(t, subset), refuted)
                continue
            one_sided = Bipartition(a=frozenset(range(n)), b=frozenset())
            for bits in range(1 << len(pend)):
                subset = [pend[i] for i in range(len(pend)) if bits >> i & 1]
                for bip in (None, one_sided):
                    _compare_with_scan(_with(t, subset, bip), refuted)
    for i in range(200):
        _compare_with_scan(_TreeFacts(random_tree(8 + i % 13, derive_seed(21, i))), refuted)
    assert refuted == {"C1", "C2", "C3", "pendant member", "distance-2 pair"}


def test_pendant_free_size_matches_forest_on_large_trees():
    for i in range(60):
        t = random_tree(3 + 5 * i, derive_seed(22, i))
        facts = _TreeFacts(t)
        assert facts.free == alpha_forest(delete_vertices(t, facts.pend))
        for lonely, size in ((False, facts.free), (True, facts.lonely)):
            members = _pendant_dp_set(facts, lonely)
            assert len(members) == len(set(members)) == size
            assert not any(u in members and w in members for u, w in t.edges)


# ---------------------------------------------------------------------------
# the open-problem measurement


def test_e1_measurement_on_p5():
    res = check_tree("E1", path(5))
    assert res.status == "holds"
    assert res.witness == {
        "perfect_matching": False,
        "beyond_question": False,
        "measurements": [
            {"k": 2, "num_sets": 3, "intersection": [], "pendants_in_intersection": 0}
        ],
    }


def test_e1_labels_perfect_matching_trees():
    res = check_tree("E1", path(4))
    assert res.witness["perfect_matching"] and res.witness["beyond_question"]
    assert res.witness["measurements"] == [
        {"k": 2, "num_sets": 3, "intersection": [], "pendants_in_intersection": 0}
    ]


def test_e1_distinct_k_values():
    # six-vertex star: n/2 = 3 but min(|A|,|B|) = 1
    t = tree_from_edges(6, [(0, i) for i in range(1, 6)])
    res = check_tree("E1", t)
    ks = [m["k"] for m in res.witness["measurements"]]
    assert ks == [1, 3]
    by_k = {m["k"]: m for m in res.witness["measurements"]}
    assert by_k[1] == {"k": 1, "num_sets": 1, "intersection": [0], "pendants_in_intersection": 0}
    # no maximal stable set of the star has size 3
    assert by_k[3]["num_sets"] == 0 and by_k[3]["intersection"] is None
