"""stablecore: stability structure of trees and an executable claim harness.

The library computes maximum stable sets, the core (their intersection),
matchings, pendant interaction and vertex bonding on trees, and runs a
registry of structural claims over exhaustive or seeded-random tree
corpora. The independent brute-force paths that cross-check all of it are
test oracles in ``reference``; the other modules import nothing from it.
"""

from .bonding import BondResult, map_set, spider, vertex_bond
from .errors import (
    EmptyResult,
    LimitExceeded,
    NotATree,
    NotPendant,
    NotStable,
    OutOfRange,
    ParseError,
    ScaleExceeded,
    StablecoreError,
    TooLarge,
    TooSmall,
)
from .graph_model import (
    Bipartition,
    SplitMix64,
    Tree,
    bfs_depths,
    bipartition,
    canonical_form,
    derive_seed,
    distance,
    enumerate_labeled_trees,
    labeled_tree_count,
    pendant_vertices,
    prufer_decode,
    prufer_encode,
    random_tree,
    tree_from_edges,
)
from .harness import (
    CLAIM_IDS,
    ClaimResult,
    CorpusSpec,
    Verdict,
    check_tree,
    corpus_size,
    corpus_tree,
    fig5_tree,
    iter_corpus,
    run_claim,
    run_suite,
    serialize_tree,
    tree_from_serialization,
)
from .independence import (
    AnalysisReport,
    alpha,
    analyze,
    core,
    count_maximum_stable_sets,
    enumerate_maximal_stable_sets,
    extend_pendant_set,
    has_perfect_matching,
    is_strong_unique_by_definition,
    is_strong_unique_independent,
    mu,
    one_maximum_stable_set,
)
from .reference import (
    BruteForceResult,
    Forest,
    ForestComponent,
    SmallGraph,
    alpha_forest,
    brute_force_stability,
    core_naive,
    delete_vertices,
    enumerate_maximum_stable_sets,
    fig1_graph,
    small_graph_from_edges,
    small_graph_from_tree,
)

__version__ = "0.1.0"
