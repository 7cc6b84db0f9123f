import random

import pytest
from conftest import count_connected_rule_dp, random_permutation

from asmtree import (
    AssemblyTree,
    CapExceeded,
    ComputationRefused,
    DisconnectedGraph,
    Graph,
    InputError,
    closed_form,
    count_connected_rule,
    count_edge_rule,
    enumerate_connected_rule,
    enumerate_edge_rule,
    enumerate_edge_rule_trees,
    family,
    gluing_sequence_tree,
    relabel,
    spanning_trees,
    trees_from_gluing_sequences,
)

KNOWN_EDGE_COUNTS = [
    ("path", [4], 5),
    ("path", [1], 1),
    ("cycle", [4], 10),
    ("cycle", [3], 3),
    ("complete", [2], 1),
    ("complete", [3], 3),
    ("complete", [4], 15),
    ("complete_multipartite", [2, 2], 10),
    ("complete_multipartite", [2, 3], 54),
    ("complete_multipartite", [3, 3], 450),
    ("star", [3], 6),
    ("star2", [1], 2),
    ("star2", [2], 14),
]


@pytest.mark.parametrize("name,params,want", KNOWN_EDGE_COUNTS)
def test_count_edge_rule_known_values(name, params, want):
    assert count_edge_rule(family(name, params)) == want


def test_count_edge_rule_rejections():
    with pytest.raises(DisconnectedGraph):
        count_edge_rule(Graph(3, [(0, 1)]))
    with pytest.raises(ComputationRefused):
        count_edge_rule(Graph(0))


def test_subset_cap_env_override(monkeypatch):
    monkeypatch.setenv("ASMTREE_MAX_SUBSET_BITS", "4")
    with pytest.raises(CapExceeded):
        count_edge_rule(family("path", [5]))
    assert count_edge_rule(family("path", [4])) == 5
    monkeypatch.setenv("ASMTREE_MAX_SUBSET_BITS", "junk")
    with pytest.raises(InputError):
        count_edge_rule(family("path", [4]))


def test_enumerate_sizes():
    assert len(enumerate_edge_rule(family("path", [3]))) == 2
    assert len(enumerate_edge_rule(family("cycle", [4]))) == 10
    assert len(enumerate_edge_rule(family("star", [3]))) == 6


def test_enumerate_matches_count_small():
    for g in (family("path", [5]), family("cycle", [5]), family("complete", [4])):
        assert len(enumerate_edge_rule(g)) == count_edge_rule(g)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_edge_rule(family("path", [10]))


def test_spanning_trees_counts():
    assert len(spanning_trees(family("cycle", [4]))) == 4
    assert len(spanning_trees(family("complete", [4]))) == 16
    assert len(spanning_trees(family("path", [4]))) == 1
    # K_{2,3} has 2^2 * 3^1 = 12 spanning trees
    assert len(spanning_trees(family("complete_multipartite", [2, 3]))) == 12


def test_gluing_sequences_c4():
    g = family("cycle", [4])
    trees = spanning_trees(g)
    assert len(trees) == 4 and all(len(t) == 3 for t in trees)
    codes = trees_from_gluing_sequences(g)
    assert len(codes) == 10  # 24 sequences collapse to 10 distinct trees


def test_gluing_sequences_k2_and_p4():
    assert len(trees_from_gluing_sequences(family("complete", [2]))) == 1
    # the unique spanning tree of P4 has 3! = 6 orderings, 5 distinct trees
    assert len(trees_from_gluing_sequences(family("path", [4]))) == 5


def test_gluing_sequence_tree_structure():
    g = family("path", [3])
    t = gluing_sequence_tree(g, [(0, 1), (1, 2)])
    assert t.label == 0b111
    assert len(t.children) == 2
    left = min(t.children, key=lambda c: c.min_vertex)
    assert left.label == 0b011


def test_three_way_agreement_spot():
    for g in (family("path", [5]), family("cycle", [5]), family("star2", [2])):
        n_count = count_edge_rule(g)
        assert len(enumerate_edge_rule(g)) == n_count
        assert len(trees_from_gluing_sequences(g)) == n_count
        assert enumerate_edge_rule(g) == trees_from_gluing_sequences(g)


def _internal_nodes(t: AssemblyTree):
    stack = [t]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            yield node
            stack.extend(node.children)


def test_edge_rule_trees_have_crossing_edges_forming_spanning_tree():
    for g in (family("cycle", [5]), family("complete", [4]), family("star2", [2])):
        for t in enumerate_edge_rule_trees(g):
            chosen = set()
            for node in _internal_nodes(t):
                assert len(node.children) == 2
                a, b = node.children
                assert a.label & b.label == 0
                crossing = [
                    (u, v)
                    for u, v in g.edges()
                    if (a.label >> u & 1 and b.label >> v & 1)
                    or (a.label >> v & 1 and b.label >> u & 1)
                ]
                assert crossing, "every join needs a crossing edge"
                chosen.add(min(crossing))
            assert len(chosen) == g.n - 1
            # the chosen edges connect all vertices: spanning tree
            sub = Graph(g.n, sorted(chosen))
            assert sub.is_connected()


def test_codes_are_deterministic_and_label_preserving():
    g = family("cycle", [5])
    assert enumerate_edge_rule(g) == enumerate_edge_rule(g)
    t = enumerate_edge_rule_trees(g)[0]
    assert t.canonical_code() == t.canonical_code()
    # child order must not matter
    a, b = t.children
    swapped = AssemblyTree(t.label, (b, a))
    assert swapped.canonical_code() == t.canonical_code()


def test_assembly_tree_validation():
    with pytest.raises(InputError):
        AssemblyTree(0b11)  # a leaf must be a single vertex
    with pytest.raises(InputError):
        AssemblyTree(0b111, (AssemblyTree.leaf(0), AssemblyTree.leaf(1)))


def test_catalan_convolution_for_paths():
    a = {n: count_edge_rule(family("path", [n])) for n in range(1, 10)}
    for n in range(2, 10):
        assert a[n] == sum(a[k] * a[n - k] for k in range(1, n))


def test_count_is_isomorphism_invariant():
    rng = random.Random(99)
    for g in (family("cycle", [6]), family("star2", [2]), family("complete_multipartite", [2, 3])):
        base = count_edge_rule(g)
        for _ in range(5):
            assert count_edge_rule(relabel(g, random_permutation(rng, g.n))) == base


def test_connected_rule_hand_verified():
    assert count_connected_rule(family("complete", [2])) == 1
    # P3: the depth-1 star partition plus the two binary shapes; {0,2} is
    # disconnected so nothing else qualifies
    assert count_connected_rule(family("path", [3])) == 3


def test_connected_rule_against_partition_dp():
    for g in (
        family("path", [4]),
        family("path", [5]),
        family("cycle", [5]),
        family("star", [4]),
        family("complete", [4]),
        family("complete_multipartite", [2, 2]),
        family("caterpillar", [3]),
    ):
        assert count_connected_rule(g) == count_connected_rule_dp(g)


def test_connected_rule_star_counts_are_ordered_set_partitions():
    # arms can only join through the center, so the counts follow the
    # ordered-Bell-style recursion c_n = sum_k C(n,k) c_k (k < n)
    from math import comb

    c = {0: 1}
    for n in range(1, 5):
        c[n] = sum(comb(n, k) * c[k] for k in range(n))
    for n in range(1, 5):
        assert count_connected_rule(family("star", [n])) == c[n]


def test_connected_rule_deterministic_and_invariant():
    g = family("cycle", [5])
    assert enumerate_connected_rule(g) == enumerate_connected_rule(g)
    rng = random.Random(5)
    base = count_connected_rule(g)
    for _ in range(5):
        assert count_connected_rule(relabel(g, random_permutation(rng, g.n))) == base


CLOSED_FORM_CASES = [
    ("path", 4, 5),
    ("star2", 1, 2),
    ("star2", 2, 14),
    ("complete", 4, 15),
    ("cycle", 4, 10),
    ("star", 4, 24),
]


@pytest.mark.parametrize("name,n,want", CLOSED_FORM_CASES)
def test_closed_form_values(name, n, want):
    assert closed_form(name, n) == want


def test_closed_form_star2_1_equals_path3():
    assert closed_form("star2", 1) == count_edge_rule(family("path", [3]))


def test_closed_form_matches_dp_spot():
    assert closed_form("complete", 5) == count_edge_rule(family("complete", [5]))
    assert closed_form("star2", 3) == count_edge_rule(family("star2", [3]))
    assert closed_form("cycle", 7) == count_edge_rule(family("cycle", [7]))


def test_closed_form_rejects():
    with pytest.raises(InputError):
        closed_form("path", 0)
    with pytest.raises(InputError):
        closed_form("cycle", 2)
    with pytest.raises(InputError):
        closed_form("caterpillar", 3)


def test_subset_dp_closures_are_freed_on_return():
    # the memoizing closures refer to themselves; left as a cycle they keep
    # their memo alive until the cyclic collector runs
    import gc
    from types import FunctionType

    from asmtree import count_connected_rule, enumerate_edge_rule

    def leftover():
        owners = ("count_edge_rule.", "_edge_trees_by_subset.", "_connected_trees_by_subset.")
        return [
            o for o in gc.get_objects()
            if isinstance(o, FunctionType) and o.__qualname__.startswith(owners)
        ]

    gc.collect()
    gc.disable()
    try:
        assert count_edge_rule(family("cycle", [6])) == 126
        assert len(enumerate_edge_rule(family("path", [4]))) == 5
        assert count_connected_rule(family("path", [4])) == 11
        assert leftover() == []
    finally:
        gc.enable()
