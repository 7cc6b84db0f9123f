import itertools
import random

import pytest
from conftest import count_connected_rule_dp, random_permutation

from asmtree import (
    AssemblyTree,
    CapExceeded,
    ComputationRefused,
    DisconnectedGraph,
    Graph,
    HSpec,
    InputError,
    build_h_graph,
    closed_form,
    count_connected_rule,
    count_edge_rule,
    count_from_egf,
    enumerate_connected_rule,
    enumerate_connected_rule_trees,
    enumerate_edge_rule,
    enumerate_edge_rule_trees,
    family,
    gluing_sequence_tree,
    hgraph_egf,
    is_connected_subset,
    relabel,
    spanning_trees,
    trees_from_gluing_sequences,
)
from asmtree import trees

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


def test_subset_cap_override(monkeypatch):
    # the cap is read at each call, so a patched constant takes effect
    monkeypatch.setattr(trees, "SUBSET_CAP", 4)
    with pytest.raises(CapExceeded):
        count_edge_rule(family("path", [5]))
    assert count_edge_rule(family("path", [4])) == 5


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


def test_connected_rule_trees_partition_into_connected_parts():
    # every labelled connected graph on at most 5 vertices (772 graphs);
    # with the count check against the partition DP this pins the whole set
    for n in range(1, 6):
        for g in _connected_graphs(n):
            found = enumerate_connected_rule_trees(g)
            for t in found:
                assert t.label == g.full_mask
                for node in _internal_nodes(t):
                    assert len(node.children) >= 2
                    union = 0
                    for c in node.children:
                        assert union & c.label == 0
                        union |= c.label
                        assert is_connected_subset(g, c.label)
                    assert union == node.label
            assert len({t.canonical_code() for t in found}) == len(found), g


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
    # a memoizing closure refers to itself; left as a cycle it keeps its
    # memo alive until the cyclic collector runs. The counting core keeps
    # its tables in locals, so they must be gone on return as well.
    import gc
    import tracemalloc
    from types import FunctionType

    from asmtree import count_connected_rule, enumerate_edge_rule

    def leftover():
        owners = ("_count_trees.", "_trees_by_subset.")
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
        tracemalloc.start()
        try:
            assert count_edge_rule(family("cycle", [11])) == closed_form("cycle", 11)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > 16_384 and retained < 1_024  # 2048 states, 8 bytes each
    finally:
        gc.enable()


def _connected_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        g = Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
        if g.is_connected():
            yield g


def test_core_matches_enumeration_on_every_small_graph():
    # every labelled connected graph on at most 5 vertices (772 graphs)
    seen = 0
    for n in range(1, 6):
        for g in _connected_graphs(n):
            assert count_edge_rule(g) == len(enumerate_edge_rule(g)), g
            connected = count_connected_rule(g)
            assert connected == len(enumerate_connected_rule(g)) == count_connected_rule_dp(g), g
            seen += 1
    assert seen == 772


SMALL_TEMPLATES = [
    Graph(1),
    Graph(2, [(0, 1)]),
    Graph(3, [(0, 1), (1, 2)]),
    Graph(3, [(0, 1), (1, 2), (0, 2)]),
]


def test_core_matches_independent_routes_on_small_blowups():
    # every blow-up of a connected template on at most 3 vertices, every
    # phi, multiplicities 1-3 (up to 9 vertices). The template EGF and the
    # partition DP reach every cell; the tree sets are enumerated up to 6
    # vertices, since K_9 alone has 2027025 edge-rule trees.
    seen = enumerated = 0
    for base in SMALL_TEMPLATES:
        for phi in itertools.product((0, 1), repeat=base.n):
            for mult in itertools.product((1, 2, 3), repeat=base.n):
                spec = HSpec(base, phi, mult)
                g = build_h_graph(spec)
                if not g.is_connected():
                    continue
                edge = count_edge_rule(g)
                connected = count_connected_rule(g)
                assert edge == count_from_egf(hgraph_egf(spec, mult), mult), spec
                assert connected == count_connected_rule_dp(g), spec
                if g.n <= 6:
                    assert edge == len(enumerate_edge_rule(g)), spec
                    assert connected == len(enumerate_connected_rule(g)), spec
                    enumerated += 1
                seen += 1
    assert (seen, enumerated) == (472, 312)


BIPARTITE = HSpec(family("complete", [2]), (0, 0))
TRIPARTITE = HSpec(family("complete", [3]), (0, 0, 0))


def test_core_pins_on_22_to_24_vertices():
    # each graph has 22-24 vertices; the template EGF, the closed form and
    # OEIS A000311 (total partitions of a 12-set) are independent routes
    k12 = family("complete_multipartite", [12, 12])
    assert count_edge_rule(k12) == count_from_egf(hgraph_egf(BIPARTITE, (12, 12)), (12, 12))
    k888 = family("complete_multipartite", [8, 8, 8])
    assert count_edge_rule(k888) == count_from_egf(
        hgraph_egf(TRIPARTITE, (8, 8, 8)), (8, 8, 8)
    )
    assert count_edge_rule(family("complete", [22])) == closed_form("complete", 22)
    assert count_connected_rule(family("complete", [12])) == 188666182784


def test_core_is_invariant_when_twins_are_not_contiguous():
    # the path template with clique bits on both leaves, multiplicities
    # (4, 5, 4): relabelling scatters each twin class over the vertex order
    g = build_h_graph(HSpec(family("path", [3]), (1, 0, 1), (4, 5, 4)))
    rng = random.Random(2024)
    for _ in range(6):
        h = relabel(g, random_permutation(rng, g.n))
        assert count_edge_rule(h) == 74313487800


def test_work_guard_is_keyed_to_the_twin_quotient(monkeypatch):
    # a twin-free graph costs 3 per vertex, so it is refused as before
    with pytest.raises(CapExceeded, match="cap"):
        count_edge_rule(family("path", [25]))
    with pytest.raises(CapExceeded, match="cap"):
        count_connected_rule(family("cycle", [25]))
    # a class of k twins costs C(k + 2, 2): K_5 costs 21 <= 3^4
    monkeypatch.setattr(trees, "SUBSET_CAP", 4)
    assert count_edge_rule(family("complete", [5])) == closed_form("complete", 5)
    assert count_connected_rule(family("complete", [5])) == 236
    with pytest.raises(CapExceeded):  # two classes of 3: C(5, 2)^2 = 100 > 81
        count_edge_rule(family("complete_multipartite", [3, 3]))
    # a huge cap admits everything at once; 3^cap is never computed
    monkeypatch.setattr(trees, "SUBSET_CAP", 10**12)
    assert count_edge_rule(family("path", [6])) == 42


def test_connected_rule_cap_counts_every_state(monkeypatch):
    # the connected rule fills P on disconnected states too, so a sparse
    # twin-free graph costs it the whole estimate: its cap stays at 16
    monkeypatch.setattr(trees, "SUBSET_CAP", 10**12)
    with pytest.raises(CapExceeded, match=r"cap 3\^16"):
        count_connected_rule(family("path", [17]))
    assert count_edge_rule(family("path", [17])) == closed_form("path", 17)
    monkeypatch.setattr(trees, "SUBSET_CAP", 24)
    with pytest.raises(CapExceeded, match=r"cap 3\^16"):
        count_connected_rule(family("cycle", [20]))
