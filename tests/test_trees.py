import itertools
import random
import re
import time
import tracemalloc
from math import comb

import pytest
from conftest import (
    POLYHEDRA,
    gluing_reference,
    partition_dp,
    random_connected_graph,
    random_permutation,
)

from asmtree import (
    AssemblyTree,
    CapExceeded,
    ComputationRefused,
    DisconnectedGraph,
    Graph,
    HSpec,
    InputError,
    build_h_graph,
    builtin,
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
    guess,
    hgraph_egf,
    is_connected_subset,
    log_sequence,
    relabel,
    spanning_trees,
    trees_from_gluing_sequences,
)
from asmtree import errors, trees
from asmtree.errors import Meter
from asmtree.graphs import _components, _connected_mask, _mapped
from asmtree.symmetry import automorphisms, layout_automorphisms

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


def test_work_budget_override(monkeypatch):
    # the budget is read at each call, so a patched constant takes effect:
    # P_4 costs 60 units of work and P_5 costs 102, with the search for the
    # mirror symmetry of each and its table of 2^n entries
    monkeypatch.setattr(errors, "WORK_BUDGET", 80)
    with pytest.raises(CapExceeded, match="units of work"):
        count_edge_rule(family("path", [5]))
    assert count_edge_rule(family("path", [4])) == 5
    # the search for that symmetry costs 20 units, so at 19 it is stopped
    # by the meter as it refines, before any state is walked
    monkeypatch.setattr(errors, "WORK_BUDGET", 19)
    monkeypatch.setattr(trees, "_walk", None)
    with pytest.raises(CapExceeded, match="units of work"):
        count_edge_rule(family("path", [5]))


def test_meter_admits_its_limit_and_refuses_one_unit_more(monkeypatch):
    monkeypatch.setattr(errors, "WORK_BUDGET", 10)
    meter = Meter("ten units")
    meter.charge(4)
    meter.charge(6)  # exactly at the limit
    assert meter.work == 10
    with pytest.raises(CapExceeded, match="^ten units over 10 units of work, the cap$"):
        meter.charge(1)
    assert meter.work == 11


def test_one_work_budget_bounds_every_route(monkeypatch):
    # one patched budget limits each route to its units times the route's
    # step price; a meter built `start` steps short of that limit admits the
    # route's exact charge and refuses it one step over, in one line
    from asmtree import asymptotics, recurrences, series

    monkeypatch.setattr(errors, "WORK_BUDGET", 5000)
    catalan = [comb(2 * n, n) // (n + 1) for n in range(11)]
    path = HSpec(Graph(3, [(0, 1), (1, 2)]), (1, 0, 1))
    routes = [  # module, steps per unit, charge in steps, the route
        (trees, 1, 102, lambda: count_edge_rule(family("path", [5]))),
        (series, 25, 11834, lambda: hgraph_egf(path, (3, 3, 3))),
        (recurrences, 50, 112, lambda: guess(catalan, 1, 1)),
        (asymptotics, 50, 48000, lambda: log_sequence(builtin("c"), [0, 3, 84, 4935], 1000)),
    ]
    for module, per_unit, charge, route in routes:
        for over in (0, 1):
            meters = []

            def started(need, steps=1, start=charge - over):
                meters.append(Meter(need, steps))
                meters[-1].work = meters[-1].limit - start
                return meters[-1]

            monkeypatch.setattr(module, "Meter", started)
            if over:
                with pytest.raises(CapExceeded) as info:
                    route()
                assert re.fullmatch(r"[^\n]* over 5e\+03 units of work, the cap", str(info.value))
            else:
                assert route() is not None
            assert len(meters) == 1
            assert meters[0].limit == 5000 * per_unit and meters[0].work == meters[0].limit + over


@pytest.mark.parametrize("rule,g,charge,count", [
    (count_edge_rule, family("path", [5]), 102, 14),
    (count_edge_rule, family("complete_multipartite", [3, 3]), 134, 450),
    # the connected rule walks the components of a disconnected rest once
    (count_connected_rule, family("complete_multipartite", [3, 3]), 145, 1543),
    (count_connected_rule, family("cycle", [8]), 819, 14407),
], ids=["P5", "K33", "K33_connected", "C8_connected"])
def test_edge_rule_charges_are_pinned(rule, g, charge, count, monkeypatch):
    # a budget equal to the charge admits the graph, one unit less refuses it
    monkeypatch.setattr(errors, "WORK_BUDGET", charge)
    assert rule(g) == count
    monkeypatch.setattr(errors, "WORK_BUDGET", charge - 1)
    with pytest.raises(CapExceeded, match="units of work, the cap"):
        rule(g)


def test_connected_rule_walks_each_disconnected_rest_once(monkeypatch):
    # the forests of a disconnected rest, the product over its components,
    # are stored the first time it is a rest: the 4x4 grid has 7,382 such
    # rests, which its splits met 97,035 times
    calls = []

    def spy(adj, mask):
        calls.append(mask)
        return _components(adj, mask)

    monkeypatch.setattr(trees, "_components", spy)
    g = POLYHEDRA["grid4x4"]
    assert count_connected_rule(g) == POLYHEDRA_COUNTS["grid4x4"][1]
    assert len(calls) == len(set(calls)) == 7382
    assert not any(_connected_mask(g.adj, r) for r in calls)


def test_enumerate_sizes():
    assert len(enumerate_edge_rule(family("path", [3]))) == 2
    assert len(enumerate_edge_rule(family("cycle", [4]))) == 10
    assert len(enumerate_edge_rule(family("star", [3]))) == 6


def test_enumerate_matches_count_small():
    for g in (family("path", [5]), family("cycle", [5]), family("complete", [4])):
        assert len(enumerate_edge_rule(g)) == count_edge_rule(g)


@pytest.mark.parametrize("enumerate_rule", [enumerate_edge_rule, enumerate_connected_rule])
def test_enumeration_is_metered(enumerate_rule):
    # no vertex cap: K_9 is refused by the work meter, P_10 is enumerated
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match="units of work, the cap") as info:
        enumerate_rule(family("complete", [9]))
    assert time.perf_counter() - t0 < 5.0
    assert "\n" not in str(info.value)
    assert len(enumerate_edge_rule(family("path", [10]))) == closed_form("path", 10) == 4862


def test_enumeration_charges_each_tree_and_forest(monkeypatch):
    # the edge rule on K_6 builds one tree and one forest for each of the
    # sum over k of C(6, k)(2k - 3)!! trees of its vertex sets: 2 * 1881
    monkeypatch.setattr(errors, "WORK_BUDGET", 3762)
    assert len(enumerate_edge_rule(family("complete", [6]))) == closed_form("complete", 6)
    monkeypatch.setattr(errors, "WORK_BUDGET", 3761)
    with pytest.raises(CapExceeded, match="units of work"):
        enumerate_edge_rule(family("complete", [6]))


def test_gluing_is_metered(monkeypatch):
    # K_7 and P_14 are refused by the meter as they glue, in one line
    for g in (family("complete", [7]), family("path", [14])):
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded, match="units of work, the cap") as info:
            trees_from_gluing_sequences(g)
        assert time.perf_counter() - t0 < 2.5
        assert "\n" not in str(info.value)
    # K_6, C_8 and S_8 (a 9-vertex tree) are admitted
    t0 = time.perf_counter()
    assert len(trees_from_gluing_sequences(family("complete", [6]))) == closed_form("complete", 6)
    assert time.perf_counter() - t0 < 1.5
    assert len(trees_from_gluing_sequences(family("cycle", [8]))) == closed_form("cycle", 8)
    assert len(trees_from_gluing_sequences(family("star", [8]))) == closed_form("star", 8)

    def unreachable(*_):
        raise AssertionError("a spanning tree was built")

    monkeypatch.setattr(trees, "_find", unreachable)
    with pytest.raises(CapExceeded, match=r"C\(36, 8\) edge subsets"):
        trees_from_gluing_sequences(family("complete", [9]))
    # a spanning tree on n vertices has at least 2^(n-2) trees
    with pytest.raises(CapExceeded, match=r"4·2\^18 units of work"):
        trees_from_gluing_sequences(family("path", [20]))


def test_gluing_charges_each_join(monkeypatch):
    # C_4 joins the trees of its four spanning paths (5 each), of their four
    # 2-edge subpaths (2 each) and of its four edges: 32 joins of 4 units
    monkeypatch.setattr(errors, "WORK_BUDGET", 128)
    assert len(trees_from_gluing_sequences(family("cycle", [4]))) == 10
    monkeypatch.setattr(errors, "WORK_BUDGET", 127)
    with pytest.raises(CapExceeded, match="units of work"):
        trees_from_gluing_sequences(family("cycle", [4]))


def test_gluing_matches_every_ordering(battery):
    # every labelled connected graph on at most 5 vertices, and the battery
    # graphs on at most 6, against the tree of every ordering
    seen = 0
    for n in range(1, 6):
        for g in _connected_graphs(n):
            assert trees_from_gluing_sequences(g) == gluing_reference(g), g
            seen += 1
    assert seen == 772
    for name, g in battery:
        if g.n <= 6:
            assert trees_from_gluing_sequences(g) == gluing_reference(g), name
            seen += 1
    assert seen == 772 + 27


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


@pytest.mark.parametrize("sequence", [
    [(0, 2), (0, 1)],  # (0, 2) is no edge of P_3: ((0,2),1) is no tree of it
    [(0,)],
    [(0, 1, 2)],
    [0],
    [(1, 1)],
    [("0", 1)],
    [(True, 2)],  # (1, 2) is an edge, but True is no vertex
], ids=["non_edge", "short", "long", "int", "loop", "str", "bool"])
def test_gluing_sequence_items_must_be_edges(sequence):
    with pytest.raises(InputError, match="is not an edge of the graph"):
        gluing_sequence_tree(family("path", [3]), sequence)


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
    pair = AssemblyTree(0b11, (AssemblyTree.leaf(0), AssemblyTree.leaf(1)))
    with pytest.raises(InputError, match="disjoint"):  # children overlap on vertex 1
        AssemblyTree(0b111, (pair, AssemblyTree(0b110, (AssemblyTree.leaf(1), AssemblyTree.leaf(2)))))
    with pytest.raises(InputError):  # one child
        AssemblyTree(0b11, (pair,))
    # an internal label is an int, not a float or a bool, and a child is a tree
    with pytest.raises(InputError, match="integer union"):
        AssemblyTree(3.0, (AssemblyTree.leaf(0), AssemblyTree.leaf(1)))
    with pytest.raises(InputError, match="assembly trees"):
        AssemblyTree(3, (1, 2))
    with pytest.raises(InputError, match="assembly trees"):
        AssemblyTree(3, (AssemblyTree.leaf(0), 2))
    # sorting children by their lowest vertex alone gives the same code
    mixed = AssemblyTree(0b1111, (AssemblyTree(0b1010, (AssemblyTree.leaf(3), AssemblyTree.leaf(1))),
                                  AssemblyTree.leaf(2), AssemblyTree.leaf(0)))
    assert mixed.canonical_code() == b"(0,(1,3),2)"


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
        assert count_connected_rule(g) == partition_dp(g, True)


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

    from asmtree import count_connected_rule, enumerate_connected_rule, enumerate_edge_rule

    def leftover():
        # the hooks of both wrappers; the shared loop defines none of its own
        owners = ("_count_trees.", "_trees_by_subset.", "_assemble.")
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
        assert len(enumerate_connected_rule(family("cycle", [4]))) == 19
        assert leftover() == []
        for count in (count_edge_rule, count_connected_rule):
            g = family("cycle", [14])
            tracemalloc.start()
            try:
                count(g)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the 183 connected states of C_14 hold their counts until return
            assert peak > 16_384 and retained < 1_024
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
            assert connected == len(enumerate_connected_rule(g)) == partition_dp(g, True), g
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
                assert connected == partition_dp(g, True), spec
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


def _little_schroeder(n: int) -> int:
    """OEIS A001003 (1, 1, 3, 11, 45, 197, ...), by its P-recurrence
    (n + 1)·s(n) = 3(2n - 1)·s(n - 1) - (n - 2)·s(n - 2); s(n - 1) counts
    the connected-rule trees of P_n, whose parts are intervals."""
    s = [1, 1]
    for k in range(2, n + 1):
        s.append((3 * (2 * k - 1) * s[-1] - (k - 2) * s[-2]) // (k + 1))
    return s[n]


def _connected_rule_cycle(n: int) -> int:
    """Connected-rule trees of C_n: the root cuts the cycle into two or more
    arcs, each a child with s(L - 1) trees on its L vertices. Vertex 0 sits
    at one of L places in its arc; c(m) counts the rest as a row of arcs."""
    t = [0] + [_little_schroeder(size - 1) for size in range(1, n)]
    c = [1]
    for m in range(1, n):
        c.append(sum(t[size] * c[m - size] for size in range(1, m + 1)))
    return sum(size * t[size] * c[n - size] for size in range(1, n))


def test_work_guard_is_keyed_to_the_twin_quotient(monkeypatch):
    # a twin-free graph costs its connected sets and useful splits, so P_25
    # and C_25 take milliseconds
    assert count_edge_rule(family("path", [25])) == closed_form("path", 25)
    assert count_edge_rule(family("cycle", [25])) == closed_form("cycle", 25)
    assert count_connected_rule(family("path", [25])) == _little_schroeder(24)
    assert count_connected_rule(family("cycle", [25])) == _connected_rule_cycle(25)
    # a class of k twins has k states: K_5 costs 25 units and K_{3,3} 134,
    # whose two classes are swapped by a symmetry with a 64-entry table
    monkeypatch.setattr(errors, "WORK_BUDGET", 40)
    assert count_edge_rule(family("complete", [5])) == closed_form("complete", 5)
    assert count_connected_rule(family("complete", [5])) == 236
    with pytest.raises(CapExceeded, match="units of work"):
        count_edge_rule(family("complete_multipartite", [3, 3]))
    # a huge budget admits everything
    monkeypatch.setattr(errors, "WORK_BUDGET", 10**12)
    assert count_edge_rule(family("path", [6])) == 42


def test_connected_rule_walks_connected_states_only():
    # P of a disconnected rest is the product over its components, so the
    # connected rule needs only connected states: sparse twin-free graphs
    # of 17-40 vertices take milliseconds
    for n in range(3, 9):
        assert _connected_rule_cycle(n) == partition_dp(family("cycle", [n]), True)
    for n in (1, 2, 3, 4, 5, 6, 17, 24, 40):
        assert count_connected_rule(family("path", [n])) == _little_schroeder(n - 1)
    for n in (3, 4, 5, 17, 20, 24):
        assert count_connected_rule(family("cycle", [n])) == _connected_rule_cycle(n)
    assert count_edge_rule(family("path", [17])) == closed_form("path", 17)


def test_core_matches_partition_dp_on_every_graph_up_to_6_vertices():
    seen = 0
    for n in range(1, 7):
        for g in _connected_graphs(n):
            assert count_edge_rule(g) == partition_dp(g, False), g
            assert count_connected_rule(g) == partition_dp(g, True), g
            seen += 1
    assert seen == 27476


def _random_blowup(rng: random.Random) -> Graph:
    """A relabelled blow-up of a random connected template on 2-5 vertices
    with at most 8 vertices, mixing one-vertex classes and twin classes."""
    k = rng.randint(2, 5)
    base = Graph(2, [(0, 1)]) if k == 2 else random_connected_graph(rng, k, rng.randint(0, 2))
    mult = [rng.choice((1, 1, 2, 3)) for _ in range(k)]
    while sum(mult) > 8:
        mult[mult.index(max(mult))] -= 1
    phi = tuple(rng.randint(0, 1) for _ in range(k))
    g = build_h_graph(HSpec(base, phi, tuple(mult)))
    return relabel(g, random_permutation(rng, g.n))


def _random_tree_with_cherries(rng: random.Random) -> Graph:
    """A relabelled random tree on at most 8 vertices in which some vertices
    carry cherries: two leaves on one vertex are false twins."""
    m = rng.randint(1, 6)
    edges = [(rng.randrange(v), v) for v in range(1, m)]
    n = m
    while n + 2 <= 8 and rng.random() < 0.6:
        p = rng.randrange(n)
        edges += [(p, n), (p, n + 1)]
        n += 2
    return relabel(Graph(n, edges), random_permutation(rng, n))


@pytest.mark.parametrize("make", [_random_blowup, _random_tree_with_cherries])
def test_core_matches_partition_dp_on_random_twin_graphs(make):
    rng = random.Random(2026)
    for _ in range(300):
        g = make(rng)
        assert count_edge_rule(g) == partition_dp(g, False), g
        assert count_connected_rule(g) == partition_dp(g, True), g


# the two 15-vertex graphs of the dp_sparse benchmark workload: uniform
# labelled trees plus extra random edges, with pinned edge-rule counts
R15 = (
    (((0, 6), (0, 14), (1, 6), (2, 9), (3, 5), (3, 7), (3, 11), (4, 8), (4, 10),
      (4, 14), (6, 13), (7, 9), (9, 13), (10, 14), (11, 12), (12, 14)), 325551316),
    (((0, 7), (1, 4), (1, 9), (1, 11), (2, 14), (3, 6), (3, 12), (4, 5), (4, 12),
      (4, 13), (5, 6), (5, 10), (6, 8), (7, 10), (9, 10), (12, 14)), 819108569),
)


def test_core_matches_closed_forms_and_pins_on_twin_free_graphs():
    for n in (*range(1, 13), 17, 24, 25, 31, 40, 47, 60):
        assert count_edge_rule(family("path", [n])) == closed_form("path", n), n
        if n >= 3:
            assert count_edge_rule(family("cycle", [n])) == closed_form("cycle", n), n
    rng = random.Random(15)
    for edges, want in R15:
        for _ in range(3):
            g = relabel(Graph(15, edges), random_permutation(rng, 15))
            assert count_edge_rule(g) == want


@pytest.mark.parametrize("g", [
    family("complete_multipartite", [3, 3]),
    build_h_graph(HSpec(family("path", [3]), (1, 0, 1), (2, 3, 2))),
    Graph(9, [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6), (5, 7), (5, 8)]),  # cherries
    # 0, 1 are true twins and 3, 4 false twins, the top block of the layout
    Graph(6, [(0, 1), (0, 2), (1, 2), (2, 5), (0, 3), (0, 4), (1, 3), (1, 4)]),
], ids=["K33", "path_template", "cherries", "lone_false_twins"])
def test_walk_yields_each_connected_state_after_its_sub_states(g, monkeypatch):
    # the states are the connected vertex sets of the twin layout that hold
    # no twin without the ones below it in its block
    adj, blocks = trees._twin_layout(g)
    later = sum((1 << k) - 2 << o for o, k in blocks)
    states = {u for u in range(1, 1 << g.n)
              if not u & later & ~(u << 1) and _connected_mask(adj, u)}
    for cut in (False, True):
        seen = set()
        for u, _ in trees._walk(adj, blocks, cut):
            assert u not in seen and u in states, bin(u)
            assert all(s in seen for s in states if s & u == s != u), bin(u)
            seen.add(u)
        assert seen == states

    # a state already counted is skipped before its splits are built
    def unreachable(*_):
        raise AssertionError("splits built for a skipped state")

    monkeypatch.setattr(trees, "_splits", unreachable)
    assert list(trees._walk(adj, blocks, True, states)) == []


# counts of the core at commit e7d15d4, before orbits, which enumerated the
# splits of every state, run once with the work budget raised to 10^12:
# the dodecahedron took 24 s under the edge rule and 181 s under the
# connected rule
POLYHEDRA_COUNTS = {
    "cube": (16584, 115337),
    "petersen": (962280, 13717540),
    "icosahedron": (514942260, 11794534196),
    "grid4x4": (201466968418, 26830969298659),
    "dodecahedron": (2641795244300430, 1465277149948649580),
}


@pytest.mark.parametrize("name", sorted(POLYHEDRA_COUNTS))
def test_symmetric_graphs_match_the_core_without_orbits(name, monkeypatch):
    g = POLYHEDRA[name]
    edge, connected = POLYHEDRA_COUNTS[name]
    t0 = time.perf_counter()
    assert count_edge_rule(g) == edge
    assert time.perf_counter() - t0 < 5.0
    # relabelled, the orbits fall on other states
    h = relabel(g, random_permutation(random.Random(name), g.n))
    assert count_edge_rule(h) == edge
    if name == "dodecahedron":
        # 152,798 states in 1,420 orbits; the connected rule needs 1,636,645 units
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded, match="units of work, the cap"):
            count_connected_rule(g)
        assert time.perf_counter() - t0 < 5.0
        monkeypatch.setattr(errors, "WORK_BUDGET", 3 * 10**6)
    assert count_connected_rule(g) == connected


def test_cycle_of_182_classes_is_counted_on_its_orbits():
    # the rotations of a cycle leave about one state in n to count, so the
    # meter admits cycles up to C_210 under both rules
    g = family("cycle", [182])
    assert count_edge_rule(g) == closed_form("cycle", 182)
    assert count_connected_rule(g) == _connected_rule_cycle(182)


def test_symmetry_search_stops_within_one_splitter_past_its_limit(monkeypatch):
    # the path refines by distance from its ends, one splitter at a time;
    # a splitter examines at most 2000 cells of 2 units each (one unit, and
    # one more per 1,024 bits of a mask)
    monkeypatch.setattr(errors, "WORK_BUDGET", 1000)
    meter = Meter("the search needs")
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"^the search needs over 1e\+03 units of work, the cap$"):
        automorphisms(family("path", [2000]).adj, [(1 << 2000) - 1], meter)
    assert time.perf_counter() - t0 < 0.5
    assert 1000 < meter.work <= 1000 + 2 * 2000


@pytest.mark.parametrize("rule", [count_edge_rule, count_connected_rule])
def test_symmetric_blowup_of_many_vertices_is_refused_before_its_tables(rule):
    # C_181 with false-twin blocks of 30: 5,430 vertices in 181 classes,
    # whose dihedral quotient has two generators; their byte tables would
    # hold 347,648 ints of 5,430 bits, so their size is charged first
    g = build_h_graph(HSpec(family("cycle", [181]), (0,) * 181, (30,) * 181))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(CapExceeded, match="units of work, the cap") as info:
            rule(g)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 5.0 and peak < 20 << 20
    assert "\n" not in str(info.value)


def _group_order(perms: list[list[int]], n: int) -> int:
    """The order of the group that perms generate: the product of the orbit
    lengths of 0, 1, ... along its stabiliser chain, over its elements."""
    group = {tuple(range(n))}
    new = list(group)
    while new:
        new = [q for p in new for g in perms if (q := tuple(g[v] for v in p)) not in group]
        group.update(new)
    order, elements = 1, list(group)
    for b in range(n):
        order *= len({p[b] for p in elements})
        elements = [p for p in elements if p[b] == b]
    return order


@pytest.mark.parametrize("g,order", [
    (POLYHEDRA["cube"], 48),
    (POLYHEDRA["petersen"], 120),
    (POLYHEDRA["icosahedron"], 120),
    (POLYHEDRA["dodecahedron"], 120),
    (POLYHEDRA["grid4x4"], 8),
    (family("star2", [7]), 5040),
    (family("complete_multipartite", [4, 4, 4]), 6),  # its twin quotient is K_3
    (relabel(Graph(15, R15[0][0]), random_permutation(random.Random(3), 15)), 1),
], ids=["cube", "petersen", "icosahedron", "dodecahedron", "grid4x4", "star2_7", "K444", "R15"])
def test_symmetries_generate_the_automorphism_group(g, order):
    adj, blocks = trees._twin_layout(g)
    tables = layout_automorphisms(adj, blocks, Meter("the search needs"))
    # generator i maps vertex v to the one bit of tables[i][v // 8][1 << v % 8]
    perms = [[ts[v >> 3][1 << (v & 7)].bit_length() - 1 for v in range(g.n)] for ts in tables]
    for p in perms:
        assert sorted(p) == list(range(g.n))
        assert all(_mapped(p, adj[v]) == adj[p[v]] for v in range(g.n))
        # twin j of a block goes to twin j of a block of the same size
        for o, k in blocks:
            assert (p[o], k) in blocks and p[o:o + k] == list(range(p[o], p[o] + k))
    assert _group_order(perms, g.n) == order
    assert order > 1 or tables == []
