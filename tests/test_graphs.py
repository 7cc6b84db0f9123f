import json
import random

import pytest

from asmtree import (
    CapExceeded,
    Graph,
    HSpec,
    InputError,
    build_h_graph,
    family,
    graph_from_json,
    graph_to_json,
    hspec_from_json,
    is_connected_subset,
    relabel,
)
from asmtree import graphs


def test_from_edge_list_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3 and g.edge_count == 3
    assert g == family("complete", [3])


def test_from_edge_list_single_vertex():
    g = Graph(1, [])
    assert g.n == 1 and g.edge_count == 0 and g.is_connected()


def test_from_edge_list_c4():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g == family("cycle", [4])


def test_from_edge_list_collapses_duplicates():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


@pytest.mark.parametrize("edges", [[(0, 3)], [(-1, 0)], [(2, 2)]])
def test_from_edge_list_rejects_bad_edges(edges):
    with pytest.raises(InputError):
        Graph(3, edges)


def test_graph_is_immutable():
    g = family("path", [3])
    with pytest.raises(AttributeError):
        g.n = 5


def test_build_h_graph_single_clique_vertex_is_complete():
    spec = HSpec(Graph(1), (1,), (4,))
    g = build_h_graph(spec)
    assert g == family("complete", [4])
    assert g.edge_count == 6


def test_build_h_graph_k23():
    spec = HSpec(family("complete", [2]), (0, 0), (2, 3))
    g = build_h_graph(spec)
    assert g.n == 5 and g.edge_count == 6
    assert g == family("complete_multipartite", [2, 3])


def test_build_h_graph_independent_join_clique():
    # one template edge, side u independent (2 vertices), side v a clique (2)
    spec = HSpec(family("complete", [2]), (0, 1), (2, 2))
    g = build_h_graph(spec)
    assert g.n == 4 and g.edge_count == 5
    # blocks are laid out in order: 0,1 independent; 2,3 adjacent
    assert not g.has_edge(0, 1)
    assert g.has_edge(2, 3)
    for u in (0, 1):
        for v in (2, 3):
            assert g.has_edge(u, v)


def test_build_h_graph_edge_count_formula():
    # edges = sum_{phi(i)=1} C(n_i,2) + sum_{template edges} n_i n_j
    from math import comb

    rng = random.Random(7)
    for _ in range(25):
        nverts = rng.randrange(1, 4)
        edges = [
            (i, j)
            for i in range(nverts)
            for j in range(i + 1, nverts)
            if rng.random() < 0.7
        ]
        base = Graph(nverts, edges)
        phi = tuple(rng.randrange(2) for _ in range(nverts))
        mult = tuple(rng.randrange(4) for _ in range(nverts))
        g = build_h_graph(HSpec(base, phi, mult))
        want = sum(comb(mult[i], 2) for i in range(nverts) if phi[i])
        want += sum(mult[i] * mult[j] for i, j in base.edges())
        assert g.edge_count == want
        assert g.n == sum(mult)


def test_h_graph_on_complete_template_matches_multipartite():
    parts = [2, 1, 3]
    spec = HSpec(family("complete", [3]), (0, 0, 0), parts)
    g1 = build_h_graph(spec)
    g2 = family("complete_multipartite", parts)
    assert g1.edge_count == g2.edge_count
    assert g1.degree_sequence() == g2.degree_sequence()


def test_family_sizes():
    assert family("star2", [8]).n == 17
    assert family("star2", [8]).edge_count == 16
    assert family("path", [1]).n == 1
    assert family("caterpillar", [7]).n == 14
    assert family("caterpillar", [7]).edge_count == 13
    assert family("star", [5]).n == 6


def test_star2_1_is_path3():
    a = family("star2", [1])
    b = family("path", [3])
    assert a.degree_sequence() == b.degree_sequence()
    assert a.edge_count == b.edge_count and a.is_connected()


@pytest.mark.parametrize(
    "name,params",
    [("cycle", [2]), ("path", [0]), ("star", [0]), ("nosuch", [3]), ("complete", [0])],
)
def test_family_rejects_bad_params(name, params):
    with pytest.raises(InputError):
        family(name, params)


def test_is_connected_subset():
    p4 = family("path", [4])
    assert is_connected_subset(p4, 0b0011)
    assert not is_connected_subset(p4, 0b0101)
    assert is_connected_subset(family("cycle", [4]), 0b1111)
    assert not is_connected_subset(p4, 0)
    assert is_connected_subset(p4, 0b1000)
    with pytest.raises(InputError):
        is_connected_subset(p4, 1 << 4)


def test_relabel_preserves_structure():
    g = family("star2", [3])
    perm = list(range(g.n))[::-1]
    h = relabel(g, perm)
    assert h.degree_sequence() == g.degree_sequence()
    assert h.edge_count == g.edge_count


def test_graph_json_roundtrip():
    g = family("cycle", [5])
    assert graph_from_json(json.dumps(graph_to_json(g))) == g


def test_graph_json_family_form():
    assert graph_from_json('{"family": "path", "params": [4]}') == family("path", [4])


def test_graph_json_hgraph_form():
    obj = {"hgraph": {"H_edges": [[0, 1]], "phi": [0, 0], "mult": [2, 3]}}
    assert graph_from_json(json.dumps(obj)) == family("complete_multipartite", [2, 3])


def test_graph_json_rejects_unknown_keys():
    with pytest.raises(InputError):
        graph_from_json('{"n": 3, "edges": [], "color": "blue"}')
    with pytest.raises(InputError):
        graph_from_json('{"family": "path", "params": [3], "x": 1}')
    with pytest.raises(InputError):
        hspec_from_json('{"hgraph": {"H_edges": [], "phi": [0], "weird": 1}}')


def test_hspec_requires_mult_for_concrete_graph():
    with pytest.raises(InputError):
        graph_from_json('{"hgraph": {"H_edges": [[0, 1]], "phi": [0, 0]}}')
    spec = hspec_from_json('{"hgraph": {"H_edges": [[0, 1]], "phi": [0, 0]}}')
    assert spec.mult is None


def test_hspec_validation():
    with pytest.raises(InputError):
        HSpec(Graph(2, [(0, 1)]), (0,))
    with pytest.raises(InputError):
        HSpec(Graph(2, [(0, 1)]), (0, 2))
    with pytest.raises(InputError):
        HSpec(Graph(2, [(0, 1)]), (0, 0), (1,))
    with pytest.raises(InputError):
        HSpec(Graph(2, [(0, 1)]), (0, 0), (1, -1))


def test_graph_json_over_the_edge_cap_is_refused_before_parsing(monkeypatch):
    monkeypatch.setattr(graphs, "MAX_EDGES", 50)

    def edge_list(m):
        return json.dumps({"n": m + 1, "edges": [[i, i + 1] for i in range(m)]})

    def template(m):
        edges = [[i, i + 1] for i in range(m)]
        return json.dumps({"hgraph": {"H_edges": edges, "phi": [0] * (m + 1)}})

    with monkeypatch.context() as m:
        def unparsed(*_, **__):
            raise AssertionError("json.loads was called")

        m.setattr(json, "loads", unparsed)
        for text in (edge_list(60), edge_list(60).encode()):
            with pytest.raises(CapExceeded, match="cap of 50 edges"):
                graph_from_json(text)
        with pytest.raises(CapExceeded, match="cap of 50 edges"):
            hspec_from_json(template(60))
    assert graph_from_json(edge_list(50)) == family("path", [51])
    assert graph_from_json(edge_list(50).encode()).edge_count == 50
    assert hspec_from_json(template(50)).base == family("path", [51])
