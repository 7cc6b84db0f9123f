import hashlib
import random
import re
import time
from fractions import Fraction as F
from itertools import permutations
from math import comb, factorial, prod

import pytest
from conftest import series_add, series_mul, series_sub, sqrt1

from asmtree import (
    AssemblyTree,
    ComputationRefused,
    DisconnectedGraph,
    EngineError,
    Graph,
    HSpec,
    InputError,
    TruncatedSeries,
    b_egf,
    build_h_graph,
    builtin,
    closed_form,
    count_edge_rule,
    count_from_egf,
    diag_formula_easyex,
    diagonal,
    estimate_lambda,
    extend,
    family,
    gluing_sequence_tree,
    hgraph_egf,
    is_connected_subset,
    log_sequence,
    relabel,
    same_extension,
)
from asmtree import errors, series
from asmtree.errors import CapExceeded, Meter
from asmtree.rationals import format_rational

BIPARTITE = HSpec(family("complete", [2]), (0, 0))
# template edge with one independent side and one clique side; this
# orientation gives the radicand 1 - 2x - 2y + y^2
MIXED = HSpec(family("complete", [2]), (1, 0))
TRIPARTITE = HSpec(family("complete", [3]), (0, 0, 0))


def test_mul_basic():
    caps = (3,)
    one_plus = TruncatedSeries.from_terms(caps, {(0,): 1, (1,): 1})
    one_minus = TruncatedSeries.from_terms(caps, {(0,): 1, (1,): -1})
    prod = series_mul(one_plus, one_minus)
    assert prod == TruncatedSeries.from_terms(caps, {(0,): 1, (2,): -1})


def test_mul_binomial_square():
    caps = (2, 2)
    xy = TruncatedSeries.from_terms(caps, {(1, 0): 1, (0, 1): 1})
    sq = series_mul(xy, xy)
    assert sq.coeff((2, 0)) == 1
    assert sq.coeff((1, 1)) == 2
    assert sq.coeff((0, 2)) == 1


def test_mul_cap_mismatch():
    a = TruncatedSeries.one((2,))
    b = TruncatedSeries.one((3,))
    with pytest.raises(InputError):
        series_mul(a, b)


def test_geometric_powers_give_central_binomial():
    n = 6
    caps = (n, n)
    st = TruncatedSeries.from_terms(caps, {(1, 0): 1, (0, 1): 1})
    total = TruncatedSeries.one(caps)
    power = TruncatedSeries.one(caps)
    for _ in range(2 * n):
        power = series_mul(power, st)
        total = series_add(total, power)
    for k in range(n + 1):
        assert total.coeff((k, k)) == comb(2 * k, k)
    diag = diagonal(total)
    assert list(diag) == [F(comb(2 * k, k)) for k in range(n + 1)]


def test_sqrt1_of_1_minus_2x():
    f = TruncatedSeries.from_terms((4,), {(0,): 1, (1,): -2})
    g = sqrt1(f)
    assert [g.coeff((k,)) for k in range(5)] == [1, -1, F(-1, 2), F(-1, 2), F(-5, 8)]


def test_sqrt1_identity_and_perfect_square():
    one = TruncatedSeries.one((3,))
    assert sqrt1(one) == one
    f = TruncatedSeries.from_terms((3,), {(0,): 1, (1,): -2, (2,): 1})
    g = sqrt1(f)
    assert g == TruncatedSeries.from_terms((3,), {(0,): 1, (1,): -1})


def test_sqrt1_requires_unit_constant_term():
    with pytest.raises(InputError):
        sqrt1(TruncatedSeries.from_terms((2,), {(0,): 2}))


def _random_unit_series(rng: random.Random, caps) -> TruncatedSeries:
    s = TruncatedSeries.one(caps)
    for exp in s.exponents():
        if any(exp):
            if rng.random() < 0.7:
                s._coeffs[s._index(exp)] = F(
                    rng.randint(-6, 6), rng.randint(1, 4)
                )
    return s


@pytest.mark.parametrize("caps", [(5,), (3, 3), (2, 2, 2)])
def test_sqrt1_squares_back(caps):
    rng = random.Random(hash(caps) & 0xFFFF)
    for _ in range(20):
        f = _random_unit_series(rng, caps)
        g = sqrt1(f)
        assert series_mul(g, g) == f


def test_sqrt1_is_exact_on_int_series():
    f = TruncatedSeries((30,), [1, -3] + [0] * 29)
    g = sqrt1(f)
    assert {type(v) for v in g._coeffs} <= {int, F}
    assert series_mul(g, g) == f


@pytest.mark.parametrize("bad", [0.5, "1", True, None])
def test_series_rejects_non_rational_coefficients(bad):
    with pytest.raises(InputError):
        TruncatedSeries((2,), [1, bad, 0])
    with pytest.raises(InputError):
        TruncatedSeries.from_terms((2,), {(1,): bad})


def test_from_terms_and_coeff_round_trip_through_factorial_weights():
    terms = {(2, 3): F(5, 7), (4, 0): -3, (3, 2): F(1, 12), (1, 1): 2}
    s = TruncatedSeries.from_terms((4, 3), terms)
    assert dict(s.terms()) == terms
    assert all(s.coeff(exp) == v for exp, v in terms.items())
    assert s._coeffs[s._index((2, 3))] == F(5, 7) * 2 * 6  # coefficient times 2! 3!


def test_repr_reads_at_most_six_cells(monkeypatch):
    A = hgraph_egf(BIPARTITE, (8, 8))
    head = ", ".join(f"{exp}:{format_rational(v)}" for exp, v in list(A.terms())[:6])
    terms = TruncatedSeries.terms

    def six_then_fail(self):
        for k, term in enumerate(terms(self)):
            if k == 6:
                raise AssertionError("repr read a seventh cell")
            yield term

    monkeypatch.setattr(TruncatedSeries, "terms", six_then_fail)
    assert repr(A) == f"TruncatedSeries(caps=(8, 8), [{head}...])"


def test_bipartite_egf_printed_coefficients():
    A = hgraph_egf(BIPARTITE, (8, 8))
    expected = {
        (1, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1, (2, 1): 1,
        (1, 3): 1, (3, 1): 1, (2, 2): F(5, 2), (2, 3): F(9, 2),
        (4, 1): 1, (3, 2): F(9, 2), (1, 4): 1, (2, 4): 7, (4, 2): 7,
        (3, 3): F(25, 2), (2, 5): 10, (4, 3): F(55, 2), (3, 4): F(55, 2),
        (5, 2): 10, (2, 6): F(27, 2), (4, 4): F(645, 8),
        (3, 5): F(105, 2), (6, 2): F(27, 2), (5, 3): F(105, 2),
        (5, 1): 1, (1, 5): 1, (6, 1): 1, (1, 6): 1, (7, 1): 1,
        (1, 7): 1, (8, 1): 1, (7, 2): F(35, 2), (6, 3): 91,
        (5, 4): F(1575, 8), (4, 5): F(1575, 8), (3, 6): 91,
        (2, 7): F(35, 2), (1, 8): 1,
    }
    for exp, want in expected.items():
        assert A.coeff(exp) == want, exp


def test_mixed_template_radicand():
    # A = 1 - sqrt(1 - 2x - 2y + y^2): check via (1 - A)^2 == radicand
    A = hgraph_egf(MIXED, (6, 6))
    g = series_sub(TruncatedSeries.one((6, 6)), A)
    radicand = TruncatedSeries.from_terms(
        (6, 6), {(0, 0): 1, (1, 0): -2, (0, 1): -2, (0, 2): 1}
    )
    assert series_mul(g, g) == radicand


def test_hgraph_egf_agrees_with_general_sqrt():
    radicand = TruncatedSeries.from_terms(
        (5, 5), {(0, 0): 1, (1, 0): -2, (0, 1): -2, (1, 1): 2, (2, 0): 1, (0, 2): 1}
    )
    # template with no edge is disconnected, so compare against the
    # two-isolated-blocks radicand assembled by hand through sqrt1
    direct = series_sub(TruncatedSeries.one((5, 5)), sqrt1(radicand))
    # independent-blocks EGF must factor as x + y (only singletons build)
    assert direct.coeff((1, 0)) == 1 and direct.coeff((0, 1)) == 1
    assert direct.coeff((1, 1)) == 0


def test_hgraph_egf_base_cases():
    A = hgraph_egf(BIPARTITE, (4, 4))
    assert A.coeff((0, 0)) == 0
    assert A.coeff((2, 0)) == 0  # independent block of two never assembles
    assert A.coeff((1, 1)) == 1  # template edge joins the two singletons
    line = HSpec(Graph(3, [(0, 1), (1, 2)]), (0, 0, 0))
    B = hgraph_egf(line, (2, 2, 2))
    assert B.coeff((1, 0, 1)) == 0  # no template edge between 0 and 2
    assert B.coeff((1, 1, 0)) == 1


def test_hgraph_egf_base_cases_all_small_templates():
    # constant term 0; singletons 1; doubled independent block 0; a pair of
    # blocks assembles iff the template has the edge
    templates = [Graph(1), Graph(2, [(0, 1)]), family("complete", [3])]
    for middle in range(3):
        others = [v for v in range(3) if v != middle]
        templates.append(Graph(3, [(middle, others[0]), (middle, others[1])]))
    for base in templates:
        for bits in range(1 << base.n):
            phi = tuple((bits >> i) & 1 for i in range(base.n))
            egf = hgraph_egf(HSpec(base, phi), (2,) * base.n)
            assert egf.coeff((0,) * base.n) == 0
            for i in range(base.n):
                e_i = tuple(int(j == i) for j in range(base.n))
                assert egf.coeff(e_i) == 1
                if phi[i] == 0:
                    assert egf.coeff(tuple(2 * int(j == i) for j in range(base.n))) == 0
                for j in range(i + 1, base.n):
                    e_ij = tuple(int(k in (i, j)) for k in range(base.n))
                    assert egf.coeff(e_ij) == (1 if base.has_edge(i, j) else 0)


def test_hgraph_egf_rejects_disconnected_template():
    with pytest.raises(DisconnectedGraph):
        hgraph_egf(HSpec(Graph(2), (0, 0)), (3, 3))


def test_hgraph_egf_matches_subset_dp():
    A = hgraph_egf(BIPARTITE, (4, 4))
    for m in range(1, 5):
        for n in range(1, 5):
            g = family("complete_multipartite", [m, n])
            assert count_from_egf(A, (m, n)) == count_edge_rule(g)


def test_egf_closed_form_counterexample_pinned():
    # regression: with a clique bit on a leaf of the path template the
    # quadratic radicand overcounted (9 trees at (1,2,1), a phantom 1/2 at
    # the disconnected cell (0,2,1)). The exact radicand carries
    # 2*x_0*(1 - sqrt(1 - 2*x_1)) for the non-adjacent pair, and the blowup
    # at (1,2,1), the paw (triangle plus a pendant), has 8 trees by all
    # three enumeration routes.
    from asmtree import count_edge_rule as dp, enumerate_edge_rule, trees_from_gluing_sequences

    star_template = Graph(3, [(0, 1), (0, 2)])
    spec = HSpec(star_template, (0, 1, 0))
    egf = hgraph_egf(spec, (2, 2, 2))
    assert egf.coeff((0, 2, 1)) == 0  # disconnected: no trees
    paw = build_h_graph(HSpec(star_template, (0, 1, 0), (1, 2, 1)))
    assert paw.is_connected()
    assert dp(paw) == 8
    assert len(enumerate_edge_rule(paw)) == 8
    assert len(trees_from_gluing_sequences(paw)) == 8
    assert count_from_egf(egf, (1, 2, 1)) == 8


def _connected_4_vertex_templates():
    return {
        "P4": Graph(4, [(0, 1), (1, 2), (2, 3)]),
        "star": Graph(4, [(0, 1), (0, 2), (0, 3)]),
        "C4": Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        "paw": Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
        "diamond": Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        "K4": family("complete", [4]),
    }


@pytest.mark.parametrize("name", sorted(_connected_4_vertex_templates()))
def test_egf_matches_oracle_on_4_vertex_templates(name):
    # 4-vertex templates reach the radicand terms 2*A_U*A_V with |U| >= 2
    # (on P4, U = {0,1} and V = {3}), which no 3-vertex template has
    from asmtree import count_edge_rule as dp

    base = _connected_4_vertex_templates()[name]
    cache = {}
    for bits in range(16):
        phi = tuple((bits >> i) & 1 for i in range(4))
        egf = hgraph_egf(HSpec(base, phi), (3,) * 4)
        for exp in egf.exponents():
            if sum(exp) > 6:
                continue
            g = build_h_graph(HSpec(base, phi, exp))
            if g.n == 0:
                continue
            if not g.is_connected():
                assert egf.coeff(exp) == 0, (phi, exp)
                continue
            key = (g.n, g.adj)
            if key not in cache:
                cache[key] = dp(g)
            assert count_from_egf(egf, exp) == cache[key], (phi, exp)


def test_egf_matches_oracle_on_clique_safe_templates():
    # templates where the radicand is the quadratic polynomial (complete
    # multipartite, clique bits only on vertices adjacent to all others):
    # complete templates with any bits, and the 3-vertex path with a
    # clique bit at most on the middle vertex
    from asmtree import count_edge_rule as dp

    cases = []
    for bits in range(4):
        cases.append(HSpec(family("complete", [2]), (bits & 1, bits >> 1)))
    for bits in range(8):
        cases.append(
            HSpec(family("complete", [3]), tuple((bits >> i) & 1 for i in range(3)))
        )
    path3 = Graph(3, [(0, 1), (1, 2)])  # middle vertex 1
    cases.append(HSpec(path3, (0, 0, 0)))
    cases.append(HSpec(path3, (0, 1, 0)))
    for spec in cases:
        egf = hgraph_egf(spec, (6,) * spec.base.n)
        for exp, _ in egf.terms():
            if sum(exp) > 6:
                continue
            g = build_h_graph(HSpec(spec.base, spec.phi, exp))
            if g.n == 0 or not g.is_connected():
                continue
            assert count_from_egf(egf, exp) == dp(g), (spec.phi, exp)


PATH_ENDS = HSpec(Graph(3, [(0, 1), (1, 2)]), (1, 0, 1))  # sub-template EGFs in R


def test_hgraph_egf_builds_no_fraction(monkeypatch):
    def no_fraction(*_):
        raise AssertionError("hgraph_egf built a Fraction")

    monkeypatch.setattr(series, "Fraction", no_fraction)
    hgraph_egf(TRIPARTITE, (5, 5, 5))
    hgraph_egf(PATH_ENDS, (4, 4, 4))


def test_hgraph_egf_cells_are_the_tree_counts():
    for spec, caps in [(TRIPARTITE, (4, 4, 4)), (PATH_ENDS, (3, 4, 3)), (MIXED, (7, 5))]:
        egf = hgraph_egf(spec, caps)
        for exp, v in zip(egf.exponents(), egf._coeffs):
            assert type(v) is int, exp
            assert v == count_from_egf(egf, exp) == egf.coeff(exp) * prod(map(factorial, exp))


def test_diagonal_reads_the_equal_exponent_cells():
    for spec, caps in [(MIXED, (9, 9)), (TRIPARTITE, (6, 6, 6))]:
        egf = hgraph_egf(spec, caps)
        assert diagonal(egf) == [egf.coeff((n,) * len(caps)) for n in range(caps[0] + 1)]


def test_count_from_egf_values():
    A = hgraph_egf(BIPARTITE, (4, 4))
    assert count_from_egf(A, (2, 2)) == 10
    assert count_from_egf(A, (3, 3)) == 450
    assert count_from_egf(A, (1, 0)) == 1
    assert count_from_egf(A, (0, 1)) == 1


def test_count_from_egf_rejects_non_integer():
    s = TruncatedSeries.from_terms((2,), {(1,): F(1, 3)})
    with pytest.raises(EngineError):
        count_from_egf(s, (1,))


def test_b_egf_complete_graphs():
    b = b_egf(1, 0, 0, 8)
    for n in range(1, 9):
        count = b[n] * factorial(n)
        assert count == count_edge_rule(family("complete", [n]))


def test_b_egf_perfect_square_radicand():
    assert list(b_egf(1, 0, 1, 5)) == [0, 1, 0, 0, 0, 0]


def test_b_egf_counts_labeled_bipartitions():
    # with N=2, M=1, J=2 the n-th count totals trees over all ways to
    # 2-color n labeled vertices into the two blocks
    b = b_egf(2, 1, 2, 6)
    A = hgraph_egf(BIPARTITE, (6, 6))
    for n in range(7):
        want = sum(
            comb(n, k) * count_from_egf(A, (k, n - k)) for k in range(n + 1)
        )
        assert b[n] * factorial(n) == want


def test_b_egf_equals_substituted_multivariate():
    cap = 6
    for spec, N, M, J in [
        (BIPARTITE, 2, 1, 2),
        (MIXED, 2, 1, 1),
        (TRIPARTITE, 3, 3, 3),
        (HSpec(Graph(3, [(0, 1), (1, 2)]), (0, 1, 0)), 3, 2, 2),
    ]:
        A = hgraph_egf(spec, (cap,) * N)
        b = b_egf(N, M, J, cap)
        for n in range(cap + 1):
            want = sum(v for exp, v in A.terms() if sum(exp) == n)
            assert b[n] == want


def test_b_egf_validation():
    with pytest.raises(InputError):
        b_egf(2, 2, 0, 4)
    with pytest.raises(InputError):
        b_egf(2, 1, 3, 4)
    with pytest.raises(InputError):
        b_egf(0, 0, 0, 4)


def test_diagonal_requires_equal_caps():
    with pytest.raises(InputError):
        diagonal(TruncatedSeries.one((2, 3)))


def test_diagonal_of_mixed_template():
    d = diagonal(hgraph_egf(MIXED, (4, 4)))
    assert list(d)[:4] == [0, 1, 3, F(35, 2)]


def test_diagonal_of_tripartite():
    d = diagonal(hgraph_egf(TRIPARTITE, (3, 3, 3)))
    assert list(d) == [0, 3, 84, 4935]


def test_diag_formula_matches_series():
    d = diagonal(hgraph_egf(MIXED, (12, 12)))
    for n in range(1, 13):
        assert diag_formula_easyex(n) == d[n]


def test_diag_formula_head():
    assert diag_formula_easyex(1) == 1
    assert diag_formula_easyex(2) == 3
    with pytest.raises(InputError):
        diag_formula_easyex(0)


def test_diagonal_coefficient_times_weights_counts_graphs():
    # coefficient x weights equals the tree count of the built graph
    d = diagonal(hgraph_egf(MIXED, (3, 3)))
    g = build_h_graph(HSpec(MIXED.base, MIXED.phi, (2, 2)))
    assert d[2] * factorial(2) ** 2 == count_edge_rule(g) == 12


def test_series_json_dump_shape():
    A = hgraph_egf(BIPARTITE, (2, 2))
    obj = A.to_json_obj()
    assert obj[0] == {"exp": [0, 1], "coeff": "1"}
    assert {"exp": [2, 2], "coeff": "5/2"} in obj
    exps = [tuple(t["exp"]) for t in obj]
    assert exps == sorted(exps)


def _random_scaled_radicand(rng: random.Random, caps) -> dict:
    # every term but the constant even, as in template radicands, so the
    # scaled square-root table is integral
    rt = {(0,) * len(caps): 1}
    for exp in TruncatedSeries.one(caps).exponents():
        if any(exp) and rng.random() < 0.6:
            rt[exp] = 2 * rng.randint(-5, 5)
    return rt


def _symmetrised(rt: dict, coords) -> dict:
    # the sum of the terms over all permutations of the given coordinates
    sym = {}
    for m, r in rt.items():
        if any(m):
            for values in permutations([m[i] for i in coords]):
                image = list(m)
                for i, v in zip(coords, values):
                    image[i] = v
                image = tuple(image)
                sym[image] = sym.get(image, 0) + r
    sym = {m: r for m, r in sym.items() if r}
    sym[(0,) * len(next(iter(rt)))] = 1
    return sym


@pytest.mark.parametrize("caps", [(7,), (4, 3), (3, 2, 3), (3, 3, 3), (2, 2, 2, 2)])
def test_integer_engine_matches_sqrt1(caps):
    # the table holds -T; on equal caps a radicand symmetrised over all
    # coordinates, or over the row axis (the last) and one head coordinate,
    # makes the engine copy rows and the cells below a row's class maximum,
    # checked here against sqrt1
    rng = random.Random(sum(caps) * 101 + len(caps))
    n = len(caps)
    for _ in range(10):
        radicands = [_random_scaled_radicand(rng, caps)]
        if n > 2 and len(set(caps)) == 1:
            for coords in (tuple(range(n)), (1, n - 1)):
                radicands.append(_symmetrised(radicands[0], coords))
                assert series._symmetry_classes(radicands[-1], caps) == [coords]
        for rt in radicands:
            weight = {exp: prod(factorial(e) for e in exp) for exp in rt}
            g = sqrt1(
                TruncatedSeries.from_terms(caps, {m: F(r, weight[m]) for m, r in rt.items()})
            )
            table = series._sqrt_table(rt, caps, Meter("the table needs"))
            for idx, exp in enumerate(g.exponents()):
                assert -table[idx] == g.coeff(exp) * prod(factorial(e) for e in exp), exp


def test_integer_engine_rejects_non_integral_table():
    # R = 1 - x: 2*T[1] = -1 has no integer solution
    with pytest.raises(EngineError):
        series._sqrt_table({(0,): 1, (1,): -1}, (3,), Meter("the table needs"))


@pytest.mark.parametrize(
    "radicand, cell",
    [
        ({(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1}, (0, 0, 1)),
        ({(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -2}, (0, 1, 0)),
    ],
)
def test_integer_engine_rejects_non_integral_symmetric_table(radicand, cell):
    # symmetric in all coordinates or in the head ones, whose mirror rows
    # and cells are copied; the first odd cell, in the first row or in a
    # computed one, is still named
    full = radicand[(0, 0, 1)] == radicand[(1, 0, 0)]
    assert series._symmetry_classes(radicand, (3, 3, 3)) == ([(0, 1, 2)] if full else [(0, 1)])
    with pytest.raises(EngineError, match=re.escape(str(cell))):
        series._sqrt_table(radicand, (3, 3, 3), Meter("the table needs"))


def _cells_sha256(egf: TruncatedSeries) -> str:
    return hashlib.sha256(",".join(map(str, egf._coeffs)).encode()).hexdigest()


def _spy_sqrt_table(monkeypatch) -> list:
    """Record the (radicand, caps) of every _sqrt_table call, in order."""
    calls, real = [], series._sqrt_table

    def spy(radicand, caps, meter):
        calls.append((radicand, tuple(caps)))
        return real(radicand, caps, meter)

    monkeypatch.setattr(series, "_sqrt_table", spy)
    return calls


def _window_radicand(monkeypatch, spec, caps) -> dict:
    # hgraph_egf fills the window last, after every face
    calls = _spy_sqrt_table(monkeypatch)
    hgraph_egf(spec, caps)
    assert calls[-1][1] == caps
    return calls[-1][0]


def test_tripartite_window_has_one_symmetry_class(monkeypatch):
    caps = (12, 12, 12)
    radicand = _window_radicand(monkeypatch, TRIPARTITE, caps)
    assert series._symmetry_classes(radicand, caps) == [(0, 1, 2)]


PATH12 = HSpec(family("path", [12]), (1,) * 12)


def test_each_face_is_filled_once(monkeypatch):
    # the 12-vertex path with every cap 1: its blocks are the 78 intervals,
    # and all but the 4 that leave no room for a non-adjacent interval are
    # in a pair, so 74 faces, each filled once, and the window last
    calls = _spy_sqrt_table(monkeypatch)
    hgraph_egf(PATH12, (1,) * 12)
    faces = [caps for _, caps in calls]
    assert len(faces) == 75 and len(set(faces)) == 75
    assert faces[-1] == (1,) * 12
    # a face comes after every face inside it
    support = [frozenset(i for i, c in enumerate(f) if c) for f in faces]
    for k, earlier in enumerate(support):
        assert not any(later < earlier for later in support[k + 1 :])


def test_tripartite_window_is_symmetric():
    egf = hgraph_egf(TRIPARTITE, (12, 12, 12))
    for exp, v in zip(egf.exponents(), egf._coeffs):
        for image in permutations(exp):
            assert egf._coeffs[egf._index(image)] == v, (exp, image)


# SHA-256 of the comma-joined cells, recorded before the engine copied rows
@pytest.mark.parametrize(
    "spec, caps, digest",
    [
        (TRIPARTITE, (40, 40, 40), "dea9e3f1730b6fb680aec05d469a0063576c03e472f9c7f9f8636bfc36207e15"),
        (TRIPARTITE, (20, 21, 20), "bab7edd032ce2a166caee4961b7a3158b9108cc7dd7af981b58e341d59413cbe"),
        (TRIPARTITE, (21, 20, 20), "f7d899b409a20c3b04b3c0fccc5ccb5fa363ef17f5265b3500621c01d3cb0e9d"),
        (
            HSpec(Graph(3, [(0, 1), (1, 2)]), (1, 0, 0)),
            (12, 12, 12),
            "24dc0e06f33974f02d1276b6c4613915aac7af5bada8f06f724afef1025cc5a1",
        ),
        # recorded when each face was a recursive hgraph_egf call
        (PATH12, (1,) * 12, "35c742f4f650005bf631854116055188d0e5ec7a707ecf591414318352ea515b"),
    ],
    ids=["tripartite-40", "tripartite-unequal-caps", "tripartite-larger-first-cap",
         "path-one-clique-leaf", "path12-caps-1"],
)
def test_egf_windows_pinned(spec, caps, digest):
    assert _cells_sha256(hgraph_egf(spec, caps)) == digest


@pytest.mark.parametrize("phi", [(1, 0, 1), (1, 0, 0)])
def test_path_template_with_its_twins_in_the_head(phi, monkeypatch):
    # the 3-vertex path with its middle vertex last: the leaves are head
    # coordinates 0 and 1, interchangeable when their clique bits agree,
    # and the radicand carries sub-template parts A_U
    path = HSpec(Graph(3, [(0, 1), (1, 2)]), phi)
    moved = HSpec(Graph(3, [(0, 2), (1, 2)]), (phi[0], phi[2], phi[1]))
    caps = (8, 8, 8)
    twins = phi[0] == phi[2]
    radicand = _window_radicand(monkeypatch, path, caps)
    assert series._symmetry_classes(radicand, caps) == ([(0, 2)] if twins else [])
    radicand = _window_radicand(monkeypatch, moved, caps)
    assert series._symmetry_classes(radicand, caps) == ([(0, 1)] if twins else [])
    want, got = hgraph_egf(path, caps), hgraph_egf(moved, caps)
    for a, b, c in want.exponents():
        assert got._coeffs[got._index((a, c, b))] == want._coeffs[want._index((a, b, c))]


def test_b_egf_values_pinned():
    # values of the Fraction engine the integer table replaced
    pinned = {
        (3, 3, 3): [0, 3, 3, 9, F(63, 2), F(243, 2), F(999, 2), F(4293, 2), F(76221, 8)],
        (2, 1, 1): [0, 2, F(3, 2), 3, F(57, 8), F(75, 4), F(843, 16), F(1239, 8), F(60213, 128)],
        (4, 2, 1): [0, 4, F(7, 2), 14, F(497, 8), F(595, 2), F(24087, 16), F(31731, 4), F(5516133, 128)],
        (3, 0, 0): [0, 3, F(3, 2), F(9, 2), F(117, 8), F(405, 8), F(2943, 16), F(11097, 16), F(344493, 128)],
    }
    for (N, M, J), want in pinned.items():
        assert list(b_egf(N, M, J, 8)) == want


def test_egf_windows_over_budget_are_refused_before_any_work(monkeypatch):
    def unreachable(*_):
        raise AssertionError("window work started")

    # a table's cells, and the submasks the pair listing visits, are
    # charged before the table is allocated or the first one is visited
    monkeypatch.setattr(series, "_symmetry_classes", unreachable)
    with pytest.raises(CapExceeded):
        hgraph_egf(TRIPARTITE, (3000, 3000, 3000))
    with pytest.raises(CapExceeded):
        b_egf(1, 0, 0, 10**7)
    monkeypatch.setattr(series, "is_connected_subset", unreachable)
    with pytest.raises(CapExceeded):
        hgraph_egf(HSpec(family("path", [22]), (1,) * 22), (1,) * 22)


def _refused(monkeypatch, call):
    """The seconds `call` takes to be refused by the work budget, and its
    one Meter, which keeps its last charge as `last`."""
    meters = []

    class Spy(Meter):
        def __init__(self, *args):
            super().__init__(*args)
            meters.append(self)

        def charge(self, units):
            self.last = units
            super().charge(units)

    monkeypatch.setattr(series, "Meter", Spy)
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"^[^\n]* over 1e\+06 units of work, the cap$"):
        call()
    elapsed = time.perf_counter() - t0
    assert len(meters) == 1
    return elapsed, meters[0]


# a 12-vertex template whose row axis has cap 0: its rows hold one or two
# cells, and it visits a radicand term 1.2 million times
FOUND = HSpec(
    Graph(12, [(0, 7), (0, 9), (0, 10), (1, 6), (1, 10), (1, 11), (2, 9), (3, 9), (4, 5),
               (5, 8), (5, 9), (6, 9), (8, 10)]),
    (0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0),
)
FOUND_CAPS = (1, 1, 0, 3, 3, 1, 1, 1, 1, 3, 1, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hgraph_egf(TRIPARTITE, (115, 115, 115)),
        lambda: hgraph_egf(HSpec(Graph(3, [(0, 1), (1, 2)]), (1, 0, 1)), (60, 60, 60)),
        lambda: hgraph_egf(HSpec(family("path", [15]), (1,) * 15), (1,) * 15),
        lambda: hgraph_egf(FOUND, FOUND_CAPS),
    ],
    ids=["tripartite-115", "path-clique-leaves-60", "path15-caps-1", "found-template"],
)
def test_egf_windows_over_budget_are_refused_at_a_row(call, monkeypatch):
    # each row is charged as it is reached, so the work at refusal passes
    # the limit by one row's charge, a sliver of the budget
    elapsed, meter = _refused(monkeypatch, call)
    assert elapsed < 2.5
    assert meter.limit < meter.work <= meter.limit + meter.last < meter.limit * 1.01


def test_one_dimensional_window_is_refused_at_its_only_row(monkeypatch):
    # the table fits the budget, but its one row, at about 1.7 million bits
    # a coefficient, does not
    elapsed, meter = _refused(monkeypatch, lambda: b_egf(1, 0, 0, 100000))
    assert elapsed < 0.5 and meter.last > meter.limit


@pytest.mark.parametrize(
    "spec, admitted",
    [
        (TRIPARTITE, 114),
        (BIPARTITE, 572),
        (HSpec(Graph(3, [(0, 1), (1, 2)]), (1, 0, 1)), 23),
        (HSpec(Graph(3, [(0, 1), (1, 2)]), (1, 0, 0)), 42),
    ],
    ids=["tripartite", "bipartite", "path-clique-leaves", "path-one-clique-leaf"],
)
def test_egf_admission_boundaries(spec, admitted):
    hgraph_egf(spec, (admitted,) * spec.base.n)
    refusal = r"^EGF window \(.*\) needs over 1e\+06 units of work, the cap$"
    with pytest.raises(ComputationRefused, match=refusal):
        hgraph_egf(spec, (admitted + 1,) * spec.base.n)


def test_copied_cells_are_charged_below_computed_ones(monkeypatch):
    # with no symmetry classes every cell of the tripartite window is
    # computed: the same table, at more than twice the charge
    def charged():
        meters = []
        monkeypatch.setattr(series, "Meter", lambda *args: meters.append(Meter(*args)) or meters[-1])
        return hgraph_egf(TRIPARTITE, (12, 12, 12)), meters[0].work

    copied, work = charged()
    monkeypatch.setattr(series, "_symmetry_classes", lambda *_: [])
    computed, more = charged()
    assert computed == copied and more > 2 * work


def test_dump_is_charged_before_any_cell_is_read(monkeypatch):
    def unreachable(*_):
        raise AssertionError("a cell was read")

    egf = hgraph_egf(TRIPARTITE, (12, 12, 12))
    monkeypatch.setattr(series, "_factorials", unreachable)
    monkeypatch.setattr(errors, "WORK_BUDGET", 1000)
    with pytest.raises(CapExceeded, match=r"^a dump of 2197 cells needs over 1e\+03 units"):
        egf.to_json_obj()


def test_dump_reads_each_cell_as_its_fraction():
    # int cells are reduced by a gcd, Fraction cells (from_terms) as before
    cells = {(0, 1): F(-3, 4), (1, 0): -2, (2, 1): 5, (3, 2): F(7, 3)}
    for s in (TruncatedSeries.from_terms((3, 2), cells), hgraph_egf(MIXED, (6, 6))):
        assert s.to_json_obj() == [
            {"exp": list(e), "coeff": format_rational(v)} for e, v in s.terms()
        ]


@pytest.mark.parametrize(
    "call",
    [
        lambda: closed_form("path", True),
        lambda: TruncatedSeries((True,)),
        lambda: hgraph_egf(HSpec(family("complete", [2]), (0, 0)), (2, False)),
        lambda: TruncatedSeries((2,)).coeff((True,)),
        lambda: b_egf(True, 0, 0, 3),
        lambda: b_egf(2, False, 0, 3),
        lambda: b_egf(2, 0, True, 3),
        lambda: b_egf(2, 0, 0, True),
        lambda: diag_formula_easyex(True),
        lambda: is_connected_subset(family("path", [2]), True),
        lambda: log_sequence(builtin("c"), [0, 3, 84, 4935], 100.5),
        lambda: estimate_lambda(builtin("c"), [0, 3, 84, 4935], "100"),
        lambda: extend(builtin("a"), [0, 1], 10.5),
        lambda: extend(builtin("a"), [0, 1], -5),
        lambda: extend(builtin("a"), [0, 1], True),
        lambda: same_extension(builtin("a"), builtin("a"), [0, 1], 10.5),
        lambda: relabel(family("path", [3]), [1.0, 0, 2]),
        lambda: gluing_sequence_tree(family("path", [2]), [(0, 5)]),
        lambda: AssemblyTree(1.5),
        lambda: AssemblyTree.leaf(-1),
    ],
    ids=["closed_form", "series_caps", "egf_caps", "coeff", "b_egf_N", "b_egf_M",
         "b_egf_J", "b_egf_cap", "diag_formula", "subset", "log_sequence_n_max",
         "estimate_lambda_n_max", "extend_upto", "extend_negative_upto", "extend_bool_upto",
         "same_extension_upto", "relabel", "gluing_vertex", "tree_label", "leaf"],
)
def test_bools_are_not_integer_parameters(call):
    # JSON true/false parse as bools, and bool is a subclass of int; floats,
    # strings, negative or out-of-range integers are refused the same way,
    # as InputError, before any work
    with pytest.raises(InputError):
        call()
