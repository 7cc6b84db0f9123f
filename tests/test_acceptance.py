"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Tolerances are exact unless a criterion states a
numeric bound; runtime budgets are asserted where stated.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from math import comb, factorial

import pytest
from conftest import edge_battery, random_permutation, series_mul, sqrt1

from asmtree import (
    HSpec,
    TruncatedSeries,
    builtin,
    closed_form,
    count_connected_rule,
    count_edge_rule,
    count_from_egf,
    diag_formula_easyex,
    diagonal,
    enumerate_connected_rule,
    enumerate_edge_rule,
    estimate_lambda,
    extend,
    family,
    fit_model,
    guess,
    hgraph_egf,
    log_sequence,
    relabel,
    same_extension,
    trees_from_gluing_sequences,
    verify,
)
from asmtree.cli import main as cli_main
from asmtree.graphs import Graph

MIXED = HSpec(family("complete", [2]), (1, 0))
BIPARTITE = HSpec(family("complete", [2]), (0, 0))
TRIPARTITE = HSpec(family("complete", [3]), (0, 0, 0))

_timings: dict[str, float] = {}


@contextmanager
def criterion(num: int, name: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} ({name}): FAIL")
        raise
    dt = time.perf_counter() - t0
    print(f"[acceptance] criterion {num:2d} ({name}): PASS  [{dt:.1f}s]")


@pytest.fixture(scope="session")
def battery_graphs():
    return edge_battery()


@pytest.fixture(scope="session")
def diag_mixed():
    return list(diagonal(hgraph_egf(MIXED, (27, 27))))


@pytest.fixture(scope="session")
def diag_bipartite():
    return list(diagonal(hgraph_egf(BIPARTITE, (27, 27))))


@pytest.fixture(scope="session")
def diag_tripartite():
    t0 = time.perf_counter()
    seq = list(diagonal(hgraph_egf(TRIPARTITE, (66, 66, 66))))
    _timings["diag_tripartite"] = time.perf_counter() - t0
    return seq


def test_criterion_1_closed_forms_vs_oracle():
    with criterion(1, "closed forms vs subset-DP oracle"):
        t0 = time.perf_counter()
        for n in range(1, 13):
            assert closed_form("path", n) == count_edge_rule(family("path", [n]))
        for n in range(3, 11):
            assert closed_form("cycle", n) == count_edge_rule(family("cycle", [n]))
        for n in range(1, 7):
            assert closed_form("star", n) == count_edge_rule(family("star", [n]))
        for n in range(1, 5):
            assert closed_form("star2", n) == count_edge_rule(family("star2", [n]))
        for n in range(1, 9):
            assert closed_form("complete", n) == count_edge_rule(family("complete", [n]))
        assert time.perf_counter() - t0 < 30.0


def test_criterion_2_three_way_agreement(battery_graphs):
    with criterion(2, "three-way agreement on the battery"):
        t0 = time.perf_counter()
        assert len(battery_graphs) == 40
        for name, g in battery_graphs:
            count = count_edge_rule(g)
            enumerated = enumerate_edge_rule(g)
            glued = trees_from_gluing_sequences(g)
            assert len(enumerated) == count, name
            assert enumerated == glued, name
        assert time.perf_counter() - t0 < 120.0


def _connected_templates():
    yield Graph(1)
    yield Graph(2, [(0, 1)])
    for middle in range(3):
        others = [v for v in range(3) if v != middle]
        yield Graph(3, [(middle, others[0]), (middle, others[1])])
    yield family("complete", [3])


def _mult_vectors(nvars: int, total: int):
    if nvars == 1:
        for t in range(total + 1):
            yield (t,)
        return
    for head in range(total + 1):
        for rest in _mult_vectors(nvars - 1, total - head):
            yield (head,) + rest


def test_criterion_3_egf_vs_oracle():
    """As stated: EGF counts == subset-DP counts for every template on
    <= 3 vertices, every bit labeling, every multiplicity total <= 8
    (compared wherever the oracle is defined, i.e. connected blowups;
    stated boundary values asserted for the rest).

    The EGF's radicand carries the exact disconnected part of A^2, so
    every cell matches. test_series.py keeps the paw (path template,
    clique bit on a leaf, multiplicities (1,2,1), 8 trees) as a regression
    case and checks the 4-vertex templates, which reach radicand terms no
    template here has.
    """
    with criterion(3, "template EGF vs subset-DP oracle, full domain"):
        from asmtree import build_h_graph

        dp_cache: dict = {}
        cells = 0
        mismatches = []
        for base in _connected_templates():
            for bits in range(1 << base.n):
                phi = tuple((bits >> i) & 1 for i in range(base.n))
                egf = hgraph_egf(HSpec(base, phi), (8,) * base.n)
                zero = (0,) * base.n
                assert egf.coeff(zero) == 0
                for i in range(base.n):
                    unit = tuple(2 if j == i else 0 for j in range(base.n))
                    if phi[i] == 0:
                        assert egf.coeff(unit) == 0
                    assert egf.coeff(tuple(1 if j == i else 0 for j in range(base.n))) == 1
                for i in range(base.n):
                    for j in range(i + 1, base.n):
                        pair = tuple(1 if k in (i, j) else 0 for k in range(base.n))
                        assert egf.coeff(pair) == (1 if base.has_edge(i, j) else 0)
                for mult in _mult_vectors(base.n, 8):
                    g = build_h_graph(HSpec(base, phi, mult))
                    if g.n == 0 or not g.is_connected():
                        continue
                    expected = count_from_egf(egf, mult)
                    key = (g.n, g.adj)
                    actual = dp_cache.get(key)
                    if actual is None:
                        actual = count_edge_rule(g)
                        dp_cache[key] = actual
                    if expected != actual:
                        mismatches.append((phi, mult, expected, actual))
                    cells += 1
        assert cells > 3000
        assert not mismatches, (
            f"template EGF disagrees with the tree oracle on "
            f"{len(mismatches)}/{cells} connected cells; first: "
            f"{mismatches[0]} (phi, mult, formula, actual)"
        )


def test_criterion_4_table_reproduction(capsys):
    with criterion(4, "count table and the (4,4) discrepancy report"):
        code = cli_main(["table", "--family", "bipartite", "--max", "4"])
        out = capsys.readouterr().out
        assert code == 0
        obj = json.loads(out)
        assert obj["rows"][0] == ["1", "2", "6", "24"]
        assert obj["rows"][1] == ["10", "54", "336"]
        assert obj["rows"][2] == ["450", "3960"]
        (disc,) = obj["discrepancies"]
        # acceptance is the internal two-oracle agreement, not agreement
        # with either previously reported value
        assert disc["series"] == disc["subset_dp"] == "46440"
        assert obj["rows"][3] == ["46440"]
        assert disc["previously_reported"] == ["46400", "23200"]


EXPANSION = {
    (0, 1): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1, (2, 1): 1, (1, 3): 1,
    (3, 1): 1, (2, 2): F(5, 2), (2, 3): F(9, 2), (4, 1): 1, (3, 2): F(9, 2),
    (1, 4): 1, (2, 4): 7, (4, 2): 7, (3, 3): F(25, 2), (2, 5): 10,
    (4, 3): F(55, 2), (3, 4): F(55, 2), (5, 2): 10, (2, 6): F(27, 2),
    (4, 4): F(645, 8), (3, 5): F(105, 2), (6, 2): F(27, 2), (5, 3): F(105, 2),
    (5, 1): 1, (1, 5): 1, (6, 1): 1, (1, 6): 1, (7, 1): 1, (1, 7): 1,
    (8, 1): 1, (7, 2): F(35, 2), (6, 3): 91, (5, 4): F(1575, 8),
    (4, 5): F(1575, 8), (3, 6): 91, (2, 7): F(35, 2), (1, 8): 1,
}


def test_criterion_5_expansion_coefficients():
    with criterion(5, "bipartite EGF expansion coefficients"):
        A = hgraph_egf(BIPARTITE, (8, 8))
        for exp, want in EXPANSION.items():
            assert A.coeff(exp) == want, exp


def test_criterion_6_recurrence_verification(diag_mixed, diag_bipartite):
    with criterion(6, "builtin recurrences hold on series diagonals"):
        res_a = verify(builtin("a"), diag_mixed)
        assert res_a.ok and res_a.checked >= 25
        res_b = verify(builtin("b"), diag_bipartite)
        assert res_b.ok and res_b.checked >= 25
        head = list(diagonal(hgraph_egf(TRIPARTITE, (3, 3, 3))))
        assert head == [0, 3, 84, 4935]


def test_criterion_7_guessing(diag_mixed, diag_bipartite, diag_tripartite):
    with criterion(7, "recurrence guessing"):
        t0 = time.perf_counter()
        rec_a = guess(diag_mixed[:25], 2, 3)
        assert rec_a is not None
        assert same_extension(rec_a, builtin("a"), [0, 1], 40)

        rec_b = guess(diag_bipartite[:25], 2, 3)
        assert rec_b is not None and rec_b.order == 2
        assert same_extension(rec_b, builtin("b"), [0, 1, F(5, 2)], 40)

        assert len(diag_tripartite) >= 30
        rec_c = guess(diag_tripartite, 3, 11)
        assert rec_c is not None and rec_c.order == 3
        degree = max(rec_c.degrees())
        assert degree <= 11
        res = verify(rec_c, diag_tripartite)
        assert res.ok
        fit_rows = (rec_c.order + 1) * (degree + 1) + 2
        assert res.checked - fit_rows >= 5  # verified surplus terms
        assert same_extension(rec_c, builtin("c"), [0, 3, 84, 4935], 40)
        elapsed = time.perf_counter() - t0 + _timings.get("diag_tripartite", 0.0)
        assert elapsed < 300.0


def test_criterion_8_asymptotics():
    with criterion(8, "growth rates and expansion fits"):
        t0 = time.perf_counter()
        lam_a = estimate_lambda(builtin("a"), [0, 1], 100000)
        assert abs(lam_a - 13.5) < 1e-6
        lam_b = estimate_lambda(builtin("b"), [0, 1, F(5, 2)], 100000)
        assert abs(lam_b - (6 + 4 * math.sqrt(2))) < 1e-4

        model_a = fit_model(log_sequence(builtin("a"), [0, 1], 10000), 13.5)
        assert model_a.theta == -2.0
        assert abs(model_a.corrections[1] - 1 / 9) < 0.02 * (1 / 9)
        assert abs(model_a.corrections[2] - 5 / 81) < 0.10 * (5 / 81)

        model_b = fit_model(
            log_sequence(builtin("b"), [0, 1, F(5, 2)], 10000), 6 + 4 * math.sqrt(2)
        )
        assert model_b.theta == -2.0
        assert time.perf_counter() - t0 < 60.0


def test_criterion_9_diagonal_formula(diag_mixed):
    with criterion(9, "explicit diagonal formula vs series"):
        for n in range(1, 13):
            assert diag_formula_easyex(n) == diag_mixed[n]


def test_criterion_10_connected_rule(battery_graphs):
    with criterion(10, "connected-rule sanity"):
        assert count_connected_rule(family("complete", [2])) == 1
        assert count_connected_rule(family("path", [3])) == 3
        rng = random.Random(424242)
        small = [(name, g) for name, g in battery_graphs if g.n <= 6]
        assert small
        for name, g in small:
            first = enumerate_connected_rule(g)
            assert first == enumerate_connected_rule(g), name  # deterministic
            base = len(first)
            for _ in range(3):
                h = relabel(g, random_permutation(rng, g.n))
                assert count_connected_rule(h) == base, name


def test_criterion_11_property_suites(battery_graphs):
    with criterion(11, "randomized property suites"):
        # square root property on 200 randomized series
        rng = random.Random(1318)
        cap_choices = [(5,), (6,), (3, 3), (4, 4), (2, 2, 2), (3, 3, 3)]
        for i in range(200):
            caps = cap_choices[i % len(cap_choices)]
            f = TruncatedSeries.one(caps)
            for exp in f.exponents():
                if any(exp) and rng.random() < 0.7:
                    f._coeffs[f._index(exp)] = F(rng.randint(-9, 9), rng.randint(1, 5))
            g = sqrt1(f)
            assert series_mul(g, g) == f

        # integrality of every weighted coefficient on full windows
        for spec, caps in [
            (BIPARTITE, (8, 8)),
            (MIXED, (8, 8)),
            (TRIPARTITE, (5, 5, 5)),
        ]:
            egf = hgraph_egf(spec, caps)
            for exp in egf.exponents():
                count_from_egf(egf, exp)  # raises EngineError if not integral

        # isomorphism invariance: 20 random relabelings per battery graph
        rng = random.Random(87)
        for name, g in battery_graphs:
            base = count_edge_rule(g)
            for _ in range(20):
                h = relabel(g, random_permutation(rng, g.n))
                assert count_edge_rule(h) == base, name
