import random
from fractions import Fraction as F
from itertools import islice
from math import lcm

import pytest
from conftest import bareiss_nullspace
from hypothesis import given, settings
from hypothesis import strategies as st

from asmtree import (
    ComputationRefused,
    HSpec,
    InputError,
    LeadingCoefficientZero,
    PRecurrence,
    builtin,
    closed_form,
    diagonal,
    extend,
    family,
    guess,
    hgraph_egf,
    same_extension,
    verify,
)
from asmtree import errors, recurrences

MIXED = HSpec(family("complete", [2]), (1, 0))
BIPARTITE = HSpec(family("complete", [2]), (0, 0))
TRIPARTITE = HSpec(family("complete", [3]), (0, 0, 0))

CATALAN = PRecurrence([[-2, -4], [1, 1]], 0)  # (n+2)f(n+1) = (4n+2)f(n)


def catalan_terms(count):
    return [F(closed_form("path", n + 1)) for n in range(count)]


def test_builtin_a_extend():
    seq = extend(builtin("a"), [0, 1], 4)
    assert seq == [0, 1, 3, F(35, 2), F(525, 4)]


def test_builtin_b_extend():
    seq = extend(builtin("b"), [0, 1, F(5, 2)], 4)
    assert seq[3] == F(25, 2)
    assert seq[4] == F(645, 8)


def test_extend_needs_enough_initial_terms():
    with pytest.raises(InputError):
        extend(builtin("a"), [0], 5)


def test_extend_reports_leading_zero():
    # leading polynomial (t - 3) vanishes at index 3
    rec = PRecurrence([[1], [-3, 1]], 0)
    with pytest.raises(LeadingCoefficientZero) as info:
        extend(rec, [1], 6)
    assert info.value.index == 3


# the lead (t - 700) vanishes at index 700, in the third block of 256 steps;
# before it f(n + 1) = (701 - n)/(699 - n) f(n) stays positive
LEAD_ZERO_AT_700 = PRecurrence([[701, -1], [-700, 1]], 0)


def test_extend_reports_leading_zero_past_the_first_block():
    with pytest.raises(LeadingCoefficientZero) as info:
        extend(LEAD_ZERO_AT_700, [1], 1000)
    assert info.value.index == 700
    # the zero lies just past upto, inside the last block of values
    seq = extend(LEAD_ZERO_AT_700, [1], 699)
    assert seq[699] == F(701 * 700, 2)
    assert verify(LEAD_ZERO_AT_700, seq).ok


def _horner_steps(ipolys, n0: int, count: int):
    return [
        tuple(recurrences._poly_eval(p, n + i) for i, p in enumerate(ipolys))
        for n in range(n0, n0 + count)
    ]


def _stepped(ipolys, n0: int, count: int):
    return list(islice(recurrences._poly_values(ipolys, n0), count))


STEPS = 3 * 256 + 7  # across three block boundaries


@pytest.mark.parametrize(
    "ipolys",
    [[[5], [-3]], [[], [0, 0], [7]], builtin("c").integer_polys()],
    ids=["constant", "zero", "builtin_c"],
)
def test_poly_values_match_horner(ipolys):
    for n0 in (0, 1, 255, 4000):
        assert _stepped(ipolys, n0, STEPS) == _horner_steps(ipolys, n0, STEPS)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(st.integers(-(10**12), 10**12), max_size=9), min_size=1, max_size=4),
    st.integers(0, 10**6),
)
def test_poly_values_match_horner_on_random_polys(ipolys, n0):
    assert _stepped(ipolys, n0, STEPS) == _horner_steps(ipolys, n0, STEPS)


def test_verify_builtin_a_on_series_diagonal():
    d = list(diagonal(hgraph_egf(MIXED, (20, 20))))
    res = verify(builtin("a"), d)
    assert res.ok and res.checked == 19 and res.first_failure is None


def test_verify_builtin_b_on_series_diagonal():
    d = list(diagonal(hgraph_egf(BIPARTITE, (20, 20))))
    assert verify(builtin("b"), d).ok


def test_verify_builtin_c_on_series_diagonal():
    d = list(diagonal(hgraph_egf(TRIPARTITE, (14, 14, 14))))
    res = verify(builtin("c"), d)
    assert res.ok and res.checked == 11


def test_builtin_c_shape():
    rec = builtin("c")
    assert rec.order == 3
    assert max(rec.degrees()) <= 11


def test_verify_detects_perturbation():
    d = list(diagonal(hgraph_egf(MIXED, (12, 12))))
    polys = [list(p) for p in builtin("a").polys]
    polys[1][0] += 1
    broken = PRecurrence(polys, offset=1)
    res = verify(broken, d)
    assert not res.ok and res.first_failure == 1


def test_verify_degenerate_short_sequence():
    res = verify(builtin("b"), [0, 1])
    assert res.ok and res.checked == 0 and res.degenerate


def test_guess_catalan():
    rec = guess(catalan_terms(25), 2, 3)
    assert rec is not None and rec.order == 1
    assert same_extension(rec, CATALAN, [1, 1], 40)


def test_guess_normalization():
    rec = guess(catalan_terms(25), 2, 3)
    lead = rec.polys[-1]
    assert all(c.denominator == 1 for p in rec.polys for c in p)
    assert lead[max(i for i, c in enumerate(lead) if c)] > 0


def test_guess_recovers_builtin_a():
    d = list(diagonal(hgraph_egf(MIXED, (25, 25))))[:25]
    rec = guess(d, 2, 3)
    assert rec is not None
    assert same_extension(rec, builtin("a"), [0, 1], 40)


def test_guess_recovers_builtin_b():
    d = list(diagonal(hgraph_egf(BIPARTITE, (25, 25))))[:25]
    rec = guess(d, 2, 3)
    assert rec is not None and rec.order == 2
    assert same_extension(rec, builtin("b"), [0, 1, F(5, 2)], 40)


def test_guess_is_idempotent_on_generated_data():
    data = extend(builtin("a"), [0, 1], 30)
    rec = guess(data, 2, 3)
    assert rec is not None
    assert same_extension(rec, builtin("a"), [0, 1], 60)


def test_guess_returns_none_for_random_like_data():
    # factorial-of-squares grows too erratically for the allowed bounds
    from math import factorial

    data = [F(factorial(n) ** 2 + n**7 + 1) for n in range(30)]
    assert guess(data, 1, 1) is None


def test_guess_insufficient_terms():
    with pytest.raises(InputError):
        guess([F(1)] * 10, 3, 11)
    # the (3, 11) cell needs 4*12 + 2 fit rows and 5 surplus relations from
    # index 1 on: 59 terms; with 58 it used to be skipped silently
    with pytest.raises(InputError):
        guess([F(1)] * 58, 3, 11)


def test_guess_rejects_bad_bounds():
    data = catalan_terms(30)
    for order, degree in [(0, 3), (-1, 3), (2, -1), (True, 3), (2, 1.0)]:
        with pytest.raises(InputError):
            guess(data, order, degree)


def test_guess_minimum_length_finds_the_recurrence():
    # (2, 3) needs 3*4 + 2*2 + 5 = 21 terms, as the recurrence demo uses
    data = extend(builtin("a"), [0, 1], 20)
    rec = guess(data, 2, 3)
    assert rec is not None
    assert same_extension(rec, builtin("a"), [0, 1], 40)
    with pytest.raises(InputError):
        guess(data[:20], 2, 3)


def test_recurrence_json_roundtrip():
    rec = builtin("b")
    obj = rec.to_json_obj()
    back = PRecurrence.from_json_obj(obj)
    assert back == rec
    assert obj["polys"][2] == ["0", "0", "-1", "1"]


def test_recurrence_json_validation():
    with pytest.raises(InputError):
        PRecurrence.from_json_obj({"order": 1, "polys": [["1"], ["0"]]})
    with pytest.raises(InputError):
        PRecurrence.from_json_obj({"polys": [["1"], ["1"]], "offset": 0, "x": 1})
    with pytest.raises(InputError):
        PRecurrence.from_json_obj({"order": 2, "polys": [["1"], ["1"]], "offset": 0})


def test_builtin_a_growth_ratio_monotone():
    # x_n = a_n n^2 / 13.5^n decreases monotonically to a positive limit;
    # (x_n/x_limit - 1)*n approaches 1/9 from the first-order correction
    seq = extend(builtin("a"), [0, 1], 60)
    xs = {n: seq[n] * n * n * F(2, 27) ** n for n in range(1, 61)}
    vals = [xs[n] for n in range(1, 61)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0
    # extrapolated limit 2*x(60) - x(30) cancels the 1/n term exactly
    limit = 2 * xs[60] - xs[30]
    approx_c1 = float((xs[30] / limit - 1) * 30)
    assert abs(approx_c1 - 1 / 9) < 0.01


def test_unknown_builtin():
    with pytest.raises(InputError):
        builtin("z")


def _planted(rng, ncols, dim, bits):
    """Integer rows (ncols - dim + 2 of them, like a guess cell) whose kernel
    is spanned by `dim` random integer vectors."""
    planted = [[rng.randint(-(1 << 60), 1 << 60) for _ in range(ncols)] for _ in range(dim)]
    complement = bareiss_nullspace(planted, ncols) if dim else [
        [F(int(i == j)) for j in range(ncols)] for i in range(ncols)
    ]
    ints = [[int(c * lcm(*(x.denominator for x in v))) for c in v] for v in complement]
    rows = []
    for _ in range(ncols - dim + 2):
        coeffs = [rng.randint(-(1 << bits), 1 << bits) for _ in ints]
        rows.append([sum(c * w[j] for c, w in zip(coeffs, ints)) for j in range(ncols)])
    return rows


@pytest.fixture
def primes_used(monkeypatch):
    """Indices of the primes the kernel asks for; more than 20 fails the
    test instead of letting a kernel that never settles hang it."""
    used = []
    real = recurrences._prime

    def counted(k):
        assert k < 20, "the kernel did not settle within 20 primes"
        used.append(k)
        return real(k)

    monkeypatch.setattr(recurrences, "_prime", counted)
    return used


def test_kernel_matches_bareiss_on_planted_kernels(primes_used):
    rng = random.Random(20261018)
    for trial in range(24):
        ncols, dim = rng.randint(3, 9), trial % 4
        bits = rng.choice([8, 64, 200])
        rows = _planted(rng, ncols, dim, bits)
        got = recurrences._kernel(rows, ncols)
        assert got == bareiss_nullspace(rows, ncols)
        assert len(got) == dim
    assert max(primes_used) >= 2  # some kernels took several primes


def test_primes_are_single_digits():
    # one 30-bit digit of a CPython int each, so a product fits in two
    primes = [recurrences._prime(k) for k in range(20)]
    assert primes == sorted(set(primes), reverse=True)
    assert all(p < 1 << 30 and recurrences._is_prime(p) for p in primes)


def test_kernel_with_a_rank_deficient_first_prime(primes_used):
    # rank 3 over Q, rank 2 modulo the first prime
    p = recurrences._prime(0)
    rows = [[1, 2, 3], [2, 4, 6 + p], [1, 1, 1]]
    pivots, basis = recurrences._kernel_mod(rows, 3, p)
    assert len(pivots) == 2 and basis
    assert recurrences._kernel(rows, 3) == bareiss_nullspace(rows, 3) == []
    # the same rank drop with a kernel left over Q: the profile is replaced
    rows = rows[:2]
    assert recurrences._kernel_mod(rows, 3, p)[0] == (0,)
    assert recurrences._kernel(rows, 3) == bareiss_nullspace(rows, 3) == [[-2, 1, 0]]
    # equal rank, later pivot modulo the first prime: the lexicographically smaller wins
    rows = [[p, 1]]
    assert recurrences._kernel_mod(rows, 2, p)[0] == (1,)
    assert recurrences._kernel(rows, 2) == bareiss_nullspace(rows, 2) == [[F(-1, p), 1]]


def test_kernel_entries_needing_several_primes(primes_used):
    a, b = 3**80, (1 << 130) + 1  # -b/a is far beyond one prime's sqrt(p/2)
    rows = [[a, b, 0], [0, 7, -5]]
    got = recurrences._kernel(rows, 3)
    assert got == bareiss_nullspace(rows, 3) == [[F(-5 * b, 7 * a), F(5, 7), 1]]
    # M > 2 (5b)^2, about 2^266, takes nine primes just below 2^30
    assert primes_used == list(range(9))


def _reference_guess(monkeypatch, seq, order, degree):
    with monkeypatch.context() as m:
        m.setattr(recurrences, "_kernel", bareiss_nullspace)
        return guess(seq, order, degree)


def _random_recurrence_terms(seed):
    rng = random.Random(seed)
    order, degree = rng.randint(1, 3), rng.randint(0, 3)
    bits = rng.choice([4, 30, 60, 120])
    polys = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(degree + 1)] for _ in range(order)]
    polys.append([rng.randint(1, 1 << bits) for _ in range(degree + 1)])  # no zero at n >= 0
    initial = [F(rng.randint(-50, 50), rng.randint(1, 5)) for _ in range(order)]
    upto = (order + 1) * (degree + 1) + 2 * order + 5 + rng.randint(0, 4)
    return extend(PRecurrence(polys, 0), initial, upto), order, degree


def test_guess_equals_the_bareiss_reference(monkeypatch):
    cases = [
        (catalan_terms(25), 2, 3),
        (extend(builtin("a"), [0, 1], 24), 2, 3),
        (extend(builtin("b"), [0, 1, F(5, 2)], 24), 2, 3),
        (extend(builtin("c"), [0, 3, 84, 4935], 79), 3, 11),
    ] + [_random_recurrence_terms(seed) for seed in range(40)]
    for seq, order, degree in cases:
        got = guess(seq, order, degree)
        assert got is not None
        assert got == _reference_guess(monkeypatch, seq, order, degree)
    assert guess(cases[3][0], 3, 11) == builtin("c").normalized()


def test_guess_refuses_over_budget_before_any_elimination(monkeypatch):
    def unreachable(*_):
        raise AssertionError("elimination started")

    monkeypatch.setattr(recurrences, "_kernel", unreachable)
    with pytest.raises(ComputationRefused):
        guess([F(1)] * 2000, 10, 150)
    with pytest.raises(ComputationRefused):
        guess([F(1)] * 10, 10**9, 10**9)  # before the term count
    monkeypatch.undo()
    # the tripartite search (3, 11) is well inside the budget
    assert errors.WORK_BUDGET * recurrences._STEPS_PER_UNIT > 10 * 640016
