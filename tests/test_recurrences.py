from fractions import Fraction as F

import pytest

from asmtree import (
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
