import math
from fractions import Fraction as F

import pytest
from conftest import log_sequence_reference

from asmtree import (
    ComputationRefused,
    InputError,
    LeadingCoefficientZero,
    LogSequence,
    NoConvergentExponent,
    PRecurrence,
    builtin,
    estimate_lambda,
    fit_model,
    log_sequence,
)

CATALAN = PRecurrence([[-2, -4], [1, 1]], 0)
B_LIMIT = 6 + 4 * math.sqrt(2)


def test_lambda_builtin_a():
    est = estimate_lambda(builtin("a"), [0, 1], 20000)
    assert abs(est - 13.5) < 1e-6


def test_lambda_builtin_b():
    est = estimate_lambda(builtin("b"), [0, 1, F(5, 2)], 20000)
    assert abs(est - B_LIMIT) < 1e-4


def test_lambda_catalan():
    est = estimate_lambda(CATALAN, [1, 1], 20000)
    assert abs(est - 4.0) < 1e-4


def test_lambda_stable_under_doubling():
    e1 = estimate_lambda(builtin("a"), [0, 1], 10000)
    e2 = estimate_lambda(builtin("a"), [0, 1], 20000)
    assert abs(e1 - e2) < 1e-7


def test_log_sequence_matches_exact_values():
    from asmtree import extend

    data = log_sequence(builtin("a"), [0, 1], 50)
    exact = extend(builtin("a"), [0, 1], 50)
    assert data.start == 1
    for n in (1, 10, 25, 50):
        assert math.isclose(data.log_at(n), math.log(float(exact[n])), rel_tol=1e-9)


def test_log_sequence_rescales_without_overflow():
    data = log_sequence(builtin("a"), [0, 1], 30000)
    assert math.isfinite(data.log_at(30000))
    # ln a_n ~ n ln 13.5 - 2 ln n
    approx = 30000 * math.log(13.5) - 2 * math.log(30000)
    assert abs(data.log_at(30000) - approx) < 5.0


def test_fit_builtin_a_corrections():
    data = log_sequence(builtin("a"), [0, 1], 10000)
    model = fit_model(data, 13.5)
    assert model.theta == -2.0
    c0, c1, c2 = model.corrections
    # the leading constant is sqrt(3)/(9*pi), from the Gamma closed form
    assert abs(c0 - math.sqrt(3) / (9 * math.pi)) < 1e-6
    assert abs(c1 - 1 / 9) < 0.02 * (1 / 9)
    assert abs(c2 - 5 / 81) < 0.10 * (5 / 81)


def test_fit_builtin_b():
    data = log_sequence(builtin("b"), [0, 1, F(5, 2)], 10000)
    model = fit_model(data, B_LIMIT)
    assert model.theta == -2.0
    assert model.corrections[0] > 0 and math.isfinite(model.corrections[0])
    # side-by-side comparison with the reported 1/n term 35/8 - 5*sqrt(2)/32:
    # the fit is stable at 3/8 - 5*sqrt(2)/32, i.e. exactly 4 below the
    # reported value (35/8 reads like a typo for 3/8)
    reported = 35 / 8 - 5 * math.sqrt(2) / 32
    fitted = model.corrections[1]
    assert abs(fitted - (3 / 8 - 5 * math.sqrt(2) / 32)) < 1e-5
    assert abs(fitted - reported) > 3.9


def test_fit_synthetic_recovery():
    lam, theta, gamma = 3.0, -1.5, 0.25
    logs = [
        n * math.log(lam) + theta * math.log(n) + math.log(1 + gamma / n)
        for n in range(1, 20001)
    ]
    model = fit_model(LogSequence(1, logs), lam)
    assert model.theta == theta
    assert abs(model.corrections[0] - 1.0) < 1e-6
    assert abs(model.corrections[1] - gamma) < 0.01 * gamma


def test_fit_rejects_stretched_exponential():
    logs = [n * math.log(2.0) + math.sqrt(n) for n in range(1, 20001)]
    with pytest.raises(NoConvergentExponent):
        fit_model(LogSequence(1, logs), 2.0)


def test_fit_report_shape():
    data = log_sequence(CATALAN, [1, 1], 5000)
    model = fit_model(data, 4.0)
    obj = model.to_json_obj()
    assert set(obj) == {"lambda", "theta", "corrections", "n_max", "residuals"}
    assert obj["theta"] == -1.5  # Catalan numbers grow like 4^n n^(-3/2)
    assert len(obj["corrections"]) == 3 and len(obj["residuals"]) == 2


def test_log_sequence_rejects_sign_flips():
    rec = PRecurrence([[1], [1]], 0)  # f(n+1) = -f(n)
    with pytest.raises(ComputationRefused):
        log_sequence(rec, [1], 100)


def test_estimate_lambda_input_validation():
    with pytest.raises(InputError):
        log_sequence(builtin("a"), [0, 1], 2)


def test_iteration_budget_refuses_before_the_warmup(monkeypatch):
    from asmtree import asymptotics, errors

    def unreachable(*_):
        raise AssertionError("iteration started")

    monkeypatch.setattr(asymptotics, "extend", unreachable)
    c = builtin("c")
    for rec, init, n_max in [
        (c, [0, 3, 84, 4935], 10**9),  # far over the step budget
        (c, [0, 3, 84, 4935], 2_000_000),  # over the step budget
        (CATALAN, [1], 2_000_001),  # few steps, but 25 a logged term
    ]:
        with pytest.raises(ComputationRefused):
            log_sequence(rec, init, n_max)
        with pytest.raises(ComputationRefused):
            estimate_lambda(rec, init, n_max)
    # n_max 10^5 (acceptance criterion 8) stays admitted for every builtin
    assert 10**5 * sum(d + 1 for d in c.degrees()) <= errors.WORK_BUDGET * asymptotics._STEPS_PER_UNIT


# recurrences that are not builtins: orders 1 and 2 run the fused step with
# zero columns in front, order 4 the general loop
OTHERS = {
    "catalan": CATALAN,
    # (n + 4) M(n + 2) = (2n + 5) M(n + 1) + 3(n + 1) M(n)
    "motzkin": PRecurrence([[-3, -3], [-3, -2], [2, 1]], 0),
    "order4": PRecurrence([[-1, -1], [-2], [-1, -1], [-3], [1, 1]], 0),
}


@pytest.mark.parametrize(
    "name, initial",
    [
        ("a", [0, 1]),
        ("b", [0, 1, F(5, 2)]),
        ("c", [0, 3, 84, 4935]),
        ("catalan", [1]),
        ("motzkin", [1, 1]),
        ("order4", [1, 1, 1, 1]),
    ],
)
def test_log_sequence_matches_horner_reference(name, initial):
    rec = OTHERS[name] if name in OTHERS else builtin(name)
    for n_max in (3000, 1000):  # 1000 ends inside a block of 256 values
        data = log_sequence(rec, initial, n_max)
        want = log_sequence_reference(rec, initial, n_max)
        assert data.start == want.start
        assert data.logs == want.logs  # bit for bit


def _outcome(fn, *args):
    try:
        fn(*args)
    except ComputationRefused as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    raise AssertionError("not refused")


# lead r - t is zero at index r; each lower coefficient t - s changes sign at
# s, and the sequence stops being positive just past it; both fall in the
# second block of 256 values
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "r, s, refusal",
    [(400, 380, "sequence stopped being positive"), (380, 400, "leading polynomial vanishes")],
)
def test_log_sequence_refuses_as_the_reference_within_one_block(order, r, s, refusal):
    rec = PRecurrence([[-s, 1]] * order + [[r, -1]], 0)
    args = (rec, [1] * order, 1000)
    got = _outcome(log_sequence, *args)
    assert got == _outcome(log_sequence_reference, *args)
    assert refusal in got[1]


def test_log_sequence_reports_leading_zero_past_the_first_block():
    rec = PRecurrence([[701, -1], [-700, 1]], 0)  # lead t - 700
    with pytest.raises(LeadingCoefficientZero) as info:
        log_sequence(rec, [1], 1000)
    assert info.value.index == 700
    # the zero lies just past n_max, inside the last block of values
    data = log_sequence(rec, [1], 699)
    assert data.logs == log_sequence_reference(rec, [1], 699).logs
    assert math.isclose(data.log_at(699), math.log(701 * 700 / 2), rel_tol=1e-12)


BIG = 10**400


# (t^150 + 1) f(n + 1) = (n^150 + 2) f(n): positive, but its coefficient
# values leave float range from about n = 112 on
STEEP = PRecurrence([[-2] + [0] * 149 + [-1], [1] + [0] * 149 + [1]], 0)


@pytest.mark.parametrize(
    "rec, initial, n_max",
    [
        (PRecurrence([[-BIG], [1]], 0), [1], 100),  # terms overflow in the warmup
        (builtin("a"), [0, BIG], 100),  # an initial term overflows
        (builtin("a"), [0, F(1, BIG)], 100),  # a positive term rounds to 0.0
        (PRecurrence([[F(-1, BIG)], [1]], 0), [1], 100),  # the lead overflows
        (STEEP, [1], 1000),
    ],
)
def test_log_sequence_refuses_values_beyond_float_range(rec, initial, n_max):
    with pytest.raises(ComputationRefused):
        log_sequence(rec, initial, n_max)


def test_log_sequence_refuses_a_float_step_that_overflows():
    # f(n + 1) = n^50 f(n): the warmup ends at 9!^50, about 10^277, and the
    # next step overflows instead of going on as inf and NaN
    rec = PRecurrence([[0] * 50 + [-1], [1]], 1)
    with pytest.raises(ComputationRefused, match="float range at index 11"):
        log_sequence(rec, [0, 1], 1000)
    with pytest.raises(ComputationRefused, match="float range"):
        estimate_lambda(rec, [0, 1], 1000)


def test_log_sequence_keeps_every_given_initial_term():
    from asmtree import extend

    rec, initial = builtin("a"), list(range(14))  # not a solution of a's relation
    data = log_sequence(rec, initial, 40)
    exact = extend(rec, initial, 40)
    assert data.logs == log_sequence_reference(rec, initial, 40).logs
    for n in range(1, 14):
        assert data.log_at(n) == math.log(exact[n])
    for n in range(14, 41):
        assert math.isclose(data.log_at(n), math.log(exact[n]), rel_tol=1e-12)


def test_lambda_needs_a_term_past_the_first_nonzero_one():
    with pytest.raises(InputError, match="first nonzero term is at index 8, so n_max must exceed it"):
        estimate_lambda(builtin("a"), [0] * 8 + [1], 8)
    # one ratio past it is enough for the raw estimate
    assert math.isclose(estimate_lambda(builtin("a"), [0] * 8 + [1], 9), 575 / 54, rel_tol=1e-12)


# the last float iteration is kept: a repeat on the same relation, warmup
# terms and n_max drains the coefficient blocks once


@pytest.fixture
def iterations(monkeypatch):
    """The calls of _poly_blocks, one per float iteration, from a cleared memo."""
    from asmtree import asymptotics

    calls = []
    real = asymptotics._poly_blocks

    def counted(*args):
        calls.append(args)
        return real(*args)

    asymptotics._iterate.cache_clear()
    monkeypatch.setattr(asymptotics, "_poly_blocks", counted)
    return calls


C_INIT = [0, 3, 84, 4935]


def test_estimate_lambda_then_log_sequence_iterate_once(iterations):
    c = builtin("c")
    lam = estimate_lambda(c, C_INIT, 2000)
    data = log_sequence(c, C_INIT, 2000)
    assert len(iterations) == 1
    assert data.logs == log_sequence_reference(c, C_INIT, 2000).logs
    assert estimate_lambda(c, C_INIT, 2000) == lam and len(iterations) == 1


def test_a_repeat_returns_a_new_list(iterations):
    a = builtin("a")
    first = log_sequence(a, [0, 1], 3000)
    first.logs[5] = 0.0
    first.logs.append(1.0)
    second = log_sequence(a, [0, 1], 3000)
    assert len(iterations) == 1 and second.logs is not first.logs
    assert second.logs == log_sequence_reference(a, [0, 1], 3000).logs  # bit for bit


def test_the_memo_misses_on_any_other_input(iterations):
    a = builtin("a")
    other = PRecurrence([[3, 0, -28], [0, 0, 2]], 1)  # one coefficient of a changed
    calls = [(a, [0, 1], 3000), (a, [0, 1], 2999), (a, [0, 2], 2999), (other, [0, 2], 2999)]
    for k, args in enumerate(calls, 1):
        assert log_sequence(*args).logs == log_sequence_reference(*args).logs
        assert len(iterations) == k


def test_the_same_relation_scaled_hits(iterations):
    a = builtin("a")
    doubled = PRecurrence([[2 * v for v in p] for p in a.polys], a.offset)
    log_sequence(a, [0, 1], 3000)
    data = log_sequence(doubled, [0, 1], 3000)
    assert len(iterations) == 1
    assert data.logs == log_sequence_reference(a, [0, 1], 3000).logs


def test_a_refusal_is_refused_again(iterations):
    flips = PRecurrence([[-380, 1], [400, -1]], 0)  # turns negative at index 381
    for k in (1, 2):
        with pytest.raises(ComputationRefused, match="stopped being positive at index 381"):
            log_sequence(flips, [1], 1000)
        assert len(iterations) == k
    # after an admitted call, an over-budget n_max is refused before iterating
    c = builtin("c")
    log_sequence(c, C_INIT, 2000)
    for fn in (log_sequence, estimate_lambda):
        with pytest.raises(ComputationRefused, match="units of work, the cap"):
            fn(c, C_INIT, 2_000_000)
    assert len(iterations) == 3
    assert log_sequence(c, C_INIT, 2000).logs == log_sequence_reference(c, C_INIT, 2000).logs
    assert len(iterations) == 3
