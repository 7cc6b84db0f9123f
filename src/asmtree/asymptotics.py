"""Numeric growth extraction from P-recurrences.

Sequences are iterated in floating point with per-step window
normalization (log magnitudes are tracked separately, so 10^5 terms of a
13.5^n sequence never overflow). The coefficient values P_i(n + i) are
exact integers, stepped by forward differences in blocks (see
recurrences._poly_blocks) and converted to floats a block at a time;
coefficients or warmup terms outside float range are refused before the
iteration starts. The exponential rate comes from the term
ratio, optionally Richardson-extrapolated in 1/n at three staggered
checkpoints; the polynomial order theta is selected from a half-integer
grid and the correction constants c0, c1, c2 of

    f(n) ~ c0 * lambda^n * n^theta * (1 + c1/n + c2/n^2 + ...)

are fitted by exact quadratic interpolation in 1/n at staggered points.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

from .errors import (ComputationRefused, InputError, LeadingCoefficientZero, Meter,
                     NoConvergentExponent)
from .rationals import is_int
from .recurrences import PRecurrence, _poly_blocks, extend

_RESCALE_AT = 1e120
_FLOAT_LIMIT = 2**1023  # a smaller int converts to float without overflow

# Steps in one unit of the work budget; a float iteration takes n_max *
# sum(deg_i + 1), and a logged term at least 25 (a float in a list costs
# ~32 bytes), so at most 2*10^6 terms are logged. With CPython 3.11 on a
# 2-vCPU virtual machine a unit costs about 1.0 us for builtin a and 2.2 us
# for builtin c (1.6 and 2.8 us when every order ran the general loop).
_STEPS_PER_UNIT = 50


@dataclass(frozen=True)
class LogSequence:
    """Magnitudes of a positive sequence: logs[i] = ln f(start + i)."""

    start: int
    logs: list[float]

    @property
    def n_max(self) -> int:
        return self.start + len(self.logs) - 1

    def log_at(self, n: int) -> float:
        if not self.start <= n <= self.n_max:
            raise InputError(f"index {n} outside {self.start}..{self.n_max}")
        return self.logs[n - self.start]


@dataclass(frozen=True)
class GrowthModel:
    """Fitted growth parameters; corrections is [c0, c1, c2]."""

    lambda_: float
    theta: float
    corrections: list[float]
    n_max: int
    residuals: list[float] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "lambda": self.lambda_,
            "theta": self.theta,
            "corrections": list(self.corrections),
            "n_max": self.n_max,
            "residuals": list(self.residuals),
        }


def log_sequence(rec: PRecurrence, initial, n_max: int) -> LogSequence:
    """Iterate the recurrence to n_max, recording log magnitudes.

    The first few terms are computed exactly, iteration then switches to
    floats with window rescaling; orders up to 3 share one fused step that
    keeps the window in locals. Leading-polynomial zeros are found once per
    block of 256 values and refused at their index. Zero or sign-flipping
    tails are refused: growth extraction here targets eventually-positive
    sequences, and so are warmup terms, coefficient values or float steps
    beyond float range. An iteration over the work budget (50 steps a unit)
    is refused first.

    Every given initial term is kept in the exact warmup. The checks and
    the charge run on every call, but the last iteration is kept as 8-byte
    doubles, keyed by the integer relation, the warmup terms and n_max: a
    repeat (estimate_lambda, then log_sequence on the same inputs) copies it
    instead of iterating again, into a list of its own.
    """
    L = rec.order
    if not is_int(n_max) or n_max < rec.offset + L + 2:
        raise InputError(f"n_max must be an integer >= {rec.offset + L + 2}, got {n_max!r}")
    work = n_max * max(sum(d + 1 for d in rec.degrees()), 25)
    Meter(f"iterating to n_max {n_max} needs", _STEPS_PER_UNIT).charge(work)
    ipolys = rec.integer_polys()
    for p, d in zip(ipolys, rec.degrees()):
        # bounds |P(x)| for 0 <= x <= n_max, every index the iteration reads
        if sum(map(abs, p)) * n_max ** max(d, 0) >= _FLOAT_LIMIT:
            raise ComputationRefused(
                f"the recurrence coefficients may leave float range before n_max {n_max}"
            )
    warm = extend(rec, initial, min(n_max, max(rec.offset + L + 8, len(initial) - 1)))
    start = next((i for i, v in enumerate(warm) if v != 0), None)
    if start is None:
        raise ComputationRefused("sequence is identically zero on the warmup window")
    if any(v <= 0 for v in warm[start:]):
        raise ComputationRefused("growth extraction needs a positive sequence tail")
    try:
        floats = [float(v) for v in warm]
    except OverflowError:
        raise ComputationRefused("a warmup term is beyond float range") from None
    if 0.0 in floats[start:]:
        raise ComputationRefused("a warmup term is below float range")
    logs = _iterate(tuple(map(tuple, ipolys)), tuple(warm), start, n_max)
    return LogSequence(start, logs.tolist())


@lru_cache(maxsize=1)
def _iterate(ipolys: tuple, warm: tuple, start: int, n_max: int) -> array:
    """The float iteration of log_sequence from checked warmup terms whose
    first nonzero one is warm[start]: the logs from start on, as doubles."""
    L = len(ipolys) - 1
    floats = [float(v) for v in warm]
    logs = [math.log(v) for v in floats[start:]]
    window = floats[-L:]
    # orders up to 3 share one fused step, with zero columns and window cells
    # in front of a lower order: 0.0 * w is +0.0 for a finite window value
    # w >= 0 (a NaN window stays NaN), so the sum rounds as the loop's
    # 0.0 + v * w + ... does, up to the sign of a zero sum, refused either way
    w0, w1, w2 = ([0.0] * 3 + floats)[-3:]
    scale = 0.0  # ln of the factor divided out of the window
    top = len(warm) - 1
    blocks = _poly_blocks(ipolys, len(warm) - L)
    while top < n_max:
        cols = [list(map(float, col[: n_max - top])) for col in next(blocks)]
        lead = cols[L]
        top += len(lead)
        cut = lead.index(0.0) if 0.0 in lead else len(lead)  # steps before a zero lead
        if L <= 3:
            pad = [[0.0] * len(lead)] * (3 - L)
            for v0, v1, v2, c in islice(zip(*pad, *cols), cut):
                new = -(v0 * w0 + v1 * w1 + v2 * w2) / c
                if new <= 0.0:
                    raise ComputationRefused(
                        f"sequence stopped being positive at index {start + len(logs)}")
                if new > _RESCALE_AT:
                    w0, w1, w2 = w1 / new, w2 / new, new / new  # inf / inf is NaN, as in the loop
                    scale += math.log(new)
                    logs.append(scale)
                else:
                    w0, w1, w2 = w1, w2, new
                    logs.append(math.log(new) + scale)
        else:
            for vals in islice(zip(*cols), cut):
                acc = 0.0
                for v, w in zip(vals, window):
                    acc += v * w
                new = -acc / vals[L]
                if new <= 0.0:
                    raise ComputationRefused(
                        f"sequence stopped being positive at index {start + len(logs)}")
                window = window[1:] + [new]
                if new > _RESCALE_AT:
                    window = [w / new for w in window]
                    scale += math.log(new)
                    logs.append(scale)
                else:
                    logs.append(math.log(new) + scale)
        if cut < len(lead):
            raise LeadingCoefficientZero(start + len(logs))
        if not logs[-1] < math.inf:  # once a step overflows, inf or NaN stays
            bad = next(i for i, x in enumerate(logs) if not x < math.inf)
            raise ComputationRefused(f"a float step left float range at index {start + bad}")
    return array("d", logs)


def _checkpoints(lo: int, hi: int) -> tuple[int, int, int]:
    n3 = hi
    n2 = max(lo + 2, hi // 2)
    n1 = max(lo + 1, hi // 4)
    if not lo <= n1 < n2 < n3:
        raise InputError("window too small for staggered checkpoints")
    return n1, n2, n3


def estimate_lambda(rec: PRecurrence, initial, n_max: int) -> float:
    """Exponential growth rate from term ratios at n_max.

    The ratios at n_max/4, n_max/2 and n_max are extrapolated to 1/n = 0 by
    quadratic Lagrange interpolation, removing the 1/n and 1/n^2
    components of the ratio expansion. A window too short for that gives
    the raw ratio at n_max.
    """
    return _lambda_from(log_sequence(rec, initial, n_max))


def _lambda_from(data: LogSequence) -> float:
    lo = data.start + 1
    if data.n_max < lo:
        raise InputError(
            f"the first nonzero term is at index {data.start}, so n_max must exceed it, "
            f"got {data.n_max}")

    def ratio(n: int) -> float:
        return math.exp(data.log_at(n) - data.log_at(n - 1))

    if data.n_max < lo + 16:
        return ratio(data.n_max)
    n1, n2, n3 = _checkpoints(lo, data.n_max)
    xs = [1.0 / n1, 1.0 / n2, 1.0 / n3]
    ys = [ratio(n1), ratio(n2), ratio(n3)]
    est = 0.0
    for i in range(3):
        w = 1.0
        for j in range(3):
            if j != i:
                w *= xs[j] / (xs[j] - xs[i])
        est += w * ys[i]
    return est


DEFAULT_THETAS = tuple(k / 2 for k in range(-8, 3))


def fit_model(data: LogSequence, lambda_: float) -> GrowthModel:
    """Select theta from the candidate grid and fit c0, c1, c2.

    For each candidate, v(n) = ln f(n) - n ln lambda - theta ln n must
    converge; the candidate with the smallest drift across the staggered
    checkpoints wins (the drift pair is reported as residuals). Then
    y = exp(v) is interpolated quadratically in 1/n to read off c0 and the
    1/n, 1/n^2 corrections.
    """
    if lambda_ <= 0:
        raise InputError("lambda must be positive")
    log_lambda = math.log(lambda_)
    n1, n2, n3 = _checkpoints(max(data.start, 1) + 1, data.n_max)

    def v(n: int, theta: float) -> float:
        return data.log_at(n) - n * log_lambda - theta * math.log(n)

    best = None
    for theta in DEFAULT_THETAS:
        drift = (abs(v(n3, theta) - v(n2, theta)), abs(v(n2, theta) - v(n1, theta)))
        if best is None or drift[0] + drift[1] < best[1][0] + best[1][1]:
            best = (theta, drift)
    theta, drift = best
    if drift[0] > 0.02:
        raise NoConvergentExponent(
            f"no candidate exponent converges (best theta={theta}, drift={drift[0]:.3g})"
        )
    xs = [1.0 / n1, 1.0 / n2, 1.0 / n3]
    ys = [math.exp(v(n, theta)) for n in (n1, n2, n3)]
    # Newton form of the quadratic through (xs, ys), expanded at x = 0
    d01 = (ys[1] - ys[0]) / (xs[1] - xs[0])
    d12 = (ys[2] - ys[1]) / (xs[2] - xs[1])
    d012 = (d12 - d01) / (xs[2] - xs[0])
    c0 = ys[0] - xs[0] * d01 + xs[0] * xs[1] * d012
    b1 = d01 - (xs[0] + xs[1]) * d012
    if c0 == 0.0 or not math.isfinite(c0):
        raise NoConvergentExponent("fitted constant is zero or non-finite")
    c1 = b1 / c0
    c2 = d012 / c0
    return GrowthModel(lambda_, theta, [c0, c1, c2], data.n_max, list(drift))
