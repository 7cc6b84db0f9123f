"""Linear recurrences with polynomial coefficients: evaluate, verify, guess.

A recurrence of order L is stored as L+1 coefficient polynomials
P_0..P_L (exact rationals, ascending degree) plus an offset s, and asserts

    P_L(n+L) f(n+L) + ... + P_1(n+1) f(n+1) + P_0(n) f(n) = 0

for every n >= s. Extension, verification and the float iteration of
the asymptotics layer read the values P_i(n + i) of the denominator-cleared
polynomials from one stepper, _poly_blocks, as exact integers found by
forward differences. Guessing searches (order, degree) cells in lexicographic
order, solves each cell's homogeneous linear system modulo primes below
2^30 (one digit of a CPython int each), reconstructs the rational kernel
and certifies it exactly on the integer system, and accepts a candidate
only if it verifies on every term not used in the fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, count, islice
from math import gcd, isqrt, lcm

from .errors import InputError, LeadingCoefficientZero, Meter
from .rationals import format_rational, is_int, parse_rational


def _poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_blocks(ipolys, n0: int):
    """Blocks of the exact values P_i(n + i) of integer polynomials
    P_0..P_L for n = n0, n0 + 1, ...: block k holds one column per
    polynomial, with its values for n = n0 + 256k .. n0 + 256k + 255.

    Each polynomial keeps its forward differences at the start of the
    block, found once by Horner; every difference level of a block is the
    running sum of the level above, so a value costs d big-int additions
    in C for a degree-d polynomial. The generator never ends."""
    states = []
    for i, p in enumerate(ipolys):
        p = p[: _poly_degree(p) + 1] or [0]
        row = [_poly_eval(p, n0 + i + j) for j in range(len(p))]
        diffs = []
        while row:
            diffs.append(row[0])
            row = [b - a for a, b in zip(row, row[1:])]
        states.append(diffs)
    while True:
        block = []
        for diffs in states:
            col = [diffs[-1]] * 256
            for k in range(len(diffs) - 2, -1, -1):
                col = list(accumulate(col, initial=diffs[k]))
                diffs[k] = col.pop()
            block.append(col)
        yield block


def _poly_values(ipolys, n0: int):
    """The tuples (P_0(n), ..., P_L(n + L)) for n = n0, n0 + 1, ..."""
    return chain.from_iterable(zip(*block) for block in _poly_blocks(ipolys, n0))


def _poly_degree(coeffs) -> int:
    """Degree, or -1 for the zero polynomial."""
    for d in range(len(coeffs) - 1, -1, -1):
        if coeffs[d]:
            return d
    return -1


class PRecurrence:
    """Order-L recurrence with exact polynomial coefficients."""

    __slots__ = ("polys", "offset")

    def __init__(self, polys, offset: int = 0):
        polys = tuple(tuple(Fraction(c) for c in p) for p in polys)
        if len(polys) < 2:
            raise InputError("a recurrence needs order >= 1 (at least two polynomials)")
        if _poly_degree(polys[-1]) < 0:
            raise InputError("the leading polynomial must not be identically zero")
        if not is_int(offset) or offset < 0:
            raise InputError("offset must be a non-negative integer")
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "offset", offset)

    def __setattr__(self, *_):
        raise AttributeError("PRecurrence is immutable")

    @property
    def order(self) -> int:
        return len(self.polys) - 1

    def degrees(self) -> tuple[int, ...]:
        return tuple(_poly_degree(p) for p in self.polys)

    def normalized(self) -> "PRecurrence":
        """Clear denominators, remove integer content, and make the top
        coefficient of the leading polynomial positive."""
        flat = [c for p in self.polys for c in p]
        scale = lcm(*(c.denominator for c in flat)) if flat else 1
        ints = [int(c * scale) for c in flat]
        content = 0
        for v in ints:
            content = gcd(content, abs(v))
        content = content or 1
        lead = self.polys[-1]
        sign = 1 if lead[_poly_degree(lead)] > 0 else -1
        factor = Fraction(sign * scale, content)
        return PRecurrence(
            [[c * factor for c in p] for p in self.polys], self.offset
        )

    def integer_polys(self) -> list[list[int]]:
        """Denominator-cleared integer coefficient lists (same relation)."""
        norm = self.normalized()
        return [[int(c) for c in p] for p in norm.polys]

    def to_json_obj(self) -> dict:
        return {
            "order": self.order,
            "offset": self.offset,
            "polys": [[format_rational(c) for c in p] for p in self.polys],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "PRecurrence":
        if not isinstance(obj, dict):
            raise InputError("recurrence JSON must be an object")
        unknown = set(obj) - {"order", "offset", "polys"}
        if unknown:
            raise InputError(f"unknown recurrence keys: {sorted(unknown)}")
        try:
            polys = [[parse_rational(c) for c in p] for p in obj["polys"]]
        except (KeyError, TypeError) as exc:
            raise InputError("recurrence JSON needs a list of coefficient lists") from exc
        rec = cls(polys, obj.get("offset", 0))
        order = obj.get("order", rec.order)
        if not is_int(order):
            raise InputError(f"order must be an integer, got {order!r}")
        if order != rec.order:
            raise InputError(f"declared order {obj['order']} != {rec.order} polynomials")
        return rec

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PRecurrence)
            and self.offset == other.offset
            and self.polys == other.polys
        )

    def __repr__(self) -> str:
        return f"PRecurrence(order={self.order}, offset={self.offset}, degrees={self.degrees()})"


# Builtin recurrences for the three diagonal sequences, denominators cleared.
#
#   a: 2(n+1)^2 a_{n+1} = 3(3n-1)(3n+1) a_n              (offset 1)
#   b: (n+1)(n+2)^2 b_{n+2} = 2(6n^2+12n+5)(n+1) b_{n+1}
#                              - n(2n-1)(2n+3) b_n        (offset 1)
#   c: order-3 relation for the three-part diagonal, reconstructed by
#      fitting 66 exact series terms and verified on every surplus term;
#      coefficient degrees are at most 11.
_BUILTIN_POLYS = {
    "a": ([[3, 0, -27], [0, 0, 2]], 1),
    "b": ([[0, -3, 4, 4], [0, 2, 0, -12], [0, 0, -1, 1]], 1),
    "c": (
        [
            # fmt: off
            [0, -3462912, -19836000, -16801056, 114349302, 379610649,
             551239704, 460743111, 235599678, 72882423, 12541716, 922185],
            [0, 7776, 32328, -351684, -1460910, 2221011, 13917531,
             7931220, -27665424, -45369501, -25431813, -4986630],
            [0, 0, -14112, 41928, 272676, -925902, -1481871, 6960231,
             -2905974, -9798828, 11032065, -3244725],
            [0, 0, 0, 207360, -1411424, 4009768, -6257496, 5895168,
             -3444336, 1221576, -240856, 20240],
            # fmt: on
        ],
        1,
    ),
}


def builtin(name: str) -> PRecurrence:
    """The stored recurrences for the three diagonal sequences."""
    try:
        polys, offset = _BUILTIN_POLYS[name]
    except KeyError:
        raise InputError(f"unknown builtin recurrence {name!r}") from None
    return PRecurrence(polys, offset)


def extend(rec: PRecurrence, initial, upto: int) -> list[Fraction]:
    """Extend a sequence to index `upto` (inclusive) by solving for the
    top term; refuses to divide when the leading polynomial vanishes."""
    if not is_int(upto) or upto < 0:
        raise InputError(f"upto must be an integer >= 0, got {upto!r}")
    seq = [Fraction(v) for v in initial]
    L = rec.order
    if len(seq) < rec.offset + L:
        raise InputError(
            f"need at least {rec.offset + L} initial terms, got {len(seq)}"
        )
    nums = [v.numerator for v in seq]
    dens = [v.denominator for v in seq]
    n = len(seq) - L
    steps = _poly_values(rec.integer_polys(), n)
    for *vals, lead in islice(steps, max(upto + 1 - len(seq), 0)):
        if not lead:
            raise LeadingCoefficientZero(n + L)
        # the relation over the lcm of the window's denominators, in integers
        scale = lcm(*dens[n : n + L])
        acc = sum(p * nums[x] * (scale // dens[x]) for p, x in zip(vals, range(n, n + L)))
        new = Fraction(-acc, scale * lead)
        seq.append(new)
        nums.append(new.numerator)
        dens.append(new.denominator)
        n += 1
    return seq[: upto + 1]


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    first_failure: int | None
    checked: int

    @property
    def degenerate(self) -> bool:
        """True when the sequence was too short to test anything."""
        return self.ok and self.checked == 0

    def __bool__(self) -> bool:
        return self.ok


def verify(rec: PRecurrence, seq) -> VerifyResult:
    """Check the relation exactly at every applicable index."""
    seq = [Fraction(v) for v in seq]
    nums = [v.numerator for v in seq]
    dens = [v.denominator for v in seq]
    L = rec.order
    checked = 0
    indices = range(rec.offset, len(seq) - L)
    for n, vals in zip(indices, _poly_values(rec.integer_polys(), rec.offset)):
        scale = lcm(*dens[n : n + L + 1])
        if sum(p * nums[x] * (scale // dens[x]) for p, x in zip(vals, range(n, n + L + 1))):
            return VerifyResult(False, n, checked)
        checked += 1
    return VerifyResult(True, None, checked)


# primes below 2^30 counting down, extended on demand: CPython stores ints in
# 30-bit digits, so a residue is one digit and a product two
_PRIMES = [(1 << 30) - 35]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 37 below 3.3e24."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(k: int) -> int:
    while len(_PRIMES) <= k:
        p = _PRIMES[-1] - 2
        while not _is_prime(p):
            p -= 2
        _PRIMES.append(p)
    return _PRIMES[k]


def _kernel_mod(rows, ncols: int, p: int):
    """Pivot columns and kernel basis of the integer rows modulo p; basis
    vector k is 1 at the k-th free column and 0 at the other free ones."""
    todo = [[v % p for v in r] for r in rows]  # rows restricted to columns col..
    echelon = []  # (pivot column, its row from that column on, scaled to 1)
    for col in range(ncols):
        k = next((i for i, r in enumerate(todo) if r[0]), None)
        if k is None:
            todo = [r[1:] for r in todo]
            continue
        piv = todo.pop(k)
        inv = pow(piv[0], -1, p)
        piv = [v * inv % p for v in piv]
        tail = piv[1:]
        todo = [
            [(a - f * b) % p for a, b in zip(r[1:], tail)] if (f := r[0]) else r[1:]
            for r in todo
        ]
        echelon.append((col, piv))
    pivots = tuple(c for c, _ in echelon)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[fc] = 1
        for pc, row in reversed(echelon):
            vec[pc] = -sum(a * b for a, b in zip(row[1:], vec[pc + 1 :])) % p
        basis.append(vec)
    return pivots, basis


def _rational(r: int, m: int, bound: int) -> Fraction | None:
    """The a/b with a = b*r (mod m) and |a|, b <= bound, if there is one."""
    r0, s0, r1, s1 = m, 0, r, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _kernel(rows: list[list[int]], ncols: int) -> list[list[Fraction]]:
    """Basis of the rational kernel of integer rows, with vector k equal to 1
    at the k-th free column of the reduced row echelon form and 0 at the
    other free columns.

    Each prime below 2^30 gives a kernel mod p. A full rank mod p means full
    rank over Q. Primes sharing the best pivot profile (highest rank, then
    the lexicographically smallest pivot columns) are combined by CRT and
    each entry is rationally reconstructed; the basis is returned once every
    vector annihilates the rows exactly, which pins it to the basis over Q.
    A prime with a worse profile is dropped; only finitely many are."""
    best = None
    for k in count():
        p = _prime(k)
        pivots, basis = _kernel_mod(rows, ncols, p)
        if not basis:
            return []
        profile = (-len(pivots), pivots)
        flat = [x for v in basis for x in v]
        if best is None or profile < best:
            best, modulus, residues = profile, p, flat
        elif profile > best:
            continue
        else:
            t = pow(modulus, -1, p)
            residues = [r + modulus * ((b - r) * t % p) for r, b in zip(residues, flat)]
            modulus *= p
        bound = isqrt(modulus // 2)
        entries = []
        for r in residues:  # stop at the first entry the modulus cannot reach
            entries.append(_rational(r, modulus, bound))
            if entries[-1] is None:
                break
        else:
            vecs = [entries[i : i + ncols] for i in range(0, len(entries), ncols)]
            if all(_annihilates(rows, v) for v in vecs):
                return vecs


def _annihilates(rows, vec) -> bool:
    scale = lcm(*(c.denominator for c in vec))
    ints = [(j, c.numerator * (scale // c.denominator)) for j, c in enumerate(vec) if c]
    return all(sum(r[j] * c for j, c in ints) == 0 for r in rows)


# Elimination steps in one unit of the work budget: a cell with u =
# (order + 1)(degree + 1) unknowns takes (u + 2) * u^2. With CPython 3.11 on a
# 2-vCPU virtual machine a search runs 13-16 million steps per second, a unit
# 3-4 us, so a search at the budget takes about 3-4 s; the (3, 11) search
# behind the tripartite recurrence takes 6.4e5 steps.
_STEPS_PER_UNIT = 50


def guess(seq, max_order: int, max_degree: int) -> PRecurrence | None:
    """Search for the minimal verified recurrence within the given bounds.

    Cells (order, degree) are tried in lexicographic order. Each cell fits
    on its first (order+1)(degree+1) + 2 applicable relations (offset 1;
    every target sequence here starts with an index-0 exception) and the
    candidate must then verify exactly on every remaining term, of which
    there are at least order + 2. The largest cell sets the length needed,
    (max_order+1)(max_degree+1) + 2*max_order + 5 terms, so every cell is
    tried. Each cell's kernel is exact (see _kernel). Returns None when
    nothing verifies; the result is normalized (content removed, leading
    coefficient positive). Raises CapExceeded, before any elimination,
    when the cells exceed the work budget at 50 elimination steps a unit:
    each cell charges its steps to one Meter.
    """
    for name, value, least in (("max_order", max_order, 1), ("max_degree", max_degree, 0)):
        if not is_int(value) or value < least:
            raise InputError(f"{name} must be an integer >= {least}, got {value!r}")
    meter = Meter(f"guess to order {max_order}, degree {max_degree} needs", _STEPS_PER_UNIT)
    for order in range(1, max_order + 1):
        for degree in range(max_degree + 1):
            u = (order + 1) * (degree + 1)
            meter.charge((u + 2) * u * u)
    seq = [Fraction(v) for v in seq]
    needed = (max_order + 1) * (max_degree + 1) + 2 * max_order + 5
    if len(seq) < needed:
        raise InputError(
            f"need at least {needed} terms for order {max_order}, degree {max_degree}"
        )
    nums = [v.numerator for v in seq]
    dens = [v.denominator for v in seq]
    offset = 1
    for order in range(1, max_order + 1):
        for degree in range(0, max_degree + 1):
            unknowns = (order + 1) * (degree + 1)
            rows = []
            for n in range(offset, offset + unknowns + 2):
                scale = lcm(*dens[n : n + order + 1])
                row = []
                for x in range(n, n + order + 1):
                    v = nums[x] * (scale // dens[x])
                    for _ in range(degree + 1):
                        row.append(v)
                        v *= x
                rows.append(row)
            for vec in _kernel(rows, unknowns):
                polys = [
                    vec[i * (degree + 1) : (i + 1) * (degree + 1)]
                    for i in range(order + 1)
                ]
                if _poly_degree(polys[-1]) < 0:
                    continue
                cand = PRecurrence(polys, offset).normalized()
                if verify(cand, seq).ok:
                    return cand
    return None


def same_extension(rec1: PRecurrence, rec2: PRecurrence, initial, upto: int) -> bool:
    """Agreement test: both recurrences extend the same initial terms to
    identical sequences over the window."""
    return extend(rec1, initial, upto) == extend(rec2, initial, upto)
