"""Exact truncated power series and the assembly-tree generating functions.

TruncatedSeries stores a dense window of an exponential power series up to
per-variable caps: the cell of exponent f holds the coefficient times
prod_i f_i!, the tree count at f for a template EGF, and reading a cell
divides by the factorials. The template EGFs below are exact on the
window (every retained coefficient is that of the infinite series).

The exponential generating function counting edge-rule assembly trees of a
blown-up template (H, phi) is A(x) = 1 - sqrt(R) with

    R = 1 - 2*sum x_i + sum_{phi(i)=0} x_i^2 + 2*sum_{{U,V}} A_U * A_V,

the last sum over unordered pairs of disjoint connected template vertex
sets with no template edge between them, where A_U is the part of the EGF
of the sub-template H[U] whose monomials use every variable of U. The
blow-ups of H with multiplicity 0 off U are those of H[U], so A_U is read
from the face of the window that zeroes every cap off U; one pass fills
the face of each block once, after the faces inside it, then the window.
Counts are recovered as coefficient times the product of factorials. When
H is complete multipartite and clique bits sit only on vertices adjacent
to all others, every pair is two independent-block singletons and R is
the quadratic
1 - 2*sum x_i + sum_{phi(i)=0} x_i^2 + 2*sum_{{i,j} not in E(H)} x_i x_j.

The template EGF is computed in integers. With T[f] = (prod f_i!)*g[f] for
g = sqrt(R) and the scaled radicand (prod m_i!)*R[m], the first-order
identity 2*R*dg/dx_p = (dR/dx_p)*g becomes an integer recurrence with one
exact division per coefficient and work per coefficient over the terms
m <= f of R only (_sqrt_table), which fills the table with -T: -T[f] is
the tree count at f, and hgraph_egf stores it as it is. Cells that a
permutation of interchangeable template vertices maps onto earlier cells
are copied, not computed: whole rows, and the start of each computed row
when the row axis (the last coordinate) has twins. One Meter of the work
budget is charged each piece of work just before it is done: a table's
cells before it is allocated, each radicand term as it is built, each
computed row by its cells and the terms it visits, and each copied row or
segment at a copy price (see _STEPS_PER_UNIT). A dump, to_json_obj, is
charged to a Meter of its own before any cell is read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import islice, product
from math import comb, gcd, prod

from .errors import DisconnectedGraph, EngineError, InputError, Meter
from .graphs import HSpec, is_connected_subset
from .rationals import binom_half, format_rational, is_int


def _check_caps(caps: tuple) -> None:
    if not caps or any(not is_int(c) or c < 0 for c in caps):
        raise InputError("caps must be a non-empty tuple of non-negative integers")


def _check_coefficients(values) -> None:
    if not set(map(type, values)) <= {int, Fraction}:
        raise InputError("series coefficients must be ints or Fractions")


def _window_strides(caps: tuple) -> list[int]:
    """Flat-index step of each coordinate in the row-major window."""
    strides = [1] * len(caps)
    for i in range(len(caps) - 2, -1, -1):
        strides[i] = strides[i + 1] * (caps[i + 1] + 1)
    return strides


def _factorials(top: int) -> list[int]:
    fact = [1] * (top + 1)
    for k in range(2, top + 1):
        fact[k] = fact[k - 1] * k
    return fact


class TruncatedSeries:
    """Multivariate exponential power series truncated to componentwise
    caps; the cell of exponent f stores the coefficient times prod_i f_i!."""

    __slots__ = ("caps", "_strides", "_coeffs")

    def __init__(self, caps, coeffs=None):
        caps = tuple(caps)
        _check_caps(caps)
        strides = _window_strides(caps)
        size = strides[0] * (caps[0] + 1)
        if coeffs is None:
            coeffs = [0] * size
        elif len(coeffs) != size:
            raise InputError("dense coefficient block has the wrong size")
        _check_coefficients(coeffs)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "_strides", tuple(strides))
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def from_terms(cls, caps, terms: dict) -> "TruncatedSeries":
        """The series with the given {exponent: coefficient} terms."""
        _check_coefficients(terms.values())
        s = cls(caps)
        fact = _factorials(max(s.caps))
        for exp, val in terms.items():
            exp = tuple(exp)
            s._coeffs[s._index(exp)] = val * prod(fact[e] for e in exp)
        return s

    @classmethod
    def one(cls, caps) -> "TruncatedSeries":
        return cls.from_terms(caps, {(0,) * len(tuple(caps)): 1})

    @property
    def nvars(self) -> int:
        return len(self.caps)

    def _index(self, exp: tuple) -> int:
        if len(exp) != len(self.caps):
            raise InputError(f"exponent {exp} has wrong arity")
        idx = 0
        for e, c, s in zip(exp, self.caps, self._strides):
            if not is_int(e) or e < 0 or e > c:
                raise InputError(f"exponent {exp} outside caps {self.caps}")
            idx += e * s
        return idx

    def coeff(self, exp) -> Fraction:
        exp = tuple(exp)
        v = self._coeffs[self._index(exp)]
        fact = _factorials(max(exp))
        return Fraction(v, prod(fact[e] for e in exp))

    def exponents(self):
        """All window exponents in lexicographic order."""
        return product(*(range(c + 1) for c in self.caps))

    def _cells(self) -> list:
        """Nonzero (exponent, stored value) pairs in lexicographic order."""
        return [(exp, v) for exp, v in zip(self.exponents(), self._coeffs) if v]

    def terms(self):
        """Nonzero (exponent, coefficient) pairs in lexicographic order."""
        fact = _factorials(max(self.caps))
        for exp, v in self._cells():
            yield exp, Fraction(v, prod(fact[e] for e in exp))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.caps == other.caps
            and all(a == b for a, b in zip(self._coeffs, other._coeffs))
        )

    def __repr__(self) -> str:
        head = ", ".join(
            f"{exp}:{format_rational(v)}" for exp, v in islice(self.terms(), 6)
        )
        return f"TruncatedSeries(caps={self.caps}, [{head}...])"

    def to_json_obj(self) -> list:
        """The nonzero cells as {"exp": exponent, "coeff": "p/q"} objects. A
        Meter of its own is charged every cell's read first, at 100 steps a
        unit (a cell takes 3-20 us to read and print: about 2.5 s in all)."""
        cells = self._coeffs
        bits = sum(v.numerator.bit_length() for v in cells)
        meter = Meter(f"a dump of {len(cells)} cells needs", 100)
        meter.charge(4 * len(cells) + 240 * (len(cells) - cells.count(0)) + bits // 4)
        fact = _factorials(max(self.caps))
        obj = []
        for exp, v in self._cells():  # one gcd a cell, and no Fraction for an int cell
            p, q = v.as_integer_ratio()
            q *= prod(map(fact.__getitem__, exp))
            g = gcd(p, q)
            obj.append({"exp": list(exp), "coeff": f"{p // g}" + (f"/{q // g}" if g < q else "")})
        return obj


# Steps in one unit of the work budget. A step is about 25 ns (CPython 3.11,
# 2 vCPUs), a unit 0.5-0.8 us from the symmetric tripartite window to ones
# whose rows hold one or two cells: an admitted window takes at most about
# 0.8 s. Prices in steps: a table cell 2 when allocated; a coordinate value
# 20 + 2 a radicand term to set up a table; a computed cell 6 + w/5 per term
# it visits, half again for a term that reaches along the row, and once more
# (w the 64-bit words of a coefficient, s*log2(s) bits at exponent sum s); a
# term a computed row visits 60; a copied row 80 and segment 40; a radicand
# term built 40; a vertex set tried as a block 60, as its partner 10.
_STEPS_PER_UNIT = 25


def _symmetry_classes(window: dict, caps: tuple) -> list[tuple[int, ...]]:
    """The classes of two or more interchangeable coordinates: i < j are
    interchangeable when caps[i] == caps[j] and swapping x_i and x_j maps
    the windowed radicand onto itself. The swaps that fix it are closed
    under conjugation ((jk) = (ij)(ik)(ij)), so the relation is transitive
    and each class is found from its first member."""
    classes: list[list[int]] = []
    for j in range(len(caps)):
        for cls in classes:
            i = cls[0]
            if caps[i] == caps[j] and all(
                window.get(m[:i] + (m[j],) + m[i + 1 : j] + (m[i],) + m[j + 1 :]) == r
                for m, r in window.items()
            ):
                cls.append(j)
                break
        else:
            classes.append([j])
    return [tuple(c) for c in classes if len(c) > 1]


def _sqrt_table(radicand: dict, caps, meter: Meter) -> list[int]:
    """The table -T of T[f] = (prod_i f_i!) * g[f] for g = sqrt(R), as a flat
    list in TruncatedSeries order, from the scaled radicand
    radicand[m] = (prod_i m_i!) * R[m], an integer dict with constant term 1.
    For a template radicand -T[f] is the tree count at f != 0.

    Differentiating g^2 = R in x_p, p the first coordinate with f_p >= 1,
    gives for every f != 0

        2 f_p T[f] = -sum_{m != 0, m <= f} radicand[m] * (2 f_p - 3 m_p)
                                           * prod_i C(f_i, m_i) * T[f - m].

    The recurrence is linear, so seeding -1 at f = 0 fills every cell with
    -T, each cell at O(#terms m <= f). The division is exact when every
    scaled term but the constant is even, as in every template radicand; a
    remainder raises EngineError. Cells are filled row by row along the last
    coordinate: terms that reach back into earlier rows are added to a
    whole row at once, visiting only those whose head is at most the row's
    (the bitsets `fits`), and terms in the last variable alone run along it.

    sqrt(R) with constant term 1 is unique, so a permutation of the
    coordinates that fixes the windowed radicand and the caps fixes T, and
    every cell equals the cell of its sorted exponent (values ascending
    within each class of interchangeable coordinates, _symmetry_classes),
    which comes no later in flat order. A row whose head (all coordinates
    but the last) is unsorted is a copy, sharing its integers, of the row
    of its sorted head, which comes earlier. In a computed row, let the
    row axis share a class with head positions p_1 < ... < p_r holding
    v_1 <= ... <= v_r: a cell k < v_r sorts to an earlier row, where k
    moves to p_t for v_(t-1) <= k < v_t, so each segment [v_(t-1), v_t) is
    one strided slice along p_t, and only the cells k >= v_r are computed.
    The tripartite window thus computes about a sixth of its cells. Each
    piece of work is charged to `meter` just before it (_STEPS_PER_UNIT).
    """
    caps = tuple(caps)
    if radicand.get((0,) * len(caps)) != 1:
        raise InputError("radicand must have constant term 1")
    window = {m: r for m, r in radicand.items() if r and all(e <= c for e, c in zip(m, caps))}
    cells = prod(c + 1 for c in caps)
    # the table, then the classes, the binomial columns, `fits` and `along_at`
    meter.charge(2 * cells + (sum(caps) + len(caps)) * (20 + 2 * len(window)))
    table = [0] * cells
    last = len(caps) - 1
    width = caps[-1] + 1
    head = caps[:-1]
    strides = _window_strides(caps)
    axis, classes = (), []  # head positions sharing the row axis's class; head classes
    for cls in _symmetry_classes(window, caps):
        if cls[-1] == last:
            axis = cls = cls[:-1]
        if len(cls) > 1:
            classes.append(cls)
    cross, along = [], []
    for m, r in window.items():
        if not any(m):
            continue
        nz = tuple((i, e) for i, e in enumerate(m[:-1]) if e)
        if nz:
            cross.append((nz, sum(e * strides[i] for i, e in nz), m, r))
        else:
            along.append((m[-1], r))
    fits = [[sum(1 << t for t, x in enumerate(cross) if x[2][i] <= v) for v in range(c + 1)]
            for i, c in enumerate(head)]  # fits[i][v]: bit t set when cross[t] has m_i <= v
    reach = sum(1 << t for t, x in enumerate(cross) if x[2][-1])  # terms also along the row
    col = {e: [comb(n, e) for n in range(max(caps) + 1)] for m in window for e in m if e}
    # terms in the last variable alone, weighted by C(j, e) at row cell j
    along_at = [[(e, r * col[e][j]) for e, r in along if e <= j] for j in range(width)]
    table[0] = -1

    def not_integral(cell):
        return EngineError(f"square-root table is not integral at {cell}")

    def price(ops, top):  # steps of `ops` cell-term products at exponent sum `top`
        return ops * (6 + top * top.bit_length() // 320)

    meter.charge(price(width * (len(along) + 1), width - 1))
    for j in range(1, width):  # the row of the last variable: p is last
        q, rem = divmod(sum(w * (2 * j - 3 * e) * table[j - e] for e, w in along_at[j]), 2 * j)
        if rem:
            raise not_integral((0,) * len(head) + (j,))
        table[j] = -q
    for row, f in enumerate(product(*(range(c + 1) for c in head))):
        if not row:
            continue
        start = row * width
        if classes:
            key = list(f)
            for cls in classes:
                for i, e in zip(cls, sorted(f[i] for i in cls)):
                    key[i] = e
            src = sum(e * s for e, s in zip(key, strides))
            if src != start:
                meter.charge(80)
                table[start : start + width] = table[src : src + width]
                continue
        todo = reduce(int.__and__, map(list.__getitem__, fits, f))  # the cross terms with m <= f
        visited = todo.bit_count()
        lo = f[axis[-1]] if axis else 0
        terms = visited + (todo & reach).bit_count() // 2 + len(along) + 1
        meter.charge(price((width - lo) * terms, sum(f) + width - 1)
                     + 60 * visited + 40 * len(axis))
        if axis:
            # cells k < v_r: segment [v_(t-1), v_t) runs along p_t from base,
            # the cell with p_t at 0, p_(t+1..r) at v_(t..r-1), the last at v_r
            vals = [f[i] for i in axis]
            steps = [strides[i] for i in axis]
            nexts = steps[1:] + [0]
            base = start + lo + sum(v * (n - s) for v, s, n in zip(vals, steps, nexts))
            prev = 0
            for v, s, n in zip(vals, steps, nexts):
                table[start + prev : start + v] = table[base + prev * s : base + v * s : s]
                base += v * (s - n)
                prev = v
        p = next(i for i, e in enumerate(f) if e)
        two_fp = 2 * f[p]
        acc = [0] * (width - lo)  # cells lo.. of the row
        while todo:
            nz, back, m, r = cross[(todo & -todo).bit_length() - 1]
            todo &= todo - 1
            c = r * (two_fp - 3 * m[p])
            for i, e in nz:
                c *= col[e][f[i]]
            src = start - back
            e = m[-1]
            if e:
                k = max(lo, e)
                acc[k - lo :] = [
                    a + c * b * t
                    for a, b, t in zip(
                        acc[k - lo :], col[e][k:width], table[src + k - e : src + width - e]
                    )
                ]
            else:
                acc = [a + c * t for a, t in zip(acc, table[src + lo : src + width])]
        # m_p = 0 on the terms in the last variable, so 2 f_p cancels
        for j, (q, rem) in enumerate([divmod(a, two_fp) for a in acc], lo):
            if rem:
                raise not_integral(f + (j,))
            for e, w in along_at[j]:
                q += w * table[start + j - e]
            table[start + j] = -q
    return table


def _radicand_pairs(spec: HSpec, caps, meter: Meter) -> list[tuple[int, int]]:
    """The pairs {U, V} (bitsets, U < V) of disjoint connected template
    vertex sets with no template edge between them, over the vertices with
    a nonzero cap (only those occur in a window monomial). The submasks
    each loop visits are charged to `meter` before it starts."""
    base = spec.base
    live = sum(1 << i for i in range(base.n) if caps[i])
    meter.charge(60 << live.bit_count())
    blocks, b = set(), 0
    while b := (b - live) & live:  # submasks of `live` in increasing order
        if is_connected_subset(base, b):
            blocks.add(b)
    pairs = []
    for u in sorted(blocks):
        far = live & ~u
        for i in range(base.n):
            if u >> i & 1:
                far &= ~base.adj[i]
        meter.charge(10 << far.bit_count())
        v = 0
        while v := (v - far) & far:  # submasks of `far` in increasing order
            if v > u and v in blocks:
                pairs.append((u, v))
    return pairs


def _radicand_terms(spec: HSpec, pairs, parts: dict, meter: Meter) -> dict:
    """The scaled radicand (prod_i m_i!) * R[m] of R = (1 - A)^2 for the
    template EGF A, from the parts parts[U] = {a: (prod_i a_i!) * A_U[a]}
    of the blocks of `pairs`, each term charged to `meter` as it is built.

    A = sum x_i + (1/2)*P_conn(A^2), where P_conn keeps the monomials whose
    blow-up is connected, so R = 1 - 2*sum x_i + (A^2 - P_conn(A^2)). A^2 is
    nonzero on a disconnected pattern only when its blow-up has exactly
    two components: two vertices of one independent block (x_i^2, scaled
    2), or two disjoint connected vertex sets U, V of the template with no
    template edge between them (2*A_U*A_V, scaled 2*count_U*count_V; see
    _radicand_pairs).
    """
    n = spec.base.n
    meter.charge(40 * 2 * n)
    terms: dict[tuple, int] = {(0,) * n: 1}
    for i in range(n):
        e = [0] * n
        e[i] = 1
        terms[tuple(e)] = -2
        if spec.phi[i] == 0:
            e[i] = 2
            terms[tuple(e)] = 2
    for u, v in pairs:
        for eu, cu in parts[u].items():
            meter.charge(40 * len(parts[v]))
            for ev, cv in parts[v].items():
                terms[tuple(a + b for a, b in zip(eu, ev))] = 2 * cu * cv
    return terms


def hgraph_egf(spec: HSpec, caps) -> TruncatedSeries:
    """EGF of edge-rule assembly-tree counts over all multiplicities of a
    connected template: 1 - sqrt(R) with the exact radicand R of
    _radicand_terms. Its cells store the integer tree count of every
    connected blow-up in the window (count_from_egf reads them), and 0 on
    every disconnected one.

    When H is complete multipartite and every clique bit sits on a vertex
    adjacent to all others, R is the quadratic polynomial
    1 - 2*sum x_i + sum_{phi(i)=0} x_i^2 + 2*sum_{{i,j} not in E(H)} x_i x_j.
    Elsewhere R carries the part A_U of each block U of its pairs, read from
    the cells using every variable of U on the face of the window zeroing
    every cap off U. Each face is filled once, after the faces inside it,
    from the parts of the pairs inside it, and the window last. One Meter
    of the work budget, at 25 steps a unit, is charged each piece of this
    work just before it is done, and raises CapExceeded at the charge that
    passes the budget.
    """
    if not spec.base.is_connected():
        raise DisconnectedGraph("hgraph_egf needs a connected template graph")
    caps = tuple(caps)
    if len(caps) != spec.base.n:
        raise InputError(f"caps must have {spec.base.n} entries")
    _check_caps(caps)
    meter = Meter(f"EGF window {caps} needs", _STEPS_PER_UNIT)
    pairs = _radicand_pairs(spec, caps, meter)
    parts: dict[int, dict] = {}
    for block in sorted({u for pair in pairs for u in pair}):  # after the blocks inside it
        face = tuple(c if block >> i & 1 else 0 for i, c in enumerate(caps))
        inner = [(u, v) for u, v in pairs if not (u | v) & ~block]
        radicand = _radicand_terms(spec, inner, parts, meter)
        cells = zip(product(*(range(c + 1) for c in face)), _sqrt_table(radicand, face, meter))
        parts[block] = {e: c for e, c in cells if c and all(k for k, i in zip(e, face) if i)}
    table = _sqrt_table(_radicand_terms(spec, pairs, parts, meter), caps, meter)
    table[0] = 0
    return TruncatedSeries(caps, table)


def count_from_egf(series: TruncatedSeries, n) -> int:
    """Tree count at multiplicity vector n: the stored cell, coefficient
    times n!; it must be a non-negative integer or the engine is broken."""
    n = tuple(n)
    c = series._coeffs[series._index(n)]
    if c.denominator != 1 or c < 0:
        raise EngineError(f"non-integer or negative count {c} at {n}")
    return int(c)


def b_egf(N: int, M: int, J: int, cap: int) -> list[Fraction]:
    """EGF totalling tree counts over all vertex assignments to a template
    with N vertices, M edges and J zero-bits:
    1 - sqrt(1 - 2Nx + (2*C(N,2) - 2M + J)*x^2).

    This is hgraph_egf with every x_i = x, and it is exact only where the
    template radicand is quadratic: complete multipartite templates whose
    clique bits sit only on vertices adjacent to all others. Elsewhere the
    counts N, M and J do not determine the total: for the path with clique
    bits on both leaves the x^3 coefficient is 9 here, but 8 in the
    substituted hgraph_egf, which matches the tree counts."""
    if not (is_int(N) and N >= 1):
        raise InputError("b_egf needs N >= 1")
    if not (is_int(M) and 0 <= M <= comb(N, 2)):
        raise InputError(f"b_egf needs 0 <= M <= C({N},2)")
    if not (is_int(J) and 0 <= J <= N):
        raise InputError(f"b_egf needs 0 <= J <= {N}")
    if not (is_int(cap) and cap >= 0):
        raise InputError("b_egf needs cap >= 0")
    radicand = {(0,): 1, (1,): -2 * N, (2,): 2 * (2 * comb(N, 2) - 2 * M + J)}
    meter = Meter(f"EGF window {(cap,)} needs", _STEPS_PER_UNIT)
    table = _sqrt_table(radicand, (cap,), meter)
    fact = _factorials(cap)
    return [Fraction(0)] + [Fraction(t, d) for t, d in zip(table[1:], fact[1:])]


def diagonal(series: TruncatedSeries) -> list[Fraction]:
    """Univariate diagonal: coefficient n is the coefficient at equal
    exponents (n, ..., n); requires equal caps."""
    caps = series.caps
    if len(set(caps)) != 1:
        raise InputError(f"diagonal needs equal caps, got {caps}")
    k = len(caps)
    fact = _factorials(caps[0])
    step = sum(series._strides)  # flat-index step from (n,...,n) to (n+1,...,n+1)
    return [Fraction(series._coeffs[n * step], fact[n] ** k) for n in range(caps[0] + 1)]


def diag_formula_easyex(n: int) -> Fraction:
    """Closed form for the diagonal of 1 - sqrt(1 - 2x - 2y + y^2).

    Evaluates sum_{m=ceil(3n/2)}^{2n} C(1/2,m) C(m,n) C(m-n,2m-3n) 4^(m-n)
    and returns its NEGATIVE: the inner signs (-1)^m (-1)^(2n-m) cancel,
    so the whole alternation collapses to the single global minus coming
    from 1 - sqrt. The convention is fixed against the series oracle
    (n=1 gives 1, n=2 gives 3).
    """
    if not is_int(n) or n < 1:
        raise InputError("diag_formula_easyex needs n >= 1")
    total = Fraction(0)
    for m in range((3 * n + 1) // 2, 2 * n + 1):
        total += binom_half(m) * comb(m, n) * comb(m - n, 2 * m - 3 * n) * 4 ** (m - n)
    return -total
