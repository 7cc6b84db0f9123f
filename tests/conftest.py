"""Shared helpers: the fixed graph battery and oracle utilities."""

import bisect
import math
import random
from fractions import Fraction
from itertools import permutations, product
from math import comb, lcm, prod

import pytest

from asmtree import (
    ComputationRefused,
    Graph,
    InputError,
    LeadingCoefficientZero,
    LogSequence,
    TruncatedSeries,
    extend,
    family,
    gluing_sequence_tree,
    is_connected_subset,
    spanning_trees,
)
from asmtree.asymptotics import _RESCALE_AT
from asmtree.recurrences import _poly_eval

BATTERY_SEED = 20240810


def random_connected_graph(rng: random.Random, n: int, extra: int) -> Graph:
    """Random connected graph: a uniform labeled tree plus `extra` distinct
    random non-tree edges."""
    if n < 3:
        raise ValueError("needs n >= 3")
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    edges = []
    avail = sorted(v for v in range(n) if degree[v] == 1)
    for v in prufer:
        leaf = avail.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            bisect.insort(avail, v)
    edges.append((avail[0], avail[1]))
    present = {frozenset(e) for e in edges}
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if frozenset((u, v)) not in present
    ]
    rng.shuffle(non_edges)
    edges.extend(non_edges[:extra])
    return Graph(n, edges)


def _polyhedra() -> dict[str, Graph]:
    """Symmetric twin-free graphs: four polyhedral skeletons, the Petersen
    graph and the 4x4 grid."""
    ico = [(0, i) for i in range(1, 6)] + [(11, i) for i in range(6, 11)]
    dod = [(i, 5 + 2 * i) for i in range(5)] + [(6 + 2 * i, 15 + i) for i in range(5)]
    for i in range(5):
        ico += [(1 + i, 1 + (i + 1) % 5), (6 + i, 6 + (i + 1) % 5),
                (1 + i, 6 + i), (1 + i, 6 + (i + 1) % 5)]
        dod += [(i, (i + 1) % 5), (15 + i, 15 + (i + 1) % 5)]
    dod += [(5 + i, 5 + (i + 1) % 10) for i in range(10)]
    return {
        "cube": Graph(8, [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1]),
        "petersen": Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
        "icosahedron": Graph(12, ico),
        "dodecahedron": Graph(20, dod),
        "grid4x4": Graph(16, [(v, v + 1) for v in range(16) if v % 4 < 3]
                         + [(v, v + 4) for v in range(12)]),
    }


POLYHEDRA = _polyhedra()


def edge_battery() -> list[tuple[str, Graph]]:
    """The fixed, seeded battery of ~40 connected graphs on <= 8 vertices."""
    battery = []
    for n in range(2, 9):
        battery.append((f"P{n}", family("path", [n])))
    for n in range(3, 9):
        battery.append((f"C{n}", family("cycle", [n])))
    for n in range(1, 8):
        battery.append((f"S{n}", family("star", [n])))
    battery.append(("K22", family("complete_multipartite", [2, 2])))
    battery.append(("K23", family("complete_multipartite", [2, 3])))
    battery.append(("K4", family("complete", [4])))
    for n in range(1, 4):
        battery.append((f"S2_{n}", family("star2", [n])))
    for n in range(2, 5):
        battery.append((f"D{n}", family("caterpillar", [n])))
    rng = random.Random(BATTERY_SEED)
    plan = [(5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (6, 3), (7, 1), (7, 2), (8, 1), (8, 1), (8, 1)]
    for i, (n, extra) in enumerate(plan):
        g = random_connected_graph(rng, n, extra)
        assert g.is_connected()
        battery.append((f"R{n}_{extra}_{i}", g))
    return battery


@pytest.fixture(scope="session")
def battery():
    return edge_battery()


def partition_dp(g: Graph, connected_rule: bool) -> int:
    """Independent oracle for both rules, computed without building any
    tree, by one pass over every vertex set u in ascending order:
    conv(u) = sum a(s)·X(u - s) over the connected parts s != u that hold
    u's lowest vertex, a(u) = conv(u) on a connected u and 0 otherwise, and
    X = a (edge rule) or X = P, the weighted partitions of a set into
    connected parts: P(u) = a(u) + conv(u), P(empty) = 1."""
    size = 1 << g.n
    conn = [u != 0 and is_connected_subset(g, u) for u in range(size)]
    a = [0] * size
    x = [1] + [0] * (size - 1)
    for u in range(1, size):
        low = u & -u
        rest = u ^ low
        total = 0
        t = rest
        while t:  # parts low | t != u, from u - low down to low | 0
            t = (t - 1) & rest
            if conn[low | t]:
                total += a[low | t] * x[u ^ low ^ t]
        if conn[u]:
            a[u] = total if rest else 1
        x[u] = a[u] + total if connected_rule else a[u]
    return a[-1]


def gluing_reference(g: Graph) -> set[bytes]:
    """Reference for `trees_from_gluing_sequences`, by its definition: the
    canonical codes of the tree of every ordering of every spanning tree."""
    return {
        gluing_sequence_tree(g, order).canonical_code()
        for tree_edges in spanning_trees(g)
        for order in permutations(tree_edges)
    }


def random_permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _row_to_int(row) -> list[int]:
    scale = lcm(*(c.denominator for c in row)) if row else 1
    return [int(c * scale) for c in row]


def bareiss_nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Reference for `recurrences._kernel`: basis of the rational nullspace
    via fraction-free (Bareiss) elimination, vector k equal to 1 at the k-th
    free column and 0 at the other free columns."""
    m = [_row_to_int(r) for r in rows]
    nrows = len(m)
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][col]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][col]
        for i in range(r + 1, nrows):
            mi = m[i]
            f = mi[col]
            if f or prev != 1:
                for j in range(col, ncols):
                    mi[j] = (piv * mi[j] - f * m[r][j]) // prev
        pivot_cols.append(col)
        prev = piv
        r += 1
        if r == nrows:
            break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[i]
            acc = Fraction(0)
            for j in range(pc + 1, ncols):
                if m[i][j] and vec[j]:
                    acc += m[i][j] * vec[j]
            vec[pc] = -acc / m[i][pc]
        basis.append(vec)
    return basis


def _same_caps(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.caps != b.caps:
        raise InputError(f"cap mismatch: {a.caps} vs {b.caps}")


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _same_caps(a, b)
    return TruncatedSeries(a.caps, [x + y for x, y in zip(a._coeffs, b._coeffs)])


def series_sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _same_caps(a, b)
    return TruncatedSeries(a.caps, [x - y for x, y in zip(a._coeffs, b._coeffs)])


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """EGF product: in stored values, the cell at h is the sum over
    f + g = h of prod_i C(h_i, f_i) * a[f] * b[g]."""
    _same_caps(a, b)
    out = [0] * len(a._coeffs)
    theirs = b._cells()
    for ea, va in a._cells():
        for eb, vb in theirs:
            exp = tuple(x + y for x, y in zip(ea, eb))
            if all(e <= c for e, c in zip(exp, a.caps)):
                out[a._index(exp)] += prod(map(comb, exp, ea)) * va * vb
    return TruncatedSeries(a.caps, out)


def sqrt1(f: TruncatedSeries) -> TruncatedSeries:
    """Reference for `series._sqrt_table`: the square root with constant
    term 1, by the g^2 = f coefficient recurrence of the EGF product in
    lexicographic order. It solves by direct convolution, independently of
    the first-order identity the integer engine uses."""
    if f._coeffs[0] != 1:
        raise InputError("sqrt1 needs constant term 1")
    g = TruncatedSeries(f.caps)
    gc = g._coeffs
    gc[0] = 1
    for idx, exp in enumerate(f.exponents()):
        if not idx:
            continue
        acc = 0
        for d in product(*(range(e + 1) for e in exp)):
            di = sum(e * s for e, s in zip(d, g._strides))
            if 0 < di < idx:
                acc += prod(map(comb, exp, d)) * gc[di] * gc[idx - di]
        gc[idx] = Fraction(f._coeffs[idx] - acc) / 2
    return g


def log_sequence_reference(rec, initial, n_max: int) -> LogSequence:
    """Reference for `asymptotics.log_sequence` on admitted inputs: the
    same float iteration, with every coefficient value found by Horner's
    rule on the integer polynomials at its own index."""
    L = rec.order
    ipolys = rec.integer_polys()
    warm = extend(rec, initial, min(n_max, max(rec.offset + L + 8, len(initial) - 1)))
    start = next(i for i, v in enumerate(warm) if v != 0)
    logs = [math.log(float(v)) for v in warm[start:]]
    window = [float(v) for v in warm[-L:]]
    scale = 0.0
    for n in range(len(warm) - L, n_max - L + 1):
        lead = _poly_eval(ipolys[L], n + L)
        if lead == 0:
            raise LeadingCoefficientZero(n + L)
        acc = 0.0
        for i in range(L):
            acc += float(_poly_eval(ipolys[i], n + i)) * window[i]
        new = -acc / float(lead)
        if new <= 0.0:
            raise ComputationRefused(f"sequence stopped being positive at index {n + L}")
        window = window[1:] + [new] if L > 1 else [new]
        if new > _RESCALE_AT:
            window = [w / new for w in window]
            scale += math.log(new)
            logs.append(scale)
        else:
            logs.append(math.log(new) + scale)
    return LogSequence(start, logs)
