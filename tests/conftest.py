"""Shared helpers: the fixed graph battery and oracle utilities."""

import bisect
import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest

from asmtree import Graph, family, gluing_sequence_tree, is_connected_subset, spanning_trees

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
