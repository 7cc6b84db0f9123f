"""Counting and explicit enumeration of assembly trees.

An assembly tree over a connected graph is a rooted tree whose leaves are
the single vertices, whose root is the full vertex set, and whose every
internal node is the disjoint union of its children. Two rules are
supported:

* edge rule: every internal node has exactly two children and some graph
  edge crosses between them;
* connected rule: children partition the parent, every label induces a
  connected subgraph, and internal nodes have at least two children.

Counts are computed three independent ways for cross-validation: an exact
convolution over vertex sets, explicit enumeration of canonical trees, and
bottom-up construction from every edge ordering of every spanning tree.
Trees compare equal exactly when there is a label-preserving isomorphism;
canonical codes realize that equality as byte strings.

Both rules share one recurrence: a tree of a connected set u joins a tree
of a connected part s of u with a tree of u - s (edge rule) or with a
forest of u - s into connected parts (connected rule). Every split is
anchored at the lowest vertex of the set it splits, so each unordered split
is visited once: no sum is halved, and there is no parity to check. The
counters run it as one convolution on the twin quotient: twins (vertices
with equal open or equal closed neighbourhoods) are interchangeable, so a
count depends only on how many vertices of each twin class a set holds, and
a blow-up with class sizes k_i has prod(k_i + 1) states. The enumerators
run it on explicit trees, over every vertex set. The gluing route stays
independent of anchored splits.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import comb, factorial, log, prod

from .errors import CapExceeded, ComputationRefused, DisconnectedGraph, InputError
from .graphs import Graph, _connected_mask, relabel

SMALL_ENUM_CAP = 9
# the tree counters refuse a graph whose split estimate exceeds 3^SUBSET_CAP;
# the connected rule fills P on every state, connected or not, so it pays
# its whole split estimate even on a sparse graph: 3^16 is about 3 s
SUBSET_CAP = 24
CONNECTED_SUBSET_CAP = 16


def _check_countable(g: Graph, what: str) -> None:
    if g.n == 0:
        raise ComputationRefused(f"{what}: empty graph has no assembly trees")
    if not g.is_connected():
        raise DisconnectedGraph(f"{what}: graph is not connected")


def _check_enumerable(g: Graph, what: str) -> None:
    if g.n > SMALL_ENUM_CAP:
        raise CapExceeded(f"{what}: {g.n} vertices exceeds the cap of {SMALL_ENUM_CAP}")
    _check_countable(g, what)


class AssemblyTree:
    """Rooted tree node: a vertex bitset label plus child subtrees."""

    __slots__ = ("label", "children", "_code")

    def __init__(self, label: int, children=()):
        children = tuple(children)
        if children:
            union = 0
            for c in children:
                union |= c.label
            if union != label:
                raise InputError("internal label must be the union of child labels")
        elif label.bit_count() != 1:
            raise InputError("leaves must be single vertices")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_code", None)

    def __setattr__(self, *_):
        raise AttributeError("AssemblyTree is immutable")

    @staticmethod
    def leaf(v: int) -> "AssemblyTree":
        return AssemblyTree(1 << v)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def min_vertex(self) -> int:
        return (self.label & -self.label).bit_length() - 1

    def canonical_code(self) -> bytes:
        """Byte string equal for two trees iff they are label-preserving
        isomorphic; children sort by (min vertex, label, code)."""
        code = object.__getattribute__(self, "_code")
        if code is None:
            if self.is_leaf:
                code = b"%d" % self.min_vertex
            else:
                keyed = sorted(
                    (c.min_vertex, c.label, c.canonical_code()) for c in self.children
                )
                code = b"(" + b",".join(k[2] for k in keyed) + b")"
            object.__setattr__(self, "_code", code)
        return code

    def __eq__(self, other) -> bool:
        return isinstance(other, AssemblyTree) and self.canonical_code() == other.canonical_code()

    def __hash__(self) -> int:
        return hash(self.canonical_code())

    def __repr__(self) -> str:
        return f"AssemblyTree({self.canonical_code().decode()})"


CanonicalCode = bytes


def _twin_layout(g: Graph) -> tuple[tuple[int, ...], int, list[tuple[int, int]]]:
    """Relabel g so that its twin classes are contiguous bit blocks.

    True twins have equal closed neighbourhoods, false twins equal open
    ones; a vertex with a true twin has no false twin, so the two
    relations never mix. One-vertex classes keep their order in the low
    `ns` bits; every larger class follows as a block (offset, size), in
    order of its lowest vertex. Returns (adjacency, ns, blocks).
    """
    closed: dict[int, list[int]] = {}
    open_: dict[int, list[int]] = {}
    for v, nb in enumerate(g.adj):
        closed.setdefault(nb | 1 << v, []).append(v)
        open_.setdefault(nb, []).append(v)
    singles: list[int] = []
    classes: list[list[int]] = []
    for v, nb in enumerate(g.adj):
        cls = closed[nb | 1 << v]
        if len(cls) == 1:
            cls = open_[nb]
        if cls[0] != v:
            continue  # placed with its lowest member
        if len(cls) == 1:
            singles.append(v)
        else:
            classes.append(cls)
    perm = [0] * g.n
    for i, v in enumerate(singles + [v for cls in classes for v in cls]):
        perm[v] = i
    blocks = []
    offset = len(singles)
    for cls in classes:
        blocks.append((offset, len(cls)))
        offset += len(cls)
    return relabel(g, perm).adj, len(singles), blocks


def _block_splits(blocks, ms, anchored: bool) -> list[tuple[int, int, int]]:
    """(weight, part, other) for every choice of j_i twins from each block.

    A state holds the lowest ms[i] bits of block i; the part takes the
    lowest j_i of them and the other part the lowest ms[i] - j_i, with weight
    prod C(ms[i], j_i). When `anchored`, the part holds the state's lowest
    vertex, which lies in the first nonempty block: its j runs from 1 with
    weight C(m - 1, j - 1).
    """
    out = [(1, 0, 0)]
    for (offset, _), m in zip(blocks, ms):
        if not m:
            continue
        lo = 1 if anchored else 0
        anchored = False
        out = [
            (w * comb(m - lo, j - lo), part | ((1 << j) - 1) << offset,
             other | ((1 << (m - j)) - 1) << offset)
            for w, part, other in out
            for j in range(lo, m + 1)
        ]
    return out


def _count_trees(g: Graph, connected_rule: bool, what: str) -> int:
    """Assembly trees of g under either rule, by one convolution over the
    twin quotient.

    A state is a vertex set that holds the lowest m_i vertices of each twin
    block i, so a blow-up has prod(k_i + 1) states; one-vertex classes
    split by plain submasks, blocks by multiplicity with binomial weights
    w. Each split s of a state u holds u's lowest vertex (the anchor), so
    every unordered split is visited once: conv(u, X) = sum w·a(s)·X(u - s)
    over anchored s != u, and a(u) = conv(u, X), or 0 when u is
    disconnected. The edge rule takes X = a; the connected rule takes
    X = P, the weighted count of partitions into connected parts,
    P(u) = a(u) + conv(u, P).
    """
    _check_countable(g, what)
    adj, ns, blocks = _twin_layout(g)
    cap = min(SUBSET_CAP, CONNECTED_SUBSET_CAP) if connected_rule else SUBSET_CAP
    # C(k + 2, 2) <= 3^k, so no estimate exceeds 3^n and a cap of n or more
    # admits every graph without raising 3 to a huge power
    estimate = 3**ns * prod(comb(k + 2, 2) for _, k in blocks)
    if cap < g.n and estimate > 3**cap:
        # the estimate can have thousands of digits: report its exponent
        raise CapExceeded(
            f"{what}: {g.n} vertices in {ns + len(blocks)} twin classes need about "
            f"3^{log(estimate, 3):.1f} splits, over the cap 3^{cap}"
        )
    width = 1 << ns
    a: dict[int, list[int]] = {}  # block part -> row indexed by single-vertex bits
    x = {} if connected_rule else a
    # the last block varies slowest, so every sub-state comes first
    for rev in product(*(range(k + 1) for _, k in reversed(blocks))):
        ms = rev[::-1]
        base = sum(((1 << m) - 1) << off for (off, _), m in zip(blocks, ms))
        splits = _block_splits(blocks, ms, False)
        a[base] = arow = [0] * width
        xrow = x[base] = [0] * width if connected_rule else arow
        for free in range(width):
            u = base | free
            if not u:
                continue
            conn = _connected_mask(adj, u)
            if not (conn or connected_rule):
                continue
            if free:
                low = free & -free
                rest = free ^ low
                parts = splits
            else:
                low = rest = 0
                parts = _block_splits(blocks, ms, True)
            # the one split with an empty rest has part u, whose entry is
            # not written yet, and the empty state is never written: it adds 0
            total = 0
            for w, part, other in parts:
                ap = a[part]
                xo = x[other]
                acc = 0
                t = rest
                while True:
                    y = ap[low | t]
                    if y:
                        acc += y * xo[rest ^ t]
                    if not t:
                        break
                    t = (t - 1) & rest
                total += w * acc
            val = 1 if u & (u - 1) == 0 else total if conn else 0
            arow[free] = val
            if connected_rule:
                xrow[free] = val + total
    return arow[-1]  # the last state is the whole graph


def count_edge_rule(g: Graph) -> int:
    """Number of distinct edge-rule assembly trees: a(U) sums
    a(S)·a(U\\S) over the splits of U, which are crossed by an edge exactly
    when U is connected."""
    return _count_trees(g, False, "count_edge_rule")


def _anchored_parts(mask: int):
    """Yield every submask of `mask` that holds its lowest vertex, from
    `mask` itself down to that vertex alone."""
    low = mask & -mask
    rest = mask ^ low
    t = rest
    while True:
        yield low | t
        if not t:
            return
        t = (t - 1) & rest


def _trees_by_subset(g: Graph, connected_rule: bool) -> dict[int, list[AssemblyTree]]:
    """Explicit trees of every vertex set under either rule: the counting
    core's recurrence, run on trees instead of numbers.

    A tree of a connected set u with two or more vertices joins a tree of
    an anchored part s != u with one entry of X(u - s). The edge rule takes
    X = the trees of u - s, the connected rule X = the forests of u - s
    into connected parts, F(u) = the trees of u as one-part forests plus
    the joins above. A disconnected set has no trees. Every submask is a
    smaller number, so one ascending pass fills both tables.
    """
    trees: dict[int, list[AssemblyTree]] = {}
    x: dict[int, list[tuple[AssemblyTree, ...]]] = {}
    for u in range(1, g.full_mask + 1):
        conn = _connected_mask(g.adj, u)
        if u & (u - 1) == 0:
            joins = []
            trees[u] = [AssemblyTree(u)]
        elif conn or connected_rule:
            # each part holds u's lowest vertex, so each split appears once
            joins = [
                (t,) + f
                for s in _anchored_parts(u)
                if s != u
                for t in trees[s]
                for f in x[u ^ s]
            ]
            trees[u] = [AssemblyTree(u, c) for c in joins] if conn else []
        else:
            joins = trees[u] = []
        x[u] = [(t,) for t in trees[u]] + (joins if connected_rule else [])
    return trees


def enumerate_edge_rule_trees(g: Graph) -> tuple[AssemblyTree, ...]:
    """All distinct edge-rule assembly trees as explicit objects."""
    _check_enumerable(g, "enumerate_edge_rule")
    return tuple(_trees_by_subset(g, False)[g.full_mask])


def enumerate_edge_rule(g: Graph) -> set[CanonicalCode]:
    """Canonical codes of all distinct edge-rule assembly trees."""
    return {t.canonical_code() for t in enumerate_edge_rule_trees(g)}


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def spanning_trees(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """All spanning trees as sorted edge tuples (small graphs only)."""
    if g.n == 0:
        return []
    edges = g.edges()
    if g.n == 1:
        return [()]
    out = []
    for subset in combinations(edges, g.n - 1):
        parent = list(range(g.n))
        for u, v in subset:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                break
            parent[ru] = rv
        else:
            out.append(subset)
    return out


def gluing_sequence_tree(g: Graph, sequence) -> AssemblyTree:
    """Assembly tree induced bottom-up by an edge ordering of a spanning tree.

    Components start as leaves; each edge (u, v) in order joins the two
    components currently containing u and v under a new internal node.
    """
    parent = list(range(g.n))
    node: list[AssemblyTree] = [AssemblyTree.leaf(v) for v in range(g.n)]
    for u, v in sequence:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            raise InputError("gluing sequence edge joins an already-joined component")
        merged = AssemblyTree(node[ru].label | node[rv].label, (node[ru], node[rv]))
        parent[ru] = rv
        node[rv] = merged
    root = node[_find(parent, 0)]
    if root.label != g.full_mask:
        raise InputError("gluing sequence does not span the graph")
    return root


def trees_from_gluing_sequences(g: Graph) -> set[CanonicalCode]:
    """Deduplicated assembly trees from every edge ordering of every
    spanning tree; independently reproduces enumerate_edge_rule."""
    _check_enumerable(g, "trees_from_gluing_sequences")
    seen: set[CanonicalCode] = set()
    for tree_edges in spanning_trees(g):
        for order in permutations(tree_edges):
            seen.add(gluing_sequence_tree(g, order).canonical_code())
    return seen


def enumerate_connected_rule_trees(g: Graph) -> tuple[AssemblyTree, ...]:
    """All distinct connected-rule assembly trees (children partition the
    parent label; each part induces a connected subgraph)."""
    _check_enumerable(g, "enumerate_connected_rule")
    return tuple(_trees_by_subset(g, True)[g.full_mask])


def enumerate_connected_rule(g: Graph) -> set[CanonicalCode]:
    return {t.canonical_code() for t in enumerate_connected_rule_trees(g)}


def count_connected_rule(g: Graph) -> int:
    """Number of distinct connected-rule assembly trees: a(U) sums
    a(S)·P(U\\S) over connected parts S holding U's lowest vertex, where P
    counts the partitions of the rest into connected parts, weighted by
    their trees."""
    return _count_trees(g, True, "count_connected_rule")


def closed_form(family_name: str, n: int) -> int:
    """Exact closed-form tree counts for the solved families.

    star: n!; star2: sum_k C(n,k)(2n-k)!/2^(n-k); path: C(2n-2,n-1)/n;
    cycle: C(2n-2,n-1)/2; complete: (2n-2)!/(2^(n-1)(n-1)!).
    """
    if not isinstance(n, int) or n < 1:
        raise InputError("closed_form needs n >= 1")
    if family_name == "star":
        return factorial(n)
    if family_name == "star2":
        total = 0
        for k in range(n + 1):
            f = factorial(2 * n - k)
            p = 1 << (n - k)
            assert f % p == 0
            total += comb(n, k) * (f // p)
        return total
    if family_name == "path":
        c = comb(2 * n - 2, n - 1)
        assert c % n == 0
        return c // n
    if family_name == "cycle":
        if n < 3:
            raise InputError("cycle closed form needs n >= 3")
        c = comb(2 * n - 2, n - 1)
        assert c % 2 == 0
        return c // 2
    if family_name == "complete":
        d = (1 << (n - 1)) * factorial(n - 1)
        f = factorial(2 * n - 2)
        assert f % d == 0
        return f // d
    raise InputError(f"no closed form for family {family_name!r}")
