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
subset-DP convolution, explicit recursive enumeration of canonical trees,
and bottom-up construction from every edge ordering of every spanning
tree. Trees compare equal exactly when there is a label-preserving
isomorphism; canonical codes realize that equality as byte strings.
"""

from __future__ import annotations

import os
from itertools import combinations, permutations, product
from math import comb, factorial

from .errors import CapExceeded, ComputationRefused, DisconnectedGraph, InputError
from .graphs import Graph, _connected_mask

SMALL_ENUM_CAP = 9
DEFAULT_SUBSET_CAP = 24
_CAP_ENV = "ASMTREE_MAX_SUBSET_BITS"


def subset_cap() -> int:
    """Current subset-DP vertex cap; overridable via ASMTREE_MAX_SUBSET_BITS."""
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_SUBSET_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{_CAP_ENV} must be an integer, got {raw!r}") from exc


def _check_countable(g: Graph, cap: int, what: str) -> None:
    if g.n == 0:
        raise ComputationRefused(f"{what}: empty graph has no assembly trees")
    if g.n > cap:
        raise CapExceeded(f"{what}: {g.n} vertices exceeds the cap of {cap}")
    if not g.is_connected():
        raise DisconnectedGraph(f"{what}: graph is not connected")


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


def count_edge_rule(g: Graph) -> int:
    """Number of distinct edge-rule assembly trees, by exact subset DP.

    a(U) = 1 for singletons, 0 for disconnected induced subgraphs, and
    otherwise half the sum of a(S)·a(U\\S) over ordered proper splits; the
    disconnected short-circuit makes the crossing-edge test implicit. The
    ordered sum is always even (splits come in swapped pairs), which is
    asserted as a recursion health check.
    """
    _check_countable(g, subset_cap(), "count_edge_rule")
    adj = g.adj
    memo: dict[int, int] = {}

    def a(u: int) -> int:
        got = memo.get(u)
        if got is not None:
            return got
        if u & (u - 1) == 0:
            memo[u] = 1
            return 1
        if not _connected_mask(adj, u):
            memo[u] = 0
            return 0
        total = 0
        s = (u - 1) & u
        while s:
            x = a(s)
            if x:
                y = a(u ^ s)
                if y:
                    total += x * y
            s = (s - 1) & u
        assert total % 2 == 0, "ordered split sum must be even"
        val = total // 2
        memo[u] = val
        return val

    count = a(g.full_mask)
    del a  # breaks the a -> closure -> a cycle, so the memo is freed now
    return count


def _edge_trees_by_subset(g: Graph) -> dict[int, tuple[AssemblyTree, ...]]:
    adj = g.adj
    memo: dict[int, tuple[AssemblyTree, ...]] = {}

    def trees(u: int) -> tuple[AssemblyTree, ...]:
        got = memo.get(u)
        if got is not None:
            return got
        if u & (u - 1) == 0:
            out: tuple[AssemblyTree, ...] = (AssemblyTree(u),)
        elif not _connected_mask(adj, u):
            out = ()
        else:
            acc = []
            low = u & -u
            rest = u ^ low
            s = rest
            # s runs over submasks of rest, so S = low|s holds the lowest
            # vertex and each unordered split appears exactly once
            while True:
                part = low | s
                if part != u:
                    other = u ^ part
                    for t1 in trees(part):
                        for t2 in trees(other):
                            acc.append(AssemblyTree(u, (t1, t2)))
                if s == 0:
                    break
                s = (s - 1) & rest
            out = tuple(acc)
        memo[u] = out
        return out

    trees(g.full_mask)
    del trees  # breaks the trees -> closure -> trees cycle; the caller owns memo
    return memo


def enumerate_edge_rule_trees(g: Graph, cap: int = SMALL_ENUM_CAP) -> tuple[AssemblyTree, ...]:
    """All distinct edge-rule assembly trees as explicit objects."""
    _check_countable(g, cap, "enumerate_edge_rule")
    return _edge_trees_by_subset(g)[g.full_mask]


def enumerate_edge_rule(g: Graph, cap: int = SMALL_ENUM_CAP) -> set[CanonicalCode]:
    """Canonical codes of all distinct edge-rule assembly trees."""
    return {t.canonical_code() for t in enumerate_edge_rule_trees(g, cap)}


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

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            out.append(subset)
    return out


def gluing_sequence_tree(g: Graph, sequence) -> AssemblyTree:
    """Assembly tree induced bottom-up by an edge ordering of a spanning tree.

    Components start as leaves; each edge (u, v) in order joins the two
    components currently containing u and v under a new internal node.
    """
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    node: list[AssemblyTree] = [AssemblyTree.leaf(v) for v in range(g.n)]
    for u, v in sequence:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise InputError("gluing sequence edge joins an already-joined component")
        merged = AssemblyTree(node[ru].label | node[rv].label, (node[ru], node[rv]))
        parent[ru] = rv
        node[rv] = merged
    root = node[find(0)]
    if root.label != g.full_mask:
        raise InputError("gluing sequence does not span the graph")
    return root


def trees_from_gluing_sequences(g: Graph, cap: int = SMALL_ENUM_CAP) -> set[CanonicalCode]:
    """Deduplicated assembly trees from every edge ordering of every
    spanning tree; independently reproduces enumerate_edge_rule."""
    _check_countable(g, cap, "trees_from_gluing_sequences")
    seen: set[CanonicalCode] = set()
    for tree_edges in spanning_trees(g):
        for order in permutations(tree_edges):
            seen.add(gluing_sequence_tree(g, order).canonical_code())
    return seen


def _connected_parts_partitions(adj, mask: int):
    """Yield partitions of `mask` into connected parts, lowest-vertex part
    first (so parts arrive sorted by their minimum vertex)."""
    if mask == 0:
        yield ()
        return
    low = mask & -mask
    rest = mask ^ low
    s = rest
    while True:
        part = low | s
        if _connected_mask(adj, part):
            for others in _connected_parts_partitions(adj, mask ^ part):
                yield (part,) + others
        if s == 0:
            break
        s = (s - 1) & rest


def _connected_trees_by_subset(g: Graph) -> dict[int, tuple[AssemblyTree, ...]]:
    adj = g.adj
    memo: dict[int, tuple[AssemblyTree, ...]] = {}

    def trees(u: int) -> tuple[AssemblyTree, ...]:
        got = memo.get(u)
        if got is not None:
            return got
        if u & (u - 1) == 0:
            out: tuple[AssemblyTree, ...] = (AssemblyTree(u),)
        else:
            acc = []
            for parts in _connected_parts_partitions(adj, u):
                if len(parts) < 2:
                    continue
                for combo in product(*(trees(p) for p in parts)):
                    acc.append(AssemblyTree(u, combo))
            out = tuple(acc)
        memo[u] = out
        return out

    trees(g.full_mask)
    del trees  # breaks the trees -> closure -> trees cycle; the caller owns memo
    return memo


def enumerate_connected_rule_trees(g: Graph, cap: int = SMALL_ENUM_CAP) -> tuple[AssemblyTree, ...]:
    """All distinct connected-rule assembly trees (children partition the
    parent label; each part induces a connected subgraph)."""
    _check_countable(g, cap, "enumerate_connected_rule")
    return _connected_trees_by_subset(g)[g.full_mask]


def enumerate_connected_rule(g: Graph, cap: int = SMALL_ENUM_CAP) -> set[CanonicalCode]:
    return {t.canonical_code() for t in enumerate_connected_rule_trees(g, cap)}


def count_connected_rule(g: Graph, cap: int = SMALL_ENUM_CAP) -> int:
    """Number of distinct connected-rule assembly trees, by canonical
    enumeration over set partitions into connected parts."""
    return len(enumerate_connected_rule(g, cap))


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
