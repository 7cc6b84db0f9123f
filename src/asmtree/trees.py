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
of a connected part s of u with a forest of u - s: one tree (edge rule), or
a tree of each part of a partition into connected parts (connected rule).
Every split is anchored at the lowest vertex of the set it splits, so each
unordered split is visited once. Only connected sets have trees, so the
walk grows connected sets only, and their parts by MinCut branching, which
visits only the splits the rule can use. One loop runs it on counts and on
lists of explicit forests. The counts run on the twin layout: twins
(vertices with equal open or equal closed neighbourhoods) are
interchangeable, so each class is a block of consecutive vertices, and a
state holds the lowest vertices of each block. They also run on orbits: an
automorphism of the twin quotient that keeps each class's size and twin
type, lifted so that twin j of a block goes to twin j of its image, maps
each state to a state with the same count. The gluing route stays
independent of anchored splits: it joins the trees of the two sides of the
last edge of each spanning tree, memoised on subtrees. The work budget of
every route, errors.WORK_BUDGET units of one step each here, bounds all
three: each call charges a Meter as it goes, which raises CapExceeded at
the charge that passes it.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, chain, combinations
from math import comb, factorial
from operator import mul

from . import errors
from .errors import CapExceeded, ComputationRefused, DisconnectedGraph, InputError, Meter
from .graphs import Graph, _component, _components, _neighbours, relabel
from .rationals import is_int
from .symmetry import fill_orbit, layout_automorphisms

# A unit of tree work is one count that a split multiplies (more for counts
# of many words or on many twin classes, see _count_trees), one cell
# examined in the search for generators (more on many vertices, as are
# their tables and applications, see symmetry), one tree or forest
# enumerated, one edge subset or a quarter of a gluing join, metered as it
# goes, at one step per unit. CPython 3.11 on a 2-vCPU machine runs
# 0.3-1 million units per second (1-3.5 us each), so refusals take 1-3 s.


def _check_countable(g: Graph, what: str) -> None:
    if g.n == 0:
        raise ComputationRefused(f"{what}: empty graph has no assembly trees")
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
                if not isinstance(c, AssemblyTree) or union & c.label:
                    raise InputError("children must be pairwise disjoint assembly trees")
                union |= c.label
            if len(children) < 2 or union != label or not is_int(label):
                raise InputError("internal label must be the integer union of 2+ child labels")
        elif not is_int(label) or label <= 0 or label & label - 1:
            raise InputError("leaves must be single vertices")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_code", None)

    def __setattr__(self, *_):
        raise AttributeError("AssemblyTree is immutable")

    @staticmethod
    def leaf(v: int) -> "AssemblyTree":
        if not is_int(v) or v < 0:
            raise InputError(f"a leaf needs a vertex >= 0, got {v!r}")
        return AssemblyTree(1 << v)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def min_vertex(self) -> int:
        return (self.label & -self.label).bit_length() - 1

    def canonical_code(self) -> bytes:
        """Byte string equal for two trees iff they are label-preserving
        isomorphic; children are disjoint and sort by their min vertex."""
        code = self._code
        if code is None:
            if self.children:  # the lowest bit orders as the min vertex does
                ordered = sorted(self.children, key=lambda c: c.label & -c.label)
                code = b"(" + b",".join([c.canonical_code() for c in ordered]) + b")"
            else:
                code = b"%d" % self.min_vertex
            object.__setattr__(self, "_code", code)
        return code

    def __eq__(self, other) -> bool:
        return isinstance(other, AssemblyTree) and self.canonical_code() == other.canonical_code()

    def __hash__(self) -> int:
        return hash(self.canonical_code())

    def __repr__(self) -> str:
        return f"AssemblyTree({self.canonical_code().decode()})"


CanonicalCode = bytes


def _twin_layout(g: Graph) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """Relabel g so that its twin classes are contiguous bit blocks.

    True twins have equal closed neighbourhoods, false twins equal open
    ones; a vertex with a true twin has no false twin, so the two
    relations never mix. One-vertex classes keep their order in the low
    bits; every larger class follows as a block (offset, size), in order
    of its lowest vertex. Returns (adjacency, blocks).
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
    sizes = [len(cls) for cls in classes]
    blocks = list(zip(accumulate(sizes, initial=len(singles)), sizes))
    perm = [0] * g.n
    for i, v in enumerate(singles + [v for cls in classes for v in cls]):
        perm[v] = i
    return (g if perm == sorted(perm) else relabel(g, perm)).adj, blocks


def _grow(adj, anchor: int, whole: int, later: int, cut: bool):
    """Yield (1, part, rest), a split of weight 1, for every connected part
    of `whole` that holds `anchor` and leaves a nonempty rest, a connected
    one if `cut`. No part holds a bit of `later` without the bit below it.

    Binary branching as in MinCutBranch (Fender and Moerkotte, ICDE 2011):
    a part grows by one neighbour x at a time and the branches after it ban
    x, so each part is reached once. Under `cut`, when taking x splits the
    rest, one branch per component that may stay absorbs the others.
    """
    stack = [(0, whole, 0, anchor)]  # the anchor is the first neighbour
    while stack:
        part, rest, banned, nb = stack.pop()
        if part:
            yield 1, part, rest
        grow = nb & rest & ~banned & ~(later & ~(part << 1))
        while grow:
            x = grow & -grow
            grow ^= x
            left = rest ^ x
            reach = adj[x.bit_length() - 1]
            # each component of the rest holds one of these, so one is enough
            touch = reach & left
            if left and (not cut or not touch & touch - 1
                         or _component(adj, left, touch) & touch == touch):
                stack.append((part | x, left, banned, nb | reach))
            elif left:
                for c in _components(adj, left):
                    grown = part | x | left ^ c
                    # a banned vertex stays in the rest; a later twin without
                    # the one below it is skipped, as its mirror split is visited
                    if not (banned & ~c or grown & later & ~(grown << 1)):
                        stack.append((grown, c, banned, nb | reach | _neighbours(adj, left ^ c)))
            banned |= x


def _splits(adj, u: int, blocks, later: int, cut: bool, cache: dict):
    """The (weight, part, rest) anchored splits of state u, found on its
    shape: the first two twins of each class in u. A class with its first
    twin in the part and its second in the rest is shared: j = 1..m-1 of
    its m twins go to the part, with weight C(m, j), or C(m - 1, j - 1) on
    the anchor's class. Splits are cached per shape only when the shape is
    smaller than u, or the cache would hold every split of a twin-free graph.
    """
    anchor = u & -u
    shape = u
    shared = []
    for o, k in blocks:
        m = (u >> o & (1 << k) - 1).bit_count()
        if m > 1:
            shape ^= (1 << m) - 4 << o
            lo = 1 << o == anchor
            ways = [(comb(m - lo, j - lo), (1 << j) - 1 << o, (1 << m - j) - 1 << o)
                    for j in range(1, m)]
            shared.append((1 << o, (1 << m) - 1 << o, ways))
    if shape != u and shape not in cache:
        cache[shape] = list(_grow(adj, anchor, shape, later, cut))
    splits = cache[shape] if shape != u else _grow(adj, anchor, u, later, cut)
    return (x for _, p, r in splits for x in _share(p, r, shared)) if shared else splits


def _share(part: int, rest: int, shared) -> list[tuple[int, int, int]]:
    out = [(1, part, rest)]
    for first, full, ways in shared:
        if part & first << 1 or not part & first:  # the class is on one side
            out = [(w, p | full, r) if part & first else (w, p, r | full) for w, p, r in out]
        else:
            out = [(w * c, p ^ first | x, r ^ first << 1 | y)
                   for w, p, r in out for c, x, y in ways]
    return out


def _walk(adj, blocks, cut: bool, done=()):
    """Yield (u, splits) for every connected state u not in `done`, after
    its sub-states. A state holds the lowest m_i twins of each block i:
    `later` masks every twin but the first of its block, and a later twin
    joins only after the one below it. The states with lowest vertex v are
    the parts that _grow yields from v over the vertices above it, then
    those vertices all together when they are connected. v runs from the
    top down, and _grow yields a part after its sub-parts (a branch that
    bans what an earlier one takes runs first), so nothing is sorted or
    held. The splits of a state in `done` are never built."""
    later = sum((1 << k) - 2 << o for o, k in blocks)
    cache: dict[int, list] = {}
    for v in reversed(range(len(adj))):
        if later >> v & 1:
            continue
        above = (1 << len(adj)) - (1 << v)
        whole = [above] if _component(adj, above, above) == above else []
        for u in chain((p for _, p, _ in _grow(adj, 1 << v, above, later, False)), whole):
            if u not in done:
                yield u, _splits(adj, u, blocks, later, cut, cache)


def _assemble(adj, blocks, cut: bool, one, join, tree, gens=(), meter=None) -> dict:
    """The recurrence on values closed under `+`, with the empty product `one`
    and the product `join`. T(u) = tree(u, joins, count), a hook that charges
    the meter; joins sums w·join(T(s), F(r)) over the splits of _walk, and
    count is the values they multiplied. F is T under the edge rule (`cut`).
    Under the connected rule F(u) = T(u) + joins, and F of a disconnected
    rest, the join of F over its components, is stored when first needed. A
    part or rest missing from T or F has none. The states of u's orbit under
    `gens` take its values (symmetry.fill_orbit); the walk skips them."""
    T: dict = {}
    F = T if cut else {}
    zero = 0 * one  # no value: 0, or no forests
    for u, splits in _walk(adj, blocks, cut, T):
        joins, count = 0 * one, 0  # a fresh zero, as += extends a list in place
        for w, s, r in splits:
            if not cut and r not in F:  # a disconnected rest
                cs = [F.get(c, one) for c in _components(adj, r)]  # a lone twin: one forest
                F[r] = reduce(join, cs)
                count += len(cs)
            joins += w * join(T.get(s, zero), F.get(r, zero))
            count += 2
        T[u] = t = tree(u, joins, count)
        if not cut:
            F[u] = t + joins
        if gens:
            for v in fill_orbit(gens, u, T, meter):
                F[v] = F[u]
    return T


def _count_trees(g: Graph, connected_rule: bool, what: str) -> dict[int, int]:
    """Assembly trees a of g under either rule, by _assemble on the connected
    states of the twin layout (the connected sets that hold the lowest m_i
    vertices of each twin block i); an absent, disconnected state reads as
    0, and under the connected rule F(c) = a(c) + conv(c, F) = 2·a(c), or 1
    on one vertex. Generators of the automorphisms of the twin quotient,
    lifted to the layout (symmetry.layout_automorphisms), give each count
    to its orbit. The meter is the only guard: symmetry charges the search,
    the tables and each orbit as it goes, and each state here its counts.
    Returns a, keyed by the states of the twin layout, which keeps the
    labels of g when its twin classes are contiguous blocks."""
    _check_countable(g, what)
    adj, blocks = _twin_layout(g)
    classes = g.n - sum(k - 1 for _, k in blocks)
    meter = Meter(f"{what}: {g.n} vertices in {classes} twin classes need")

    def tree(u: int, total: int, count: int) -> int:
        total = total if u & u - 1 else 1
        # a unit is one count multiplied, or one word of a stored state; a
        # count of w words costs w^2/1024 more (the total bounds w), as
        # big-integer products dominate there, and one more per 256 twin
        # classes, as the splits of a wide quotient handle wide masks
        meter.charge((count + 1) * (1 + (classes >> 8) + (total.bit_length() >> 6) ** 2 // 1024)
                     + (u.bit_length() >> 6))
        return total

    gens = layout_automorphisms(adj, blocks, meter)
    return _assemble(adj, blocks, not connected_rule, 1, mul, tree, gens, meter)


def count_edge_rule(g: Graph) -> int:
    """Number of distinct edge-rule assembly trees: a(U) sums
    a(S)·a(U\\S) over the splits of U, which are crossed by an edge exactly
    when U is connected."""
    return _count_trees(g, False, "count_edge_rule")[g.full_mask]


def _trees_by_subset(g: Graph, connected_rule: bool) -> dict[int, list[tuple[AssemblyTree]]]:
    """Explicit trees of every connected vertex set under either rule, each
    as its one-part forest, by _assemble on the plain graph and on lists of
    forests, where a join concatenates a forest of each side. Each forest
    charges the meter a unit before it is built, and each tree with its
    one-part forest one more; a leaf, built from no join, costs two."""
    meter = Meter(f"enumerate_{('edge', 'connected')[connected_rule]}_rule: {g.n} vertices need")

    def join(fs: list, hs: list) -> list:
        meter.charge(len(fs) * len(hs))
        return [f + h for f in fs for h in hs]

    def tree(u: int, joins: list, _) -> list:
        meter.charge(len(joins) or 2)  # a leaf is built from no join: the empty forest
        return [(AssemblyTree(u, j),) for j in joins or [()]]

    return _assemble(g.adj, (), not connected_rule, [()], join, tree)


def enumerate_edge_rule_trees(g: Graph) -> tuple[AssemblyTree, ...]:
    """All distinct edge-rule assembly trees as explicit objects."""
    _check_countable(g, "enumerate_edge_rule")
    return tuple(t for t, in _trees_by_subset(g, False)[g.full_mask])


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
    """All spanning trees as sorted edge tuples, from every (n-1)-subset of
    the edges; refused when there are more subsets than the work budget."""
    if g.n == 0:
        return []
    edges = g.edges()
    if g.n == 1:
        return [()]
    if comb(len(edges), g.n - 1) > errors.WORK_BUDGET:
        raise CapExceeded(f"spanning_trees: {g.n} vertices need C({len(edges)}, {g.n - 1}) "
                          f"edge subsets, over the cap {errors.WORK_BUDGET:.2g}")
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
    for e in sequence:
        u, v = e if isinstance(e, tuple | list) and len(e) == 2 else (-1, -1)
        if not (is_int(u) and is_int(v) and 0 <= u < g.n and 0 <= v < g.n and g.adj[u] >> v & 1):
            raise InputError(f"gluing sequence item {e!r} is not an edge of the graph")
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
    spanning tree; independently reproduces enumerate_edge_rule.

    The last edge e of an ordering of a tree T joins the trees of the two
    components T1, T2 of T - e, and any orderings of T1 and T2 interleave
    before e, so the trees of T are the joins trees(T1) x trees(T2) over
    the edges e of T. Spanning trees share subtrees, so the trees of each
    are memoised on its edge set. A join charges the meter 4 units before
    it is built; a tree of k edges has at least 2^(k-1) trees, so a
    graph on n vertices is refused before any join when 4·2^(n-2) units
    exceed the budget.
    """
    what = "trees_from_gluing_sequences"
    _check_countable(g, what)
    need = f"{what}: {g.n} vertices need"
    if g.n > 1 and 4 << g.n - 2 > errors.WORK_BUDGET:
        raise CapExceeded(
            f"{need} 4·2^{g.n - 2} units of work, over the cap {errors.WORK_BUDGET:.2g}")
    bit = {e: 1 << i for i, e in enumerate(g.edges())}
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for (u, v), b in bit.items():
        incident[u].append((b, v))
        incident[v].append((b, u))
    leaves = [AssemblyTree.leaf(v) for v in range(g.n)]
    memo: dict[int, list[AssemblyTree]] = {}
    meter = Meter(need)

    def joined(mask: int, root: int):
        """Yield the trees of the tree with edge set `mask` that holds `root`."""
        if not mask:
            yield leaves[root]
            return
        order, up, parent = [root], {root: 0}, {}  # up: the edge to the parent
        for v in order:
            for b, w in incident[v]:
                if mask & b and w not in up:
                    up[w], parent[w] = b, v
                    order.append(w)
        below = dict.fromkeys(order, 0)  # the edges under each vertex
        for v in reversed(order[1:]):
            below[parent[v]] |= below[v] | up[v]
        label = sum(1 << v for v in order)
        for v in order[1:]:  # e = up[v]; T1 holds v, T2 the root
            t1s = glue(below[v], v)
            t2s = glue(mask ^ up[v] ^ below[v], root)
            meter.charge(4 * len(t1s) * len(t2s))
            for t1 in t1s:
                for t2 in t2s:
                    yield AssemblyTree(label, (t1, t2))

    def glue(mask: int, root: int) -> list[AssemblyTree]:
        if not mask:
            return [leaves[root]]
        if mask not in memo:
            memo[mask] = list(joined(mask, root))
        return memo[mask]

    # a spanning tree is no other tree's subtree: stream its trees, unmemoised
    return {t.canonical_code() for st in spanning_trees(g)
            for t in joined(sum(bit[e] for e in st), 0)}


def enumerate_connected_rule_trees(g: Graph) -> tuple[AssemblyTree, ...]:
    """All distinct connected-rule assembly trees (children partition the
    parent label; each part induces a connected subgraph)."""
    _check_countable(g, "enumerate_connected_rule")
    return tuple(t for t, in _trees_by_subset(g, True)[g.full_mask])


def enumerate_connected_rule(g: Graph) -> set[CanonicalCode]:
    return {t.canonical_code() for t in enumerate_connected_rule_trees(g)}


def count_connected_rule(g: Graph) -> int:
    """Number of distinct connected-rule assembly trees: a(U) sums
    a(S)·P(U\\S) over connected parts S holding U's lowest vertex, where P
    counts the partitions of the rest into connected parts, weighted by
    their trees."""
    return _count_trees(g, True, "count_connected_rule")[g.full_mask]


def closed_form(family_name: str, n: int) -> int:
    """Exact closed-form tree counts for the solved families.

    star: n!; star2: sum_k C(n,k)(2n-k)!/2^(n-k); path: C(2n-2,n-1)/n;
    cycle: C(2n-2,n-1)/2; complete: (2n-2)!/(2^(n-1)(n-1)!).
    """
    if not is_int(n) or n < 1:
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
