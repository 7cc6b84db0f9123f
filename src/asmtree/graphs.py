"""Simple undirected graphs on vertices 0..n-1 with bitset adjacency.

Covers explicit edge lists, the named families (paths, cycles, stars,
double stars, complete and complete multipartite graphs, caterpillars),
and blown-up template graphs: each template vertex i carries a bit phi[i]
and a multiplicity n_i, and is replaced by a clique (phi=1) or an
independent set (phi=0) of n_i vertices, with complete joins along
template edges.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
from itertools import accumulate

from .errors import CapExceeded, InputError
from .rationals import is_int

FAMILY_NAMES = (
    "path",
    "cycle",
    "star",
    "star2",
    "complete",
    "complete_multipartite",
    "caterpillar",
)

# a Graph keeps one adjacency bitmask per vertex, and the builders list every
# edge first, so both counts are checked before anything is built
MAX_VERTICES = 1 << 14
MAX_EDGES = 10**6


def _check_size(n: int, m: int = 0) -> None:
    if n > MAX_VERTICES:
        raise CapExceeded(f"{n} vertices exceeds the cap of {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise CapExceeded(f"{m} edges exceeds the cap of {MAX_EDGES}")


def _neighbours(adj, mask: int) -> int:
    nb = 0
    while mask:
        low = mask & -mask
        nb |= adj[low.bit_length() - 1]
        mask ^= low
    return nb


def _mapped(perm, mask: int) -> int:
    """The image of a vertex mask under the vertex permutation perm."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _component(adj, mask: int, goal: int) -> int:
    """The component of the lowest vertex of `goal` in the graph that `mask`
    induces, grown only until it covers `goal`."""
    seen = frontier = goal & -goal
    while frontier and seen & goal != goal:
        frontier = _neighbours(adj, frontier) & mask & ~seen
        seen |= frontier
    return seen


def _components(adj, mask: int):
    while mask:
        yield (c := _component(adj, mask, mask))
        mask ^= c


def _connected_mask(adj, mask: int) -> bool:
    """True iff the induced subgraph on the bitset `mask` is connected."""
    return mask != 0 and _component(adj, mask, mask) == mask


class Graph:
    """Immutable simple graph; `adj[v]` is the neighbor bitset of v."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if not is_int(n) or n < 0:
            raise InputError(f"vertex count must be a non-negative integer, got {n!r}")
        _check_size(n)
        # a row of bytes per vertex: setting a bit of a wide int would copy it
        rows = [bytearray(n + 7 >> 3) for _ in range(n)]
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InputError(f"edge must be a pair, got {e!r}") from None
            if not (is_int(u) and is_int(v)):
                raise InputError(f"edge endpoints must be integers, got {e!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {e!r} out of range for n={n}")
            if u == v:
                raise InputError(f"loop edge at vertex {u}")
            rows[u][v >> 3] |= 1 << (v & 7)
            rows[v][u >> 3] |= 1 << (u & 7)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(int.from_bytes(r, "little") for r in rows))

    def __setattr__(self, *_):
        raise AttributeError("Graph is immutable")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            base = u + 1
            while m:
                v = base + (m & -m).bit_length() - 1
                m &= m - 1
                out.append((u, v))
        return out

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((a.bit_count() for a in self.adj), reverse=True))

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        return _connected_mask(self.adj, self.full_mask)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the vertex permutation old -> perm[old]."""
    perm = list(perm)
    if not all(map(is_int, perm)) or sorted(perm) != list(range(g.n)):
        raise InputError("relabel needs a permutation of 0..n-1")
    adj = [0] * g.n
    for v, nb in enumerate(g.adj):
        adj[perm[v]] = _mapped(perm, nb)
    h = object.__new__(Graph)
    object.__setattr__(h, "n", g.n)
    object.__setattr__(h, "adj", tuple(adj))
    return h


class HSpec:
    """A template graph with per-vertex bits and optional multiplicities.

    `base` is the template on N vertices, `phi` the N clique/independent
    bits, and `mult` the N multiplicities (may be None when only the
    generating function is wanted).
    """

    __slots__ = ("base", "phi", "mult")

    def __init__(self, base: Graph, phi, mult=None):
        phi = tuple(phi)
        if len(phi) != base.n:
            raise InputError(f"phi has length {len(phi)}, expected {base.n}")
        if any(not is_int(b) or b not in (0, 1) for b in phi):
            raise InputError("phi entries must be 0 or 1")
        if mult is not None:
            mult = tuple(mult)
            if len(mult) != base.n:
                raise InputError(f"mult has length {len(mult)}, expected {base.n}")
            if any(not is_int(m) or m < 0 for m in mult):
                raise InputError("mult entries must be non-negative integers")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "mult", mult)

    def __setattr__(self, *_):
        raise AttributeError("HSpec is immutable")

    def __repr__(self) -> str:
        return f"HSpec(base={self.base!r}, phi={self.phi}, mult={self.mult})"


def build_h_graph(spec: HSpec) -> Graph:
    """Blow up the template: block i holds spec.mult[i] vertices.

    Vertex (i, j) gets the linear index offset_i + j where offset_i is the
    total multiplicity of blocks before i (blocks are laid out in template
    vertex order). (i,j) ~ (i',j') iff i == i' and phi[i] == 1, or i != i'
    and {i,i'} is a template edge.
    """
    if spec.mult is None:
        raise InputError("build_h_graph needs multiplicities")
    base, phi, mult = spec.base, spec.phi, spec.mult
    *offsets, total = accumulate(mult, initial=0)
    pairs = base.edges()
    _check_size(
        total,
        sum(m * (m - 1) // 2 for m, bit in zip(mult, phi) if bit)
        + sum(mult[i] * mult[j] for i, j in pairs),
    )
    edges = [(offsets[i] + j, offsets[i] + k) for i in range(base.n) if phi[i]
             for j in range(mult[i]) for k in range(j + 1, mult[i])]
    edges += [(offsets[i] + j, offsets[i2] + k) for i, i2 in pairs
              for j in range(mult[i]) for k in range(mult[i2])]
    return Graph(total, edges)


def family(name: str, params) -> Graph:
    """Named family constructor; see FAMILY_NAMES for the accepted names."""
    params = list(params)
    if name not in FAMILY_NAMES:
        raise InputError(f"unknown family {name!r}")
    # complete_multipartite takes any positive number of parameters
    if name != "complete_multipartite" and len(params) != 1:
        raise InputError(f"family {name!r} takes 1 parameter(s), got {len(params)}")
    if any(not is_int(p) for p in params):
        raise InputError("family parameters must be integers")

    if name == "path":
        (n,) = params
        if n < 1:
            raise InputError("path needs n >= 1")
        _check_size(n, n - 1)
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if name == "cycle":
        (n,) = params
        if n < 3:
            raise InputError("cycle needs n >= 3")
        _check_size(n, n)
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if name == "star":
        (n,) = params
        if n < 1:
            raise InputError("star needs n >= 1 arms")
        _check_size(n + 1, n)
        return Graph(n + 1, [(0, i) for i in range(1, n + 1)])
    if name == "star2":
        # center 0; mid vertices 1..n (the center-mid edges); tips n+1..2n
        (n,) = params
        if n < 1:
            raise InputError("star2 needs n >= 1 arms")
        _check_size(2 * n + 1, 2 * n)
        edges = [(0, i) for i in range(1, n + 1)]
        edges += [(i, n + i) for i in range(1, n + 1)]
        return Graph(2 * n + 1, edges)
    if name == "complete":
        (n,) = params
        if n < 1:
            raise InputError("complete needs n >= 1")
        _check_size(n, n * (n - 1) // 2)
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if name == "complete_multipartite":
        if not params:
            raise InputError("complete_multipartite needs at least one part")
        if any(p < 0 for p in params):
            raise InputError("part sizes must be non-negative")
        base = family("complete", [len(params)]) if len(params) > 1 else Graph(1)
        return build_h_graph(HSpec(base, (0,) * len(params), params))
    if name == "caterpillar":
        # spine path 0..n-1, pendant leaf n+i hanging off spine vertex i
        (n,) = params
        if n < 1:
            raise InputError("caterpillar needs n >= 1")
        _check_size(2 * n, 2 * n - 1)
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [(i, n + i) for i in range(n)]
        return Graph(2 * n, edges)
    raise AssertionError("unreachable")


def is_connected_subset(g: Graph, subset: int) -> bool:
    """True iff the induced subgraph on the vertex bitset is connected.

    The empty set is not connected; singletons are.
    """
    if not is_int(subset) or subset < 0:
        raise InputError("subset must be a non-negative bitset integer")
    if subset >> g.n:
        raise InputError("subset contains vertices outside the graph")
    return _connected_mask(g.adj, subset)


# --- JSON wire formats ------------------------------------------------------
#
# Graphs:   {"n": int, "edges": [[u, v], ...]}
#           {"family": name, "params": [...]}
#           {"hgraph": {"H_edges": [[i, j], ...], "phi": [...], "mult": [...]}}
# Unknown keys are rejected. In the hgraph form "mult" is required when a
# concrete graph is built and optional when only the template is needed.


def _load_obj(data):
    if isinstance(data, (str, bytes)):
        # every admitted form has at most one "[" per edge plus a few, so a
        # text with more is refused before it is parsed
        brackets = data.count("[" if isinstance(data, str) else b"[")
        if brackets > MAX_EDGES + 8:
            raise CapExceeded(
                f"graph JSON has {brackets} '[' characters, more than the cap of "
                f"{MAX_EDGES} edges allows"
            )
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("graph JSON must be an object")
    return data


def _check_keys(obj, required, optional=frozenset(), what="graph"):
    keys = set(obj)
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise InputError(f"unknown {what} keys: {sorted(unknown)}")
    missing = set(required) - keys
    if missing:
        raise InputError(f"missing {what} keys: {sorted(missing)}")


def hspec_from_json(data, require_mult: bool = False) -> HSpec:
    obj = _load_obj(data)
    _check_keys(obj, ("hgraph",))
    inner = obj["hgraph"]
    if not isinstance(inner, dict):
        raise InputError('"hgraph" must be an object')
    _check_keys(inner, ("H_edges", "phi"), ("mult",), what="hgraph")
    phi, edges, mult = inner["phi"], inner["H_edges"], inner.get("mult")
    if not isinstance(phi, list) or not phi:
        raise InputError('"phi" must be a non-empty list of bits')
    if not isinstance(edges, list):
        raise InputError('"H_edges" must be a list of pairs')
    if not isinstance(mult, (list, type(None))):
        raise InputError('"mult" must be a list or absent')
    if require_mult and mult is None:
        raise InputError('"mult" is required to build a concrete graph')
    return HSpec(Graph(len(phi), edges), phi, mult)


def graph_from_json(data) -> Graph:
    """Parse one of the three documented JSON forms into a Graph."""
    obj = _load_obj(data)
    if "hgraph" in obj:
        return build_h_graph(hspec_from_json(obj, require_mult=True))
    if "family" in obj:
        _check_keys(obj, ("family", "params"))
        if not isinstance(obj["params"], list):
            raise InputError('"params" must be a list')
        return family(obj["family"], obj["params"])
    _check_keys(obj, ("n", "edges"))
    if not isinstance(obj["edges"], list):
        raise InputError('"edges" must be a list of pairs')
    return Graph(obj["n"], obj["edges"])


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
