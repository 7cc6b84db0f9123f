"""Generators of the automorphism group of a small vertex-coloured graph.

Individualisation and refinement, after McKay and Piperno, "Practical graph
isomorphism, II" (J. Symbolic Comput. 2014), kept small: an ordered
partition of the vertices is refined until it is equitable, and a vertex
of its first cell of more than one vertex is individualised, until every
cell is one vertex. The first such path orders the vertices as the first
leaf; every other leaf whose order maps the first leaf's to an
automorphism gives a generator. Orbit pruning keeps the search to one
subtree per orbit of each stabiliser, so only generators are found: the
group, which may have n! elements, is never listed. The search charges a
Meter (errors.Meter) as it goes and stops by raising CapExceeded at the
charge that passes its limit.
"""

from __future__ import annotations

from .errors import Meter
from .graphs import _mapped, _neighbours


def _refine(adj, cells: list[int], queue: list[int], meter: Meter) -> list[int]:
    """Split the ordered cells (vertex masks) by their neighbours in each
    cell of `queue` until every vertex of a cell has as many neighbours in
    each cell as the others of its cell. A split cell's fragments take its
    place in order of their count, and all but its first largest fragment
    join the queue, since the counts into the cell give the counts into that
    one. So an automorphism that maps the cells and the queue onto
    themselves maps the result onto itself. Each splitter charges the meter
    the cells it examines, a unit per cell and one more per 1,024 bits of a
    mask, before it splits them. Returns the cells."""
    cost = 1 + (len(adj) >> 10)
    while queue and len(cells) < len(adj):
        w = queue.pop()
        meter.charge(len(cells) * cost)
        out = []
        if not w & w - 1:  # one vertex: a cell splits into non-neighbours, neighbours
            nb = adj[w.bit_length() - 1]
            for x in cells:
                hit = x & nb
                if hit and hit != x:
                    out += (x ^ hit, hit)
                    queue.append(hit if (x ^ hit).bit_count() >= hit.bit_count() else x ^ hit)
                else:
                    out.append(x)
            cells = out
            continue
        nb = _neighbours(adj, w)
        for x in cells:
            hit = x & nb
            if not hit or not x & x - 1:
                out.append(x)
                continue
            by = {0: x ^ hit} if x ^ hit else {}
            while hit:
                b = hit & -hit
                hit ^= b
                c = (adj[b.bit_length() - 1] & w).bit_count()
                by[c] = by.get(c, 0) | b
            if len(by) == 1:
                out.append(x)
                continue
            parts = [by[c] for c in sorted(by)]
            out += parts
            sizes = [p.bit_count() for p in parts]
            del parts[sizes.index(max(sizes))]
            queue += parts
        cells = out
    return cells


def _individualise(adj, cells: list[int], i: int, v: int, meter: Meter) -> list[int]:
    """Refine the cells after taking vertex mask v out of cell i, before it."""
    return _refine(adj, cells[:i] + [v, cells[i] ^ v] + cells[i + 1:], [v], meter)


def _orbits(gens: list[list[int]], mask: int) -> int:
    """The union of the orbits of the vertices of `mask`."""
    new = mask
    while new:
        image = 0
        for gen in gens:
            image |= _mapped(gen, new)
        new = image & ~mask
        mask |= new
    return mask


def automorphisms(adj, cells: list[int], meter: Meter) -> list[list[int]]:
    """Generators of the automorphisms of the graph `adj` that map each of
    the ordered `cells` (its colour classes) onto itself, as vertex
    permutations. The meter is charged the cells examined by refinement
    (priced by _refine), one unit per node and n per leaf, so the search
    raises CapExceeded at the charge that passes its limit.

    The base is the sequence of vertices individualised on the first path.
    From the deepest base vertex v up, every w of v's cell outside the
    orbits, under the generators found so far, of v and of each w that
    failed is individualised in v's place. Its subtree is searched depth
    first for a leaf whose order maps the first leaf's to an automorphism,
    and a node whose cell sizes differ from the first path's at its depth
    is pruned. A generator found at base level k fixes the base vertices
    above it, so the orbit lengths of the base vertices, each under the
    generators of its level and below, multiply to the order of the group.
    A graph whose refinement alone separates every vertex has none.
    """
    n = len(adj)
    cells = _refine(adj, cells, list(cells), meter)
    path = [cells]  # the first path; base[k] is individualised below path[k]
    base: list[tuple[int, int]] = []  # (index of its cell, vertex mask)
    while len(cells) < n:
        i = next(i for i, x in enumerate(cells) if x & x - 1)
        base.append((i, cells[i] & -cells[i]))
        cells = _individualise(adj, cells, i, base[-1][1], meter)
        path.append(cells)
    if not base:
        return []
    first = [x.bit_length() - 1 for x in cells]
    shapes = [[x.bit_count() for x in cells] for cells in path]
    gens: list[list[int]] = []
    for k in reversed(range(len(base))):
        i, v = base[k]
        covered = _orbits(gens, v)  # v's orbit and those of the w that failed
        rest = path[k][i] & ~covered
        while rest:
            w = rest & -rest
            stack = [(k, path[k], w)]  # (depth, cells, vertex of its target cell)
            found = None
            while stack and found is None:
                depth, cells, x = stack.pop()
                meter.charge(1)
                cells = _individualise(adj, cells, base[depth][0], x, meter)
                depth += 1
                if [c.bit_count() for c in cells] != shapes[depth]:
                    continue
                if depth < len(base):
                    cand = cells[base[depth][0]]
                    while cand:
                        stack.append((depth, cells, cand & -cand))
                        cand &= cand - 1
                    continue
                perm = [0] * n
                for a, c in zip(first, cells):
                    perm[a] = c.bit_length() - 1
                meter.charge(n)
                if all(_mapped(perm, adj[a]) == adj[perm[a]] for a in range(n)):
                    found = perm
            if found is not None:
                gens.append(found)
            covered = _orbits(gens, covered | w)
            rest &= ~covered
    return gens


def layout_automorphisms(adj, blocks, meter: Meter) -> list[list[list[int]]]:
    """Byte tables of generators of the automorphisms of a twin layout,
    whose one-vertex classes come first and whose larger classes are the
    `blocks` (offset, size) above them; the meter is charged the search and
    the tables. They are the automorphisms of the twin quotient (one vertex
    per class) that keep each class's size and twin type, lifted so that
    twin j of a block goes to twin j of its image, so they map states to
    states. Generator g maps a vertex mask u to the union over i of
    g[i][u >> 8i & 255]."""
    n = len(adj)
    singles = n - sum(k for _, k in blocks)
    # a block's first twin stands for it, and it is not its own neighbour
    cls = {o: singles + b for b, (o, _) in enumerate(blocks)}
    firsts = sum(1 << o for o in cls)
    reps = list(range(singles)) + list(cls)
    qadj = [adj[r] & (1 << singles) - 1 | _mapped(cls, adj[r] & firsts) for r in reps]
    # a class's colour is its size and twin type: a true twin is
    # adjacent to the one above it, a false twin is not
    keys = [(1, 0)] * singles + [(k, adj[o] >> o + 1 & 1) for o, k in blocks]
    colour: dict[tuple[int, int], int] = {}
    for i, key in enumerate(keys):
        colour[key] = colour.get(key, 0) | 1 << i
    cells = [colour[key] for key in sorted(colour)]
    gens = automorphisms(qadj, cells, meter)
    # a table entry is an n-bit int: one of w words costs w units, charged
    # before any is built, so the budget bounds their memory too
    entries = sum(1 << min(8, n - lo) for lo in range(0, n, 8))
    meter.charge(len(gens) * entries * (1 + (n >> 6)))
    tables = []
    for gen in gens:
        lift = gen[:singles]
        for b, (_, k) in enumerate(blocks):
            image = blocks[gen[singles + b] - singles][0]
            lift += range(image, image + k)
        byte_tables = []
        for lo in range(0, n, 8):
            t = [0]
            for v in lift[lo:lo + 8]:
                bit = 1 << v
                t += [y | bit for y in t]
            byte_tables.append(t)
        tables.append(byte_tables)
    return tables


def fill_orbit(gens: list[list[list[int]]], u: int, counts: dict, meter: Meter) -> list[int]:
    """Give every state of u's orbit under the generators `gens`, byte
    tables as layout_automorphisms returns them, the count of u, and charge
    the meter: a generator applied to a state of the orbit looks up each of
    its n/8 bytes and ORs images of n/64 words, a unit per 4 lookups or per
    64 words ORed, at least one. An orbit is closed, so no state of it is
    in `counts` before u. Returns the orbit."""
    # a table per byte of a state; the last has 2^r entries for its r vertices
    lookups = len(gens[0])
    n = 8 * (lookups - 1) + len(gens[0][-1]).bit_length() - 1
    words = 1 + (n >> 6)
    step = len(gens) * (1 + lookups * (16 + words) // 64)
    total = counts[u]
    orbit = [u]
    for v in orbit:
        for tables in gens:
            x = 0
            for i, t in enumerate(tables):
                x |= t[v >> 8 * i & 255]
            if x not in counts:
                counts[x] = total
                orbit.append(x)
    meter.charge(len(orbit) * step)
    return orbit
