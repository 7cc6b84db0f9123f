"""Fuzz test of the command-line surface: malformed JSON, flags and sizes.

Every invocation must end in exit 0, 1 or 2 with no traceback, quickly.
Each subcommand is driven by well-formed arguments with fuzzed sizes, by
malformed ones, and by either with one argument dropped or a stray flag.
Sizes are drawn small or far over a guard, so each admitted run is short,
except for the tree routes, which meter their own work: the counters also
get twin-free graphs of 17-30 vertices and blow-ups with twin classes of up
to 40 vertices, `enumerate` graphs of 9-12 vertices, and `table` every
--max from 1 to 40; `diagonal` gets every --upto from 0 to 60, around
the EGF window guard of its template.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import POLYHEDRA

from asmtree import closed_form
from asmtree.cli import main

FUZZ = settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
WALL_S = 5.0

HUGE = [10**4, 10**9, 10**30]
ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 9) | st.sampled_from(HUGE),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
JSON_VALUES = st.recursive(
    ATOMS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
BAD_INTS = st.sampled_from(["", "x", "1.5", "-", "1e3", "0x10", "٣"])
RATIONALS = st.one_of(
    st.integers(-(10**40), 10**40).map(str),
    st.tuples(st.integers(-99, 99), st.integers(-3, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["", " ", "x", "1/0", "1.5", "nan", "--1", "1e9999"]),
)
EXTRA = st.sampled_from([["--frobnicate"], ["--n"], ["--caps", "1"], ["--max-order", "1"], ["--rec"]])


def _sizes(values):
    return st.sampled_from(values).map(str)


def _object_json(fields):
    """JSON text of an object from `fields` with keys dropped or added, of
    arbitrary JSON, or of broken text."""
    obj = st.fixed_dictionaries({}, optional=fields) | st.dictionaries(
        st.sampled_from(sorted(fields) + ["junk"]), JSON_VALUES, max_size=3
    )
    return st.one_of(
        obj.map(json.dumps),
        JSON_VALUES.map(json.dumps),
        st.text(max_size=20).map(lambda t: "{" + t),
    )


def _mangled(argv):
    """argv with one argument after the subcommand dropped, or a stray flag."""
    return st.one_of(
        st.integers(1, len(argv) - 1).map(lambda i: argv[:i] + argv[i + 1 :]),
        EXTRA.map(lambda extra: argv + extra),
    )


def _command(valid, fuzzed):
    """Well-formed argv (half the time), argv with fuzzed values, or either
    one mangled."""
    kinds = {"valid": valid, "fuzzed": fuzzed, "mangled": (valid | fuzzed).flatmap(_mangled)}
    return st.sampled_from(["valid", "valid", "fuzzed", "mangled"]).flatmap(kinds.get)


@st.composite
def _templates(draw, most, largest=3):
    """A connected template: vertex count, tree edges, bits, multiplicities."""
    n = draw(st.integers(1, most))
    edges = [[draw(st.integers(0, v - 1)), v] for v in range(1, n)]
    phi = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    mult = draw(st.lists(st.integers(1, largest), min_size=n, max_size=n))
    return n, edges, phi, mult


@st.composite
def _twin_free_graphs(draw, sizes=st.integers(17, 30)):
    """A path, cycle, grid or sparse or dense random graph on 17-30
    vertices (or `sizes`), as --graph JSON; random graphs may have a few
    twins."""
    n = draw(sizes)
    kind = draw(st.sampled_from(["path", "cycle", "grid", "sparse", "dense"]))
    if kind == "grid":
        rows = draw(st.integers(3, 5))
        n = rows * (n // rows)
        edges = [[v, v + 1] for v in range(n - 1) if (v + 1) % rows]
        edges += [[v, v + rows] for v in range(n - rows)]
    elif kind in ("path", "cycle"):
        edges = [[v, v + 1] for v in range(n - 1)] + ([[0, n - 1]] if kind == "cycle" else [])
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        edges = [[rng.randrange(v), v] for v in range(1, n)]
        p = 0.5 if kind == "dense" else 1 / n
        edges += [[u, v] for u in range(n) for v in range(u + 2, n) if rng.random() < p]
    return json.dumps({"n": n, "edges": edges})


def _hgraph_json(t):
    return json.dumps({"hgraph": {"H_edges": t[1], "phi": t[2], "mult": t[3]}})


FUZZED_EDGES = st.lists(st.lists(st.integers(-1, 4) | JSON_VALUES, max_size=3), max_size=5)
FUZZED_GRAPHS = _object_json(
    {"n": ATOMS, "edges": FUZZED_EDGES | JSON_VALUES, "family": JSON_VALUES, "params": JSON_VALUES}
)
FUZZED_HGRAPHS = _object_json(
    {
        "hgraph": st.fixed_dictionaries(
            {},
            optional={
                "H_edges": FUZZED_EDGES | JSON_VALUES,
                "phi": st.lists(ATOMS, max_size=4) | JSON_VALUES,
                "mult": st.lists(ATOMS, max_size=4) | JSON_VALUES,
            },
        )
        | JSON_VALUES
    }
)
FUZZED_RECURRENCES = st.one_of(
    st.sampled_from(["builtin:z", "builtin:", "builtin:a:b", "/no/such/file"]),
    _object_json(
        {
            "order": ATOMS,
            "offset": ATOMS,
            "polys": st.lists(st.lists(RATIONALS | ATOMS, max_size=3), max_size=4) | JSON_VALUES,
        }
    ),
)
FUZZED_LISTS = st.lists(RATIONALS | BAD_INTS, max_size=5).map(",".join)


@st.composite
def _recurrences(draw):
    """A recurrence with matching initial terms: a builtin, or small random
    polynomials under a positive constant leading polynomial."""
    builtins = {"a": "0,1", "b": "0,1,5/2", "c": "0,3,84,4935"}
    name = draw(st.sampled_from(sorted(builtins) + ["random"]))
    if name != "random":
        return f"builtin:{name}", builtins[name]
    order = draw(st.integers(1, 3))
    polys = [draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3)) for _ in range(order)]
    polys.append([draw(st.integers(1, 9))])
    initial = draw(st.lists(st.integers(0, 9), min_size=order, max_size=order))
    return json.dumps({"polys": polys, "offset": 0}), ",".join(map(str, initial))


CATALAN = [str(closed_form("path", n + 1)) for n in range(80)]
_RNG = random.Random(5)
NO_RECURRENCE = [str(_RNG.getrandbits(64)) for _ in range(80)]
SEQUENCES = st.sampled_from([5, 30, 80, None]).flatmap(
    lambda k: st.sampled_from([CATALAN[:k], NO_RECURRENCE]) if k else st.lists(RATIONALS, max_size=12)
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    elapsed = time.perf_counter() - t0
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert elapsed < WALL_S, (argv, elapsed)
    if code:
        assert out.getvalue() == "", argv
    return code, elapsed


def _with_seq_file(tmp_path_factory, argv, lines):
    """argv with "@seq" replaced by a file holding the sequence lines."""
    path = tmp_path_factory.mktemp("seq") / "seq.txt"
    path.write_text("\n".join(lines) + "\n")
    return [str(path) if a == "@seq" else a for a in argv]


FAMILIES = ["path", "cycle", "star", "star2", "complete", "caterpillar"]
FAMILY_ARGS = st.tuples(st.sampled_from(FAMILIES), _sizes([-1, 0, 1, 2, 3, 5, 7, 13, 30, 10**6, 10**30])).map(
    lambda t: ["--family", t[0], "--n", t[1]]
) | st.tuples(_sizes([0, 1, 5, 13, 30, 10**6, 10**30]), st.lists(_sizes([0, 1, 2, 3, 7]), max_size=2)).map(
    lambda t: ["--family", "complete_multipartite", "--n", t[0], "--params", ",".join(t[1])]
)


@FUZZ
@given(
    _command(
        st.tuples(
            st.one_of(
                FAMILY_ARGS,
                _templates(6).map(lambda t: ["--graph", json.dumps({"n": t[0], "edges": t[1]})]),
                _templates(3).map(lambda t: ["--graph", _hgraph_json(t)]),
            ),
            st.sampled_from(["edge", "connected"]),
        ).map(lambda t: ["count", *t[0], "--rule", t[1]]),
        st.one_of(
            FUZZED_GRAPHS.map(lambda g: ["count", "--graph", g]),
            st.tuples(st.text(max_size=8), BAD_INTS, FUZZED_LISTS).map(
                lambda t: ["count", "--family", t[0], "--n", t[1], "--params", t[2], "--rule", "x"]
            ),
        ),
    )
)
def test_fuzz_count(argv):
    _run(argv)


def _family_count(name, n, rule):
    return ["count", "--family", name, "--n", str(n), "--rule", rule]


def _graph_count(name, rule):
    g = POLYHEDRA[name]
    return ["count", "--graph", json.dumps({"n": g.n, "edges": g.edges()}), "--rule", rule]


def _random_count(n, m, rule):
    """A random tree on n vertices with random edges added up to m."""
    rng = random.Random(n * m)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return ["count", "--graph", json.dumps({"n": n, "edges": sorted(edges)}), "--rule", rule]


@settings(FUZZ, max_examples=16)
# symmetric graphs at the largest admitted sizes and the smallest refused
# ones: star2(n) has n! automorphisms and C_n 2n; the meter refuses P_10000
# and caterpillar(8000) while their search for symmetries refines. Random
# twin-free graphs of 200 and 1,000 vertices are among the slowest refusals
@example(_family_count("star2", 10, "edge"))
@example(_family_count("star2", 11, "edge"))
@example(_family_count("star2", 9, "connected"))
@example(_family_count("star2", 10, "connected"))
@example(_family_count("cycle", 210, "edge"))
@example(_family_count("cycle", 210, "connected"))
@example(_family_count("cycle", 211, "edge"))
@example(_family_count("cycle", 211, "connected"))
@example(_family_count("path", 10000, "edge"))
@example(_family_count("caterpillar", 8000, "connected"))
@example(_random_count(200, 2000, "edge"))
@example(_random_count(1000, 20000, "edge"))
@example(_graph_count("dodecahedron", "edge"))
@example(_graph_count("dodecahedron", "connected"))
@example(_graph_count("grid4x4", "connected"))
@given(
    st.tuples(
        st.one_of(
            _templates(3, 40).map(_hgraph_json),
            _twin_free_graphs(),
        ),
        st.sampled_from(["edge", "connected"]),
    ).map(lambda t: ["count", "--graph", t[0], "--rule", t[1]])
)
def test_fuzz_count_metered(argv):
    # the tree counters end in a count or a refusal by their work meter
    _run(argv)


@FUZZ
@given(
    _command(
        _templates(3).flatmap(
            lambda t: st.lists(_sizes([0, 1, 2, 3, 5] + HUGE), min_size=t[0], max_size=t[0]).map(
                lambda caps: ["series", "--hgraph", _hgraph_json(t), "--caps", ",".join(caps)]
            )
        ),
        st.tuples(FUZZED_HGRAPHS, FUZZED_LISTS).map(lambda t: ["series", "--hgraph", t[0], "--caps", t[1]]),
    )
)
def test_fuzz_series(argv):
    _run(argv)


def _series(n, edges, phi, caps):
    """`series` on a template of n vertices with the given caps."""
    return ["series", "--hgraph", _hgraph_json((n, edges, phi, [1] * n)),
            "--caps", ",".join(map(str, caps))]


def _path_series(caps):
    """`series` on the path template with one vertex per cap."""
    n = len(caps)
    return _series(n, [[v, v + 1] for v in range(n - 1)], [0] * n, caps)


# a 12-vertex template whose row axis has cap 0, so each row holds one or
# two cells; it took 3.5 s while a cost estimate admitted it
FOUND = (12, [[0, 7], [0, 9], [0, 10], [1, 6], [1, 10], [1, 11], [2, 9], [3, 9], [4, 5],
              [5, 8], [5, 9], [6, 9], [8, 10]], [0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0])
TRIPARTITE = (3, [[0, 1], [0, 2], [1, 2]], [0, 0, 0])


@pytest.mark.parametrize("argv,want,wall", [
    # 4 cells on the two ends of a 28-vertex path: its radicand pairs are
    # found among the subsets of the live vertices, not every smaller mask
    (_path_series([1] + [0] * 26 + [1]), 0, 1.0),
    # refused on the 2^22 submasks its pair listing would visit, at once
    (_path_series([1] * 22), 1, 1.0),
    # the largest admitted path with every cap 1: 75 faces, each filled once
    (_path_series([1] * 12), 0, WALL_S),
    # refused at a row of a face or of the window, as each is reached
    (_path_series([1] * 13), 1, 2.5),
    (_path_series([1] * 14), 1, 2.5),
    (_path_series([1] * 15), 1, 2.5),
    # refused on its pair listing, at once
    (_path_series([1] * 20), 1, 1.0),
    (_series(*FOUND, [1, 1, 0, 3, 3, 1, 1, 1, 1, 3, 1, 0]), 1, 2.5),
    # the largest tripartite window whose dump is admitted, about 2 s of
    # printing, and the first one refused before any cell is printed
    (_series(*TRIPARTITE, [62] * 3), 0, WALL_S),
    (_series(*TRIPARTITE, [63] * 3), 1, 1.0),
], ids=["path28_ends", "path22_all", "path12_all", "path13_all", "path14_all", "path15_all",
        "path20_all", "found_template", "tripartite_dump_62", "tripartite_dump_63"])
def test_wide_path_windows_end_at_once(argv, want, wall):
    code, elapsed = _run(argv)
    assert code == want and elapsed < wall


@FUZZ
@given(
    _command(
        st.tuples(
            _twin_free_graphs(st.integers(9, 12)) | st.just('{"family": "complete", "params": [9]}'),
            st.sampled_from([[], ["--emit-trees"]]),
        ).map(lambda t: ["enumerate", "--graph", t[0], *t[1]])
        | FAMILY_ARGS.map(lambda f: ["enumerate", *f]),
        FUZZED_GRAPHS.map(lambda g: ["enumerate", "--graph", g]),
    )
)
def test_fuzz_enumerate(argv):
    # the enumerators end in the trees or a refusal by their work meter
    _run(argv)


@FUZZ
# the largest admitted --max and the smallest refused one
@example(["table", "--family", "bipartite", "--max", "43"])
@example(["table", "--family", "bipartite", "--max", "44"])
@given(
    _command(
        _sizes(list(range(1, 41)) + HUGE).map(lambda m: ["table", "--family", "bipartite", "--max", m]),
        st.tuples(st.sampled_from(["bipartite", "tripartite"]) | st.text(max_size=8), _sizes([-1, 0]) | BAD_INTS).map(
            lambda t: ["table", "--family", t[0], "--max", t[1]]
        ),
    )
)
def test_fuzz_table(argv):
    _run(argv)


def _path_corner(phi, upto):
    """A diagonal of the 3-vertex path template, whose clique-bit leaves make
    the slowest windows per cell."""
    return ["diagonal", "--hgraph", _hgraph_json((3, [[0, 1], [1, 2]], phi, [1, 1, 1])), "--upto", str(upto)]


@FUZZ
# clique bits on both leaves, at their largest admitted --upto
@example(_path_corner([1, 0, 1], 25))
@example(_path_corner([1, 1, 1], 25))
# one clique leaf: the largest admitted --upto (49 while each face had a
# meter of its own and the pair listing none), the smallest refused one,
# and a far larger one
@example(_path_corner([0, 0, 1], 48))
@example(_path_corner([0, 0, 1], 49))
@example(_path_corner([0, 0, 1], 63))
@given(
    _command(
        st.tuples(_templates(3), _sizes(list(range(61)) + HUGE)).map(
            lambda t: ["diagonal", "--hgraph", _hgraph_json(t[0]), "--upto", t[1]]
        ),
        st.tuples(FUZZED_HGRAPHS, _sizes([-1]) | BAD_INTS).map(
            lambda t: ["diagonal", "--hgraph", t[0], "--upto", t[1]]
        ),
    )
)
def test_fuzz_diagonal(argv):
    _run(argv)


@FUZZ
@given(
    SEQUENCES,
    _command(
        _recurrences().map(lambda r: ["verify-rec", "--rec", r[0], "--seq", "@seq"]),
        FUZZED_RECURRENCES.map(lambda r: ["verify-rec", "--rec", r, "--seq", "@seq"]),
    ),
)
def test_fuzz_verify_rec(tmp_path_factory, seq, argv):
    _run(_with_seq_file(tmp_path_factory, argv, seq))


BOUNDS = _sizes([1, 2, 3, 5, 7, 13, 30] + HUGE)


@FUZZ
@given(
    SEQUENCES,
    _command(
        st.tuples(BOUNDS, BOUNDS).map(
            lambda t: ["guess-rec", "--seq", "@seq", "--max-order", t[0], "--max-degree", t[1]]
        ),
        st.tuples(BOUNDS | _sizes([-1, 0]) | BAD_INTS, BAD_INTS).map(
            lambda t: ["guess-rec", "--seq", "@seq", "--max-order", t[0], "--max-degree", t[1]]
        ),
    ),
)
def test_fuzz_guess_rec(tmp_path_factory, seq, argv):
    _run(_with_seq_file(tmp_path_factory, argv, seq))


def _asymptotics_example(rec, init):
    return ["asymptotics", "--rec", rec, "--init", init, "--n-max", "100"]


BIG = "1" + "0" * 400


@FUZZ
# terms, an initial term and a coefficient value beyond float range
@example(_asymptotics_example(json.dumps({"polys": [["-" + BIG], ["1"]]}), "1"))
@example(_asymptotics_example("builtin:a", "0," + BIG))
@example(_asymptotics_example(json.dumps({"polys": [["-1/" + BIG], ["1"]]}), "1"))
@given(
    _command(
        st.tuples(_recurrences(), _sizes([8, 9, 20, 2000] + HUGE)).map(
            lambda t: ["asymptotics", "--rec", t[0][0], "--init", t[0][1], "--n-max", t[1]]
        ),
        st.tuples(FUZZED_RECURRENCES, FUZZED_LISTS, _sizes([-1, 0, 7, 2000]) | BAD_INTS).map(
            lambda t: ["asymptotics", "--rec", t[0], "--init", t[1], "--n-max", t[2]]
        ),
    )
)
def test_fuzz_asymptotics(argv):
    _run(argv)
