"""The four benchmark workloads: their inputs, their timed job, and the
reference value every output is checked against.

Each workload has a `setup(A, seed, tracer)` that builds its inputs from
the imported `asmtree` package `A`, and a `job(run, inputs)` that makes
the calls in sequence and checks each result. Only `dp_sparse` uses the
seed, and only to pick the vertex labelling of its fixed graphs, so the
amount of work does not depend on it; the other three workloads are fixed.

Every expected value is a constant with its source next to it. EGF values
are compared with the subset DP only on complete templates, the domain
where the template EGF is exact.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial, prod

LAYERS = ("graphs", "trees", "series", "recurrences", "asymptotics", "cli")


class Run:
    """One execution of a workload job: calls, checks and their tally.

    An operation is one checked step. It fails when its check is false or
    when it raises; the job goes on either way.
    """

    def __init__(self, A, tracer):
        self.A = A
        self.tracer = tracer
        self.attempted = 0
        self.failed = dict.fromkeys(LAYERS, 0)
        self.failures: list[str] = []
        # (span name, what layer_counters needs from the call); arguments
        # and results are not kept, so they do not inflate peak memory
        self.calls: list[tuple] = []

    def call(self, name: str, fn, *args):
        out = self.tracer.call(name, fn, *args)
        self.calls.append((name, _note(name, args, out)))
        return out

    def cli(self, name: str, argv: list[str]) -> tuple[int, bytes]:
        buf = io.StringIO()
        with self.tracer.span(name), redirect_stdout(buf):
            code = self.A.cli.main(argv)
        data = buf.getvalue().encode()
        self.calls.append((name, len(data)))
        return code, data

    def check(self, layer: str, label: str, fn, *args) -> None:
        self.attempted += 1
        try:
            ok = fn(*args) is True
            why = "wrong result"
        except Exception as exc:  # a raising call is one failed operation
            ok = False
            why = f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed[layer] += 1
            self.failures.append(f"{layer}: {label}: {why}")


def _note(name: str, args, out):
    if name == "trees.count_edge_rule":
        return args[0].n
    if name == "trees.enumerate":
        return len(out)
    if name == "trees.gluing":
        return args[0], len(out)
    if name == "series.hgraph_egf":
        return args[1]
    if name == "series.diagonal":
        return out
    if name == "recurrences.guess":
        return len(args[0]), out
    if name in ("asymptotics.log_sequence", "asymptotics.estimate_lambda"):
        return args[2]
    return None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_matches(run: Run, name: str, argv: list[str], digest: str) -> bool:
    code, data = run.cli(name, argv)
    return code == 0 and _sha256(data) == digest


def _family(A, t, name: str, *params):
    return t.call("graphs.family", A.family, name, list(params))


def _count_is(run: Run, g, want: int) -> bool:
    return run.call("trees.count_edge_rule", run.A.count_edge_rule, g) == want


def _connected_count_is(run: Run, g, want: int) -> bool:
    return run.call("trees.count_connected_rule", run.A.count_connected_rule, g) == want


# --- dp_blowup: subset DP on twin-rich blow-ups ------------------------------

TABLE_ARGV = ["table", "--family", "bipartite", "--max", "6"]
# SHA-256 of the stdout of `asmtree table --family bipartite --max 6`, recorded
# when the benchmark was added; the command-line tool prints the same bytes
TABLE_SHA256 = "7358125a8f949916384f5c2571033c3341ea37c23dc79bf9002d8484a0528419"


def setup_dp_blowup(A, seed, t):
    spec = t.call("graphs.HSpec", A.HSpec, _family(A, t, "path", 3), (1, 0, 1), (4, 5, 4))
    path_blowup = t.call("graphs.build_h_graph", A.build_h_graph, spec)
    return {
        "edge": [
            # closed_form("complete", 13) = 23!!
            ("K13", _family(A, t, "complete", 13), 316234143225),
            # bipartite template EGF at (7, 7); the subset DP gives the same
            ("K7,7", _family(A, t, "complete_multipartite", 7, 7), 1038647610000),
            # tripartite template EGF at (4, 4, 4); the subset DP gives the same
            ("K4,4,4", _family(A, t, "complete_multipartite", 4, 4, 4), 5384957760),
            # regression pin from count_edge_rule: phi (1,0,1) puts clique
            # bits on a non-adjacent template pair, where the EGF is not exact
            ("path(1,0,1;4,5,4)", path_blowup, 74313487800),
        ],
        # OEIS A000311 (total partitions): every part of K_n is connected
        "connected": [("K7", _family(A, t, "complete", 7), 39208)],
    }


def job_dp_blowup(run: Run, inp) -> None:
    for label, g, want in inp["edge"]:
        run.check("trees", f"edge count {label}", _count_is, run, g, want)
    for label, g, want in inp["connected"]:
        run.check("trees", f"connected count {label}", _connected_count_is, run, g, want)
    run.check("cli", "table digest", _cli_matches, run, "cli.table", TABLE_ARGV, TABLE_SHA256)


# --- dp_sparse: the same DP on twin-free graphs under seeded labellings ------

# Fixed twin-free graphs, each drawn once as a uniform labelled tree (from a
# random Pruefer code) plus extra random edges. The seed picks only their
# vertex labelling, so the work of a job does not depend on it. The 15-vertex
# graphs have the median subset-DP work (sum of 2^|U| over connected U) of
# the twin-free graphs drawn that way.
RANDOM_BIG = (
    # count_edge_rule; a bottom-up unordered-split DP gives the same
    (15, ((0, 6), (0, 14), (1, 6), (2, 9), (3, 5), (3, 7), (3, 11), (4, 8), (4, 10),
          (4, 14), (6, 13), (7, 9), (9, 13), (10, 14), (11, 12), (12, 14)), 325551316),
    (15, ((0, 7), (1, 4), (1, 9), (1, 11), (2, 14), (3, 6), (3, 12), (4, 5), (4, 12),
          (4, 13), (5, 6), (5, 10), (6, 8), (7, 10), (9, 10), (12, 14)), 819108569),
)
RANDOM_SMALL = (  # three-route checked
    (6, ((0, 3), (0, 4), (1, 3), (2, 5), (3, 5), (4, 5))),
    (6, ((0, 3), (0, 4), (1, 2), (1, 4), (2, 5), (3, 5))),
    (6, ((0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5))),
    (6, ((0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 4), (3, 4))),
)


def setup_dp_sparse(A, seed, t):
    rng = random.Random(seed)

    def relabelled(n, edges):
        g = t.call("graphs.Graph", A.Graph, n, list(edges))
        perm = list(range(n))
        rng.shuffle(perm)
        return t.call("graphs.relabel", A.relabel, g, perm)

    big = [
        (f"R{n}#{i}", relabelled(n, edges), relabelled(n, edges), want)
        for i, (n, edges, want) in enumerate(RANDOM_BIG)
    ]
    battery = (
        [(f"P{n}", _family(A, t, "path", n)) for n in range(2, 8)]
        + [(f"C{n}", _family(A, t, "cycle", n)) for n in range(3, 8)]
        + [(f"S{n}", _family(A, t, "star", n)) for n in range(1, 7)]
        + [(f"star2_{n}", _family(A, t, "star2", n)) for n in range(1, 4)]
        + [(f"D{n}", _family(A, t, "caterpillar", n)) for n in range(2, 4)]
        + [
            ("K2,2", _family(A, t, "complete_multipartite", 2, 2)),
            ("K2,3", _family(A, t, "complete_multipartite", 2, 3)),
            ("K4", _family(A, t, "complete", 4)),
        ]
        + [(f"R{n}#{i}", relabelled(n, edges)) for i, (n, edges) in enumerate(RANDOM_SMALL)]
    )
    return {
        "edge": [
            # closed_form("cycle", 17) = C(32,16)/2
            ("C17", _family(A, t, "cycle", 17), 300540195),
            # closed_form("path", 17) = C(32,16)/17
            ("P17", _family(A, t, "path", 17), 35357670),
            # closed_form("star2", 7)
            ("star2_7", _family(A, t, "star2", 7), 1781750880),
        ],
        "random": big,
        "battery": battery,
        # partition DP oracle of the test suite; enumeration agrees
        "connected": [("C8", _family(A, t, "cycle", 8), 14407)],
    }


def _relabel_invariant(run: Run, g, h, want: int) -> bool:
    return _count_is(run, g, want) and _count_is(run, h, want)


def _three_routes_agree(run: Run, g) -> bool:
    A = run.A
    count = run.call("trees.count_edge_rule", A.count_edge_rule, g)
    enumerated = run.call("trees.enumerate", A.enumerate_edge_rule, g)
    glued = run.call("trees.gluing", A.trees_from_gluing_sequences, g)
    return len(enumerated) == count and enumerated == glued


def job_dp_sparse(run: Run, inp) -> None:
    for label, g, want in inp["edge"]:
        run.check("trees", f"edge count {label}", _count_is, run, g, want)
    for label, g, h, want in inp["random"]:
        run.check("trees", f"relabelled counts {label}", _relabel_invariant, run, g, h, want)
    for label, g in inp["battery"]:
        run.check("trees", f"three routes {label}", _three_routes_agree, run, g)
    for label, g, want in inp["connected"]:
        run.check("trees", f"connected count {label}", _connected_count_is, run, g, want)


# --- egf_guess: the discovery pipeline ---------------------------------------

# guess(seq, 3, 11) needs 59 diagonal terms (caps 58); see NOTES.md
TRIPARTITE_CAPS = (58, 58, 58)
BIPARTITE_CAPS = (120, 120)
C_HEAD = [0, 3, 84, 4935]  # tripartite diagonal head, acceptance criterion 6
SERIES_ARGV_CAPS = "60,60"
# SHA-256 of the stdout of `asmtree series` on the bipartite template at caps
# 60,60, recorded when the benchmark was added
SERIES_SHA256 = "636ddcbcf2a0b23b24d96a9c826a91b882bdc7d0b402f854bafba7ae8a0ee899"

_TRIPARTITE_JSON = '{"hgraph": {"H_edges": [[0, 1], [0, 2], [1, 2]], "phi": [0, 0, 0]}}'
_BIPARTITE_JSON = '{"hgraph": {"H_edges": [[0, 1]], "phi": [0, 0]}}'


def setup_egf_guess(A, seed, t):
    return {
        "tripartite": t.call("graphs.hspec_from_json", A.hspec_from_json, _TRIPARTITE_JSON),
        "bipartite": t.call("graphs.hspec_from_json", A.hspec_from_json, _BIPARTITE_JSON),
        "c": t.call("recurrences.builtin", A.builtin, "c"),
        "b": t.call("recurrences.builtin", A.builtin, "b"),
        "series_argv": ["series", "--hgraph", _BIPARTITE_JSON, "--caps", SERIES_ARGV_CAPS],
    }


def job_egf_guess(run: Run, inp) -> None:
    A = run.A
    got = {}

    def tripartite_head():
        got["egf3"] = run.call("series.hgraph_egf", A.hgraph_egf, inp["tripartite"], TRIPARTITE_CAPS)
        got["diag3"] = list(run.call("series.diagonal", A.diagonal, got["egf3"]))
        return got["diag3"][:4] == C_HEAD

    def egf_count(key, exp, want):
        return run.call("series.count_from_egf", A.count_from_egf, got[key], exp) == want

    def builtin_holds(rec, key):
        res = run.call("recurrences.verify", A.verify, rec, got[key])
        return res.ok and res.checked == len(got[key]) - rec.offset - rec.order

    def guessed():
        got["rec"] = run.call("recurrences.guess", A.guess, got["diag3"], 3, 11)
        return got["rec"] is not None and got["rec"].order == 3 and max(got["rec"].degrees()) <= 11

    def guessed_verifies():
        return run.call("recurrences.verify", A.verify, got["rec"], got["diag3"]).ok

    def guessed_is_c():
        return run.call(
            "recurrences.same_extension", A.same_extension, got["rec"], inp["c"], C_HEAD, 40
        )

    def bipartite_window():
        got["egf2"] = run.call("series.hgraph_egf", A.hgraph_egf, inp["bipartite"], BIPARTITE_CAPS)
        got["diag2"] = list(run.call("series.diagonal", A.diagonal, got["egf2"]))
        return len(got["diag2"]) == BIPARTITE_CAPS[0] + 1

    run.check("series", "tripartite diagonal head", tripartite_head)
    # the subset DP gives the same value for K_{4,4,4}
    run.check("series", "K4,4,4 from the EGF", egf_count, "egf3", (4, 4, 4), 5384957760)
    run.check("recurrences", "builtin c holds on the diagonal", builtin_holds, inp["c"], "diag3")
    run.check("recurrences", "guess(diagonal, 3, 11)", guessed)
    run.check("recurrences", "guessed recurrence verifies", guessed_verifies)
    run.check("recurrences", "guessed recurrence extends like c", guessed_is_c)
    got.pop("egf3", None)  # free the tripartite window before the next one
    run.check("series", "bipartite window", bipartite_window)
    # the subset DP gives the same values for K_{4,4} and K_{7,7}
    run.check("series", "K4,4 from the EGF", egf_count, "egf2", (4, 4), 46440)
    run.check("series", "K7,7 from the EGF", egf_count, "egf2", (7, 7), 1038647610000)
    run.check("recurrences", "builtin b holds on the diagonal", builtin_holds, inp["b"], "diag2")
    got.pop("egf2", None)
    run.check("cli", "series digest", _cli_matches, run, "cli.series", inp["series_argv"], SERIES_SHA256)


# --- recurrence_growth: exact extension, guessing, growth fits ---------------

EXTEND_UPTO = 400
N_MAX = 50_000
# SHA-256 of the stdout of `asmtree asymptotics --rec builtin:c --init
# 0,3,84,4935 --n-max 50000`, recorded when the benchmark was added; the
# command-line tool prints the same bytes. The output holds floats, so the
# digest assumes the same platform maths library.
ASYMPTOTICS_SHA256 = "aabb40479d76cd7d699a68ef57faa8b734db5dd1e2c408853cd742d03d8c6424"

# Growth constants: the largest root of the characteristic polynomial of
# the leading coefficients of each builtin recurrence.
LAMBDA = {
    "a": (13.5, 1e-6),  # 2x - 27
    "b": (6 + 4 * math.sqrt(2), 1e-4),  # x^2 - 12x + 4
    "c": (161.833161511844878, 1e-4),  # 20240x^3 - 3244725x^2 - 4986630x + 922185
}
THETA = {"a": -2.0, "b": -2.0}  # polynomial order of a and b


def setup_recurrence_growth(A, seed, t):
    return {
        "recs": {k: t.call("recurrences.builtin", A.builtin, k) for k in "abc"},
        "initial": {
            "a": [Fraction(0), Fraction(1)],
            "b": [Fraction(0), Fraction(1), Fraction(5, 2)],
            "c": [Fraction(v) for v in C_HEAD],
        },
        "asymptotics_argv": [
            "asymptotics", "--rec", "builtin:c", "--init", "0,3,84,4935", "--n-max", str(N_MAX),
        ],
    }


def job_recurrence_growth(run: Run, inp) -> None:
    A = run.A
    recs, initial = inp["recs"], inp["initial"]
    seqs, lam = {}, {}

    def extended(k):
        seqs[k] = run.call("recurrences.extend", A.extend, recs[k], initial[k], EXTEND_UPTO)
        return len(seqs[k]) == EXTEND_UPTO + 1

    def verified(k):
        res = run.call("recurrences.verify", A.verify, recs[k], seqs[k])
        return res.ok and res.checked == len(seqs[k]) - recs[k].offset - recs[k].order

    def guessed(k, terms, order, degree):
        rec = run.call("recurrences.guess", A.guess, seqs[k][:terms], order, degree)
        return rec is not None and run.call(
            "recurrences.same_extension", A.same_extension, rec, recs[k], initial[k], 40
        )

    def growth_rate(k):
        lam[k] = run.call("asymptotics.estimate_lambda", A.estimate_lambda, recs[k], initial[k], N_MAX)
        want, tol = LAMBDA[k]
        return abs(lam[k] - want) < tol

    def fitted(k):
        data = run.call("asymptotics.log_sequence", A.log_sequence, recs[k], initial[k], N_MAX)
        model = run.call("asymptotics.fit_model", A.fit_model, data, lam[k])
        return model.theta == THETA[k] if k in THETA else math.isfinite(model.corrections[0])

    for k in "abc":
        run.check("recurrences", f"extend {k}", extended, k)
        run.check("recurrences", f"verify {k}", verified, k)
    run.check("recurrences", "guess c", guessed, "c", 80, 3, 11)
    run.check("recurrences", "guess a", guessed, "a", 25, 2, 3)
    run.check("recurrences", "guess b", guessed, "b", 25, 2, 3)
    for k in "abc":
        run.check("asymptotics", f"lambda {k}", growth_rate, k)
        run.check("asymptotics", f"fit {k}", fitted, k)
    run.check(
        "cli", "asymptotics digest", _cli_matches, run, "cli.asymptotics",
        inp["asymptotics_argv"], ASYMPTOTICS_SHA256,
    )


WORKLOADS = {
    "dp_blowup": (setup_dp_blowup, job_dp_blowup),
    "dp_sparse": (setup_dp_sparse, job_dp_sparse),
    "egf_guess": (setup_egf_guess, job_egf_guess),
    "recurrence_growth": (setup_recurrence_growth, job_recurrence_growth),
}
SEEDED = ("dp_sparse",)


COUNTERS = (
    "trees.trees_materialized",
    "trees.gluing_useful_ratio",
    "trees.subsets_computed",
    "trees.splits_computed",
    "series.window_cells",
    "series.coeff_bits_max",
    "recurrences.guess_terms",
    "recurrences.guess_order",
    "recurrences.guess_degree",
    "asymptotics.terms_iterated",
    "cli.stdout_bytes",
)


def layer_counters(A, calls) -> dict[str, float]:
    """Work counts of one job, derived after it from the recorded calls.

    Counts marked computed are formulas over the inputs, not counted
    inside the library: 2^n subsets and 3^n splits per subset DP,
    prod(cap + 1) cells per EGF window, n_max terms per float iteration.
    """
    c = dict.fromkeys(COUNTERS, 0)
    distinct = tried = 0
    guess_terms, guessed = 0, None
    for name, note in calls:
        if name == "trees.count_edge_rule":
            c["trees.subsets_computed"] += 2**note
            c["trees.splits_computed"] += 3**note
        elif name == "trees.enumerate":
            c["trees.trees_materialized"] += note
        elif name == "trees.gluing":
            g, found = note
            c["trees.trees_materialized"] += found
            distinct += found
            tried += len(A.spanning_trees(g)) * factorial(g.n - 1)
        elif name == "series.hgraph_egf":
            c["series.window_cells"] += prod(cap + 1 for cap in note)
        elif name == "series.diagonal":
            bits = max(q.numerator.bit_length() + q.denominator.bit_length() for q in note)
            c["series.coeff_bits_max"] = max(c["series.coeff_bits_max"], bits)
        elif name == "recurrences.guess" and note[0] > guess_terms:
            guess_terms, guessed = note
        elif name in ("asymptotics.log_sequence", "asymptotics.estimate_lambda"):
            c["asymptotics.terms_iterated"] += note
        elif name.startswith("cli."):
            c["cli.stdout_bytes"] += note
    if tried:
        c["trees.gluing_useful_ratio"] = distinct / tried
    c["recurrences.guess_terms"] = guess_terms
    if guessed is not None:
        c["recurrences.guess_order"] = guessed.order
        c["recurrences.guess_degree"] = max(guessed.degrees())
    return c

