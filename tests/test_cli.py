import json
import random
import time
from fractions import Fraction as F

import pytest

from asmtree import builtin
from asmtree.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_family_path(capsys):
    code, out, err = run_cli(capsys, "count", "--family", "path", "--n", "4")
    assert code == 0 and err == ""
    assert json.loads(out) == {"count": "5"}


def test_count_inline_graph_json(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--graph", '{"n": 4, "edges": [[0,1],[1,2],[2,3],[3,0]]}'
    )
    assert code == 0 and json.loads(out) == {"count": "10"}


def test_count_graph_from_file(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"family": "complete", "params": [4]}')
    code, out, _ = run_cli(capsys, "count", "--graph", str(path))
    assert code == 0 and json.loads(out) == {"count": "15"}


def test_count_connected_rule(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--family", "path", "--n", "3", "--rule", "connected"
    )
    assert code == 0 and json.loads(out) == {"count": "3"}


def test_count_multipartite_family_shorthand(capsys):
    code, out, _ = run_cli(
        capsys,
        "count",
        "--family",
        "complete_multipartite",
        "--n",
        "2",
        "--params",
        "3",
    )
    assert code == 0 and json.loads(out) == {"count": "54"}


def test_count_param_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "count", "--family", "cycle", "--n", "2")
    assert code == 2 and out == "" and err != ""


def test_count_disconnected_exit_1(capsys):
    code, out, err = run_cli(capsys, "count", "--graph", '{"n": 3, "edges": [[0,1]]}')
    assert code == 1 and out == "" and err != ""


def test_count_requires_one_input_source(capsys):
    code, _, err = run_cli(capsys, "count")
    assert code == 2 and err != ""
    code, _, err = run_cli(
        capsys, "count", "--graph", '{"n":1,"edges":[]}', "--family", "path"
    )
    assert code == 2


def test_cap_override_via_module_constant(capsys, monkeypatch):
    from asmtree import errors

    monkeypatch.setattr(errors, "WORK_BUDGET", 40)  # P_6 costs 172 units
    code, out, err = run_cli(capsys, "count", "--family", "path", "--n", "6")
    assert code == 1 and "cap" in err


def test_count_complete_22_runs_on_the_twin_quotient(capsys):
    from asmtree import closed_form

    code, out, err = run_cli(capsys, "count", "--family", "complete", "--n", "22")
    assert code == 0 and err == ""
    assert json.loads(out) == {"count": str(closed_form("complete", 22))}


def test_count_twin_free_path_25_exit_0(capsys):
    # its 2,300 useful splits take milliseconds
    from asmtree import closed_form

    code, out, err = run_cli(capsys, "count", "--family", "path", "--n", "25")
    assert code == 0 and err == ""
    assert json.loads(out) == {"count": str(closed_form("path", 25))}


def _dense_twin_free_graph(n: int, seed: int) -> str:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    adj = [{w for e in edges if v in e for w in e if w != v} for v in range(n)]
    # no two vertices share their open or their closed neighbourhood
    assert len({frozenset(a) for a in adj}) == n
    assert len({frozenset(a | {v}) for v, a in enumerate(adj)}) == n
    return json.dumps({"n": n, "edges": edges})


@pytest.mark.parametrize(
    "source",
    [
        # about 10^9 useful splits of small counts
        ["--graph", _dense_twin_free_graph(20, 3)],
        # about 10^6 splits, each multiplying counts of hundreds of words
        ["--family", "complete", "--n", "1414"],
        # 3^30 connected sets hold the centre: they are metered as they grow
        ["--family", "star2", "--n", "30"],
    ],
    ids=["dense_G20", "K1414", "star2_30"],
)
def test_count_too_costly_is_stopped_by_the_meter_exit_1(capsys, source):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "count", *source)
    assert time.perf_counter() - t0 < 5.0
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "units of work, the cap" in err


def test_count_huge_twin_free_graph_exit_1(capsys):
    # the search for symmetries of 10000 twin classes is metered as it
    # refines, so the meter refuses it at once; the message must stay short
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--family", "path", "--n", "10000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "units of work, the cap" in err and len(err) < 200


@pytest.mark.parametrize(
    "source",
    [
        ["--graph", '{"n": 1000000000000000000000000000000, "edges": []}'],
        ["--family", "path", "--n", "1000000"],
        ["--family", "complete", "--n", "5000"],
    ],
    ids=["json-n-1e30", "path-1e6", "complete-5000"],
)
def test_count_oversize_graph_exit_1_before_building(capsys, source):
    # refused from the vertex or edge count, before any edge list is built
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "count", *source)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "exceeds the cap" in err


def test_count_connected_rule_k12(capsys):
    code, out, err = run_cli(
        capsys, "count", "--family", "complete", "--n", "12", "--rule", "connected"
    )
    assert code == 0 and err == ""
    assert json.loads(out) == {"count": "188666182784"}  # OEIS A000311


def test_unknown_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count", "--family", "path", "--n", "4", "--frobnicate"])
    assert info.value.code == 2


def test_enumerate_emit_trees(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "--family", "path", "--n", "3", "--emit-trees"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == ["((0,1),2)", "(0,(1,2))"]


def test_enumerate_without_flag_reports_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "cycle", "--n", "4")
    assert code == 0 and json.loads(out) == {"count": "10"}


def test_enumerate_k9_is_refused_by_the_meter_exit_1(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "--family", "complete", "--n", "9")
    assert time.perf_counter() - t0 < 5.0
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "units of work, the cap" in err


def test_enumerate_is_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "enumerate", "--family", "star", "--n", "3", "--emit-trees")
    _, out2, _ = run_cli(capsys, "enumerate", "--family", "star", "--n", "3", "--emit-trees")
    assert out1 == out2


BIP = '{"hgraph": {"H_edges": [[0,1]], "phi": [0,0]}}'
GOLDEN_SERIES_2_2 = (
    '[{"exp": [0, 1], "coeff": "1"}, {"exp": [1, 0], "coeff": "1"}, '
    '{"exp": [1, 1], "coeff": "1"}, {"exp": [1, 2], "coeff": "1"}, '
    '{"exp": [2, 1], "coeff": "1"}, {"exp": [2, 2], "coeff": "5/2"}]\n'
)


def test_series_golden_output(capsys):
    code, out, err = run_cli(capsys, "series", "--hgraph", BIP, "--caps", "2,2")
    assert code == 0 and err == ""
    assert out == GOLDEN_SERIES_2_2


def test_series_accepts_mult_and_file(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"hgraph": {"H_edges": [[0,1]], "phi": [0,0], "mult": [2,2]}}')
    code, out, _ = run_cli(capsys, "series", "--hgraph", str(path), "--caps", "2,2")
    assert code == 0 and out == GOLDEN_SERIES_2_2


def test_series_bad_caps(capsys):
    code, _, err = run_cli(capsys, "series", "--hgraph", BIP, "--caps", "2,x")
    assert code == 2 and err != ""
    code, _, _ = run_cli(capsys, "series", "--hgraph", BIP, "--caps", "2")
    assert code == 2


def test_diagonal_output(capsys):
    mixed = '{"hgraph": {"H_edges": [[0,1]], "phi": [1,0]}}'
    code, out, _ = run_cli(capsys, "diagonal", "--hgraph", mixed, "--upto", "4")
    assert code == 0
    assert json.loads(out) == {"diagonal": ["0", "1", "3", "35/2", "525/4"]}


def test_table_max_3(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "bipartite", "--max", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == [["1", "2", "6"], ["10", "54"], ["450"]]
    assert "discrepancies" not in obj


def test_table_max_4_reports_discrepancy(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "bipartite", "--max", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == [
        ["1", "2", "6", "24"],
        ["10", "54", "336"],
        ["450", "3960"],
        ["46440"],
    ]
    (disc,) = obj["discrepancies"]
    assert disc["cell"] == [4, 4]
    assert disc["series"] == disc["subset_dp"] == "46440"
    assert disc["previously_reported"] == ["46400", "23200"]


def test_table_over_budget_is_refused_by_the_counters_meter_exit_1(capsys, monkeypatch):
    # the one count of K_{100,100} is stopped by the tree counters' meter,
    # and no cell is counted on its own
    from asmtree import trees

    def unreachable(*_):
        raise AssertionError("cross-check DP started")

    monkeypatch.setattr(trees, "count_edge_rule", unreachable)
    meters, charges = [], []

    class Spy(trees.Meter):
        def __init__(self, *args):
            super().__init__(*args)
            meters.append(self)

        def charge(self, units):
            charges.append(units)
            super().charge(units)

    monkeypatch.setattr(trees, "Meter", Spy)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table", "--family", "bipartite", "--max", "100")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("refused:") and err.count("\n") == 1
    assert "units of work, the cap" in err
    # the work done is bounded without a clock: the counter's one meter
    # refuses at the first charge past its limit, a state's count, which
    # passes it by under 1% of the budget
    (meter,) = meters
    assert meter.work - charges[-1] <= meter.limit < meter.work
    assert charges[-1] < meter.limit // 100


def test_table_cells_are_the_states_of_one_count(capsys):
    # cell (m, n) is read at a state of K_{8,8}; each equals its own count
    from asmtree import count_edge_rule, family

    code, out, _ = run_cli(capsys, "table", "--family", "bipartite", "--max", "8")
    assert code == 0
    rows = json.loads(out)["rows"]
    for m in range(1, 9):
        for n in range(m, 9):
            fresh = count_edge_rule(family("complete_multipartite", [m, n]))
            assert rows[m - 1][n - m] == str(fresh), (m, n)


def test_table_admits_max_43_and_refuses_44(capsys):
    # the swap of the two sides of K_{m,m} halves the states that are counted
    code, out, err = run_cli(capsys, "table", "--family", "bipartite", "--max", "43")
    assert code == 0 and err == "" and len(json.loads(out)["rows"]) == 43
    code, out, err = run_cli(capsys, "table", "--family", "bipartite", "--max", "44")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "units of work" in err


def test_table_rejects_other_families(capsys):
    code, _, err = run_cli(capsys, "table", "--family", "tripartite", "--max", "3")
    assert code == 2 and err != ""


def _write_seq(tmp_path, values):
    path = tmp_path / "seq.txt"
    path.write_text("\n".join(values) + "\n")
    return str(path)


def test_verify_rec_builtin_pass(capsys, tmp_path):
    seq = _write_seq(tmp_path, ["0", "1", "3", "35/2", "525/4", "9009/8"])
    code, out, _ = run_cli(capsys, "verify-rec", "--rec", "builtin:a", "--seq", seq)
    assert code == 0
    assert json.loads(out) == {"pass": True, "first_failure": None, "checked": 4}


def test_verify_rec_failure_index(capsys, tmp_path):
    seq = _write_seq(tmp_path, ["0", "1", "3", "18", "130"])
    code, out, _ = run_cli(capsys, "verify-rec", "--rec", "builtin:a", "--seq", seq)
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is False and obj["first_failure"] == 2


def test_verify_rec_json_recurrence(capsys, tmp_path):
    seq = _write_seq(tmp_path, ["1", "1", "2", "5", "14", "42"])
    rec = json.dumps(
        {"order": 1, "offset": 0, "polys": [["-2", "-4"], ["1", "1"]]}
    )
    code, out, _ = run_cli(capsys, "verify-rec", "--rec", rec, "--seq", seq)
    assert code == 0 and json.loads(out)["pass"] is True


def test_verify_rec_builtin_c(capsys, tmp_path):
    seq = _write_seq(
        tmp_path,
        ["0", "3", "84", "4935", "3116295/8", "144495351/4", "29672207565/8"],
    )
    code, out, _ = run_cli(capsys, "verify-rec", "--rec", "builtin:c", "--seq", seq)
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True and obj["checked"] == 3


def test_guess_rec_catalan(capsys, tmp_path):
    from asmtree import closed_form

    seq = _write_seq(tmp_path, [str(closed_form("path", n + 1)) for n in range(25)])
    code, out, _ = run_cli(
        capsys, "guess-rec", "--seq", seq, "--max-order", "2", "--max-degree", "3"
    )
    assert code == 0
    rec = json.loads(out)["recurrence"]
    assert rec["order"] == 1 and rec["offset"] == 1


def test_guess_rec_none(capsys, tmp_path):
    from math import factorial

    seq = _write_seq(tmp_path, [str(factorial(n) ** 2 + n**7 + 1) for n in range(30)])
    code, out, _ = run_cli(
        capsys, "guess-rec", "--seq", seq, "--max-order", "1", "--max-degree", "1"
    )
    assert code == 0 and json.loads(out) == {"recurrence": None}


def test_asymptotics_report(capsys):
    code, out, _ = run_cli(
        capsys, "asymptotics", "--rec", "builtin:a", "--init", "0,1", "--n-max", "4000"
    )
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"lambda", "theta", "corrections", "n_max", "residuals"}
    assert abs(obj["lambda"] - 13.5) < 1e-6
    assert obj["theta"] == -2.0
    assert obj["n_max"] == 4000


def test_seq_file_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify-rec", "--rec", "builtin:a", "--seq", "/nope")
    assert code == 2 and err != ""
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    code, _, _ = run_cli(capsys, "verify-rec", "--rec", "builtin:a", "--seq", str(empty))
    assert code == 2


TRIPARTITE_JSON = '{"hgraph": {"H_edges": [[0,1],[0,2],[1,2]], "phi": [0,0,0]}}'


def test_diagonal_over_budget_exit_1(capsys, monkeypatch):
    from asmtree import series

    def unreachable(*_):
        raise AssertionError("window work started")

    # the window's cells are charged before its table is allocated
    monkeypatch.setattr(series, "_symmetry_classes", unreachable)
    code, out, err = run_cli(
        capsys, "diagonal", "--hgraph", TRIPARTITE_JSON, "--upto", "3000"
    )
    assert code == 1 and out == ""
    assert err.startswith("refused:") and err.count("\n") == 1


def test_guess_rec_negative_order_exit_2(capsys, tmp_path):
    seq = _write_seq(tmp_path, [str(n) for n in range(30)])
    code, out, err = run_cli(
        capsys, "guess-rec", "--seq", seq, "--max-order", "-1", "--max-degree", "3"
    )
    assert code == 2 and out == "" and err.count("\n") == 1


@pytest.mark.parametrize(
    "rec",
    [
        '{"order": 1, "offset": "abc", "polys": [["-2", "-4"], ["1", "1"]]}',
        '{"order": 1, "offset": true, "polys": [["-2", "-4"], ["1", "1"]]}',
        '{"order": true, "offset": 0, "polys": [["-2", "-4"], ["1", "1"]]}',
    ],
    ids=["offset-string", "offset-bool", "order-bool"],
)
def test_verify_rec_rejects_non_integer_fields(capsys, tmp_path, rec):
    seq = _write_seq(tmp_path, ["1", "1", "2", "5", "14", "42"])
    code, out, err = run_cli(capsys, "verify-rec", "--rec", rec, "--seq", seq)
    assert code == 2 and out == "" and err.count("\n") == 1


@pytest.mark.parametrize(
    "graph",
    [
        '{"n": true, "edges": []}',
        '{"n": 2, "edges": [[false, true]]}',
        '{"family": "path", "params": [true]}',
        '{"hgraph": {"H_edges": [[0,1]], "phi": [0,0], "mult": [true, 2]}}',
    ],
    ids=["n-bool", "endpoints-bool", "family-param-bool", "mult-bool"],
)
def test_count_rejects_bools(capsys, graph):
    code, out, err = run_cli(capsys, "count", "--graph", graph)
    assert code == 2 and out == "" and err.count("\n") == 1


@pytest.mark.parametrize(
    "edges,mult,fault",
    [(edges, "[1]", '"H_edges" must be a list of pairs') for edges in ("5", "null", "true", "1.5")]
    + [("[]", "5", '"mult" must be a list or absent')],
)
@pytest.mark.parametrize("command", [["count", "--graph"], ["series", "--caps", "2", "--hgraph"]])
def test_malformed_template_fields_exit_2(capsys, command, edges, mult, fault):
    template = f'{{"hgraph": {{"H_edges": {edges}, "phi": [0], "mult": {mult}}}}}'
    code, out, err = run_cli(capsys, *command, template)
    assert code == 2 and out == "" and err.count("\n") == 1 and fault in err


def test_asymptotics_iterates_once(capsys, monkeypatch):
    from asmtree import asymptotics

    calls = []
    real = asymptotics.log_sequence

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(asymptotics, "log_sequence", counted)
    code, out, _ = run_cli(
        capsys, "asymptotics", "--rec", "builtin:b", "--init", "0,1,5/2", "--n-max", "4000"
    )
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["lambda"] == asymptotics.estimate_lambda(
        builtin("b"), [0, 1, F(5, 2)], 4000
    )


def test_asymptotics_first_nonzero_term_at_n_max_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "asymptotics", "--rec", "builtin:a", "--init", "0,0,0,0,0,0,0,0,1", "--n-max", "8"
    )
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "first nonzero term is at index 8" in err


def test_over_budget_runs_exit_1_at_once(capsys, tmp_path):
    seq = _write_seq(tmp_path, [str(n * n + 1) for n in range(2000)])
    for argv in [
        ("guess-rec", "--seq", seq, "--max-order", "10", "--max-degree", "150"),
        ("asymptotics", "--rec", "builtin:c", "--init", "0,3,84,4935", "--n-max", "1000000000"),
    ]:
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and out == ""
        assert err.startswith("refused:") and err.count("\n") == 1


BIG = "1" + "0" * 400


@pytest.mark.parametrize(
    "rec, init",
    [
        ('{"polys": [["-' + BIG + '"], ["1"]]}', "1"),
        ("builtin:a", "0," + BIG),
        ('{"polys": [["-1/' + BIG + '"], ["1"]]}', "1"),
    ],
    ids=["terms-overflow", "initial-overflows", "lead-overflows"],
)
def test_asymptotics_beyond_float_range_exit_1(capsys, rec, init):
    code, out, err = run_cli(capsys, "asymptotics", "--rec", rec, "--init", init, "--n-max", "100")
    assert code == 1 and out == ""
    assert err.startswith("refused:") and err.count("\n") == 1


def test_asymptotics_refuses_a_float_step_that_overflows(capsys):
    # f(n + 1) = n^50 f(n) overflows at index 11, right after the warmup
    rec = json.dumps({"order": 1, "offset": 1, "polys": [[0] * 50 + [-1], [1]]})
    code, out, err = run_cli(capsys, "asymptotics", "--rec", rec, "--init", "0,1", "--n-max", "1000")
    assert code == 1 and out == ""
    assert err == "refused: a float step left float range at index 11\n"
