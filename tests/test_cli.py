import argparse
import enum
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import CORPUS, hypercube

from edgerigid import cli
from edgerigid import families as fam
from edgerigid.errors import EdgeRigidError
from edgerigid.graphs import Graph


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name="graph.txt"):
        path = tmp_path / name
        path.write_text(g.to_edge_list())
        return str(path)

    return write


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_k4_json(graph_file, capsys):
    path = graph_file(fam.complete_graph(4))
    code, out, _ = run(["analyze", path, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["edge_rigid"] is True
    assert payload["tree_count_exact"] == 16
    assert abs(payload["kirchhoff_index"] - 3.0) < 1e-9
    assert all(abs(r - 0.5) < 1e-9 for r in payload["effective_resistances"])


def test_analyze_p4_reports_witness(graph_file, capsys):
    path = graph_file(fam.path_graph(4))
    code, out, _ = run(["analyze", path, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["edge_rigid"] is False
    witness = payload["report"]["witness"]
    assert witness["power"] == 1
    assert sorted([witness["value_a"], witness["value_b"]]) == [5, 6]


def test_analyze_malformed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    code, _, err = run(["analyze", str(bad)], capsys)
    assert code == 2
    assert "error:" in err


def test_decide_exit_codes(graph_file, capsys):
    rigid = graph_file(fam.petersen_graph(), "petersen.txt")
    code, out, _ = run(["decide", rigid], capsys)
    assert code == 0
    assert "edge-rigid" in out

    nonrigid = graph_file(fam.path_graph(4), "p4.txt")
    code, out, _ = run(["decide", nonrigid], capsys)
    assert code == 1
    assert "not edge-rigid" in out

    code, _, err = run(["decide", "does-not-exist.txt"], capsys)
    assert code == 2
    assert err


def test_decide_truncated_is_not_a_proof(graph_file, capsys):
    # P4 has constant w_0 and first fails at power 1
    path = graph_file(fam.path_graph(4))
    code, out, _ = run(["decide", path, "--max-power", "0"], capsys)
    assert code == 3
    assert out == "walk constants agree through power 0 (not a proof)\n"
    code, out, _ = run(["decide", path, "--max-power", "1"], capsys)
    assert code == 1

    rigid = graph_file(fam.petersen_graph(), "petersen.txt")
    code, out, _ = run(["decide", rigid, "--max-power", "3"], capsys)
    assert code == 3
    assert "edge-rigid" not in out
    code, out, _ = run(["decide", rigid, "--max-power", "9"], capsys)
    assert (code, out) == (0, "edge-rigid\n")

    # regular bipartite graphs, whose stream reads the diagonal at even powers
    # and the edge slots at odd ones, truncated at both parities
    for g, name in ((hypercube(3), "q3.txt"), (fam.cycle_graph(8), "c8.txt")):
        path = graph_file(g, name)
        for p in (0, 1, 2):
            code, out, _ = run(["decide", path, "--max-power", str(p)], capsys)
            assert (code, out) == (3, f"walk constants agree through power {p} (not a proof)\n")


def test_decide_certificate_within_max_power_is_a_proof(graph_file, capsys):
    # Q6: the recurrence certificate proves rigidity at power 12 <= 20
    cube = graph_file(hypercube(6), "q6.txt")
    code, out, _ = run(["decide", cube, "--max-power", "20"], capsys)
    assert (code, out) == (0, "edge-rigid\n")
    code, out, _ = run(["decide", cube, "--max-power", "11"], capsys)
    assert (code, out) == (3, "walk constants agree through power 11 (not a proof)\n")
    # C12 has no certificate within powers 0..5
    cycle = graph_file(fam.cycle_graph(12), "c12.txt")
    code, out, _ = run(["decide", cycle, "--max-power", "5"], capsys)
    assert (code, out) == (3, "walk constants agree through power 5 (not a proof)\n")


def test_decide_max_power_past_n_minus_1_is_full_depth(graph_file, capsys):
    # powers past n - 1 prove nothing more, so a huge P costs what P = n - 1 does
    cycle = graph_file(fam.cycle_graph(8), "c8.txt")
    t0 = time.perf_counter()
    code, out, _ = run(["decide", cycle, "--max-power", str(10**9)], capsys)
    assert (code, out) == (0, "edge-rigid\n")
    assert time.perf_counter() - t0 < 5
    path = graph_file(fam.path_graph(4), "p4.txt")
    expected = run(["decide", path], capsys)
    assert expected[0] == 1
    assert run(["decide", path, "--max-power", str(10**9)], capsys) == expected


def test_decide_negative_max_power_exits_2(graph_file, capsys):
    path = graph_file(fam.path_graph(4))
    code, out, err = run(["decide", path, "--max-power", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "max_power" in err


def test_graph6_input(tmp_path, capsys):
    path = tmp_path / "k4.g6"
    path.write_bytes(fam.complete_graph(4).to_graph6())
    code, out, _ = run(["decide", str(path)], capsys)
    assert code == 0

    # explicit override on a non-.g6 filename
    path2 = tmp_path / "k4.dat"
    path2.write_bytes(b"C~")
    code, _, _ = run(["decide", str(path2), "--input-format", "graph6"], capsys)
    assert code == 0


def test_optimize_c4(graph_file, capsys):
    path = graph_file(fam.cycle_graph(4))
    code, out, _ = run(
        ["optimize", path, "--k", "1", "--objective", "upper", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "rigid-within-tol"
    assert abs(payload["baseline"] - 4.0) < 1e-9


def test_certify_k4(graph_file, capsys):
    path = graph_file(fam.complete_graph(4))
    code, out, _ = run(["certify", path, "--j", "1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passes"] is True
    assert abs(payload["bound"] - 12.0) < 1e-8
    assert all(v < 1e-8 for v in payload["residuals"].values())


def test_certify_bad_level_exits_2(graph_file, capsys):
    path = graph_file(fam.complete_graph(4))
    code, _, err = run(["certify", path, "--j", "9"], capsys)
    assert code == 2
    assert err


# Text is the default format: (argv after the path, graph) -> text that the output must hold.
TEXT_CASES = {
    (("analyze",), "K4"): "walk_constants: ",
    (("analyze",), "P4"): "witness: ",
    (("optimize", "--k", "2"), "K4"): "verdict=",
    (("optimize", "--k", "2"), "P4"): "verdict=",
    (("certify", "--j", "1"), "K4"): "passes=",
    (("certify", "--j", "1"), "P4"): "passes=",
}


@pytest.mark.parametrize(
    "command, name", sorted(TEXT_CASES), ids=[f"{c[0]}-{n}" for c, n in sorted(TEXT_CASES)]
)
def test_text_output_is_the_default(graph_file, capsys, command, name):
    g = {"K4": fam.complete_graph(4), "P4": fam.path_graph(4)}[name]
    argv = [command[0], graph_file(g), *command[1:]]
    code, out, err = run(argv, capsys)
    assert code == 0 and not err
    assert TEXT_CASES[command, name] in out
    assert run(argv, capsys) == (0, out, "")


def test_profile_p4(graph_file, capsys):
    path = graph_file(fam.path_graph(4))
    code, out, _ = run(["profile", path, "--format", "json", "--iters", "2000"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["refuted"]


@pytest.mark.parametrize("name,g,expected", CORPUS, ids=[c[0] for c in CORPUS])
def test_profile_all_rigid_is_the_exact_verdict(graph_file, capsys, name, g, expected):
    # the theorem: totally conformally rigid iff edge-rigid, at the program's fixed margins
    path = graph_file(g)
    code, _, _ = run(["decide", path], capsys)
    assert code == (cli.EXIT_OK if expected else cli.EXIT_NOT_RIGID)
    _, out, _ = run(["profile", path, "--format", "json"], capsys)
    profile = json.loads(out)
    assert profile["all_rigid"] is (code == cli.EXIT_OK)
    assert {e[s]["tol"] for e in profile["entries"] for s in ("upper", "lower")} == {1e-05}
    _, out, _ = run(["optimize", path, "--k", "1", "--format", "json"], capsys)
    assert json.loads(out)["tol"] == 1e-05
    _, out, _ = run(["certify", path, "--j", "1", "--format", "json"], capsys)
    assert json.loads(out)["tol"] == 1e-08
    _, out, _ = run(["analyze", path, "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["report"]["float_tol"] == payload["parameters"]["tol"] == 1e-08


TOL_COMMANDS = {
    "analyze": [],
    "optimize": ["--k", "1"],
    "profile": [],
    "certify": ["--j", "1"],
}


@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
@pytest.mark.parametrize("tol", ["-1", "0", "inf", "nan"])
def test_bad_tol_is_a_usage_error(graph_file, capsys, command, tol):
    # --tol is an unknown option of every subcommand, whatever its value: the
    # margins are fixed constants, so argparse rejects it before any work
    path = graph_file(fam.cycle_graph(4))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, path, *TOL_COMMANDS[command], "--tol", tol])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--tol" in out.err


def test_embed_csv(graph_file, tmp_path, capsys):
    path = graph_file(fam.cycle_graph(4))
    out_path = tmp_path / "emb.csv"
    code, _, _ = run(["embed", path, "--eigenspace", "2", "--output", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "vertex,c1,c2"
    assert len(lines) == 5


def test_tau_with_weights(graph_file, tmp_path, capsys):
    path = graph_file(fam.cycle_graph(4))
    wpath = tmp_path / "w.txt"
    wpath.write_text("1.0\n1.0\n1.0\n1.0\n")
    code, out, _ = run(["tau", path, "--weights", str(wpath), "--format", "json"], capsys)
    assert code == 0
    assert abs(json.loads(out)["tree_count"] - 4.0) < 1e-8


@pytest.mark.parametrize("stray", [b"\xff", "\u00e9".encode()], ids=["0xff", "utf8-e-acute"])
def test_non_ascii_weight_byte_exits_2(graph_file, tmp_path, capsys, stray):
    # the file is read as bytes, so neither the byte nor the locale changes the error
    path = graph_file(fam.cycle_graph(4))
    wpath = tmp_path / "w.txt"
    wpath.write_bytes(b"1\n" + stray + b"\n1\n1\n")
    argv = ["tau", path, "--weights", str(wpath)]
    expected = (2, "", "error: weights must be ASCII decimal numbers\n")
    assert run(argv, capsys) == expected
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "edgerigid.cli", *argv], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_tau_non_finite_weight_exits_2(graph_file, tmp_path, capsys, bad):
    path = graph_file(fam.path_graph(4))
    wpath = tmp_path / "w.txt"
    wpath.write_text(f"1.0\n{bad}\n1.0\n")
    code, out, err = run(["tau", path, "--weights", str(wpath)], capsys)
    assert code == 2
    assert out == ""
    assert "weight entry 2" in err


def test_tau_unit_reports_exact(graph_file, capsys):
    path = graph_file(fam.complete_graph(4))
    code, out, _ = run(["tau", path, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["tree_count_exact"] == 16


def test_kf(graph_file, capsys):
    path = graph_file(fam.cycle_graph(4))
    code, out, _ = run(["kf", path, "--format", "json"], capsys)
    assert code == 0
    assert abs(json.loads(out)["kirchhoff_index"] - 5.0) < 1e-9


# C4 whose weight-0 edge leaves the path 0-1-2-3 with one tiny weight, and K5
# with weights spanning 50 orders of magnitude, whose computed lambda_2 is
# negative: tau and kf follow one connectivity rule on both
TINY_C4_WEIGHTS = "1e-12\n0\n1\n1\n"
K5_SPREAD_WEIGHTS = "2\n1e-40\n1e-50\n2\n1e-50\n1e-40\n1e-40\n1e-30\n1e-50\n1\n"


def test_kf_of_a_tiny_connecting_weight_is_finite(graph_file, tmp_path, capsys):
    path = graph_file(fam.cycle_graph(4))
    wpath = tmp_path / "w.txt"
    wpath.write_text(TINY_C4_WEIGHTS)
    code, out, _ = run(["kf", path, "--weights", str(wpath), "--format", "json"], capsys)
    assert code == 0
    # weights rescale to sum 4: a on (0, 1), b on (1, 2) and (2, 3); on the
    # path, Kf = sum over edges of n_1 n_2 / w_e = 3/a + 7/b
    a, b = 4e-12 / (2 + 1e-12), 4 / (2 + 1e-12)
    exact = 3 / a + 7 / b
    assert abs(json.loads(out)["kirchhoff_index"] - exact) <= 1e-5 * exact
    code, out, _ = run(["tau", path, "--weights", str(wpath)], capsys)
    assert code == 0 and float(out.split(": ")[1]) > 0


@pytest.mark.parametrize("command", ["tau", "kf"])
def test_unresolvable_weights_exit_2(graph_file, tmp_path, capsys, command):
    path = graph_file(fam.complete_graph(5))
    wpath = tmp_path / "w.txt"
    wpath.write_text(K5_SPREAD_WEIGHTS)
    code, out, err = run([command, path, "--weights", str(wpath)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cannot resolve" in err


def test_analyze_deterministic_bytes(graph_file, tmp_path, capsys):
    path = graph_file(fam.petersen_graph())
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["analyze", path, "--format", "json", "--output", str(out1)]) == 0
    assert cli.main(["analyze", path, "--format", "json", "--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


# The options each subcommand reads, by argparse dest (positional path included).
SUBCOMMAND_OPTIONS = {
    "analyze": {"path", "input_format", "format", "output"},
    "decide": {"path", "input_format", "max_power"},
    "optimize": {"path", "input_format", "format", "output", "k", "objective", "iters"},
    "profile": {"path", "input_format", "format", "output", "iters"},
    "certify": {"path", "input_format", "format", "output", "j"},
    "embed": {"path", "input_format", "output", "eigenspace"},
    "tau": {"path", "input_format", "format", "output", "weights"},
    "kf": {"path", "input_format", "format", "output", "weights"},
}


def subcommand_parsers():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_OPTIONS))
def test_subcommand_takes_only_the_options_it_reads(command):
    p = subcommand_parsers()[command]
    dests = {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
    assert dests == SUBCOMMAND_OPTIONS[command]


def test_parser_has_only_these_subcommands():
    assert set(subcommand_parsers()) == set(SUBCOMMAND_OPTIONS)


def test_decide_output_is_an_argparse_error(graph_file, tmp_path, capsys):
    path = graph_file(fam.path_graph(4))
    out_path = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["decide", path, "--output", str(out_path)])
    assert exc.value.code == 2
    assert not out_path.exists()
    assert capsys.readouterr().out == ""


def test_bare_index_error_propagates_out_of_main(graph_file, monkeypatch):
    # an indexing bug is not bad input: it must not become "error: ..." and exit 2
    def broken(args):
        return [][0]

    monkeypatch.setitem(cli.COMMANDS, "decide", broken)
    with pytest.raises(IndexError):
        cli.main(["decide", graph_file(fam.path_graph(4))])


# ---------------------------------------------------------------------------
# JSON writer: the same bytes as json.dumps(payload, indent=2, sort_keys=True)
# ---------------------------------------------------------------------------


def stdlib_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 3


WRITER_CASES = {
    "empty dict": {},
    "empty list": [],
    "nested empties": {"a": {}, "b": [], "c": [[], {}, [[]]], "d": [{}]},
    "bool int float": [True, 1, 1.0],
    "non-finite": [math.nan, math.inf, -math.inf],
    "non-finite leaves": {"x": math.nan, "y": [1, {"z": -math.inf}]},
    "negative zero": [-0.0, 0.0, 0],
    "small float": [1e-05, 5e-324],
    "large float": [1e16, 1.7976931348623157e308, 1e16 + 2],
    "ints above 2**64": [2**64 + 1, -(2**70), 3 * 10**40],
    "big int leaf": {"tree_count_exact": 2**100},
    "np.float64 leaves": [np.float64(0.1), np.float64(1) / 3, 2.5],
    "np.float64 scalar": {"gap": np.float64(-0.0), "bound": np.float64(1e16)},
    "non-ascii strings": {"\u00e9": "\u00fc\u2603\U0001f600", "k": ["\u00e9"]},
    "escaped strings": ["quote \" backslash \\ tab \t", "nl\n cr\r nul\x00 \x7f"],
    "mixed list": ["x", None, False, 1, [1, [2.5, {"z": 1, "a": [True, None]}]]],
    "tuples": [(1, 2), (3.5,), ()],
    "sorted keys": {"b": 1, "a": {"d": [1.5, 2], "c": "s"}, "B": None, "": 0},
    "scalar": 7,
    "true scalar": True,
    "false scalar": False,
    "None scalar": None,
    "NaN scalar": math.nan,
    "inf scalar": math.inf,
    "-inf scalar": -math.inf,
    "IntEnum leaves": {"a": Level.HIGH, "b": [Level.LOW, 2, Level.HIGH], "c": [Level.LOW]},
    "table": {"edges": [[0, 1], [0, 2], [1, 2]], "classes": [[0, 1, 2, 3]]},
    "table of one-item rows": [[5], [-6], [7.5]],
    "table of negatives and floats": [[-1, 2.5, -0.0], [1e-05, -3, 2**70], [-1.5e300]],
    "table with non-finite floats": [[math.nan, 1], [math.inf, -math.inf]],
    "table in a table": {"t": [[[1, 2], [3]], [[4]]]},
    "table with an empty row": [[1, 2], [], [3]],
    "table with bools": [[True, 1], [0, False]],
    "table with a tuple row": [[1, 2], (3, 4)],
    "table with IntEnum": [[Level.LOW, 1], [2, 3]],
    "tables in a list": [{"e": [[0, 1]]}, [[2, 3], [4, 5]], [[6, 7], [8, [9]]]],
    # dict values are formatted in place and nonzero floats through the call's
    # memo, keyed on their value: 0.0 == -0.0, NaN != NaN, True == 1 == 1.0
    "zero then negative zero": {"a": 0.0, "b": -0.0, "c": {"d": 0.0, "e": [-0.0, 0.0]}},
    "negative zero then zero": {"a": -0.0, "b": 0.0, "c": {"d": -0.0, "e": [0.0, -0.0]}},
    "non-finite values": {"a": math.nan, "b": math.inf, "c": -math.inf, "d": float("nan"),
                          "e": {"f": math.inf, "g": math.nan, "h": -math.inf}},
    "one float at several depths": {"a": 0.1, "b": {"c": 0.1, "d": {"e": 0.1, "f": [0.1]}},
                                    "g": [0.1, {"h": 0.1}], "i": 1 / 3, "j": {"k": 1 / 3}},
    "np.float64 next to float": {"a": 0.1, "b": np.float64(0.1), "c": {"d": np.float64(0.1)},
                                 "e": 0.1, "f": [np.float64(0.1), 0.1]},
    "float next to np.float64": {"a": np.float64(0.1), "b": 0.1, "c": np.float64(2.5), "d": 2.5},
    "True 1 1.0 in one dict": {"a": True, "b": 1, "c": 1.0, "d": {"x": 1.0, "y": True, "z": 1}},
    "1.0 1 True in one dict": {"a": 1.0, "b": 1, "c": True, "d": False, "e": 0, "f": 0.0},
    "percent keys": {"%": 1.5, "%s": "%s", "50%": {"%d": 2, "%%": [0.5]}, "a%sb": None},
    "non-ASCII keys": {"\u00e9": 0.25, "\u043a\u043b\u044e\u0447": {"\u2603": 0.25}, "a": "\u00e9"},
    "empty containers as values": {"a": {}, "b": [], "c": (), "d": {"e": {}, "f": []}, "g": 0.5},
}


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_writer_matches_stdlib(name):
    payload = WRITER_CASES[name]
    assert cli._dumps(payload) == stdlib_json(payload)


def test_writer_encodes_one_tuple_at_two_depths():
    w = (1.0, 0.5, 2)
    payload = {"a": w, "b": {"c": w, "d": [w, ("x", w)]}, "e": w}
    assert cli._dumps(payload) == stdlib_json(payload)


def test_writer_encodes_equal_tuples_that_are_distinct_objects():
    u, v = tuple([1.0, 0.25]), tuple([1.0, 0.25])
    assert u is not v
    payload = {"a": u, "b": v, "c": [u, v, tuple([0.25, 1.0])]}
    assert cli._dumps(payload) == stdlib_json(payload)


def test_writer_memo_does_not_outlive_its_call(monkeypatch):
    # every call starts from an empty memo of its own, so a tuple freed with
    # one payload cannot be read back through a reused id in the next call
    encode, memos = cli._encode, []

    def spy(obj, pad, memo):
        if pad == "\n":
            memos.append((memo, len(memo)))
        return encode(obj, pad, memo)

    monkeypatch.setattr(cli, "_encode", spy)
    for i in range(50):
        payload = {"w": tuple([float(i)] * 4), "v": [tuple([i, i + 1])]}
        assert cli._dumps(payload) == stdlib_json(payload)
        del payload
    assert [size for _, size in memos] == [0] * 50
    assert len({id(memo) for memo, _ in memos}) == 50


def test_writer_rejects_unknown_types():
    for payload in ({"a": object()}, [{1, 2}], [np.int64(3)]):
        with pytest.raises(TypeError):
            stdlib_json(payload)
        with pytest.raises(TypeError):
            cli._dumps(payload)


def seeded_graphs(count: int = 6, seed: int = 13):
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(4, 12)
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(n, 3 * n))}
        try:
            graphs.append((f"random{len(graphs)}", Graph(n, tuple(sorted(edges)))))
        except EdgeRigidError:  # disconnected; draw again
            pass
    return graphs


JSON_GRAPHS = [(name, g) for name, g, _ in CORPUS] + seeded_graphs()


@pytest.mark.parametrize("name,g", JSON_GRAPHS, ids=[c[0] for c in JSON_GRAPHS])
def test_json_stdout_is_the_stdlib_serialization(graph_file, tmp_path, capsys, name, g):
    path = graph_file(g)
    weights = tmp_path / "w.txt"
    weights.write_text("".join(f"{1 + (i % 3) / 2}\n" for i in range(g.m)))
    commands = [
        ["analyze"],
        ["optimize", "--k", "1", "--objective", "upper"],
        ["optimize", "--k", "1", "--objective", "lower"],
        ["profile"],
        ["certify", "--j", "1"],
        ["tau"],
        ["tau", "--weights", str(weights)],
        ["kf"],
    ]
    for command in commands:
        code, out, _ = run([command[0], path, *command[1:], "--format", "json"], capsys)
        assert code == 0, command
        assert out == stdlib_json(json.loads(out)) + "\n", command


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "edgerigid.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_gives_fresh_process_results(graph_file, tmp_path, capsys):
    path = graph_file(fam.path_graph(5))
    out_file = tmp_path / "report.json"
    sequences = [
        # --output must not stick: the second analyze writes to stdout
        [["analyze", path, "--format", "json", "--output", str(out_file)],
         ["analyze", path, "--format", "json"]],
        # a usage error leaves nothing behind
        [["profile", path, "--tol", "-1"], ["profile", path, "--format", "json"]],
        [["decide", path], ["profile", path]],
    ]

    def run_sequence(runner, sequence):
        got = []
        for argv in sequence:
            got.append(runner(argv))
            if "--output" in argv:
                got.append(out_file.read_bytes())
                out_file.unlink()
        return got

    results = []
    for sequence in sequences:
        got = run_sequence(lambda argv: in_process(argv, capsys), sequence)
        assert got == run_sequence(fresh_process, sequence)
        results.append(got)
    to_file, written, to_stdout = results[0]
    assert to_file == (0, "", "") and to_stdout[1].encode() == written
    usage_error, good = results[1]
    assert usage_error[0] == 2 and "--tol" in usage_error[2] and good[0] == 0
    assert [code for code, _, _ in results[2]] == [1, 0]
