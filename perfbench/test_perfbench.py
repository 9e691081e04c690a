"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import dataclasses
import json
import pytest

import checks
import run
import workloads as wl


def shape(jobs):
    """What must not depend on the seed: job order, kinds and sizes."""
    return [(j.name, j.kind, j.n, len(j.edges)) for j in jobs]


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    a, b, other = wl.build(workload, 5), wl.build(workload, 5), wl.build(workload, 6)
    assert a == b
    assert shape(a) == shape(other)
    assert [j.data for j in a] != [j.data for j in other]


def test_workload_sizes():
    census = wl.build("census-small", 0)
    assert len(census) == 623
    assert sum(j.name.startswith("tree") for j in census) == 100
    assert len(wl.build("optimize-profile", 0)) == 6


def walk_values_by_powers(n, edges, p_max):
    L = [[0] * n for _ in range(n)]
    for a, b in edges:
        L[a][a] += 1
        L[b][b] += 1
        L[a][b] -= 1
        L[b][a] -= 1
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = []
    for _ in range(p_max + 1):
        rows.append([P[a][a] + P[b][b] - 2 * P[a][b] for a, b in edges])
        P = [[sum(P[i][k] * L[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return rows


@pytest.mark.parametrize("edges", [wl.path(5), wl.petersen(), wl.circulant(9, (1, 3))])
def test_walk_rows_match_matrix_powers(edges):
    n = max(max(e) for e in edges) + 1
    expected = walk_values_by_powers(n, edges, n - 1)
    assert [row for _, row in zip(range(n), checks.walk_rows(n, edges))] == expected


def test_tree_counts_match_closed_forms():
    assert checks.tree_count(10, wl.petersen()) == 2000
    assert checks.tree_count(7, wl.complete(7)) == 7**5
    assert checks.tree_count(9, wl.cycle(9)) == 9
    assert checks.tree_count(8, wl.random_tree(8, wl.random.Random(1))) == 1
    assert checks.tree_count(16, wl.hypercube(4)) == wl.hypercube_tree_count(4)
    assert checks.tree_count(7, wl.complete_bipartite(3, 4)) == 3**3 * 4**2
    assert wl.hypercube_tree_count(2) == 4


def job(kind, n, edges, tree_count=None):
    return wl.Job("g", kind, n, edges, b"", (), tree_count)


def test_planted_wrong_decide_verdicts_fail():
    p6 = job("decide", 6, wl.path(6))
    c6 = job("decide", 6, wl.cycle(6))
    assert checks.check(c6, 0, "edge-rigid\n") is None
    assert checks.check(p6, 0, "edge-rigid\n") is not None
    # P6: w_1(e) = d_a + d_b + 2 is 5 on the end edges and 6 inside
    good = "not edge-rigid: power 1, edges (0, 1) vs (1, 2) (5 != 6)\n"
    assert checks.check(p6, 1, good) is None
    assert checks.check(p6, 0, good) is not None
    assert checks.check(p6, 1, good.replace("(5 != 6)", "(5 != 7)")) is not None
    assert checks.check(p6, 1, good.replace("power 1", "power 2")) is not None
    assert checks.check(c6, 1, good) is not None


def test_planted_wrong_census_and_analyze_outputs_fail():
    c5 = job("census", 5, wl.cycle(5))
    constants = tuple(row[0] for row in walk_values_by_powers(5, wl.cycle(5), 4))
    right = repr((5, wl.cycle(5), True, constants, None))
    assert checks.check(c5, 0, right) is None
    wrong = constants[:-1] + (constants[-1] + 1,)
    assert checks.check(c5, 0, repr((5, wl.cycle(5), True, wrong, None))) is not None
    assert checks.check(c5, 0, repr((5, wl.cycle(5), False, None, (1, (0, 1), (1, 2), 4, 4)))) is not None

    k4 = job("analyze", 4, wl.complete(4), tree_count=16)
    doc = {"report": {"edge_rigid": True}, "tree_count_exact": 16, "effective_resistances": [0.5] * 6}
    assert checks.check(k4, 0, json.dumps(doc)) is None
    for key, value in (("tree_count_exact", 15), ("effective_resistances", [0.5] * 5)):
        assert checks.check(k4, 0, json.dumps({**doc, key: value})) is not None
    assert checks.check(k4, 0, json.dumps({**doc, "report": {"edge_rigid": False}})) is not None


def test_planted_wrong_optimizer_outputs_fail():
    c6 = job("optimize", 6, wl.cycle(6))
    res = {"k": 2, "objective": "upper", "verdict": "refuted", "best_w": [1.0] * 6}
    assert checks.check(c6, 0, json.dumps(res)) is not None
    assert checks.check(c6, 0, json.dumps({**res, "verdict": "rigid-within-tol"})) is None
    p4 = job("optimize", 4, wl.path(4))
    assert checks.check(p4, 0, json.dumps({**res, "best_w": [1.0, 1.0, 1.0]})) is not None


def test_changed_stdout_byte_counts_as_failure():
    jobs = [job("decide", 6, wl.cycle(6)), job("decide", 6, wl.cycle(6))]
    ledger = run.Ledger(jobs, lambda j, code, out: None)
    first = [(0, "edge-rigid\n", 0.1), (0, "edge-rigid\n", 0.1)]
    assert ledger.add_pass(first) == 2
    assert ledger.add_pass(first) == 2
    assert ledger.add_pass([(0, "edge-rigid\n", 0.1), (0, "edge-rigid \n", 0.1)]) == 1
    assert (ledger.attempted, ledger.failed) == (6, 1)


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(18)]) == (7.0, pytest.approx(100 * 8 / 18))
    assert run.tail([float(i) for i in range(1000)])[0] == 989.0


def test_planted_wrong_verdict_in_the_program_fails(monkeypatch):
    er = run.import_program()
    census = wl.build("census-small", 3)
    jobs = census[:20] + census[-20:]
    ledger = run.Ledger(jobs, checks.check)
    _, results = run.run_pass(er, jobs, [None] * len(jobs))
    ledger.add_pass(results)
    assert ledger.failed == 0 and ledger.attempted == 40

    real = er.rigidity.decide_edge_rigid_exact
    monkeypatch.setattr(
        er.rigidity, "decide_edge_rigid_exact",
        lambda g: dataclasses.replace(real(g), rigid=True, witness=None),
    )
    _, results = run.run_pass(er, jobs, [None] * len(jobs))
    planted = run.Ledger(jobs, checks.check)
    planted.add_pass(results)
    assert planted.failed > 0
