import math

import numpy as np
import pytest

from conftest import hypercube
from oracles import random_simplex

from edgerigid import eigensum
from edgerigid import families as fam
from edgerigid.eigensum import (
    VERDICT_INCONCLUSIVE,
    VERDICT_REFUTED,
    VERDICT_RIGID,
    certificate,
    fractional_top_projector,
    gauge_product,
    k_rigidity_profile,
    optimize,
)
from edgerigid.graphs import WeightVector, adjoint_apply, edge_energies, incidence, laplacian
from edgerigid.rigidity import decide_edge_rigid_exact


def eigensums(g, w, k):
    """Direct eigencomputation of (S_k, s_k), independent of eigensum internals."""
    evals = np.linalg.eigvalsh(laplacian(g, w))
    return float(evals[g.n - k:].sum()), float(evals[1:k + 1].sum())


# ---------------------------------------------------------------------------
# Ky Fan sums
# ---------------------------------------------------------------------------

def test_kyfan_k4():
    # S_2 and s_2 at unit weights, as eigensums and as the optimizer's baselines
    g = fam.complete_graph(4)
    assert np.allclose(eigensums(g, None, 2), (8, 8), atol=1e-9)
    assert abs(optimize(g, 2, "upper").baseline - 8) < 1e-9
    assert abs(optimize(g, 2, "lower").baseline - 8) < 1e-9


def test_kyfan_c4():
    g = fam.cycle_graph(4)
    assert np.allclose(eigensums(g, None, 1), (4, 2), atol=1e-9)
    assert abs(optimize(g, 1, "upper").baseline - 4) < 1e-9
    assert abs(optimize(g, 1, "lower").baseline - 2) < 1e-9


def test_kyfan_k_range_checked():
    g = fam.complete_graph(4)
    for objective in ("upper", "lower"):
        for k in (0, g.n):
            with pytest.raises(ValueError):
                optimize(g, k, objective)


def test_kyfan_full_range_is_trace(corpus_case):
    _, g, _ = corpus_case
    w = random_simplex(g.m, seed=4, count=1)[0]
    for weights in (None, w):
        S_k, s_k = eigensums(g, weights, g.n - 1)
        assert abs(S_k - 2 * g.m) < 1e-9
        assert abs(s_k - 2 * g.m) < 1e-9


def test_kyfan_projector_properties(corpus_case):
    _, g, _ = corpus_case
    evals, evecs = np.linalg.eigh(laplacian(g).astype(float))
    for k in (1, g.n - 1):
        X = fractional_top_projector(evals, evecs, k)
        assert abs(np.trace(X) - k) < 1e-9
        xe = np.linalg.eigvalsh(X)
        assert xe.min() > -1e-9 and xe.max() < 1 + 1e-9
        assert np.linalg.norm(X @ np.ones(g.n)) < 1e-8


def test_kyfan_trace_identity(corpus_case):
    _, g, _ = corpus_case
    for w in random_simplex(g.m, seed=6, count=5):
        for k in range(1, g.n - 1):
            S_k, _ = eigensums(g, w, k)
            _, s_rest = eigensums(g, w, g.n - 1 - k)
            assert abs(S_k + s_rest - 2 * g.m) <= 1e-9 * 2 * g.m


def test_kyfan_monotone_in_k(corpus_case):
    _, g, _ = corpus_case
    w = random_simplex(g.m, seed=13, count=1)[0]
    tops = [eigensums(g, w, k)[0] for k in range(1, g.n)]
    assert all(a <= b + 1e-12 for a, b in zip(tops, tops[1:]))


def test_kyfan_dominates_random_projectors(corpus_case):
    # no random rank-k projector beats the eigenvalue value
    _, g, _ = corpus_case
    rng = np.random.default_rng(17)
    w = random_simplex(g.m, seed=8, count=1)[0]
    L = laplacian(g, w)
    for k in (1, max(1, g.n // 2)):
        S_k, _ = eigensums(g, w, k)
        for _ in range(50):
            Q, _ = np.linalg.qr(rng.normal(size=(g.n, k)))
            val = float(np.trace(Q.T @ L @ Q))
            assert val <= S_k + 1e-8


def test_fractional_projector_trace():
    g = fam.complete_graph(4)
    evals, evecs = np.linalg.eigh(laplacian(g).astype(float))
    for k in (1, 2, 3):
        X = fractional_top_projector(evals, evecs, k)
        assert abs(np.trace(X) - k) < 1e-12
        xe = np.linalg.eigvalsh(X)
        assert xe.min() > -1e-12 and xe.max() < 1 + 1e-12


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def test_optimize_k4_upper():
    res = optimize(fam.complete_graph(4), 1, "upper")
    assert res.verdict == VERDICT_RIGID
    assert abs(res.best_primal - 4) < 1e-9
    assert abs(res.best_dual - 4) < 1e-8
    assert res.gap >= 0


def test_optimize_trivial_top_k(corpus_case):
    # S_{n-1} is the trace, constant on the simplex: zero gap at unit weights
    _, g, _ = corpus_case
    res = optimize(g, g.n - 1, "upper")
    assert res.verdict == VERDICT_RIGID
    assert res.iterations <= 1
    assert abs(res.baseline - 2 * g.m) < 1e-9
    low = optimize(g, g.n - 1, "lower")
    assert low.verdict == VERDICT_RIGID
    assert abs(low.baseline - 2 * g.m) < 1e-9


def test_optimize_p4_refutes():
    g = fam.path_graph(4)
    found = []
    for k in (1, 2, 3):
        for obj in ("upper", "lower"):
            res = optimize(g, k, obj)
            if res.verdict == VERDICT_REFUTED:
                found.append((k, obj, res))
    assert found
    # re-validate each witness by a direct eigencomputation
    for k, obj, res in found:
        w = WeightVector(res.best_w)
        S_k, s_k = eigensums(g, w, k)
        scale = max(1.0, abs(res.baseline))
        if obj == "upper":
            assert res.baseline - S_k >= 1e-4 * scale
        else:
            assert s_k - res.baseline >= 1e-4 * scale


def test_optimize_dual_bound_sound():
    # the best certified dual bound lower-bounds S_k over sampled weights
    g = fam.path_graph(4)
    res = optimize(g, 1, "upper", iters=500)
    for w in random_simplex(g.m, seed=10, count=100):
        S_k, _ = eigensums(g, w, 1)
        assert res.best_dual <= S_k + 1e-8


def test_optimize_result_invariants(corpus_case):
    _, g, _ = corpus_case
    res = optimize(g, 1, "upper", iters=200)
    assert res.best_dual <= res.best_primal + 1e-9
    assert res.gap >= -1e-12
    assert res.best_primal <= res.baseline + 1e-12
    assert abs(sum(res.best_w) - g.m) < 1e-9


def test_optimize_lower_mirrors_upper():
    g = fam.cycle_graph(4)
    low = optimize(g, 1, "lower")
    assert low.verdict == VERDICT_RIGID
    assert abs(low.baseline - 2.0) < 1e-9  # s_1(C4) = 2
    assert low.best_dual >= low.best_primal - 1e-9


def test_optimize_rejects_bad_arguments():
    g = fam.complete_graph(4)
    with pytest.raises(ValueError):
        optimize(g, 0, "upper")
    with pytest.raises(ValueError):
        optimize(g, 1, "sideways")
    # the lower objective at k = n - 1 makes no run, but checks its budget too
    for k, objective in ((1, "upper"), (g.n - 1, "lower")):
        with pytest.raises(ValueError, match="iters"):
            optimize(g, k, objective, iters=0)
    with pytest.raises(ValueError, match="iters"):
        k_rigidity_profile(g, iters=0)


def test_optimize_budget_is_inconclusive_not_crash():
    # one iteration, the unit-weight one, can neither certify nor refute
    res = optimize(fam.path_graph(4), 1, "upper", iters=1)
    assert res.verdict == "inconclusive"


def test_upper_run_stops_once_the_predicted_decrease_is_negligible():
    # a first gradient reflected about its mean points uphill, so every trial
    # is rejected and the step halves until Armijo's predicted decrease is
    # below the gap tolerance; without that stop the run spends all iters
    g, k, iters = fam.path_graph(12), 1, 500
    B = incidence(g).astype(float)
    evals, evecs = np.linalg.eigh(B @ B.T)
    (row,) = eigensum._slot_energies(g, evals, evecs, [k])
    baseline = float(evals[g.n - k:].sum())
    scale = eigensum._scale(g, k, baseline)
    best_primal, _, _, t, _ = eigensum._optimize_upper(
        g, B, k, iters, eigensum.TOL * scale, eigensum.GAP_TOL * scale, 2 * row.mean() - row,
        baseline, g.m * float(row.min()), math.inf,
    )
    assert t < iters
    assert best_primal == baseline


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_k4():
    cert = certificate(fam.complete_graph(4), 1)
    assert cert.k_j == 3
    assert abs(cert.x - 2.0) < 1e-9
    assert abs(cert.y - 0.0) < 1e-9
    assert abs(cert.bound - 12.0) < 1e-8
    assert abs(cert.top_eigensum - 12.0) < 1e-8
    assert cert.passes


def test_certificate_c4():
    cert = certificate(fam.cycle_graph(4), 1)
    assert cert.k_j == 1
    assert abs(cert.bound - 4.0) < 1e-8  # |E| x_1 = S_1(1)
    assert cert.passes


def test_certificate_p4_fails():
    cert = certificate(fam.path_graph(4), 1)
    assert not cert.passes
    assert cert.residuals["dual_feasibility"] > 1e-8


def test_certificate_levels_rigid(rigid_graph):
    g = rigid_graph
    from edgerigid.spectral import spectrum

    r = spectrum(laplacian(g).astype(float)).r
    for j in range(1, r):
        cert = certificate(g, j)
        assert cert.passes, cert.residuals
        assert abs(cert.bound - cert.top_eigensum) <= 1e-8 * max(1.0, cert.top_eigensum)


def test_certificate_level_checked():
    with pytest.raises(IndexError):
        certificate(fam.complete_graph(4), 2)  # K4 has r = 2, levels are 1..1


# ---------------------------------------------------------------------------
# gauge identity
# ---------------------------------------------------------------------------

def test_gauge_k4():
    gp = gauge_product(fam.complete_graph(4), 1)
    assert abs(gp.top_eigensum - 4.0) < 1e-9
    assert abs(gp.dual_gauge - 1.5) < 1e-6
    assert abs(gp.product - 6.0) < 1e-5


def test_gauge_product_at_least_edge_count(corpus_case):
    _, g, _ = corpus_case
    for k in range(1, g.n):
        gp = gauge_product(g, k, iters=300)
        assert gp.product >= g.m - 1e-9
        assert gp.product_lo <= gp.product + 1e-12


def test_gauge_p4_witness_exceeds():
    products = [gauge_product(fam.path_graph(4), k) for k in (1, 2, 3)]
    assert any(gp.product_lo > 3 + 1e-3 for gp in products)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def test_profile_k4_all_rigid():
    prof = k_rigidity_profile(fam.complete_graph(4))
    assert prof.all_rigid
    assert not prof.refuted_entries()


def test_profile_p4_has_refutation():
    prof = k_rigidity_profile(fam.path_graph(4))
    assert prof.refuted_entries()
    assert not prof.all_rigid


def test_profile_interpolation_on_rigid_graph():
    # upper rigidity at consecutive multiplicity levels covers every k between
    prof = k_rigidity_profile(fam.petersen_graph())
    verdicts = [e.upper.verdict for e in prof.entries]
    assert all(v == VERDICT_RIGID for v in verdicts)


SEEDED = {f"tree{n}-{s}": fam.random_tree(n, seed=s) for n in (6, 9, 12, 16) for s in range(3)}
SEEDED |= {
    f"C{n}-{jumps[0]}-{jumps[1]}": fam.circulant_graph(n, jumps)
    for n in range(7, 17)
    for jumps in ((1, 2), (1, 3))
}


STANDALONE_CASES = {
    "P2": fam.path_graph(2),
    "P3": fam.path_graph(3),
    "P7": fam.path_graph(7),
    "C7": fam.cycle_graph(7),
    "K5": fam.complete_graph(5),
    "petersen": fam.petersen_graph(),
    "tree6": fam.random_tree(6, seed=3),
    "tree8": fam.random_tree(8, seed=5),
    "tree9": fam.random_tree(9, seed=7),
    # repeated eigenvalues: the boundary group is split at some k
    "Q4": hypercube(4),
    "K3_3": fam.complete_bipartite_graph(3, 3),
    "C12-1-2": fam.circulant_graph(12, (1, 2)),
}
STANDALONE_CASES |= {f"seeded-{n}": g for n, g in SEEDED.items() if n not in STANDALONE_CASES}


@pytest.mark.parametrize(
    "g, tol",
    [(g, eigensum.TOL) for g in STANDALONE_CASES.values()]
    # a TOL below GAP_TOL: a run that stops at unit weights takes its verdict from the rule
    + [(fam.circulant_graph(12, (1, 2)), 1e-12), (fam.cycle_graph(60), 1e-14)],
    ids=[*STANDALONE_CASES, "C12-1-2-tol1e-12", "C60-tol1e-14"],
)
def test_profile_equals_standalone_runs(monkeypatch, g, tol):
    # every entry has its standalone run's verdict, and one that made its own
    # iterations, or is not refuted, is that run; a refuted entry with no
    # iteration carries the best_w object of a refuted upper run at a lower
    # level, which an eigvalsh of L(best_w) built from the edges confirms
    monkeypatch.setattr(eigensum, "TOL", tol)
    prof = k_rigidity_profile(g, iters=1500)
    assert [e.k for e in prof.entries] == list(range(1, g.n))
    witnesses = [  # (level, best_w) of the upper runs that refuted with their own iterations
        (e.k, e.upper.best_w) for e in prof.entries
        if e.upper.verdict == VERDICT_REFUTED and e.upper.iterations > 0
    ]
    for e in prof.entries:
        for objective, res in (("upper", e.upper), ("lower", e.lower)):
            alone = optimize(g, e.k, objective, iters=1500)
            assert res.verdict == alone.verdict == verdict_of_bounds(g, res), (e.k, objective)
            if res.iterations > 0 or res.verdict != VERDICT_REFUTED:
                assert res.to_dict() == alone.to_dict(), (e.k, objective)
                continue
            level = e.k if objective == "upper" else g.n - 1 - e.k
            assert any(res.best_w is w for j, w in witnesses if j < level), (e.k, objective)
            assert res.baseline == alone.baseline, (e.k, objective)
            assert_witness(g, res)


def laplacian_from_edges(g, w):
    """L(w) summed edge by edge from g.edges, independent of the graphs module."""
    L = np.zeros((g.n, g.n))
    for (a, b), x in zip(g.edges, w):
        L[a, a] += x
        L[b, b] += x
        L[a, b] -= x
        L[b, a] -= x
    return L


def run_margin(g, res):
    """eigensum.TOL times the smaller baseline of the entries res's run gives.

    The run behind res also gives the other objective at n - 1 - k, with
    baseline 2|E| - res.baseline, unless that level is 0.
    """
    mirror = 2 * g.m - res.baseline if res.k < g.n - 1 else res.baseline
    return eigensum.TOL * max(1.0, min(res.baseline, mirror))


def verdict_of_bounds(g, res):
    """The verdict that res's baseline, best bounds and eigensum.TOL give."""
    base, margin = res.baseline, run_margin(g, res)
    if res.objective == "upper":
        rigid, refuted = base - res.best_dual <= margin, res.best_primal < base - margin
    else:
        rigid, refuted = res.best_dual - base <= margin, res.best_primal > base + margin
    return VERDICT_RIGID if rigid else VERDICT_REFUTED if refuted else VERDICT_INCONCLUSIVE


def count_calls(monkeypatch, owner, name):
    """A one-item list holding the number of owner.name calls made from now on."""
    count = [0]
    func = getattr(owner, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return func(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return count


@pytest.mark.parametrize(
    "g, open_runs, descents",
    [(fam.path_graph(n), n - 2, d) for n, d in ((2, 0), (4, 2), (7, 2), (12, 3))]
    + [(fam.cycle_graph(60), 0, 0), (hypercube(4), 0, 0), (fam.petersen_graph(), 0, 0)],
    ids=["2", "4", "7", "12", "C60", "Q4", "petersen"],
)
def test_profile_runs_each_upper_once(monkeypatch, g, open_runs, descents):
    # one upper result per k = 0..n-1 and one lower per k = 1..n-1; of the k
    # left open at unit weights (on P_n all but k = n - 1, where S_k = 2|E|),
    # those that no earlier refuted run's best_w refutes go on to _optimize_upper
    results = count_calls(monkeypatch, eigensum, "OptimizeResult")
    upper_runs = count_calls(monkeypatch, eigensum, "_optimize_upper")
    prof = k_rigidity_profile(g, iters=20)
    assert [(e.k, e.upper.k, e.lower.k) for e in prof.entries] == [(k, k, k) for k in range(1, g.n)]
    assert results[0] == g.n + g.n - 1
    assert upper_runs[0] == descents
    shared = [e.k for e in prof.entries if e.upper.iterations == 0]
    assert descents + len(shared) == open_runs
    assert all(prof.entries[k - 1].upper.verdict == VERDICT_REFUTED for k in shared)


@pytest.fixture
def gathers(monkeypatch):
    """The group count of each group_energies call eigensum makes, one entry per gather."""
    groups, gather = [], eigensum.group_energies

    def counted(*args):
        energies = gather(*args)
        groups.append(len(energies))
        return energies

    monkeypatch.setattr(eigensum, "group_energies", counted)
    return groups


@pytest.mark.parametrize(
    "g, r",
    [(fam.cycle_graph(60), 31), (fam.petersen_graph(), 3), (hypercube(4), 5)],
    ids=["C60", "petersen", "Q4"],
)
def test_rigid_profile_makes_one_energy_pass_per_group(gathers, g, r):
    # every run stops at its first iterate, whose energies are sums of the
    # groups above the kernel group, which no k reaches: one gather of edge
    # differences serves all r - 1 of them
    prof = k_rigidity_profile(g)
    assert prof.all_rigid
    assert gathers == [r - 1]


def test_lower_at_trivial_k_makes_no_iteration():
    g = fam.path_graph(5)
    res = optimize(g, g.n - 1, "lower")
    assert res.iterations == 0
    assert res.verdict == VERDICT_RIGID


# ---------------------------------------------------------------------------
# first-order exit: a refuted run stops at its first checked witness
# ---------------------------------------------------------------------------

def assert_witness(g, res):
    """A refuted result's best_w is a weight vector that beats unit weights by more
    than its margin under numpy's eigvalsh of L(best_w) summed from g.edges."""
    WeightVector(res.best_w)
    evals = np.linalg.eigvalsh(laplacian_from_edges(g, res.best_w))
    S_k, s_k = evals[g.n - res.k:].sum(), evals[1:res.k + 1].sum()
    margin = run_margin(g, res)
    if res.objective == "upper":
        assert S_k < res.baseline - margin, (res.k, S_k, res.baseline)
    else:
        assert s_k > res.baseline + margin, (res.k, s_k, res.baseline)


def test_optimize_p30_k5_is_refuted():
    # mirror descent with a fixed step schedule needs thousands of steps here;
    # the backtracking search from unit weights a few
    g = fam.path_graph(30)
    res = optimize(g, 5)
    assert res.verdict == VERDICT_REFUTED
    assert res.iterations <= 20
    assert_witness(g, res)


def test_refuted_run_stops_at_its_first_witness(monkeypatch):
    # S_k of every evaluated weight vector, read off each eigh the run makes
    g, k, primals = fam.path_graph(30), 5, []
    eigh = np.linalg.eigh

    def recorded(M):
        evals, evecs = eigh(M)
        primals.append(float(evals[g.n - k:].sum()))
        return evals, evecs

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    res = optimize(g, k)
    assert res.verdict == VERDICT_REFUTED
    assert len(primals) == res.iterations <= 5000
    margin = run_margin(g, res)
    *before, last = primals
    assert last == res.best_primal < res.baseline - margin
    assert all(p >= res.baseline - margin for p in before)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Count the np.linalg.eigh calls made."""
    return count_calls(monkeypatch, np.linalg, "eigh")


def test_iters_caps_eigh_calls(eigh_calls):
    res = optimize(fam.path_graph(12), 3, iters=3)
    assert 1 <= eigh_calls[0] <= 3
    assert res.iterations == eigh_calls[0]


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Count the np.linalg.eigvalsh calls made."""
    return count_calls(monkeypatch, np.linalg, "eigvalsh")


def test_profile_shares_the_unit_spectrum(eigh_calls, eigvalsh_calls):
    # every run on an edge-rigid graph stops at unit weights; nothing else is solved
    for g in (fam.petersen_graph(), fam.cycle_graph(60)):
        eigh_calls[0] = eigvalsh_calls[0] = 0
        prof = k_rigidity_profile(g)
        assert prof.all_rigid
        assert (eigh_calls[0], eigvalsh_calls[0]) == (1, 0), g.n


def test_first_step_is_sized_by_the_eigenvalue_gap(eigh_calls):
    # a first step that moves no eigenvalue of L(1) past about half its gap
    # keeps the first-order model: P50 at k = 1 refutes at its first trial,
    # where alpha = m / |g_1|_inf took 12 rejected halvings
    res = optimize(fam.path_graph(50), 1)
    assert res.verdict == VERDICT_REFUTED
    assert eigh_calls[0] == res.iterations <= 3


def test_long_path_profile_settles_every_run_within_two_eigh_each(eigh_calls):
    # every stop is scaled like the margin: at k = n - 2 on a path what is at
    # stake is lambda_2 ~ pi^2 / n^2, not S_k(1) ~ 2n
    g = fam.path_graph(100)
    prof = k_rigidity_profile(g)
    assert eigh_calls[0] <= 2 * (g.n - 1)
    for e in prof.entries:
        for res in (e.upper, e.lower):
            assert res.verdict != VERDICT_INCONCLUSIVE, (res.k, res.objective)
    up = prof.entries[97].upper
    assert (up.k, up.verdict) == (98, VERDICT_REFUTED)
    assert_witness(g, up)


def test_edge_energies_equal_projector_adjoint(corpus_case):
    _, g, _ = corpus_case
    evals, evecs = np.linalg.eigh(laplacian(g).astype(float))
    rows = eigensum._slot_energies(g, evals, evecs, range(1, g.n))
    for k, energy in enumerate(rows, start=1):
        X = fractional_top_projector(evals, evecs, k)
        assert np.max(np.abs(energy - adjoint_apply(g, X))) <= 1e-12, k
    rng = np.random.default_rng(5)
    for p in (1, 3, g.n):
        V = rng.normal(size=(g.n, p))
        ref = adjoint_apply(g, V @ V.T)
        assert np.max(np.abs(edge_energies(g, V) - ref)) <= 1e-12 * max(1.0, float(ref.max()))


PATHS = {f"P{n}": fam.path_graph(n) for n in range(10, 61, 10)}
TREES = {f"tree{n}-seed{s}": fam.random_tree(n, seed=s) for s in range(20) for n in [6 + 7 * s % 35]}
LONG_TREES = {f"tree{n}-seed{n}": fam.random_tree(n, seed=n) for n in range(40, 81, 10)}
PROFILE_CASES = SEEDED | PATHS | TREES | LONG_TREES


@pytest.mark.parametrize("name", sorted(PROFILE_CASES))
def test_profile_on_seeded_graphs(name):
    # 500 iterations: rigid graphs stop at the first, refutations within a few
    g = PROFILE_CASES[name]
    prof = k_rigidity_profile(g, iters=500)
    for e in prof.entries:
        for res in (e.upper, e.lower):
            if res.verdict == VERDICT_REFUTED:
                assert_witness(g, res)
    # one run gives the upper entry at k and the lower entry at n - 1 - k
    for up, low in zip(prof.entries[:-1], reversed(prof.entries[:-1])):
        assert up.upper.verdict == low.lower.verdict, (up.k, low.k)
    if name in PATHS:
        for e in prof.entries[:-1]:
            assert e.upper.verdict == e.lower.verdict == VERDICT_REFUTED, e.k
    assert prof.all_rigid == decide_edge_rigid_exact(g).rigid


# ---------------------------------------------------------------------------
# split boundary groups: the least-norm subgradient of the boundary face
# ---------------------------------------------------------------------------

SPLIT = {
    "C12-1-2-3": fam.circulant_graph(12, (1, 2, 3)),
    "C12-2-3-5": fam.circulant_graph(12, (2, 3, 5)),
    "C16-1-3-8": fam.circulant_graph(16, (1, 3, 8)),
    # its faces take the longest solves here: 56 steps with the momentum restart, 280 without
    "C18-1-8-9": fam.circulant_graph(18, (1, 8, 9)),
}


@pytest.mark.parametrize("name", sorted(SEEDED | SPLIT))
def test_profile_settles_every_run(name):
    g = (SEEDED | SPLIT)[name]
    prof = k_rigidity_profile(g)
    for e in prof.entries:
        for res in (e.upper, e.lower):
            assert res.verdict != VERDICT_INCONCLUSIVE, (res.k, res.objective)
            if res.verdict == VERDICT_REFUTED:
                assert_witness(g, res)


def test_infeasible_face_descends_at_once():
    # at unit weights no subgradient of S_3 on C12(3,4,5) is constant: the
    # least-norm one is the descent direction, and it refutes within a few steps
    g, k = fam.circulant_graph(12, (3, 4, 5)), 3
    evals, evecs = np.linalg.eigh(laplacian(g).astype(float))
    face = eigensum._face(g, evals, evecs, k, np.ones(g.m))
    assert face.max() - face.min() > 1e-2
    res = optimize(g, k)
    assert res.verdict == VERDICT_REFUTED
    assert res.iterations <= 20
    assert_witness(g, res)


def weighted_spread(w, gvec):
    return float(np.sum(w * (gvec - w @ gvec / w.sum()) ** 2))


@pytest.mark.parametrize("jump_weights", [(1.0, 1.0), (1.5, 0.5)], ids=["unit", "weighted"])
def test_face_stays_on_the_face(jump_weights):
    # sum_e w_e g_e = tr(L(w) X) is S_k(w) only for X on the face, with tr Z = t;
    # the weights keep C16(1,3) circulant, so its eigenvalue pairs stay exact
    g = fam.circulant_graph(16, (1, 3))
    w = np.array([jump_weights[min(abs(a - b), 16 - abs(a - b)) == 3] for a, b in g.edges])
    evals, evecs = np.linalg.eigh(laplacian(g, WeightVector.from_values(w)))
    split = [k for k in range(1, g.n) if abs(evals[g.n - k] - evals[g.n - k - 1]) < 1e-9]
    assert split
    for k in split:
        face = eigensum._face(g, evals, evecs, k, w)
        S_k = float(evals[g.n - k:].sum())
        assert abs(w @ face - S_k) <= 1e-9 * S_k, k
        (row,) = eigensum._slot_energies(g, evals, evecs, [k])
        assert weighted_spread(w, face) <= weighted_spread(w, row) * (1 + 1e-9), k  # it starts there


def test_face_of_an_unsplit_group_is_the_slot_row():
    g = fam.path_graph(12)
    evals, evecs = np.linalg.eigh(laplacian(g).astype(float))
    for k in range(1, g.n):
        face = eigensum._face(g, evals, evecs, k, np.ones(g.m))
        assert np.array_equal(face, eigensum._slot_energies(g, evals, evecs, [k])[0]), k
