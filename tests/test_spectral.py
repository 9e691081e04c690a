import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    LengthMismatchError,
    enumerate_spanning_trees,
    majorization_check,
    random_simplex,
    weighted_enum,
)

from edgerigid import families as fam
from edgerigid.errors import DisconnectingWeightsError
from edgerigid.graphs import WeightVector, adjoint_apply, laplacian
from edgerigid.rigidity import decide_edge_rigid_exact
from edgerigid.spectral import (
    edge_isometry_check,
    effective_resistances,
    embedding,
    kirchhoff_index,
    spectrum,
    tree_count_exact,
    tree_count_from_eigenvalues,
    weighted_tree_count,
)


def unit_spectrum(g):
    return spectrum(laplacian(g).astype(float))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_k4():
    s = unit_spectrum(fam.complete_graph(4))
    assert np.allclose(s.eigenvalues, [0, 4])
    assert s.multiplicities == (1, 3)


def test_spectrum_c4():
    s = unit_spectrum(fam.cycle_graph(4))
    assert np.allclose(s.eigenvalues, [0, 2, 4])
    assert s.multiplicities == (1, 2, 1)


def test_spectrum_p3():
    s = unit_spectrum(fam.path_graph(3))
    assert np.allclose(s.eigenvalues, [0, 1, 3])
    assert s.multiplicities == (1, 1, 1)


def test_spectrum_invariants(corpus_case):
    _, g, _ = corpus_case
    L = laplacian(g).astype(float)
    s = unit_spectrum(g)
    n = g.n
    assert sum(s.multiplicities) == n
    assert [U.shape for U in s.bases] == [(n, mult) for mult in s.multiplicities]
    projectors = [U @ U.T for U in s.bases]
    total = sum(projectors)
    assert np.linalg.norm(total - np.eye(n)) < 1e-8 * math.sqrt(n)
    for i in range(s.r):
        for j in range(i + 1, s.r):
            assert np.linalg.norm(projectors[i] @ projectors[j]) < 1e-8
    rebuilt = sum(v * P for v, P in zip(s.eigenvalues, projectors))
    assert np.linalg.norm(rebuilt - L) < 1e-8
    assert abs(s.eigenvalues[0]) < 1e-9
    assert np.linalg.norm(projectors[0] - np.ones((n, n)) / n) < 1e-8


def test_spectrum_holds_only_its_bases():
    # eigenspaces are kept as bases: n eigenvalues and n^2 basis entries,
    # not one n x n projector per eigenvalue group
    L = laplacian(fam.cycle_graph(200)).astype(float)
    n = 200
    tracemalloc.start()
    try:
        s = spectrum(L)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.r == 101
    assert sum(a.nbytes for a in (s.evals, *s.bases)) <= (n * n + n) * 8
    # what else is held is Python objects: the tuples and the basis views
    assert held <= (n * n + n) * 8 + 64 * 1024


def test_trace_identity(corpus_case):
    _, g, _ = corpus_case
    s = unit_spectrum(g)
    trace = sum(m * v for m, v in zip(s.multiplicities, s.eigenvalues))
    assert abs(trace - 2 * g.m) <= 1e-9 * 2 * g.m
    for w in random_simplex(g.m, seed=1, count=5):
        evals = np.linalg.eigvalsh(laplacian(g, w))
        assert abs(evals.sum() - 2 * g.m) <= 1e-9 * 2 * g.m


# ---------------------------------------------------------------------------
# edge isometry
# ---------------------------------------------------------------------------

def test_isometry_k4_gamma():
    g = fam.complete_graph(4)
    iso = edge_isometry_check(g, unit_spectrum(g))
    assert iso.all_constant
    assert len(iso.gammas) == 1
    assert abs(iso.gammas[0] - 2.0) < 1e-12


def test_isometry_gamma_sum_is_two(rigid_graph):
    # sum of E_i over i >= 2 is I - J/n, and L*(I) = 2, L*(J) = 0
    iso = edge_isometry_check(rigid_graph, unit_spectrum(rigid_graph))
    assert iso.all_constant
    assert abs(sum(iso.gammas) - 2.0) < 1e-9
    assert all(gamma > 1e-12 for gamma in iso.gammas)


def test_isometry_p4_not_constant():
    g = fam.path_graph(4)
    iso = edge_isometry_check(g, unit_spectrum(g))
    assert not iso.all_constant


def test_float_verdict_matches_exact(corpus_case):
    _, g, _ = corpus_case
    iso = edge_isometry_check(g, unit_spectrum(g))
    assert iso.all_constant is decide_edge_rigid_exact(g).rigid


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_embedding_c4_middle_eigenspace():
    g = fam.cycle_graph(4)
    emb = embedding(unit_spectrum(g), 2)  # eigenvalue 2
    assert emb.coordinates.shape == (4, 2)
    for a, b in g.edges:
        d2 = np.sum((emb.coordinates[a] - emb.coordinates[b]) ** 2)
        assert abs(d2 - 1.0) < 1e-9


def test_embedding_properties(rigid_graph):
    g = rigid_graph
    s = unit_spectrum(g)
    for i in range(2, s.r + 1):
        emb = embedding(s, i)
        U = emb.coordinates
        assert np.linalg.norm(U.sum(axis=0)) < 1e-9  # centered
        assert np.linalg.norm(U.T @ U - np.eye(emb.dimension)) < 1e-9
        lengths = [np.sum((U[a] - U[b]) ** 2) for a, b in g.edges]
        assert max(lengths) - min(lengths) < 1e-9


def test_embedding_index_checked():
    g = fam.complete_graph(4)
    s = unit_spectrum(g)
    with pytest.raises(IndexError):
        embedding(s, 1)
    with pytest.raises(IndexError):
        embedding(s, s.r + 1)


# ---------------------------------------------------------------------------
# resistances / Kirchhoff
# ---------------------------------------------------------------------------

def test_resistances_petersen():
    r = effective_resistances(fam.petersen_graph())
    assert np.allclose(r, 0.6, atol=1e-9)


def test_resistances_c4():
    assert np.allclose(effective_resistances(fam.cycle_graph(4)), 0.75, atol=1e-9)


def test_foster_identity(corpus_case):
    _, g, _ = corpus_case
    assert abs(effective_resistances(g).sum() - (g.n - 1)) < 1e-9


def test_resistances_equal_pseudoinverse_adjoint(corpus_case):
    # the edge energies of U / sqrt(lambda) are adjoint(L^+)
    _, g, _ = corpus_case
    w = random_simplex(g.m, seed=2, count=1)[0]
    evals, evecs = np.linalg.eigh(laplacian(g, w).astype(float))
    pinv = (evecs[:, 1:] / evals[1:]) @ evecs[:, 1:].T
    ref = adjoint_apply(g, pinv)
    assert np.max(np.abs(effective_resistances(g, w) - ref)) <= 1e-10 * max(1.0, float(ref.max()))


def test_resistances_disconnecting_weights():
    g = fam.cycle_graph(4)
    # one zero weight keeps C4 connected; two opposite zeros cut it
    one_zero = WeightVector((0.0, 1.0, 1.0, 1.0))
    effective_resistances(g, one_zero)
    cut = WeightVector((0.0, 1.0, 0.0, 1.0))
    with pytest.raises(DisconnectingWeightsError):
        effective_resistances(g, cut)


def test_kirchhoff_values():
    assert abs(kirchhoff_index(fam.complete_graph(4)) - 3.0) < 1e-9
    assert abs(kirchhoff_index(fam.cycle_graph(4)) - 5.0) < 1e-9


def test_kirchhoff_disconnected_is_infinite():
    g = fam.cycle_graph(4)
    cut = WeightVector((0.0, 1.0, 0.0, 1.0))
    assert kirchhoff_index(g, cut) == math.inf


def test_kirchhoff_matches_pairwise_resistance_sum(corpus_case):
    _, g, _ = corpus_case
    L = laplacian(g).astype(float)
    evals, evecs = np.linalg.eigh(L)
    pinv = (evecs[:, 1:] / evals[1:]) @ evecs[:, 1:].T
    total = sum(
        pinv[a, a] + pinv[b, b] - 2 * pinv[a, b]
        for a in range(g.n)
        for b in range(a + 1, g.n)
    )
    kf = kirchhoff_index(g)
    assert abs(kf - total) <= 1e-8 * max(1.0, kf)


# ---------------------------------------------------------------------------
# spanning trees
# ---------------------------------------------------------------------------

def test_tree_counts_match_enumeration(corpus_case):
    _, g, _ = corpus_case
    if g.m > 20:
        pytest.skip("budget")
    exact = tree_count_exact(g)
    assert exact == enumerate_spanning_trees(g)
    assert abs(weighted_tree_count(g) - exact) <= 1e-8 * exact


def test_tree_count_values():
    assert tree_count_exact(fam.complete_graph(4)) == 16
    assert tree_count_exact(fam.cycle_graph(4)) == 4
    assert tree_count_exact(fam.path_graph(4)) == 1


def test_tree_count_beyond_the_float_range_is_inf_without_a_warning():
    # K150 has 150^148 spanning trees, more than the largest float
    evals = np.linalg.eigvalsh(laplacian(fam.complete_graph(150)).astype(float))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tree_count_from_eigenvalues(150, evals) == math.inf


def test_weighted_tree_count_matches_enum():
    g = fam.complete_graph(4)
    for w in random_simplex(g.m, seed=2, count=10):
        assert abs(weighted_tree_count(g, w) - weighted_enum(g, w)) <= 1e-8 * weighted_enum(g, w)


def test_weighted_tree_count_is_zero_when_the_support_disconnects():
    # C4's edges (0, 1) and (0, 3) weigh 0, so vertex 0 is cut off; the
    # eigenvalues of L(w) gave a count of about 2.4e-16
    g = fam.cycle_graph(4)
    w = WeightVector.from_text("0\n0\n1\n1\n", g.m)
    assert weighted_enum(g, w) == 0.0
    assert weighted_tree_count(g, w) == 0.0


def test_weighted_tree_count_stays_positive_for_a_tiny_weight():
    # the weight-0 edge leaves the path 0-1-2-3, whose one tree weighs about 1e-9
    g = fam.cycle_graph(4)
    w = WeightVector((1e-9, 0.0, 1.0, 1.0))
    count = weighted_tree_count(g, w)
    assert count > 0
    assert abs(count - weighted_enum(g, w)) <= 1e-5 * weighted_enum(g, w)


def test_tiny_connecting_weight_gives_finite_resistance_functionals():
    # C4 without edge (0, 3) is the path 0-1-2-3; its edge (0, 1) weighs 1e-12
    g = fam.cycle_graph(4)
    w = WeightVector((1e-12, 0.0, 1.0, 1.0))
    r = effective_resistances(g, w)
    assert abs(r[0] - 1e12) <= 1e-5 * 1e12
    assert abs(kirchhoff_index(g, w) - (3e12 + 7)) <= 1e-5 * 3e12
    assert weighted_tree_count(g, w) > 0


def test_weights_the_float_spectrum_cannot_resolve_raise():
    # every weight is positive, so K5 stays connected, but lambda_2 of L(w)
    # comes out negative; no resistance functional may report a value
    g = fam.complete_graph(5)
    w = WeightVector.from_values([2, 1e-40, 1e-50, 2, 1e-50, 1e-40, 1e-40, 1e-30, 1e-50, 1])
    for f in (weighted_tree_count, kirchhoff_index, effective_resistances):
        with pytest.raises(DisconnectingWeightsError, match="cannot resolve"):
            f(g, w)


# ---------------------------------------------------------------------------
# majorization and the unit-weight extremality consequences
# ---------------------------------------------------------------------------

def test_majorization_basics():
    assert majorization_check([0, 2, 2, 4], [0, 2, 2, 4])
    assert not majorization_check([0, 4], [1, 3])  # top-1: 4 > 3
    assert majorization_check([1, 3], [0, 4])
    with pytest.raises(LengthMismatchError):
        majorization_check([1, 2], [1, 2, 3])


def test_majorization_needs_equal_totals():
    assert not majorization_check([0, 1], [0, 3])


def test_rigid_spectrum_majorized_by_weighted(rigid_graph):
    g = rigid_graph
    base = np.linalg.eigvalsh(laplacian(g).astype(float))
    for w in random_simplex(g.m, seed=3, count=100):
        evals = np.linalg.eigvalsh(laplacian(g, w))
        assert majorization_check(base, evals, tol=1e-8)


def test_unit_weights_extremal_for_trees_and_kirchhoff(rigid_graph):
    g = rigid_graph
    tau1 = weighted_tree_count(g)
    kf1 = kirchhoff_index(g)
    for w in random_simplex(g.m, seed=4, count=100):
        assert weighted_tree_count(g, w) <= tau1 * (1 + 1e-9)
        assert kirchhoff_index(g, w) >= kf1 * (1 - 1e-9)
