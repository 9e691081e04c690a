from itertools import permutations

import numpy as np
import pytest

from conftest import adjacency, dense_powers
from oracles import count_walks, enumerate_spanning_trees

from edgerigid import families as fam
from edgerigid.exactmat import (
    IntPolynomial,
    adjugate_quadratic_form,
    char_poly,
    det_exact,
    edge_deleted_laplacian,
    exact_matrix,
    identity_exact,
    mat_pow_stream,
)
from edgerigid.graphs import Graph, WeightVector, laplacian


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the implementations under test)
# ---------------------------------------------------------------------------

def perm_sign(p):
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_leibniz(M):
    n = len(M)
    total = 0
    for p in permutations(range(n)):
        term = perm_sign(p)
        for i in range(n):
            term *= int(M[i][p[i]])
        total += term
    return total


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def charpoly_leibniz(M):
    """det(xI - M) expanded over permutations; coefficients ascending."""
    n = len(M)
    total = [0] * (n + 1)
    for p in permutations(range(n)):
        term = [perm_sign(p)]
        for i in range(n):
            entry = [-int(M[i][p[i]])]
            if p[i] == i:
                entry.append(1)  # x - M_ii on the diagonal
            term = poly_mul(term, entry)
        for d, c in enumerate(term):
            total[d] += c
    return tuple(total)


def adjugate_brute(M):
    n = len(M)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [int(M[r][c]) for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * det_leibniz(minor)
    return adj


# ---------------------------------------------------------------------------
# matrix powers
# ---------------------------------------------------------------------------

def test_power_zero_is_identity():
    L = laplacian(fam.petersen_graph())
    first = next(mat_pow_stream(L, 0))
    assert np.array_equal(first, identity_exact(10))


def test_p3_laplacian_square():
    powers = list(mat_pow_stream(laplacian(fam.path_graph(3)), 2))
    assert np.array_equal(powers[2], [[2, -3, 1], [-3, 6, -3], [1, -3, 2]])


def test_petersen_adjacency_square_diag():
    # closed walks of length 2 equal the degree; checked against the DP oracle
    g = fam.petersen_graph()
    A2 = list(mat_pow_stream(adjacency(g), 2))[2]
    assert [A2[v, v] for v in range(10)] == [3] * 10
    assert all(A2[v, v] == count_walks(g, v, v, 2) for v in range(10))


def test_powers_match_walk_oracle(corpus_case):
    _, g, _ = corpus_case
    if g.n > 10:
        pytest.skip("oracle budget")
    for length, P in enumerate(mat_pow_stream(adjacency(g), 6)):
        for a in range(g.n):
            for b in range(g.n):
                assert P[a, b] == count_walks(g, a, b, length)


def test_entries_stay_python_ints():
    # (2 * max degree)^l overflows int64 fast; exact powers must not wrap
    g = fam.complete_graph(5)
    P = list(mat_pow_stream(laplacian(g), 40))[-1]
    assert isinstance(P[0, 0], int)
    assert max(abs(x) for x in P.ravel()) > 2**63


def random_square_matrices(seed: int = 31337) -> list[np.ndarray]:
    """Non-symmetric integer matrices with negative entries, some zero rows/columns."""
    rng = np.random.default_rng(seed)
    mats = [
        np.zeros((1, 1), dtype=np.int64),
        np.array([[-3]]),
        np.zeros((4, 4), dtype=np.int64),
        np.array([[0, 0, 0], [2, -1, 0], [0, 0, 0]]),
        np.array([[0, 5, -2], [0, 0, 0], [0, 1, 0]]),
    ]
    for _ in range(30):
        n = int(rng.integers(2, 9))
        M = rng.integers(-4, 5, size=(n, n))
        M[rng.random(n) < 0.25, :] = 0
        M[:, rng.random(n) < 0.25] = 0
        mats.append(M)
    return mats


MATRICES = random_square_matrices()


def test_random_matrices_cover_sparse_shapes():
    assert any(not np.array_equal(M, M.T) for M in MATRICES)
    assert any((M < 0).any() for M in MATRICES)
    assert any(M.shape[0] > 1 and (~M.any(axis=1)).any() and M.any() for M in MATRICES)
    assert any(M.shape[0] > 1 and (~M.any(axis=0)).any() and M.any() for M in MATRICES)


@pytest.mark.parametrize("M", MATRICES, ids=[f"mat{i}" for i in range(len(MATRICES))])
@pytest.mark.parametrize("l_max", [0, 1, 7])
def test_pow_stream_matches_dense_reference(M, l_max):
    powers = list(mat_pow_stream(M, l_max))
    assert len(powers) == l_max + 1
    for P, Q in zip(powers, dense_powers(M, l_max)):
        assert P.dtype == object and P.shape == M.shape
        assert np.array_equal(P, Q)
        assert all(type(x) is int for x in P.flat)


def test_pow_stream_exact_beyond_int64():
    M = np.array([[3, -4, 0, 1], [0, 0, 0, 0], [4, 2, -1, 0], [-2, 0, 4, 3]])
    P = list(mat_pow_stream(M, 40))[-1]
    assert np.array_equal(P, dense_powers(M, 40)[-1])
    assert max(abs(x) for x in P.ravel()) > 2**63


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------

def test_char_poly_k3():
    assert char_poly(laplacian(fam.complete_graph(3))).coeffs == (0, 9, -6, 1)


def test_char_poly_p3():
    assert char_poly(laplacian(fam.path_graph(3))).coeffs == (0, 3, -4, 1)


def test_char_poly_zero_matrix():
    assert char_poly(np.zeros((2, 2), dtype=int)).coeffs == (0, 0, 1)


def test_char_poly_against_leibniz(corpus_case):
    _, g, _ = corpus_case
    if g.n > 6:
        pytest.skip("Leibniz oracle too slow")
    assert char_poly(laplacian(g)).coeffs == charpoly_leibniz(laplacian(g))


def test_char_poly_random_matrices_against_leibniz():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            M = rng.integers(-4, 5, size=(n, n))
            assert char_poly(M).coeffs == charpoly_leibniz(M)


def test_char_poly_vanishes_at_integer_eigenvalues():
    # L(K_n) has eigenvalues 0 and n
    for n in (3, 4, 5):
        p = char_poly(laplacian(fam.complete_graph(n)))
        assert p(0) == 0
        assert p(n) == 0


def test_matrix_tree_coefficient(corpus_case):
    # coefficient of x equals (-1)^(n-1) * n * tau(g)
    _, g, _ = corpus_case
    if g.m > 20:
        pytest.skip("tree enumeration budget")
    p = char_poly(laplacian(g))
    tau = enumerate_spanning_trees(g)
    assert p.coeffs[0] == 0
    assert p.coeffs[1] == (-1) ** (g.n - 1) * g.n * tau


# ---------------------------------------------------------------------------
# adjugate quadratic form
# ---------------------------------------------------------------------------

def test_adjugate_form_k3():
    # char(L(P3)) - char(L(K3)) = 2x^2 - 6x
    p = adjugate_quadratic_form(fam.complete_graph(3), 0)
    assert p.coeffs == (0, -6, 2)
    assert p.degree == 2


def test_adjugate_form_equal_on_k3_edges():
    g = fam.complete_graph(3)
    polys = {adjugate_quadratic_form(g, e).coeffs for e in range(g.m)}
    assert len(polys) == 1


def test_adjugate_form_degree_bound(corpus_case):
    _, g, _ = corpus_case
    for e in range(g.m):
        assert adjugate_quadratic_form(g, e).degree <= g.n - 1


def test_adjugate_form_against_brute_adjugate():
    # evaluate z_e^T adj(x I - L) z_e at integer points via cofactors
    for g in (fam.complete_graph(3), fam.path_graph(4), fam.cycle_graph(4)):
        L = laplacian(g)
        for e, (a, b) in enumerate(g.edges):
            ours = adjugate_quadratic_form(g, e)
            for x0 in range(g.n + 2):
                M = x0 * np.eye(g.n, dtype=np.int64) - L
                adj = adjugate_brute(M)
                val = adj[a][a] + adj[b][b] - adj[a][b] - adj[b][a]
                assert ours(x0) == val


def test_matrix_det_lemma_exact():
    # det(M + u u^T) - det(M) == u^T adj(M) u, brute force, n <= 5
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5, 6):
        for _ in range(4 if n < 6 else 2):
            M = rng.integers(-3, 4, size=(n, n))
            u = rng.integers(-3, 4, size=n)
            lhs = det_leibniz(M + np.outer(u, u)) - det_leibniz(M)
            adj = np.array(adjugate_brute(M), dtype=object)
            rhs = int(u @ adj @ u)
            assert lhs == rhs
            # and our Bareiss determinant agrees with the oracle
            assert det_exact(M) == det_leibniz(M)


def test_edge_deleted_laplacian_matches_deletion():
    g = fam.complete_graph(3)
    # K3 minus an edge is P3 up to relabeling; same char poly
    assert char_poly(edge_deleted_laplacian(g, 0)).coeffs == (0, 3, -4, 1)


K4_MINUS_EDGE = Graph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
# K4 minus (0, 3), then minus its edge 3, (1, 3): still connected
K4_MINUS_TWO = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))

# each case: a call, and the exception it raises or the value it returns
CHECKS = {
    "weights-not-flat": (lambda: WeightVector.from_values([[1.0, 2.0]]), ValueError),
    "deleted-by-index": (
        lambda: edge_deleted_laplacian(K4_MINUS_EDGE, 3).tolist(), laplacian(K4_MINUS_TWO).tolist()
    ),
    "deleted-by-tuple": (
        lambda: edge_deleted_laplacian(K4_MINUS_EDGE, (3, 1)).tolist(),
        laplacian(K4_MINUS_TWO).tolist(),
    ),
    "deleted-non-edge": (lambda: edge_deleted_laplacian(K4_MINUS_EDGE, (0, 3)), ValueError),
    "negative-power": (lambda: next(mat_pow_stream(np.eye(2, dtype=int), -1)), ValueError),
    "det-empty": (lambda: det_exact(np.zeros((0, 0), dtype=int)), 1),
}


@pytest.mark.parametrize("call, expected", CHECKS.values(), ids=CHECKS.keys())
def test_argument_checks_and_edge_cases(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected


# ---------------------------------------------------------------------------
# IntPolynomial basics
# ---------------------------------------------------------------------------

def test_polynomial_subtraction_and_trim():
    p = IntPolynomial((0, 9, -6, 1))
    q = IntPolynomial((0, 3, -4, 1))
    assert (q - p).coeffs == (0, -6, 2)
    assert (p - p).coeffs == (0,)
    assert (p - p).degree == 0


def test_polynomial_eval():
    p = IntPolynomial((0, 9, -6, 1))  # x^3 - 6x^2 + 9x
    assert p(3) == 0
    assert p(1) == 4


def test_exact_matrix_validation():
    with pytest.raises(ValueError):
        exact_matrix(np.ones((2, 3)))
