"""Exact integer linear algebra: big-int matrix powers and characteristic polynomials.

Exact matrices are numpy arrays of dtype=object holding Python ints, so
products never overflow. Entries of L^l grow like (2 * max degree)^l, which
is why fixed-width integers are never used on these paths. Matrix powers
multiply by the nonzeros of the base matrix only, so a power of a graph
Laplacian costs O(n (n + m)) big-int operations, not O(n^3).
``mat_pow_stream`` serves the signed-line-graph reference and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graphs import Edge, Graph, laplacian


def exact_matrix(M) -> np.ndarray:
    """Copy a square integer matrix into an object array of Python ints."""
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return np.array([[int(x) for x in row] for row in A], dtype=object)


def identity_exact(n: int) -> np.ndarray:
    return np.array([[int(i == j) for j in range(n)] for i in range(n)], dtype=object)


def mat_pow_stream(M, l_max: int) -> Iterator[np.ndarray]:
    """Yield exact powers M^0, M^1, ..., M^l_max.

    Each step is the sparse product M @ P over the nonzeros of M only,
    O(n * nnz(M)) big-int operations; powers of M commute, so this equals
    P @ M. Nonzeros come row-sorted from np.nonzero, so one np.add.reduceat
    sums each nonzero row's terms; all-zero rows of M stay zero.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    A = exact_matrix(M)
    P = identity_exact(A.shape[0])
    yield P
    rows, cols = np.nonzero(A)
    vals = A[rows, cols][:, None]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    for _ in range(l_max):
        Q = np.zeros(A.shape, dtype=object)
        Q[rows[starts]] = np.add.reduceat(vals * P[cols], starts, axis=0)
        P = Q
        yield P


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial, coefficients in ascending degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(int(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if not c:
            c = (0,)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        k = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (k - len(self.coeffs))
        b = other.coeffs + (0,) * (k - len(other.coeffs))
        return IntPolynomial(tuple(x - y for x, y in zip(a, b)))


def char_poly(M) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M) by Faddeev-LeVerrier.

    The division by k at each step is exact for integer input; this is
    checked, not assumed.
    """
    A = exact_matrix(M)
    n = A.shape[0]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    I = identity_exact(n)
    Mk = A
    c = 0  # most recently computed coefficient
    for k in range(1, n + 1):
        if k > 1:
            Mk = A @ (Mk + c * I)
        t = Mk.trace()
        q, r = divmod(t, k)
        if r != 0:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        c = -q
        coeffs[n - k] = c
    return IntPolynomial(tuple(coeffs))


def det_exact(M) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    A = [[int(x) for x in row] for row in np.asarray(M)]
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if pivot is None:
                return 0
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def edge_deleted_laplacian(g: Graph, e: Edge | int) -> np.ndarray:
    """Exact Laplacian of g minus one edge (vertices kept)."""
    if isinstance(e, (int, np.integer)):
        a, b = g.edges[e]
    else:
        a, b = min(e), max(e)
    if (a, b) not in g.edges:
        raise ValueError(f"({a}, {b}) is not an edge")
    L = exact_matrix(laplacian(g))
    L[a, a] -= 1
    L[b, b] -= 1
    L[a, b] += 1
    L[b, a] += 1
    return L


def adjugate_quadratic_form(g: Graph, e: Edge | int) -> IntPolynomial:
    """z_e^T adj(xI - L) z_e, via char(L - L_e) - char(L).

    This is the edge's cospectrality invariant: two edges are
    Laplacian-cospectral exactly when these polynomials coincide.
    """
    return char_poly(edge_deleted_laplacian(g, e)) - char_poly(laplacian(g))
