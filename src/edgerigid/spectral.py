"""Floating-point eigenstructure of weighted Laplacians.

Grouped eigendecompositions, spectral embeddings and the edge-isometry
check, effective resistances, Kirchhoff index and spanning-tree counts.
Each eigenspace is a column block U of one eigh output, every edge
quantity is an edge energy |U_a - U_b|^2, and one gather of edge
differences serves every block (graphs.group_energies), so no n x n
projector or pseudoinverse is formed. Everything here is numeric; the
exact deciders in ``rigidity`` are the ground truth whenever both apply.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DisconnectedError,
    DisconnectingWeightsError,
    LevelOutOfRangeError,
    TooSmallError,
)
from .exactmat import det_exact
from .graphs import Graph, WeightVector, edge_energies, group_energies, laplacian

# Consecutive eigenvalues closer than this, relative to the largest, form one group.
GROUP_TOL = 1e-6

# Float tolerance of the edge-isometry check and of eigensum's certificate residuals.
FLOAT_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Grouped eigendecomposition of a symmetric PSD matrix.

    evals and evecs are eigh's output; group i, with basis bases[i], holds
    columns bounds[i]:bounds[i + 1]. eigenvalues are the r distinct values
    (ascending, group means), grouped within GROUP_TOL. No eigenprojector
    U U^T is formed: the edge energies adjoint(U U^T) come from
    graphs.group_energies.
    """

    evals: np.ndarray
    evecs: np.ndarray
    bounds: tuple[int, ...]
    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.eigenvalues)

    @property
    def bases(self) -> tuple[np.ndarray, ...]:
        return tuple(self.evecs[:, i:j] for i, j in zip(self.bounds, self.bounds[1:]))


def group_eigenvalues(evals: np.ndarray) -> list[slice]:
    """Slices of consecutive (ascending) eigenvalues within the group gap."""
    gap = GROUP_TOL * max(1.0, float(np.max(np.abs(evals))) if len(evals) else 1.0)
    slices, start, vals = [], 0, np.asarray(evals).tolist()  # Python floats: a faster loop
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] > gap:
            slices.append(slice(start, i))
            start = i
    slices.append(slice(start, len(evals)))
    return slices


def spectrum(Lw: np.ndarray) -> Spectrum:
    """Full symmetric eigendecomposition with eigenvalue grouping."""
    Lw = np.asarray(Lw, dtype=float)
    try:
        evals, evecs = np.linalg.eigh(Lw)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    groups = group_eigenvalues(evals)
    bounds = tuple(sl.start for sl in groups) + (len(evals),)
    sizes = tuple(np.diff(bounds).tolist())
    # a lone eigenvalue is its own mean; + 0.0 turns -0.0 into 0.0, as mean does
    means = tuple(float(evals[i]) + 0.0 if k == 1 else float(evals[i:i + k].mean())
                  for i, k in zip(bounds, sizes))
    return Spectrum(evals, evecs, bounds, means, sizes)


@dataclass(frozen=True)
class IsometryCheck:
    """Per nontrivial eigenspace: mean edge energy and whether it is constant."""

    gammas: tuple[float, ...]
    constant: tuple[bool, ...]
    spreads: tuple[float, ...]

    @property
    def all_constant(self) -> bool:
        return all(self.constant)

    @property
    def gamma_anomalies(self) -> tuple[int, ...]:
        """1-based eigenspace indices whose gamma is not clearly positive.

        Edge-isometric embeddings should have gamma > 0; a vanishing value
        is anomalous and reported rather than asserted away.
        """
        return tuple(i + 2 for i, g in enumerate(self.gammas) if g <= 1e-12)


def edge_isometry_check(g: Graph, s: Spectrum) -> IsometryCheck:
    """Check the edge energies adjoint(E_i) of every nontrivial eigenspace for constancy.

    An eigenspace passes when max - min of its edge energies is at most
    FLOAT_TOL * max(1, mean); gamma_i is the mean. The overall verdict (every
    eigenspace constant) is the floating-point edge-rigidity test.
    """
    E = group_energies(g, s.evecs, s.bounds[1:])
    gammas = tuple(E.mean(axis=1).tolist())
    spreads = tuple((E.max(axis=1) - E.min(axis=1)).tolist())
    constant = tuple(spread <= FLOAT_TOL * max(1.0, mean) for mean, spread in zip(gammas, spreads))
    return IsometryCheck(gammas, constant, spreads)


@dataclass(frozen=True)
class Embedding:
    """Canonical spectral embedding onto one nontrivial eigenspace."""

    coordinates: np.ndarray  # n rows, one per vertex

    @property
    def dimension(self) -> int:
        return self.coordinates.shape[1]

    def to_csv(self) -> str:
        header = "vertex," + ",".join(f"c{j + 1}" for j in range(self.dimension))
        rows = [header]
        for v, row in enumerate(self.coordinates):
            rows.append(str(v) + "," + ",".join(repr(float(x)) for x in row))
        return "\n".join(rows) + "\n"


def embedding(s: Spectrum, i: int) -> Embedding:
    """Rows of an orthonormal eigenbasis of the i-th eigenvalue group.

    i is 1-based with 2 <= i <= r (the trivial kernel group is excluded).
    The squared edge lengths of the embedding are edge_energies of the
    basis, adjoint(E_i).
    """
    if not 2 <= i <= s.r:
        raise LevelOutOfRangeError(f"eigenspace index {i} out of range 2..{s.r}")
    return Embedding(s.bases[i - 1])


# ---------------------------------------------------------------------------
# resistance / tree-count functionals
# ---------------------------------------------------------------------------

def _support_connects(g: Graph, w: WeightVector | None, evals: np.ndarray) -> bool:
    """Whether the edges with w_e > 0 connect g, given the ascending eigenvalues of L(w).

    Graph checks that its edges connect its vertices, so unit weights always
    do. On a connected support lambda_2 must also exceed the float
    resolution n eps lambda_max; otherwise the float spectrum cannot tell
    the weights from disconnecting ones, and DisconnectingWeightsError is
    raised.
    """
    if w is not None:
        try:
            Graph(g.n, tuple(e for e, x in zip(g.edges, w.values) if x > 0))
        except (DisconnectedError, TooSmallError):
            return False
    floor = g.n * sys.float_info.epsilon * float(evals[-1])
    if not evals[1] > floor:
        raise DisconnectingWeightsError(
            f"the float spectrum cannot resolve these weights: lambda_2 = {float(evals[1])!r}"
            f" is not above n eps lambda_max = {floor!r}"
        )
    return True


def resistances_from_eigh(g: Graph, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """Per-edge effective resistance z_e^T L(w)^+ z_e from the eigh of L(w) of connecting weights.

    L(w)^+ = V V^T for V = U / sqrt(lambda) on the complement of the known
    kernel (the first eigenvector), never by generic singular-value
    thresholding, so the resistances are the edge energies of V and no
    n x n pseudoinverse is built.
    """
    return edge_energies(g, evecs[:, 1:] / np.sqrt(evals[1:]))


def effective_resistances(g: Graph, w: WeightVector | None = None) -> np.ndarray:
    """Per-edge effective resistances of the (weighted) graph, in canonical edge order.

    Raises DisconnectingWeightsError when the edges with w_e > 0 do not
    connect g (_support_connects).
    """
    evals, evecs = np.linalg.eigh(laplacian(g, w).astype(float))
    if not _support_connects(g, w, evals):
        raise DisconnectingWeightsError("weights disconnect the graph")
    return resistances_from_eigh(g, evals, evecs)


def kirchhoff_from_eigenvalues(n: int, evals: np.ndarray) -> float:
    """n * sum of reciprocal nontrivial eigenvalues of L(w) of connecting weights."""
    return float(n * np.sum(1.0 / evals[1:]))


def kirchhoff_index(g: Graph, w: WeightVector | None = None) -> float:
    """Kirchhoff index of the (weighted) graph; +inf when the edges with w_e > 0 don't connect g."""
    evals = np.linalg.eigvalsh(laplacian(g, w).astype(float))
    return kirchhoff_from_eigenvalues(g.n, evals) if _support_connects(g, w, evals) else math.inf


def tree_count_from_eigenvalues(n: int, evals: np.ndarray) -> float:
    """Weighted spanning-tree count (1/n) * prod of nontrivial eigenvalues.

    A product beyond the float range is inf, without an overflow warning
    (K150 has 150^148 trees); tree_count_exact gives the exact count.
    """
    with np.errstate(over="ignore"):
        return float(np.prod(evals[1:]) / n)


def weighted_tree_count(g: Graph, w: WeightVector | None = None) -> float:
    """Weighted spanning-tree count; exactly 0.0 when the edges with w_e > 0 do not connect g."""
    evals = np.linalg.eigvalsh(laplacian(g, w).astype(float))
    return tree_count_from_eigenvalues(g.n, evals) if _support_connects(g, w, evals) else 0.0


def tree_count_exact(g: Graph) -> int:
    """Exact spanning-tree count: any cofactor of the integer Laplacian."""
    L = laplacian(g)
    return det_exact(L[1:, 1:])

