"""Exact combinatorial deciders for edge-rigidity, cross-checked in one report.

A connected graph is edge-rigid exactly when the walk stream
w_l = adjoint(L^l) is constant over edges for l = 0..n-1. L is symmetric,
so with U_j = L^j B (B the incidence matrix, column z_e per edge)

    w_{2j}(e) = |U_j e|^2,    w_{2j+1}(e) = (U_j e) . (U_{j+1} e),

and the stream to depth n-1 takes ceil((n-1)/2) sparse products with L,
about O(n^2 (n + m)) big-int operations. ``decide_edge_rigid_exact`` often
stops sooner: a monic integer q of degree D that annihilates the constants
C_0..C_{2D} gives q^T H q = sum_t m_t t q(t)^2 = 0 for the Hankel matrix
H = [m C_{i+k}] = [tr L^{i+k+1}], so q vanishes on every nonzero eigenvalue t
of L, and its recurrence carries constancy to every power. Two identities
turn other deciders into functions of that stream:

- char(L - L_e) - char(L) has coefficients sum_{i<=k} c_i w_{k-i}(e), where
  c_i are those of char(L). The map is unit-triangular, so two edges are
  Laplacian-cospectral exactly when their profiles (w_0..w_{n-1})(e) agree;
- diag((2I + A_sigma)^p)_e = w_{p-1}(e) for every orientation sigma, so the
  signed line graph is walk-regular exactly when the stream is constant.

``full_report`` computes the stream once and takes the walk criterion, the
cospectrality classes and the signed-line-graph verdict from it. It adds
1-walk-(bi)regularity (powers of A) and the floating-point edge-isometry
check, and insists that all five agree; a disagreement is an implementation
bug, never a mathematical outcome. The independent references,
``exactmat.adjugate_quadratic_form`` and the m x m power loop of
``signed_line_graph_walk_regular``, are checked against the stream in
tests/test_stream_oracles.py on the corpus and on seeded random graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InternalInconsistencyError
from .exactmat import mat_pow_stream
from .graphs import (
    DegreeClassification,
    Edge,
    Graph,
    Orientation,
    bipartition,
    degree_classification,
    laplacian,
    signed_line_graph,
)
from .spectral import IsometryCheck, Spectrum, edge_isometry_check, spectrum

WALK_LABELS = (
    "1-walk-regular",
    "walk-regular-only",
    "1-walk-biregular",
    "walk-biregular-only",
    "neither",
)


@dataclass(frozen=True)
class WalkWitness:
    """Smallest power l where adjoint(L^l) is not constant, with two edges."""

    power: int
    edge_a: Edge
    edge_b: Edge
    value_a: int
    value_b: int

    def to_dict(self) -> dict:
        return {
            "power": self.power,
            "edge_a": list(self.edge_a),
            "edge_b": list(self.edge_b),
            "value_a": self.value_a,
            "value_b": self.value_b,
        }


@dataclass(frozen=True)
class WalkCriterion:
    rigid: bool
    constants: tuple[int, ...] | None
    witness: WalkWitness | None


def _walk_stream(g: Graph, lmax: int) -> Iterator[np.ndarray]:
    """Yield the exact walk vectors w_l = adjoint(L^l) for l = 0..lmax.

    Powers L^j are consumed lazily, ceil(lmax / 2) products in all:
    U_j = L^j B gives w_{2j-1} (with U_{j-1}) and w_{2j}, so w_0 costs no
    product and w_1 costs one.
    """
    a, b = np.transpose(g.edges)
    prev = None
    for j, P in enumerate(mat_pow_stream(laplacian(g), (lmax + 1) // 2)):
        U = P[:, a] - P[:, b]
        if prev is not None:
            yield (prev * U).sum(axis=0)
        if 2 * j <= lmax:
            yield (U * U).sum(axis=0)
        prev = U


def _constant(vals: np.ndarray) -> bool:
    return bool((vals == vals[0]).all())


# Modulus of the Berlekamp-Massey run on the walk constants, a Mersenne prime.
# Its candidates are only trusted after an exact integer check.
_PRIME = 2**521 - 1


class _Recurrence:
    """Berlekamp-Massey modulo _PRIME, fed one term at a time.

    coeffs() lifts the shortest recurrence
    x_l = -(lambda_1 x_{l-1} + .. + lambda_D x_{l-D}) of the residues pushed
    so far to symmetric integer residues lambda_1..lambda_D.
    """

    def __init__(self) -> None:
        self.residues: list[int] = []
        self.conn, self.prev = [1], [1]  # connection polynomials 1 + lambda_1 z + ..
        self.length, self.shift, self.last = 0, 1, 1

    def push(self, x: int) -> None:
        p = _PRIME
        self.residues.append(x % p)
        d = sum(c * r for c, r in zip(self.conn, reversed(self.residues))) % p
        if d == 0:
            self.shift += 1
            return
        f = d * pow(self.last, -1, p) % p
        conn = self.conn + [0] * (len(self.prev) + self.shift - len(self.conn))
        for i, b in enumerate(self.prev, self.shift):
            conn[i] = (conn[i] - f * b) % p
        if 2 * self.length < len(self.residues):
            self.prev, self.last = self.conn, d
            self.length, self.shift = len(self.residues) - self.length, 1
        else:
            self.shift += 1
        self.conn = conn

    def coeffs(self) -> list[int]:
        p = _PRIME
        lam = (self.conn + [0] * self.length)[1 : self.length + 1]
        return [c - p if c > p // 2 else c for c in lam]


def _predict(terms: list[int], lam: list[int], l: int) -> int:
    return -sum(c * terms[l - 1 - k] for k, c in enumerate(lam))


def _walk_criterion(
    g: Graph, walks: Iterable[np.ndarray], lmax: int | None = None
) -> WalkCriterion:
    """Constants of the walk vectors, or the first non-constant one's witness.

    Given lmax, reading stops as soon as the recurrence of D lifted
    Berlekamp-Massey coefficients exactly generates the 2D + 1 or more
    constants read so far; the constants are then extended to power lmax by
    that recurrence. This is a proof (see decide_edge_rigid_exact).
    """
    constants: list[int] = []
    rec = _Recurrence()
    for power, vals in enumerate(walks):
        if not _constant(vals):
            lo = min(range(g.m), key=lambda e: vals[e])
            hi = max(range(g.m), key=lambda e: vals[e])
            witness = WalkWitness(
                power, g.edges[lo], g.edges[hi], int(vals[lo]), int(vals[hi])
            )
            return WalkCriterion(False, None, witness)
        constants.append(int(vals[0]))
        if lmax is None or power == lmax:
            continue
        rec.push(constants[-1])
        if 2 * rec.length >= len(constants):
            continue
        lam = rec.coeffs()
        if all(_predict(constants, lam, l) == constants[l] for l in range(len(lam), power + 1)):
            while len(constants) <= lmax:
                constants.append(_predict(constants, lam, len(constants)))
            return WalkCriterion(True, tuple(constants), None)
    return WalkCriterion(True, tuple(constants), None)


def _profile_classes(g: Graph, walks: list[np.ndarray]) -> tuple[tuple[int, ...], ...]:
    """Group edge indices by their walk profile (w_0(e), .., w_last(e))."""
    buckets: dict[tuple[int, ...], list[int]] = {}
    for e in range(g.m):
        buckets.setdefault(tuple(int(w[e]) for w in walks), []).append(e)
    return tuple(tuple(c) for c in sorted(buckets.values(), key=lambda c: c[0]))


def decide_edge_rigid_exact(g: Graph, max_power: int | None = None) -> WalkCriterion:
    """Exact integer decider: adjoint(L^l) constant for l = 0..max_power.

    max_power defaults to n - 1, which is sufficient because the minimal
    polynomial of L has degree at most n; a smaller value checks only a
    prefix, which is not a proof of rigidity. Returns the walk constants C_l
    on success, or the first offending power with a witness edge pair.

    The stream stops early when a monic integer q of degree D annihilates
    C_0..C_N with N >= 2D. Then H q = 0 for H = [tr L^{i+k+1}]_{i,k<=D}, and
    q^T H q = sum_t m_t t q(t)^2 = 0 over the nonzero eigenvalues t of L
    (multiplicity m_t), so q(t) = 0 and q(L) z_e = 0 for every edge e: every
    w_l(e) follows q's recurrence, and the constant w_0..w_{D-1} make every
    power constant. A rigid graph with d' distinct nonzero eigenvalues thus
    costs min(d', ceil((n-1)/2)) sparse products.
    """
    if max_power is not None and max_power < 0:
        raise ValueError(f"max_power must be >= 0, got {max_power}")
    lmax = g.n - 1 if max_power is None else max_power
    return _walk_criterion(g, _walk_stream(g, lmax), lmax)


def cospectrality_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition edge indices into Laplacian-cospectrality classes.

    Edges are grouped by their walk profiles, which determine char(L - L_e)
    and are determined by it. One class means all edges are pairwise
    Laplacian-cospectral, which is equivalent to edge-rigidity.
    """
    return _profile_classes(g, list(_walk_stream(g, g.n - 1)))


@dataclass(frozen=True)
class WalkClassification:
    label: str
    walk_regular: bool
    one_walk_regular: bool
    bipartite: bool
    walk_biregular: bool | None  # None when the graph is not bipartite
    one_walk_biregular: bool | None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "walk_regular": self.walk_regular,
            "one_walk_regular": self.one_walk_regular,
            "bipartite": self.bipartite,
            "walk_biregular": self.walk_biregular,
            "one_walk_biregular": self.one_walk_biregular,
        }


def walk_class(g: Graph) -> WalkClassification:
    """Exact walk-regularity classification from adjacency powers A^l.

    Checks l = 0..n-1: walk-regular means diag(A^l) is globally constant;
    1-walk-regular additionally has (A^l)_ab constant over edges.
    Walk-biregular graphs have diag(A^l) constant on each side of the
    bipartition; the biregular tests are skipped for non-bipartite input.
    """
    parts = bipartition(g)
    sides = [np.asarray(side) for side in parts or ()]
    a, b = np.transpose(g.edges)
    diag_const = True
    edge_const = True
    part_const = parts is not None
    for P in mat_pow_stream(g.adjacency, g.n - 1):
        diag = P.diagonal()
        diag_const = diag_const and _constant(diag)
        edge_const = edge_const and _constant(P[a, b])
        part_const = part_const and all(_constant(diag[s]) for s in sides)
        if not diag_const and not part_const and not edge_const:
            break

    if diag_const:
        label = "1-walk-regular" if edge_const else "walk-regular-only"
    elif parts is not None and part_const:
        label = "1-walk-biregular" if edge_const else "walk-biregular-only"
    else:
        label = "neither"
    return WalkClassification(
        label=label,
        walk_regular=diag_const,
        one_walk_regular=diag_const and edge_const,
        bipartite=parts is not None,
        walk_biregular=part_const if parts is not None else None,
        one_walk_biregular=(part_const and edge_const) if parts is not None else None,
    )


def signed_line_graph_walk_regular(g: Graph, o: Orientation | None = None) -> bool:
    """True iff diag((2I + A_sigma)^p) is constant for p = 1..m.

    The edge count m bounds the degree of the minimal polynomial of B^T B,
    and the verdict is orientation-independent (switching invariance).
    """
    M = signed_line_graph(g, o) + 2 * np.eye(g.m, dtype=np.int64)
    return all(len(set(P.diagonal())) == 1 for P in mat_pow_stream(M, g.m))


@dataclass(frozen=True)
class RigidityReport:
    """Verdicts from every decider, plus the structural classifications.

    spectrum and isometry (unit weights) back the float_embedding verdict.
    """

    edge_rigid: bool
    verdicts: dict[str, bool]
    walk_constants: tuple[int, ...] | None
    witness: WalkWitness | None
    cospectrality_classes: tuple[tuple[int, ...], ...]
    degree_class: DegreeClassification
    walk_class: WalkClassification
    spectrum: Spectrum
    isometry: IsometryCheck

    @property
    def gammas(self) -> tuple[float, ...]:
        return self.isometry.gammas

    def to_dict(self) -> dict:
        return {
            "edge_rigid": self.edge_rigid,
            "verdicts": dict(self.verdicts),
            "walk_constants": list(self.walk_constants) if self.walk_constants else None,
            "witness": self.witness.to_dict() if self.witness else None,
            "cospectrality_classes": [list(c) for c in self.cospectrality_classes],
            "degree_class": self.degree_class.to_dict(),
            "walk_class": self.walk_class.to_dict(),
            "gammas": list(self.gammas),
            "float_tol": self.isometry.tol,
        }


def full_report(g: Graph, tol: float = 1e-8) -> RigidityReport:
    """Run every decider and assemble the cross-checked report.

    The walk stream is computed once, at full depth; the walk criterion,
    the cospectrality classes and the signed-line-graph verdict all come
    from it. All five verdicts must agree or InternalInconsistencyError is
    raised.
    """
    walks = list(_walk_stream(g, g.n - 1))
    wc = _walk_criterion(g, walks)
    classes = _profile_classes(g, walks)
    wclass = walk_class(g)
    s = spectrum(laplacian(g).astype(float))
    iso = edge_isometry_check(g, s, tol)
    verdicts = {
        "walk_criterion": wc.rigid,
        "cospectrality": len(classes) == 1,
        # diag((2I + A_sigma)^p) for p = 1..m is w_0..w_{m-1}
        "signed_line_graph": all(len(set(w)) == 1 for w in walks[: g.m]),
        "walk_regularity_class": wclass.label in ("1-walk-regular", "1-walk-biregular"),
        "float_embedding": iso.all_constant,
    }
    if len(set(verdicts.values())) > 1:
        raise InternalInconsistencyError(
            f"equivalent deciders disagree on edge-rigidity: {verdicts}"
        )

    return RigidityReport(
        edge_rigid=wc.rigid,
        verdicts=verdicts,
        walk_constants=wc.constants,
        witness=wc.witness,
        cospectrality_classes=classes,
        degree_class=degree_classification(g),
        walk_class=wclass,
        spectrum=s,
        isometry=iso,
    )
