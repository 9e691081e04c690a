"""One gather of edge differences per eigendecomposition, bit for bit.

graphs.group_energies gathers V_a - V_b once and sums each eigenvalue
group's column block. Every consumer (spectrum, edge_isometry_check,
certificate, _slot_energies) and graphs.edge_energies must give exactly
the bits of the per-basis reference below: one gather, one einsum and one
np.mean per group.
"""

import numpy as np
import pytest

from conftest import CORPUS, hypercube
from oracles import random_simplex

from edgerigid import eigensum
from edgerigid import families as fam
from edgerigid.eigensum import certificate
from edgerigid.graphs import Graph, WeightVector, edge_energies, group_energies, laplacian
from edgerigid.spectral import edge_isometry_check, group_eigenvalues, spectrum


def random_graph(seed: int) -> Graph:
    """A seeded random tree plus G(n, p) edges: connected, of any density."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 25))
    p = float(rng.uniform(0.05, 0.7))
    extra = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    return Graph(n, tuple(set(fam.random_tree(n, seed=seed).edges) | extra))


CASES = {name: g for name, g, _ in CORPUS}
CASES |= {
    "K12": fam.complete_graph(12),
    "K40": fam.complete_graph(40),
    "Q4": hypercube(4),
    "K3_5": fam.complete_bipartite_graph(3, 5),
    "C12(1,3)": fam.circulant_graph(12, (1, 3)),
    "P9": fam.path_graph(9),
}
CASES |= {f"gnp-seed{s}": random_graph(s) for s in range(50)}


def per_basis_energies(g, U):
    """|U_a - U_b|^2 per edge from a gather of this basis alone."""
    a, b = np.asarray(g.edges).T
    D = U[a] - U[b]
    return np.einsum("ij,ij->i", D, D)


def reference_bases(L):
    """eigh's groups as separate bases, the way spectrum held them before."""
    evals, evecs = np.linalg.eigh(L)
    return evals, evecs, [evecs[:, sl] for sl in group_eigenvalues(evals)]


def reference_slot_energies(g, evals, evecs, ks):
    """adjoint(X_k) rows, one per-basis gather per group reached."""
    groups = reversed(group_eigenvalues(evals))
    rows, above, size = [], 0, 0
    running = energy = np.zeros(g.m)
    for k in ks:
        while k > above + size:
            running, above = running + energy, above + size
            sl = next(groups)
            size, energy = sl.stop - sl.start, per_basis_energies(g, evecs[:, sl])
        rows.append(running + (k - above) / size * energy)
    return np.array(rows)


def reference_certificate(g, j, tol=1e-8):
    """certificate's to_dict from per-basis energies and stacked bases."""
    L = laplacian(g).astype(float)
    evals, _, bases = reference_bases(L)
    groups = group_eigenvalues(evals)
    eigenvalues = [float(np.mean(evals[sl])) for sl in groups]
    r = len(groups)
    y = eigenvalues[r - j - 1]
    energies = [per_basis_energies(g, U) for U in bases[r - j:]]
    gammas = tuple(float(np.mean(e)) for e in energies)
    x = float(sum(gammas))
    adj = sum(energies)
    U = np.hstack(bases[r - j:])
    lam = np.repeat(eigenvalues[r - j:], [sl.stop - sl.start for sl in groups[r - j:]])
    X = U @ U.T
    Y = (U * (lam - y)) @ U.T
    residuals = {
        "stationarity": float(np.linalg.norm(X @ (Y + y * np.eye(g.n) - L))),
        "projection": float(np.linalg.norm(X @ Y - Y)),
        "complementarity": float(abs(np.sum(adj - x))),
        "dual_feasibility": float(max(0.0, x - float(adj.min()))),
    }
    return {
        "j": j, "k_j": len(lam), "x": x, "y": float(y), "gammas": list(gammas),
        "residuals": residuals, "bound": g.m * x, "top_eigensum": float(lam.sum()),
        "passes": all(v <= tol for v in residuals.values()), "tol": tol,
    }


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_gather_matches_per_basis_energies(name):
    g = CASES[name]
    (w,) = random_simplex(g.m, seed=len(name), count=1)
    for weights in (None, w, WeightVector.from_values(np.arange(1.0, g.m + 1))):
        L = laplacian(g, weights).astype(float)
        evals, evecs, bases = reference_bases(L)
        energies = [per_basis_energies(g, U) for U in bases]
        assert all(same_bits(edge_energies(g, U), e) for U, e in zip(bases, energies))
        s = spectrum(L)
        assert same_bits(s.evals, evals) and same_bits(s.evecs, evecs)
        assert all(same_bits(U, V) for U, V in zip(s.bases, bases, strict=True))
        assert s.multiplicities == tuple(U.shape[1] for U in bases)
        assert s.eigenvalues == tuple(float(np.mean(evals[sl])) for sl in group_eigenvalues(evals))
        assert same_bits(group_energies(g, s.evecs, s.bounds), energies)
        assert same_bits(group_energies(g, s.evecs, s.bounds[2:]), energies[2:])
        iso = edge_isometry_check(g, s)
        assert iso.gammas == tuple(float(np.mean(e)) for e in energies[1:])
        assert iso.spreads == tuple(float(np.max(e) - np.min(e)) for e in energies[1:])
        assert same_bits(
            eigensum._slot_energies(g, evals, evecs, range(1, g.n)),
            reference_slot_energies(g, evals, evecs, range(1, g.n)),
        )
        for k in {1, g.n // 2, g.n - 1}:
            assert same_bits(
                eigensum._slot_energies(g, evals, evecs, [k]),
                reference_slot_energies(g, evals, evecs, [k]),
            )
    for j in range(1, spectrum(laplacian(g).astype(float)).r):
        assert certificate(g, j).to_dict() == reference_certificate(g, j), j
