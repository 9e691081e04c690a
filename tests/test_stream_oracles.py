"""Seeded cross-checks of the walk-stream deciders against independent references.

``cospectrality_classes`` and ``full_report`` derive their verdicts from the
walk stream w_l = adjoint(L^l). Here they are compared with the exact
characteristic polynomials of ``adjugate_quadratic_form`` and with the m x m
signed-line-graph power loop, and the packed stream itself with dense
adjoint(L^l) and with the traces of L, on the corpus and on seeded random
graphs (numpy RNG only).
"""

import math

import numpy as np
import pytest

from conftest import CORPUS, dense_powers, hypercube

from edgerigid import families as fam
from edgerigid import rigidity
from edgerigid.exactmat import adjugate_quadratic_form
from edgerigid.graphs import Graph, Orientation, adjoint_apply, laplacian
from edgerigid.rigidity import (
    _split,
    _walk_stream,
    cospectrality_classes,
    decide_edge_rigid_exact,
    full_report,
    signed_line_graph_walk_regular,
)


def random_connected_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """A random spanning tree plus each remaining pair with probability p."""
    order = [int(v) for v in rng.permutation(n)]
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[int(rng.integers(i))]
        edges.add((min(a, b), max(a, b)))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.add((a, b))
    return Graph(n, tuple(sorted(edges)))


def random_circulant(rng: np.random.Generator, n: int) -> Graph:
    """C_n(S) for a random nonempty jump set S, made connected by adding 1."""
    jumps = [j for j in range(1, n // 2 + 1) if rng.random() < 0.4] or [1]
    if math.gcd(n, *jumps) != 1:
        jumps.append(1)
    return fam.circulant_graph(n, tuple(sorted(set(jumps))))


def random_graphs(seed: int = 20240611) -> list[tuple[str, Graph]]:
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(28):
        n = int(rng.integers(4, 13))
        graphs.append((f"gnp{i}", random_connected_graph(rng, n, float(rng.uniform(0.1, 0.45)))))
    for i in range(12):
        graphs.append((f"circ{i}", random_circulant(rng, int(rng.integers(5, 13)))))
    return graphs


# Rigid graphs with few distinct Laplacian eigenvalues, where
# decide_edge_rigid_exact stops early on a recurrence certificate.
FEW_EIGENVALUES = [
    ("Q3", hypercube(3)),
    ("Q4", hypercube(4)),
    ("K3_4", fam.complete_bipartite_graph(3, 4)),
    ("K6", fam.complete_graph(6)),
    ("paley13", fam.circulant_graph(13, (1, 3, 4))),
]

CASES = [(name, g) for name, g, _ in CORPUS] + random_graphs() + FEW_EIGENVALUES

# The packed stream widens its slots as the powers grow; at full depth these
# pass through every slot size from one byte up. W20 is a hub joined to C20.
WIDTH_CASES = [
    ("K1_30", fam.star_graph(30)),
    ("K2_25", fam.complete_bipartite_graph(2, 25)),
    ("W20", Graph(21, tuple((0, v) for v in range(1, 21)) + tuple((v, v % 20 + 1) for v in range(1, 21)))),
    ("C40", fam.cycle_graph(40)),
]


@pytest.fixture(params=CASES, ids=[name for name, _ in CASES])
def case(request):
    return request.param[1]


def char_poly_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Edge classes by the exact polynomial char(L - L_e) - char(L)."""
    buckets: dict[tuple[int, ...], list[int]] = {}
    for e in range(g.m):
        buckets.setdefault(adjugate_quadratic_form(g, e).coeffs, []).append(e)
    return tuple(tuple(c) for c in sorted(buckets.values()))


def test_random_graphs_cover_both_verdicts():
    verdicts = [decide_edge_rigid_exact(g).rigid for _, g in random_graphs()]
    assert len(verdicts) == 40
    assert any(verdicts) and not all(verdicts)


def test_cospectrality_classes_match_char_polys(case):
    assert cospectrality_classes(case) == char_poly_classes(case)


def test_full_report_matches_references(case):
    g = case
    rep = full_report(g)
    rng = np.random.default_rng(g.m)
    assert rep.verdicts["signed_line_graph"] is signed_line_graph_walk_regular(
        g, Orientation.random(g.m, rng)
    )
    assert rep.cospectrality_classes == char_poly_classes(g)
    wc = decide_edge_rigid_exact(g)
    assert rep.walk_constants == wc.constants
    assert rep.witness == wc.witness


def reference_criterion(g: Graph, walks: list[np.ndarray]):
    """(rigid, constants, witness fields) with the first-min / first-max rule."""
    for power, w in enumerate(walks):
        vals = [int(x) for x in w]
        lo, hi = vals.index(min(vals)), vals.index(max(vals))
        if vals[lo] != vals[hi]:
            return False, None, (power, g.edges[lo], g.edges[hi], vals[lo], vals[hi])
    return True, tuple(int(w[0]) for w in walks), None


def dense_walks(g: Graph) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Reference walk vectors adjoint(L^l), l = 0..n, and powers L^0..L^(n+1)."""
    powers = dense_powers(laplacian(g), g.n + 1)
    return [adjoint_apply(g, P) for P in powers[: g.n + 1]], powers


def assert_decide_matches(g: Graph, walks: list[np.ndarray], P: int):
    """decide_edge_rigid_exact(g, P) against reference_criterion; returns it."""
    wc = decide_edge_rigid_exact(g, max_power=P)
    rigid, constants, witness = reference_criterion(g, walks[: P + 1])
    assert wc.rigid is rigid
    assert wc.constants == constants
    w = wc.witness
    assert (w and (w.power, w.edge_a, w.edge_b, w.value_a, w.value_b)) == witness
    return wc


@pytest.mark.parametrize("g", [g for _, g in CASES + WIDTH_CASES], ids=[n for n, _ in CASES + WIDTH_CASES])
def test_halved_stream_matches_dense_adjoint(g):
    """The packed walk stream against dense adjoint(L^l) and tr L^(l+1), every power."""
    walks, powers = dense_walks(g)
    stream = list(_walk_stream(g, g.n))
    assert len(stream) == len(walks)
    r = 2 * max(g.degrees)
    for l, (raw, ref, P) in enumerate(zip(stream, walks, powers[1:])):
        w = _split(raw, g.m)
        assert w == [int(x) for x in ref]
        assert sum(w) == P.trace()  # sum_e w_l(e) = tr(B^T L^l B) = tr(L^(l+1))
        # 0 <= w_l(e) <= 2 (2 max-degree)^l, and the slots hold signed values that large
        assert 8 * len(raw) // g.m >= (2 * r**l).bit_length() + 1
    for P in range(g.n + 1):
        wc = assert_decide_matches(g, walks, P)
        if wc.rigid:
            assert [c * g.m for c in wc.constants] == [
                powers[l + 1].trace() for l in range(P + 1)
            ]


@pytest.mark.parametrize("g", [g for _, g in FEW_EIGENVALUES], ids=[n for n, _ in FEW_EIGENVALUES])
def test_wrong_recurrence_lifts_fall_back_to_the_stream(monkeypatch, g):
    # modulo 3, Berlekamp-Massey proposes recurrences whose integer lifts do
    # not generate the walk constants; only the exact check may reject them
    monkeypatch.setattr(rigidity, "_PRIME", 3)
    walks, _ = dense_walks(g)
    for P in range(g.n + 1):
        assert_decide_matches(g, walks, P)
