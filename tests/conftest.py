import numpy as np
import pytest

from edgerigid import families as fam
from edgerigid.exactmat import exact_matrix, identity_exact, mat_pow_stream
from edgerigid.graphs import Graph, signed_line_graph

# Corpus: (name, graph, expected edge-rigidity). Rigid graphs here are
# edge-transitive or 1-walk-regular; the non-rigid ones fail the constant
# degree-sum condition. tree8 is a seeded Pruefer tree, pinned non-star.
RIGID = [
    ("K3", fam.complete_graph(3)),
    ("K4", fam.complete_graph(4)),
    ("K5", fam.complete_graph(5)),
    ("C4", fam.cycle_graph(4)),
    ("C5", fam.cycle_graph(5)),
    ("C6", fam.cycle_graph(6)),
    ("K1_2", fam.star_graph(2)),
    ("K1_4", fam.star_graph(4)),
    ("K2_3", fam.complete_bipartite_graph(2, 3)),
    ("K3_3", fam.complete_bipartite_graph(3, 3)),
    ("petersen", fam.petersen_graph()),
]

NONRIGID = [
    ("P4", fam.path_graph(4)),
    ("P5", fam.path_graph(5)),
    ("tree8", fam.random_tree(8, seed=0)),
    ("K4_minus_edge", Graph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))),
]

CORPUS = [(name, g, True) for name, g in RIGID] + [(name, g, False) for name, g in NONRIGID]


@pytest.fixture(params=CORPUS, ids=[c[0] for c in CORPUS])
def corpus_case(request):
    """(name, graph, expected_rigid) over the whole corpus."""
    return request.param


@pytest.fixture(params=RIGID, ids=[c[0] for c in RIGID])
def rigid_graph(request):
    return request.param[1]


@pytest.fixture(params=NONRIGID, ids=[c[0] for c in NONRIGID])
def nonrigid_graph(request):
    return request.param[1]


def hypercube(d: int) -> Graph:
    """The d-cube Q_d: vertices 0..2^d - 1, adjacent when they differ in one bit."""
    return Graph(1 << d, tuple((v, v ^ (1 << i)) for v in range(1 << d) for i in range(d) if not v >> i & 1))


def adjacency(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix (int64), built from g.edges alone."""
    A = np.zeros((g.n, g.n), dtype=np.int64)
    for a, b in g.edges:
        A[a, b] = A[b, a] = 1
    return A


def dense_powers(M, l_max: int) -> list[np.ndarray]:
    """Reference M^0..M^l_max from dense object-dtype products P @ M."""
    A = exact_matrix(M)
    P = identity_exact(A.shape[0])
    powers = [P]
    for _ in range(l_max):
        P = P @ A
        powers.append(P)
    return powers


def switched_signed_line_graph_walk_regular(g: Graph, rng: np.random.Generator) -> bool:
    """signed_line_graph_walk_regular's diagonal test on D (A_sigma + 2I) D.

    D = diag(d) for signs d drawn from rng: the signed line graph of g in
    the orientation that reverses the edges with d_e = -1.
    """
    d = rng.choice((-1, 1), size=g.m)
    M = (signed_line_graph(g) + 2 * np.eye(g.m, dtype=np.int64)) * np.outer(d, d)
    return all(len(set(P.diagonal())) == 1 for P in mat_pow_stream(M, g.m))
