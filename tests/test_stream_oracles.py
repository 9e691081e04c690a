"""Seeded cross-checks of the walk-stream deciders against independent references.

``cospectrality_classes`` and ``full_report`` derive their verdicts from the
walk stream w_l = adjoint(L^l), which is computed from powers of
M = max-degree I - L. Here they are compared with the exact characteristic
polynomials of ``adjugate_quadratic_form`` and with the m x m
signed-line-graph power loop, the stream itself, in machine words and in
packed ints, with dense adjoint(P_l(M)) for the Chebyshev basis P_l of the
stream and with the traces of P_l(M) L, ``walk_class`` with dense
powers of A, the char(M) coefficients that Newton's identities take from
the stream's traces with ``char_poly``, and ``full_report``'s tree count
with the Bareiss ``tree_count_exact`` and closed forms, the difference table
that forms the walk constants with the binomial formula and with expansions
in the Chebyshev basis, and the constants
with power sums of integral spectra, and ``bipartition`` with a
breadth-first 2-colouring, on the corpus and on seeded random graphs (numpy
RNG only).
"""

import collections
import itertools
import math

import numpy as np
import pytest

from conftest import (
    CORPUS,
    adjacency,
    dense_powers,
    hypercube,
    switched_signed_line_graph_walk_regular,
)

from edgerigid import cli
from edgerigid import families as fam
from edgerigid import rigidity
from edgerigid.exactmat import adjugate_quadratic_form, char_poly, exact_matrix
from edgerigid.errors import DisconnectedError, InternalInconsistencyError
from edgerigid.graphs import Graph, adjoint_apply, bipartition, incidence, laplacian, parse_graph
from edgerigid.rigidity import (
    WalkClassification,
    _char_coeffs,
    _profile_classes,
    _signed_slots,
    _split,
    _trace,
    _walk_stream,
    cospectrality_classes,
    decide_edge_rigid_exact,
    full_report,
    signed_line_graph_walk_regular,
    walk_class,
)
from edgerigid.spectral import group_eigenvalues, tree_count_exact


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


def relabel(rng: np.random.Generator, g: Graph) -> Graph:
    p = [int(v) for v in rng.permutation(g.n)]
    return Graph(g.n, tuple((p[a], p[b]) for a, b in g.edges))


def random_biregular(rng: np.random.Generator, p: int, q: int, d: int) -> Graph:
    """A connected bipartite graph, p vertices of degree q d / p and q of degree d.

    Vertex j of the q side starts joined to j d, .., j d + d - 1 mod p; random
    swaps {ab, ce} -> {ae, cb} that keep it simple then mix it until it is
    connected, and the vertices are relabelled.
    """
    edges = sorted({((j * d + t) % p, p + j) for j in range(q) for t in range(d)})
    present = set(edges)
    while True:
        for _ in range(10 * len(edges)):
            i, k = (int(x) for x in rng.integers(len(edges), size=2))
            (a, b), (c, e) = edges[i], edges[k]
            if (a, e) not in present and (c, b) not in present:
                present -= {edges[i], edges[k]}
                edges[i], edges[k] = (a, e), (c, b)
                present |= {edges[i], edges[k]}
        try:
            return relabel(rng, Graph(p + q, tuple(sorted(edges))))
        except DisconnectedError:
            continue


def random_regular(rng: np.random.Generator, n: int, d: int) -> Graph:
    """A connected simple d-regular graph: random stub pairings until one is."""
    while True:
        pairs = rng.permutation(np.repeat(np.arange(n), d)).reshape(-1, 2)
        edges = {(int(min(a, b)), int(max(a, b))) for a, b in pairs if a != b}
        if len(edges) == len(pairs):
            try:
                return Graph(n, tuple(sorted(edges)))
            except DisconnectedError:
                continue


def regular_bipartite_graphs(seed: int = 20261027) -> list[tuple[str, Graph]]:
    """Connected d-regular bipartite graphs, d = 2..5 and n <= 40, relabelled.

    random_biregular with sides of equal size; the relabelling interleaves
    the sides, so neither is a range of vertex numbers.
    """
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(8):
        d = 2 + i % 4
        h = int(rng.integers(d + 1, 21))
        graphs.append((f"regbip{d}_{2 * h}_{i}", random_biregular(rng, h, h, d)))
    return graphs


def small_regular_bipartite_graphs(seed: int = 20261030) -> list[tuple[str, Graph]]:
    """24 connected d-regular bipartite graphs, d = 2..5 and n/2 = 4..12, relabelled."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(24):
        d = 2 + i % 4
        h = int(rng.integers(max(4, d + 1), 13))
        graphs.append((f"chain{d}_{2 * h}_{i}", random_biregular(rng, h, h, d)))
    return graphs


# The stream keeps one chain of n/2 rows on a regular bipartite graph:
# seeded random ones, two bipartite circulants (even n, odd jumps), K2 and
# small seeded random ones; C4, C6 and K3_3 are in the corpus.
REGULAR_BIPARTITE = regular_bipartite_graphs() + [
    ("C24_1_5", fam.circulant_graph(24, (1, 5))),
    ("C18_1_3_7", fam.circulant_graph(18, (1, 3, 7))),
    ("K2", fam.path_graph(2)),
] + small_regular_bipartite_graphs()


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


def complete_multipartite(*sizes: int) -> Graph:
    part = [i for i, k in enumerate(sizes) for _ in range(k)]
    n = len(part)
    return Graph(n, tuple((a, b) for a in range(n) for b in range(a + 1, n) if part[a] != part[b]))


# Twins, vertices with one neighbourhood, share one neighbour sum in the
# stream. K2_5+P2 is K_{2,5} with a path of two edges hung from a
# vertex of the 5-side: twins and vertices without a twin in one graph.
TWIN_CASES = [
    ("K1_9", fam.complete_bipartite_graph(1, 9)),
    ("K2_7", fam.complete_bipartite_graph(2, 7)),
    ("K3_3_3", complete_multipartite(3, 3, 3)),
    ("K2_5+P2", Graph(9, fam.complete_bipartite_graph(2, 5).edges + ((6, 7), (7, 8)))),
]

# The stream widens its slots as the powers grow; at full depth these
# pass through every slot size from one byte up. W20 is a hub joined to C20.
# K41 is the smallest complete graph whose one neighbourhood size is
# summed in two blocks of rows while the slots fit 8 bytes.
WIDTH_CASES = [
    ("K1_30", fam.star_graph(30)),
    ("K41", fam.complete_graph(41)),
    ("K2_25", fam.complete_bipartite_graph(2, 25)),
    ("W20", Graph(21, tuple((0, v) for v in range(1, 21)) + tuple((v, v % 20 + 1) for v in range(1, 21)))),
    ("C40", fam.cycle_graph(40)),
] + TWIN_CASES


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
    assert rep.verdicts["signed_line_graph"] is signed_line_graph_walk_regular(g)
    assert rep.verdicts["signed_line_graph"] is switched_signed_line_graph_walk_regular(g, rng)
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


def chebyshev_bounds(delta: int, l_max: int) -> list[int]:
    """P_0(delta)..P_l_max(delta) for P_0 = 1, P_1 = x, P_(l+1) = x P_l - c P_(l-1), c = floor(delta^2 / 4)."""
    c, bounds = delta * delta // 4, [1, delta]
    while len(bounds) <= l_max:
        bounds.append(delta * bounds[-1] - c * bounds[-2])
    return bounds[: l_max + 1]


def chebyshev_powers(M, delta: int, l_max: int) -> list[np.ndarray]:
    """Reference P_0(M)..P_l_max(M) from dense object-dtype products, c = floor(delta^2 / 4)."""
    A, c = exact_matrix(M), delta * delta // 4
    basis = dense_powers(M, 1)
    while len(basis) <= l_max:
        basis.append(basis[-1] @ A - c * basis[-2])
    return basis[: l_max + 1]


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


def crossing_graphs(seed: int = 20261031) -> list[tuple[str, Graph]]:
    """Graphs whose stream needs 9-byte slots before power n - 1.

    The rows are an integer array while 2 P_l(Delta) < 2^63 and packed ints
    after. On regular bipartite graphs the chain crosses: the 8-regular
    circulant C32(1, 3, 5, 7), which has no twins, from power 29 on, K16_16
    (one class of twins per side) from 20 and a seeded 6-regular bipartite
    graph on 60 vertices from 36. Two seeded random trees on 48 vertices
    cross on one side, with five neighbourhood sizes, twin leaves whose sums
    are reindexed, and a lift on almost every row: tree48_9 (Delta = 6) from
    power 36 and tree48_0 (Delta = 5) from 39.
    """
    rng = np.random.default_rng(seed)
    return [("C32_1_3_5_7", fam.circulant_graph(32, (1, 3, 5, 7))),
            ("K16_16", fam.complete_bipartite_graph(16, 16)),
            ("regbip6_60", random_biregular(rng, 30, 30, 6)),
            ("tree48_9", fam.random_tree(48, seed=9)), ("tree48_0", fam.random_tree(48, seed=0))]


CROSSING = crossing_graphs()

# The entries of P_l(M) on C_n are at most P_l(2) = l + 1: C70's chain stays in
# int8 to power 62 and in int16 after, where the powers of M needed packed ints
NARROW = [("C70", fam.cycle_graph(70))]



def complete_split(k: int, n: int) -> Graph:
    """A clique on k vertices joined to every one of n - k independent vertices."""
    return Graph(n, tuple((a, b) for a in range(k) for b in range(a + 1, n)))


def setup_graphs(seed: int = 20261103) -> list[tuple[str, Graph]]:
    """Seeded relabelled graphs for the stream's set-up, which sorts vertices by key.

    Twin classes: K_{3,7}, the chain K_{5,5}, K_{2,3,4} and complete split
    graphs, whose independent vertices are twins; lifted rows: a random tree
    and a biregular graph; chains: a 3-regular bipartite graph. The complete
    split graph on 36 vertices (Delta = 35) passes every slot-size switch: int8
    to int16, int32 and int64 words, packed ints, and their widening.
    """
    rng = np.random.default_rng(seed)
    return [("K3_7r", relabel(rng, fam.complete_bipartite_graph(3, 7))),
            ("K5_5r", relabel(rng, fam.complete_bipartite_graph(5, 5))),
            ("K2_3_4r", relabel(rng, complete_multipartite(2, 3, 4))),
            ("split4_12r", relabel(rng, complete_split(4, 12))),
            ("split8_36r", relabel(rng, complete_split(8, 36))),
            ("tree24r", relabel(rng, fam.random_tree(24, seed=int(rng.integers(1000))))),
            ("bireg6_9r", random_biregular(rng, 6, 9, 2)),
            ("chain3_18r", random_biregular(rng, 9, 9, 3))]


SETUP = setup_graphs()

STREAM_CASES = CASES + WIDTH_CASES + REGULAR_BIPARTITE + CROSSING + NARROW + SETUP


def test_setup_graphs_cover_twins_lifts_chains_and_every_slot_switch():
    twins = [g for _, g in SETUP if len(set(g.neighbors)) < g.n]
    lifted = [g for _, g in SETUP if len(set(g.degrees)) > 1]
    chains = [g for _, g in SETUP if bipartition(g) and len(set(g.degrees)) == 1]
    assert len(twins) >= 5 and len(lifted) >= 5 and len(chains) == 2
    switches = set()
    for _, g in SETUP:
        sizes = [len(raw) // g.m for _, _, raw in _walk_stream(g, g.n - 1)]
        switches |= {(x, y) for x, y in zip(sizes, sizes[1:]) if x != y}
    assert {(1, 2), (2, 4), (4, 8), (8, 16), (16, 19)} <= switches


@pytest.mark.parametrize("g", [g for _, g in SETUP + CROSSING], ids=[n for n, _ in SETUP + CROSSING])
def test_graphs_from_tuples_and_from_parsed_bytes_carry_equal_arrays(g):
    # the stream's set-up reads these arrays: edge tuples given in any order and
    # orientation, the edge-list text and graph6 bytes all give the same ones
    rng = np.random.default_rng(g.n)
    pairs = [e[::-1] if rng.random() < 0.5 else e for e in g.edges]
    made = [Graph(g.n, tuple(pairs[k] for k in rng.permutation(g.m))),
            parse_graph(g.to_edge_list().encode()), parse_graph(g.to_graph6())]
    for h in made:
        assert (h.n, h.edges, h.degrees, h._search) == (g.n, g.edges, g.degrees, g._search)
        for x, y in zip(h._edge_ends + h._arcs, g._edge_ends + g._arcs):
            assert x.dtype == np.int64 and x.tolist() == y.tolist()


def test_crossing_graphs_cross_before_the_last_power():
    # each one's stream switches to packed ints at some power l < n, and the
    # trees lift rows in both representations; C70's never does
    for _, g in CROSSING:
        delta = max(g.degrees)
        assert any(rigidity._slot_bytes(delta, l) > 8 for l in range(g.n))
    assert all(rigidity._slot_bytes(2, l) <= 2 for l in range(70))
    trees = [g for name, g in CROSSING if name.startswith("tree")]
    assert [max(g.degrees) for g in trees] == [6, 5]
    assert all(len(set(g.degrees)) == 5 and len(set(g.neighbors)) < g.n for g in trees)


def applied_rows(monkeypatch, g: Graph, lmax: int) -> tuple[list[np.ndarray], list]:
    """(P_0(M)..P_(lmax-1)(M) as the stream applies M to them, the stream to lmax), via a
    _word_sums spy.

    Application l + 1 takes P_l(M), already in the slots of power l + 1, whose
    slot size is len(c_(l+1)) // m. The spy is undone before returning.
    """
    rows, words = [], rigidity._word_sums

    def word_sums(X, table):
        rows.append(X)
        return words(X, table)

    with monkeypatch.context() as mp:
        mp.setattr(rigidity, "_word_sums", word_sums)
        stream = list(_walk_stream(g, lmax))
    return rows, stream


@pytest.mark.parametrize("g", [g for _, g in STREAM_CASES], ids=[n for n, _ in STREAM_CASES])
def test_halved_stream_matches_dense_adjoint(monkeypatch, g):
    """The stream against dense adjoint(P_l(M)), M = max-degree I - L, and tr(P_l(M) L), every power.

    P_l is the Chebyshev basis of the stream, P_(l+1) = M P_l - c P_(l-1).
    The stream holds P_l(M) as an integer array exactly while its slots fit
    8 bytes, and as packed ints after; the cases cover one side, the chain,
    lifted rows, twins and, with a maximum degree of 5 or more, packed ints.
    """
    walks, powers = dense_walks(g)
    delta = max(g.degrees)
    L = laplacian(g)
    basis = chebyshev_powers(delta * np.eye(g.n, dtype=np.int64) - L, delta, g.n)
    bounds = chebyshev_bounds(delta, g.n)
    rows, stream = applied_rows(monkeypatch, g, g.n + 1)
    held = [X.dtype != object for X in rows]  # P_0(M)..P_n(M)
    assert held == [len(raw) // g.m <= 8 for _, _, raw in stream[1:]]
    assert held == [rigidity._slot_bytes(delta, l + 1) <= 8 for l in range(g.n + 1)]
    stream = stream[: g.n + 1]
    assert len(stream) == len(basis) == len(walks)
    a, b = np.transpose(g.edges)
    for l, ((diag, ab, raw), P) in enumerate(zip(stream, basis)):
        # the diagonal and edge slots of P_l(M) that walk_class's flags read
        assert _signed_slots(diag.tobytes(), g.n) == [int(x) for x in P.diagonal()]
        assert _signed_slots(ab.tobytes(), g.m) == [int(x) for x in P[a, b]]
        c = _signed_slots(raw, g.m)
        assert c == [int(x) for x in adjoint_apply(g, P)]
        assert sum(c) == (P @ exact_matrix(L)).trace()  # sum_e c'_l(e) = tr(B^T P_l(M) B)
        # |P_l(M)_uv| <= P_l(max-degree) and |c'_l(e)| <= 2 P_l(max-degree), and
        # the slots hold signed values that large
        assert max(abs(int(x)) for x in P.flat) <= bounds[l]
        assert max(abs(x) for x in c) <= 2 * bounds[l]
        assert 8 * len(raw) // g.m >= (2 * bounds[l]).bit_length() + 1
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
    monkeypatch.setattr(rigidity, "_WORD_PRIME", 3)
    monkeypatch.setattr(rigidity, "_PRIME", 3)
    walks, _ = dense_walks(g)
    for P in range(g.n + 1):
        assert_decide_matches(g, walks, P)


@pytest.mark.parametrize("g, code", [(fam.cycle_graph(12), 0), (fam.path_graph(12), 1)], ids=["C12", "P12"])
def test_decide_never_forms_the_walk_constants(monkeypatch, tmp_path, capsys, g, code):
    def refuse(shifted, delta):
        raise AssertionError("decide formed the walk constants C_l")

    monkeypatch.setattr(rigidity, "_unshift", refuse)
    path = tmp_path / "g.txt"
    path.write_text(g.to_edge_list())
    assert cli.main(["decide", str(path)]) == code
    res = decide_edge_rigid_exact(g)
    monkeypatch.undo()
    rigid, constants, witness = reference_criterion(g, dense_walks(g)[0][: g.n])
    out = capsys.readouterr().out
    if rigid:
        assert out == "edge-rigid\n"
    else:
        assert out.endswith(f"({witness[3]} != {witness[4]})\n")
    # read only now, the constants are formed from the shifted ones
    assert res.constants == constants


@pytest.mark.parametrize(
    "g, hoods, additions",
    [(fam.complete_bipartite_graph(a, b), 2, a + b - 2) for a, b in ((1, 9), (3, 5), (20, 30))]
    + [(fam.cycle_graph(5), 5, 5), (fam.cycle_graph(12), 6, 6)],
    ids=["K1_9", "K3_5", "K20_30", "C5", "C12"],
)
def test_twins_share_one_neighbour_sum(monkeypatch, g, hoods, additions):
    # K_{a,b} has one neighbourhood per side; C_n with n > 4 has no twins,
    # and the even C12 keeps one chain of 6 rows. Row additions are counted
    # alike in the integer array and in packed ints: K20_30 needs 9-byte
    # slots from power 15 on
    seen = []
    words = rigidity._word_sums

    def word_sums(X, table):
        # per neighbourhood size d, a (d, count) array of members in blocks of rows
        shapes = [np.concatenate(blocks).shape for blocks in table]
        phase = "packed" if X.dtype == object else "words"
        seen.append((phase, sum(c for _, c in shapes), sum((d - 1) * c for d, c in shapes)))
        return words(X, table)

    monkeypatch.setattr(rigidity, "_word_sums", word_sums)
    for _ in _walk_stream(g, g.n - 1):
        pass
    assert [s[1:] for s in seen] == [(hoods, additions)] * (g.n - 1)
    fit = [rigidity._slot_bytes(max(g.degrees), l) <= 8 for l in range(1, g.n)]
    assert [s[0] for s in seen] == ["words" if f else "packed" for f in fit]


def test_regular_bipartite_graphs_are_relabelled():
    # the two sides interleave in vertex order, so no side is a range of labels
    for _, g in regular_bipartite_graphs() + small_regular_bipartite_graphs():
        parts = bipartition(g)
        assert parts is not None and len(set(g.degrees)) == 1
        assert all(p != tuple(range(p[0], p[0] + len(p))) for p in parts)


def test_small_regular_bipartite_graphs_vary_their_diagonals():
    # some even power's diagonal differs between vertices, so the chain's
    # diagonal, summed from the odd power before, is not one repeated value
    classes = [walk_class(g) for _, g in small_regular_bipartite_graphs()]
    assert any(c.label == "1-walk-regular" for c in classes)
    assert any(not c.walk_regular for c in classes)


@pytest.mark.parametrize("g", [g for _, g in REGULAR_BIPARTITE], ids=[n for n, _ in REGULAR_BIPARTITE])
def test_even_diagonal_sums_the_odd_edge_values_before(g):
    # M = A: diag(P_2j(A)) = |B| ab_(2j-1) - c diag(P_(2j-2)(A)), |B| the
    # unsigned n x m incidence matrix, in the stream and in dense powers alike
    B = np.abs(incidence(g)).astype(object)
    a, b = np.transpose(g.edges)
    delta = g.degrees[0]
    c = delta * delta // 4
    basis = chebyshev_powers(adjacency(g), delta, g.n - 1)
    stream = list(_walk_stream(g, g.n - 1))
    for l in range(2, g.n, 2):
        edges = np.array(_signed_slots(stream[l - 1][1].tobytes(), g.m), dtype=object)
        before = np.array(_signed_slots(stream[l - 2][0].tobytes(), g.n), dtype=object)
        assert _signed_slots(stream[l][0].tobytes(), g.n) == list(B @ edges - c * before)
        assert list(basis[l].diagonal()) == list(B @ basis[l - 1][a, b] - c * basis[l - 2].diagonal())
        assert list(edges) == list(basis[l - 1][a, b])


@pytest.mark.parametrize(
    "g", [fam.cycle_graph(12), hypercube(4), fam.complete_bipartite_graph(5, 5),
          fam.complete_bipartite_graph(16, 16)],
    ids=["C12", "Q4", "K5_5", "K16_16"],
)
def test_edge_rigid_chain_gathers_at_odd_powers_only(monkeypatch, g):
    # every odd power's edge values are one constant x, and the diagonal of
    # the even power before one constant y, so each even power is read off
    # them (d x - c y on the diagonal) without a gather from the rows, in
    # words (_word_slots) and in packed ints (_masked_slots) alike; K16_16
    # needs 9-byte slots from power 20 on
    gathered, seen = [], []
    for name in ("_word_slots", "_masked_slots"):
        def spy(*args, gather=getattr(rigidity, name)):
            gathered.append(len(seen))
            return gather(*args)

        monkeypatch.setattr(rigidity, name, spy)
    for power in _walk_stream(g, g.n - 1):
        seen.append(power)
    assert gathered == list(range(1, g.n, 2))


@pytest.mark.parametrize(
    "g, calls",
    [(fam.cycle_graph(71), 70), (CROSSING[-2][1], 35), (hypercube(4), 8)],
    ids=["C71", CROSSING[-2][0], "Q4"],
)
def test_gather_takes_the_diagonal_and_the_edge_slots(monkeypatch, g, calls):
    # one side gathers diag(P_l(M)) and P_l(M)_ab, n + m slots, and reads P_aa
    # and P_bb off the diagonal; the chain gathers P_l(M)_ab alone, m slots,
    # at odd powers. P_0 = I is formed without a gather. C71 is held in words
    # at every power, the tree through 35
    gathered = []
    gather = rigidity._word_slots

    def spy(X, at, size):
        gathered.append(len(at))
        return gather(X, at, size)

    monkeypatch.setattr(rigidity, "_word_slots", spy)
    for _ in _walk_stream(g, g.n - 1):
        pass
    one_side = bipartition(g) is None or len(set(g.degrees)) > 1
    slots = g.n + g.m if one_side else g.m
    assert gathered == [slots] * calls


def test_walk_regular_graph_reads_even_powers_both_ways(monkeypatch):
    # C40(1,7,9,15) is walk-regular but not edge-rigid: its edge values agree
    # through power 5 and split at 7, so powers 2..6 are read off the constant
    # and powers 8..38 summed from the edge values before, one layer per
    # incident edge, in words and in packed ints alike. full_report may stop
    # at a certified trace recurrence, so the stream is driven to power n - 1 here
    g = fam.circulant_graph(40, (1, 7, 9, 15))
    report = full_report(g)
    assert not report.edge_rigid and report.witness.power == 7
    assert report.walk_class.label == "walk-regular-only"
    summed, seen = [], []
    split = rigidity._split

    def spy_split(raw, count):
        if count == 8:  # the layer sum of an 8-regular graph
            summed.append(len(seen))
        return split(raw, count)

    monkeypatch.setattr(rigidity, "_split", spy_split)
    for power in _walk_stream(g, g.n - 1):
        seen.append(power)
    assert summed == list(range(8, g.n, 2))
    # the sums run on both sides of the switch: slots need 9 bytes from power 29 on
    assert [l for l in summed if rigidity._slot_bytes(8, l) > 8] == [30, 32, 34, 36, 38]
    # M = A on a regular graph
    a, b = np.transpose(g.edges)
    basis = chebyshev_powers(adjacency(g), 8, g.n - 1)
    assert len(seen) == len(basis)
    for (diag, ab, raw), P in zip(seen, basis):
        assert _signed_slots(diag.tobytes(), g.n) == [int(x) for x in P.diagonal()]
        assert _signed_slots(ab.tobytes(), g.m) == [int(x) for x in P[a, b]]
        assert _signed_slots(raw, g.m) == [int(x) for x in adjoint_apply(g, P)]


def non_bipartite_cubic(seed: int = 20261029) -> Graph:
    g = random_regular(np.random.default_rng(seed), 14, 3)
    assert bipartition(g) is None
    return g


@pytest.mark.parametrize(
    "g, half",
    [(fam.cycle_graph(12), True), (hypercube(4), True), (fam.complete_bipartite_graph(5, 5), True),
     (REGULAR_BIPARTITE[3][1], True), (fam.path_graph(12), False),
     (fam.complete_bipartite_graph(3, 5), False), (fam.petersen_graph(), False),
     (non_bipartite_cubic(), False), (fam.complete_bipartite_graph(16, 16), True),
     (fam.complete_bipartite_graph(2, 25), False)],
    ids=["C12", "Q4", "K5_5", REGULAR_BIPARTITE[3][0], "P12", "K3_5", "petersen", "cubic14",
         "K16_16", "K2_25"],
)
def test_regular_bipartite_rows_hold_half_the_slots(monkeypatch, g, half):
    # on a regular bipartite graph the stream keeps one chain of n/2 rows, each
    # of the n/2 slots of side 0; on any other graph some row of n has a
    # nonzero slot past n/2 at every power, as an array column or a packed slot.
    # Application l + 1 takes M^l in the slots of power l + 1
    applied, stream = applied_rows(monkeypatch, g, g.n)
    assert len(applied) == g.n
    for rows, (_, _, raw) in zip(applied, stream[1:]):
        size = len(raw) // g.m
        if rows.dtype != object:
            assert (not rows[:, g.n // 2 :].any()) is half
        else:
            assert (max(r.bit_length() for r in rows) <= 8 * size * g.n // 2) is half
        assert (len(rows) == g.n // 2) is half


def odd_witness_graphs(seed: int = 20261018) -> list[Graph]:
    """Relabelled random circulants whose first non-constant power is odd and >= 3.

    There the walk values are w_l = K_l - c_l for the shifted stream c_l, so
    the first-min edge of w_l is the first-max edge of c_l.
    """
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < 8:
        n = int(rng.integers(8, 25))
        jumps = sorted({int(j) for j in rng.integers(1, n // 2 + 1, size=int(rng.integers(2, 4)))})
        if math.gcd(n, *jumps) != 1:
            continue
        g = relabel(rng, fam.circulant_graph(n, tuple(jumps)))
        w = decide_edge_rigid_exact(g).witness
        if w and w.power % 2 and w.power >= 3:
            found.append(g)
    return found


ODD_WITNESS = odd_witness_graphs()


def bipartite_witness_graphs(seed: int = 20261028) -> list[Graph]:
    """Relabelled random regular bipartite graphs that are not edge-rigid."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < 3:
        d = int(rng.integers(2, 6))
        h = int(rng.integers(d + 1, 13))
        g = random_biregular(rng, h, h, d)
        if not decide_edge_rigid_exact(g).rigid:
            found.append(g)
    return found


BIPARTITE_WITNESS = bipartite_witness_graphs()


def test_regular_bipartite_graphs_first_fail_at_an_odd_power():
    # M = A, and (A^(2k))_aa = sum_{b ~ a} (A^(2k-1))_ab: a constant (A^(2k-1))_ab
    # over the edges makes c_2k(e) = (A^(2k))_aa + (A^(2k))_bb constant, so no
    # regular bipartite graph first fails at an even power
    graphs = BIPARTITE_WITNESS + [g for _, g in REGULAR_BIPARTITE]
    powers = [w.power for w in (decide_edge_rigid_exact(g).witness for g in graphs) if w]
    assert len(powers) >= 8 and all(p % 2 for p in powers)


def test_odd_witness_search_reaches_powers_three_and_five():
    assert {decide_edge_rigid_exact(g).witness.power for g in ODD_WITNESS} >= {3, 5}


@pytest.mark.parametrize(
    "g",
    ODD_WITNESS + BIPARTITE_WITNESS,
    ids=[f"odd{i}" for i in range(len(ODD_WITNESS))]
    + [f"bip{i}" for i in range(len(BIPARTITE_WITNESS))],
)
def test_witness_at_an_odd_power_matches_dense_walks(g):
    walks, _ = dense_walks(g)
    w = assert_decide_matches(g, walks, g.n - 1).witness
    assert w.value_a < w.value_b
    assert full_report(g).witness == w


@pytest.mark.parametrize(
    "g, power",
    [(fam.circulant_graph(36, (3, 5)), 11), (fam.circulant_graph(39, (4, 9)), 12)],
    ids=["C36_3_5", "C39_4_9"],
)
def test_deep_witness_matches_dense_walks(g, power):
    # deeper than the odd-witness search reaches: the offset K_l sums 11 and 12 constants
    walks, _ = dense_walks(g)
    w = assert_decide_matches(g, walks, g.n - 1).witness
    assert w.power == power
    assert full_report(g).witness == w


def binomial_unshift(c: list[int], delta: int, l: int) -> int:
    """sum_{i<=l} C(l, i) delta^(l-i) (-1)^i c_i, term by term."""
    return sum(math.comb(l, i) * delta ** (l - i) * (-1) ** i * c[i] for i in range(l + 1))


def signed_sequences(seed: int = 20261101) -> list[tuple[list[int], int]]:
    """Seeded (c, delta): lengths 0..300, delta 1..60, |c_i| of up to 6 i + 8 bits, either sign."""
    rng = np.random.default_rng(seed)
    cases = []
    for length, delta in [(0, 1), (1, 60), (2, 1), (300, 1), (300, 60)] + [
        (int(rng.integers(0, 301)), int(rng.integers(1, 61))) for _ in range(7)
    ]:
        c = [
            int(rng.choice([-1, 1])) * int.from_bytes(rng.bytes(1 + 3 * i // 4), "little")
            for i in range(length)
        ]
        cases.append((c, delta))
    return cases


SIGNED = signed_sequences()


@pytest.mark.parametrize("c, delta", SIGNED, ids=[f"{len(c)}_{d}" for c, d in SIGNED])
def test_difference_table_matches_the_binomial_formula(c, delta):
    # with c = 0 (P_l = x^l) the table is the binomial transform of the powers of M
    assert tuple(rigidity._differences(c, delta, 0)) == tuple(binomial_unshift(c, delta, l) for l in range(len(c)))
    # the witness offset K_l: c_0..c_(l-1) with c_l = 0, at l = len(c)
    *_, k = rigidity._differences(c + [0], delta, 0)
    assert k == binomial_unshift(c + [0], delta, len(c))


def chebyshev_expansion(delta: int, c: int, l: int) -> list[int]:
    """beta_0..beta_l with (delta - x)^l = sum_i beta_i P_i(x), by brute force on coefficients.

    P_0 = 1, P_1 = x, P_(i+1) = x P_i - c P_(i-1), each a list of ascending
    coefficients; the monic P_i are peeled off the top degree down.
    """
    basis = [[1], [0, 1]]
    while len(basis) <= l:
        shifted = [0] + basis[-1]
        basis.append([u - c * v for u, v in itertools.zip_longest(shifted, basis[-2], fillvalue=0)])
    poly = [math.comb(l, k) * delta ** (l - k) * (-1) ** k for k in range(l + 1)]
    beta = [0] * (l + 1)
    for i in range(l, -1, -1):
        beta[i] = poly[i]
        poly = [u - beta[i] * v for u, v in itertools.zip_longest(poly, basis[i], fillvalue=0)]
    assert not any(poly)
    return beta


@pytest.mark.parametrize("c", [0, 1, 2, 9, 100])
def test_difference_table_expands_powers_in_the_chebyshev_basis(c):
    # row l + 1 = delta x_i - x_(i+1) - c x_(i-1): entry l of the first column
    # is sum_i beta_(l,i) x_i for the expansion of (delta - x)^l in P_0, P_1, ..
    rng = np.random.default_rng(20261102 + c)
    for delta in (1, 2, 7, 20):
        x = [int(v) for v in rng.integers(-10**6, 10**6, size=25)]
        column = list(rigidity._differences(x, delta, c))
        for l in range(len(x)):
            beta = chebyshev_expansion(delta, c, l)
            assert column[l] == sum(b * v for b, v in zip(beta, x))
            # the witness offset: x_0..x_(l-1) and x_l = 0
            *_, k = rigidity._differences(x[:l] + [0], delta, c)
            assert k == sum(b * v for b, v in zip(beta[:l], x))


def test_cycles_stay_in_one_and_two_byte_words(monkeypatch):
    # P_l(2) = l + 1 bounds every entry of P_l(M) on C_n, so 2 P_l(2) < 2^15
    # for all l < n <= 301: the rows are int8 through power 62 and int16
    # after, never packed, and every slot takes one or two bytes
    widths, words = set(), rigidity._word_sums

    def spy(X, table):
        widths.add(X.dtype.str)
        return words(X, table)

    monkeypatch.setattr(rigidity, "_word_sums", spy)
    for n in (3, 63, 64, 65, 100, 101, 300, 301):
        sizes = {len(raw) // n for _, _, raw in _walk_stream(fam.cycle_graph(n), n - 1)}
        assert sizes == ({1} if n <= 63 else {1, 2})
    assert widths == {"|i1", "<i2"}


@pytest.mark.parametrize(
    "g, trace, m",
    [
        (hypercube(8), lambda p: sum(math.comb(8, k) * (2 * k) ** p for k in range(9)), 8 * 2**7),
        (fam.complete_bipartite_graph(50, 80), lambda p: 50**p * 79 + 80**p * 49 + 130**p, 4000),
        (fam.complete_graph(100), lambda p: 99 * 100**p, 4950),
    ],
    ids=["Q8", "K50_80", "K100"],
)
def test_walk_constants_match_the_integral_spectrum(g, trace, m):
    # on an edge-rigid graph m w_l = sum_e z_e^T L^l z_e = tr(L^(l+1)), a power sum of the spectrum
    assert full_report(g).walk_constants == tuple(trace(l + 1) // m for l in range(g.n))
    assert all(trace(l + 1) % m == 0 for l in range(g.n))


def random_regular_graphs(seed: int = 20261019) -> list[tuple[str, Graph]]:
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(12):
        d = int(rng.integers(3, 6))
        n = int(rng.integers(d + 2, 17))
        n += n * d % 2
        graphs.append((f"reg{d}_{n}_{i}", random_regular(rng, n, d)))
    return graphs


def dense_walk_class(g: Graph) -> WalkClassification:
    """walk_class from dense A^0..A^(n-1), every power read."""
    L = laplacian(g)
    powers = dense_powers(np.diag(np.diag(L)) - L, g.n - 1)
    a, b = np.transpose(g.edges)
    parts = bipartition(g)
    diag = all(len(set(P.diagonal())) == 1 for P in powers)
    edge = all(len(set(P[a, b])) == 1 for P in powers)
    part = parts is not None and all(
        len(set(P.diagonal()[list(p)])) == 1 for P in powers for p in parts
    )
    if diag:
        label = "1-walk-regular" if edge else "walk-regular-only"
    elif part:
        label = "1-walk-biregular" if edge else "walk-biregular-only"
    else:
        label = "neither"
    bip = parts is not None
    return WalkClassification(
        label, diag, diag and edge, bip, part if bip else None, (part and edge) if bip else None
    )


def random_biregular_graphs(seed: int = 20261021) -> list[tuple[str, Graph]]:
    """50 connected biregular bipartite graphs, sides p < q <= 12, so not regular.

    (p, q, d) is drawn uniformly from the shapes with 1 < d < p: d = p is
    K_{p,q}, and d = 1 < p splits the graph into stars.
    """
    shapes = [(p, q, d) for q in range(13) for p in range(q) for d in range(2, p) if q * d % p == 0]
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(50):
        p, q, d = shapes[int(rng.integers(len(shapes)))]
        graphs.append((f"bireg{p}_{q}_{d}_{i}", random_biregular(rng, p, q, d)))
    return graphs


BIREGULAR = random_biregular_graphs()


def test_biregular_set_holds_both_verdicts():
    labels = {dense_walk_class(g).label for _, g in BIREGULAR}
    assert "1-walk-biregular" in labels
    assert labels - {"1-walk-biregular"}


WALK_CASES = (
    CASES
    + random_regular_graphs()
    + [("K3_5", fam.complete_bipartite_graph(3, 5)), ("K4_6", fam.complete_bipartite_graph(4, 6))]
    + BIREGULAR
    + TWIN_CASES
    + REGULAR_BIPARTITE
)


@pytest.mark.parametrize("g", [g for _, g in WALK_CASES], ids=[n for n, _ in WALK_CASES])
def test_walk_class_matches_dense_powers(g):
    # the flags are read from powers of max-degree I - L, not of A, on every
    # graph; full_report's walk criterion, like decide's, may stop on the
    # recurrence certificate and extend the constants to power n - 1
    ref = dense_walk_class(g)
    assert walk_class(g) == ref
    rep, wc = full_report(g), decide_edge_rigid_exact(g)
    assert rep.walk_class == ref
    assert rep.walk_constants == wc.constants
    assert rep.witness == wc.witness


def all_power_classes(g: Graph, walks: list[bytes]) -> tuple[tuple[int, ...], ...]:
    """Edge classes by the values of every power of the stream, constant or not."""
    buckets: dict[tuple[int, ...], list[int]] = {}
    for e, profile in enumerate(zip(*(_split(raw, g.m) for raw in walks))):
        buckets.setdefault(profile, []).append(e)
    return tuple(tuple(c) for c in sorted(buckets.values()))


def test_classes_keyed_on_varying_powers_match_all_powers(case):
    walks = [c for _, _, c in _walk_stream(case, case.n - 1)]
    assert _profile_classes(case, walks) == all_power_classes(case, walks)


def test_newton_coefficients_match_char_poly(case):
    g = case
    delta = max(g.degrees)
    M = delta * np.eye(g.n, dtype=np.int64) - laplacian(g)
    traces = [_trace(diag) for diag, _, _ in _walk_stream(g, g.n - 1)]
    assert traces == [P.trace() for P in chebyshev_powers(M, delta, g.n - 1)]
    # tr(M^l) through the difference table with delta 0
    traces = rigidity._power_traces(traces, delta)
    assert traces == [P.trace() for P in dense_powers(M, g.n - 1)]
    # coefficients of x^n..x^1 of det(xI - M), against char_poly's ascending degrees 1..n
    assert _char_coeffs(traces)[::-1] == list(char_poly(M).coeffs[1:])


def test_newton_remainder_is_an_internal_inconsistency():
    # 2 a_2 = -(a_1 p_1 + a_0 p_2) = 1 for the traces (3, 1, 0) of no integer matrix
    with pytest.raises(InternalInconsistencyError):
        _char_coeffs([3, 1, 0])


def random_trees(seed: int = 20261020) -> list[tuple[str, Graph]]:
    rng = np.random.default_rng(seed)
    return [
        (f"tree{i}", fam.random_tree(int(rng.integers(2, 31)), seed=int(rng.integers(2**31))))
        for i in range(10)
    ]


TREE_CASES = CASES + WIDTH_CASES + random_trees() + random_regular_graphs() + REGULAR_BIPARTITE


def breadth_first_bipartition(g: Graph):
    """Reference 2-colouring from vertex 0 by breadth-first search over the edge list."""
    adj: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    color, queue = {0: 0}, collections.deque([0])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in color:
                color[u] = 1 - color[v]
                queue.append(u)
            elif color[u] == color[v]:
                return None
    return tuple(v for v in range(g.n) if color[v] == 0), tuple(v for v in range(g.n) if color[v] == 1)


BIPARTITION_CASES = TREE_CASES + BIREGULAR


@pytest.mark.parametrize("g", [g for _, g in BIPARTITION_CASES], ids=[n for n, _ in BIPARTITION_CASES])
def test_bipartition_matches_breadth_first_colouring(g):
    assert bipartition(g) == breadth_first_bipartition(g)


@pytest.mark.parametrize("g", [g for _, g in TREE_CASES], ids=[n for n, _ in TREE_CASES])
def test_stream_tree_count_matches_bareiss(g):
    assert full_report(g).tree_count == tree_count_exact(g)


@pytest.mark.parametrize("g", [g for _, g in random_trees()], ids=[n for n, _ in random_trees()])
def test_stream_tree_count_of_a_tree_is_one(g):
    assert full_report(g).tree_count == 1


@pytest.mark.parametrize("a, b", [(1, 6), (2, 5), (3, 4), (3, 7), (5, 8)])
def test_stream_tree_count_of_complete_bipartite(a, b):
    assert full_report(fam.complete_bipartite_graph(a, b)).tree_count == a ** (b - 1) * b ** (a - 1)


def stopping_graphs(seed: int = 20261101) -> list[tuple[str, Graph]]:
    """Seeded graphs where full_report stops at a certified trace recurrence, relabelled.

    Complete multipartite graphs, rook graphs K_a x K_b and threshold graphs
    (each vertex isolated or dominating when it is added, the last one
    dominating) have few distinct Laplacian eigenvalues; a graph is kept
    when 2(r - 1), for their float count r, is below n - 1, and its report
    then stops there.
    """
    rng = np.random.default_rng(seed)
    graphs = []
    while len(graphs) < 30:
        kind = len(graphs) % 3
        if kind == 0:
            sizes = [int(x) for x in rng.integers(1, 6, size=int(rng.integers(2, 6)))]
            g = complete_multipartite(*sizes)
        elif kind == 1:
            a, b = (int(x) for x in rng.integers(2, 6, size=2))
            cells = [(i, j) for i in range(a) for j in range(b)]  # K_a x K_b: one coordinate equal
            pairs = [(u, v) for u in range(a * b) for v in range(u + 1, a * b)]
            g = Graph(a * b, tuple((u, v) for u, v in pairs
                                   if sum(x == y for x, y in zip(cells[u], cells[v])) == 1))
        else:
            n = int(rng.integers(6, 21))
            dominating = [bool(x) for x in rng.integers(0, 2, size=n - 1)] + [True]
            g = Graph(n, tuple((u, v) for v in range(1, n) if dominating[v] for u in range(v)))
        r = len(group_eigenvalues(np.linalg.eigvalsh(laplacian(g).astype(float))))
        if 2 * r - 2 < g.n - 1:
            graphs.append((f"stop{kind}_{len(graphs)}", relabel(rng, g)))
    return graphs


STOPPING = stopping_graphs()


@pytest.mark.parametrize("g", [g for _, g in STOPPING], ids=[n for n, _ in STOPPING])
def test_stopped_report_matches_full_depth(monkeypatch, g):
    # the traces extended by the certified recurrence give the Bareiss tree
    # count, and the report equals the one read to power n - 1
    stops = []

    def spy(terms, word, big, certify=rigidity._certify):
        lam = certify(terms, word, big)
        stops.append(bool(lam))
        return lam

    monkeypatch.setattr(rigidity, "_certify", spy)
    rep = full_report(g)
    assert stops == [False] * (len(stops) - 1) + [True]  # the last try certifies, no other
    assert rep.tree_count == tree_count_exact(g)
    monkeypatch.setattr(rigidity, "_certify", lambda terms, word, big: None)
    ref = full_report(g)
    assert rep.to_dict() == ref.to_dict()
    assert (rep.tree_count, rep.walk_constants) == (ref.tree_count, ref.walk_constants)
    assert cospectrality_classes(g) == dense_profile_classes(g, dense_walks(g)[0][: g.n])
    assert walk_class(g) == dense_walk_class(g)


def dense_profile_classes(g: Graph, walks: list[np.ndarray]) -> tuple[tuple[int, ...], ...]:
    """Edge classes by the dense walk profiles (w_0(e), .., w_(n-1)(e))."""
    buckets: dict[tuple[int, ...], list[int]] = {}
    for e, profile in enumerate(zip(*([int(x) for x in w] for w in walks))):
        buckets.setdefault(profile, []).append(e)
    return tuple(tuple(c) for c in sorted(buckets.values()))


REPORT_CASES = REGULAR_BIPARTITE + NARROW


@pytest.mark.parametrize("g", [g for _, g in REPORT_CASES], ids=[n for n, _ in REPORT_CASES])
def test_regular_bipartite_report_matches_dense_references(g):
    # char(L - L_e) per edge is too slow a reference at n = 40; the walk
    # profiles determine it and are determined by it (rigidity's docstring)
    walks, _ = dense_walks(g)
    rep = full_report(g)
    assert rep.cospectrality_classes == dense_profile_classes(g, walks[: g.n])
    assert rep.verdicts["signed_line_graph"] is switched_signed_line_graph_walk_regular(
        g, np.random.default_rng(g.m)
    )
    rigid, constants, witness = reference_criterion(g, walks[: g.n])
    assert rep.edge_rigid is rigid and rep.walk_constants == constants
    w = rep.witness
    assert (w and (w.power, w.edge_a, w.edge_b, w.value_a, w.value_b)) == witness
