import collections
import itertools
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import hypercube, switched_signed_line_graph_walk_regular

from edgerigid import families as fam
from edgerigid import rigidity
from edgerigid.errors import InternalInconsistencyError
from edgerigid.graphs import Graph, degree_classification
from edgerigid.rigidity import (
    cospectrality_classes,
    decide_edge_rigid_exact,
    full_report,
    signed_line_graph_walk_regular,
    walk_class,
)


# ---------------------------------------------------------------------------
# exact walk criterion
# ---------------------------------------------------------------------------

def test_k4_rigid_with_constants():
    res = decide_edge_rigid_exact(fam.complete_graph(4))
    assert res.rigid
    assert res.constants[0] == 2
    assert res.constants[1] == 8  # d_a + d_b + 2 = 3 + 3 + 2
    assert res.witness is None


def test_p4_witness():
    res = decide_edge_rigid_exact(fam.path_graph(4))
    assert not res.rigid
    w = res.witness
    assert w.power == 1
    assert {w.edge_a, w.edge_b} == {(0, 1), (1, 2)}
    assert {w.value_a, w.value_b} == {5, 6}


def test_star_rigid():
    res = decide_edge_rigid_exact(fam.star_graph(2))
    assert res.rigid


def test_decider_on_corpus(corpus_case):
    _, g, expected = corpus_case
    assert decide_edge_rigid_exact(g).rigid is expected


def test_walk_constants_structure(rigid_graph):
    g = rigid_graph
    res = decide_edge_rigid_exact(g)
    deg = g.degrees
    a, b = g.edges[0]
    assert res.constants[0] == 2
    assert res.constants[1] == deg[a] + deg[b] + 2


def test_max_power_override():
    # the jump-(1,2) circulant has constant degree sums, so depth 1 passes;
    # the first violation appears at power 2
    g = fam.circulant_graph(10, (1, 2))
    assert decide_edge_rigid_exact(g, max_power=1).rigid
    res = decide_edge_rigid_exact(g, max_power=2)
    assert not res.rigid
    assert res.witness.power == 2


def test_negative_max_power_rejected():
    with pytest.raises(ValueError):
        decide_edge_rigid_exact(fam.path_graph(4), max_power=-1)


@pytest.fixture
def applications(monkeypatch):
    """Count the applications of M that rigidity takes: [0] in all, and by representation.

    An application is one call of _word_sums, on an integer array while the
    slots fit 8 bytes ("words") and on an object array of packed ints after
    ("packed").
    """
    count = collections.Counter()

    def counted(X, table, sums=rigidity._word_sums):
        count[0] += 1
        count["packed" if X.dtype == object else "words"] += 1
        return sums(X, table)

    monkeypatch.setattr(rigidity, "_word_sums", counted)
    return count


def word_applications(g, applications):
    """How many of the applications 1..applications fall in powers whose slots fit 8 bytes.

    _slot_bytes sizes a slot of power l from 2 P_l(max-degree), P_l the Chebyshev basis.
    """
    return sum(rigidity._slot_bytes(max(g.degrees), l) <= 8 for l in range(1, applications + 1))


@pytest.mark.parametrize("delta", [1, 2, 3, 4, 5, 6, 7, 16, 30, 99])
def test_slot_bytes_hold_twice_the_chebyshev_bound(delta):
    # P_0 = 1, P_1 = x, P_(l+1) = x P_l - c P_(l-1) with c = floor(delta^2 / 4):
    # |P_l(x)| <= P_l(delta) <= delta^l on [-delta, delta], here at its
    # integers, and a slot of _slot_bytes(delta, l) holds +-2 P_l(delta), in
    # no more bytes than +-2 delta^l takes
    c = delta * delta // 4
    values = {x: [1, x] for x in range(-delta, delta + 1)}
    for v in values.values():
        for _ in range(150):
            v.append(v[-1] * v[1] - c * v[-2])
    for l in range(len(values[delta])):
        bound = values[delta][l]
        assert max(abs(v[l]) for v in values.values()) == bound <= delta**l
        size = rigidity._slot_bytes(delta, l)
        assert (2 * bound).bit_length() < 8 * size <= (2 * bound).bit_length() + 8
        assert size <= ((2 * delta**l).bit_length() + 8) // 8


@pytest.mark.parametrize("n", [3, 4, 5, 8, 13, 30, 70, 71])
def test_full_depth_takes_n_minus_one_applications(applications, n):
    # C_n has floor(n/2) distinct nonzero eigenvalues, too many to stop
    # early: n - 1 applications of M, one per power after the first. The
    # entries of P_l(M) are at most P_l(2) = l + 1, so C70 and C71 take
    # every application in words
    g = fam.cycle_graph(n)
    assert decide_edge_rigid_exact(g).rigid
    assert applications[0] == n - 1
    assert applications["words"] == word_applications(g, n - 1) == n - 1


def kneser_graph(v: int, k: int) -> Graph:
    """K(v, k): the k-subsets of range(v), two joined when they are disjoint."""
    sets = [set(c) for c in itertools.combinations(range(v), k)]
    pairs = itertools.combinations(range(len(sets)), 2)
    return Graph(len(sets), tuple((i, j) for i, j in pairs if not sets[i] & sets[j]))


# d' distinct nonzero Laplacian eigenvalues: Q_d has 2, 4, .., 2d; K_n has n;
# K_{a,b} has a, b, a + b; the Kneser graphs Petersen = K(5, 2) and K(7, 2)
# have two each
D_PRIME_CASES = (
    [(f"Q{d}", hypercube(d), d) for d in range(2, 7)]
    + [(f"K{n}", fam.complete_graph(n), 1) for n in (4, 5, 9, 20)]
    + [(f"K{a}_{a}", fam.complete_bipartite_graph(a, a), 2) for a in (3, 4, 20)]
    + [(f"K{a}_{b}", fam.complete_bipartite_graph(a, b), 3) for a, b in ((2, 5), (3, 4), (5, 9))]
    + [("petersen", fam.petersen_graph(), 2), ("kneser7_2", kneser_graph(7, 2), 2)]
)


@pytest.mark.parametrize(
    "g, d_prime", [c[1:] for c in D_PRIME_CASES], ids=[c[0] for c in D_PRIME_CASES]
)
def test_rigid_graph_takes_d_prime_products(applications, g, d_prime):
    # the certificate reads powers 0..2d', one application of M each
    res = decide_edge_rigid_exact(g)
    assert res.rigid and res.proved and len(res.constants) == g.n
    assert applications[0] == min(2 * d_prime, g.n - 1)
    assert applications["words"] == word_applications(g, applications[0])


@pytest.mark.parametrize("n", [4, 5, 10, 50])
def test_witness_at_power_one_takes_one_application(applications, n):
    res = decide_edge_rigid_exact(fam.path_graph(n))
    assert res.witness.power == 1
    assert applications[0] == 1


@pytest.mark.parametrize(
    "g, powers",
    [(fam.cycle_graph(12), 11), (fam.path_graph(12), 11), (fam.complete_bipartite_graph(3, 5), 6),
     (fam.random_tree(30, 4), 29), (fam.complete_bipartite_graph(2, 25), 6),
     (fam.random_tree(48, 9), 47)],
    ids=["C12", "P12", "K3_5", "tree30", "K2_25", "tree48"],
)
def test_full_report_takes_one_exact_loop_on_every_graph(applications, g, powers):
    # regular, irregular and biregular graphs alike: walk_class's flags are
    # read from the walk stream's powers, one application of M per power, to
    # power n - 1 or to the certified stop at twice the d' distinct nonzero
    # Laplacian eigenvalues, when that comes first: K_{a,b} has d' = 3 (a, b
    # and a + b), so K3_5 stops at 6 of 7 and K2_25 at 6 of 26. tree48 reads
    # to full depth and needs 9-byte slots from power 36 on
    full_report(g)
    assert applications[0] == powers
    assert applications["words"] == word_applications(g, powers)
    assert applications["packed"] == powers - word_applications(g, powers)


@pytest.mark.parametrize(
    "g, powers",
    [(fam.path_graph(12), 11), (fam.path_graph(30), 29), (fam.random_tree(30, 4), 29),
     (fam.random_tree(48, 9), 47), (fam.star_graph(9), 4), (fam.star_graph(30), 4)],
    ids=["P12", "P30", "tree30", "tree48", "K1_9", "K1_30"],
)
def test_trees_count_one_spanning_tree_without_newtons_identities(applications, monkeypatch, g,
                                                                 powers):
    # a tree (m = n - 1) is its own one spanning tree: full_report neither
    # extends the traces nor turns them into those of powers of M, and never
    # runs Newton's identities; a star K_{1,k}, with eigenvalues 0, 1 and k + 1,
    # still stops at power 4, where its traces certify q(M) = 0
    def newton(traces):
        pytest.fail("Newton's identities ran on a tree")

    def power_traces(traces, delta):
        pytest.fail("the traces of powers of M were formed on a tree")

    monkeypatch.setattr(rigidity, "_char_coeffs", newton)
    monkeypatch.setattr(rigidity, "_power_traces", power_traces)
    rep = full_report(g)
    assert rep.tree_count == 1 and applications[0] == powers


def test_kneser_graph_has_three_distinct_eigenvalues():
    g = kneser_graph(7, 2)
    assert (g.n, g.m, set(g.degrees)) == (21, 105, {10})
    L = np.diag(g.degrees) - np.array([[int(v in nb) for v in range(g.n)] for nb in g.neighbors])
    assert sorted({round(x) for x in np.linalg.eigvalsh(L)}) == [0, 9, 14]


@pytest.mark.parametrize(
    "g, d_prime", [c[1:] for c in D_PRIME_CASES], ids=[c[0] for c in D_PRIME_CASES]
)
def test_full_report_stops_at_a_certified_trace_recurrence(applications, monkeypatch, g, d_prime):
    # a monic q' of degree d' that annihilates p_l - max-degree^l for
    # l = 0..2d' gives q(M) = 0 for q = (x - max-degree) q', which fixes every
    # later power: min(2d', n - 1) applications of M, as in decide, give the
    # report that reading to power n - 1 gives
    rep = full_report(g)
    assert applications[0] == min(2 * d_prime, g.n - 1)
    monkeypatch.setattr(rigidity, "_certify", lambda terms, word, big: None)
    ref = full_report(g)
    assert applications[0] == min(2 * d_prime, g.n - 1) + g.n - 1
    assert rep.to_dict() == ref.to_dict()
    assert (rep.tree_count, rep.walk_constants) == (ref.tree_count, ref.walk_constants)


@pytest.mark.parametrize("g", [c[1] for c in D_PRIME_CASES], ids=[c[0] for c in D_PRIME_CASES])
def test_walk_class_and_classes_take_no_float_spectrum(monkeypatch, g):
    # their stop is certified from the exact traces alone
    def eigh(*args, **kwargs):
        pytest.fail("numpy.linalg.eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert walk_class(g).label in ("1-walk-regular", "1-walk-biregular")
    assert cospectrality_classes(g) == (tuple(range(g.m)),)


@pytest.mark.parametrize(
    "g, d_prime", [c[1:] for c in D_PRIME_CASES], ids=[c[0] for c in D_PRIME_CASES]
)
def test_walk_class_and_classes_stop_at_the_same_power(applications, g, d_prime):
    stop = min(2 * d_prime, g.n - 1)
    assert walk_class(g) == full_report(g).walk_class
    assert applications[0] == 2 * stop
    assert cospectrality_classes(g) == (tuple(range(g.m)),)
    assert applications[0] == 3 * stop


def distinct_nonzero_eigenvalues(g: Graph) -> int:
    """d' from the exact rank of the Krylov vectors L^i v of a seeded integer v, v summing to 1.

    v meets every eigenspace of L, kernel included, so the rank is the degree of L's minimal
    polynomial, the number of distinct eigenvalues. Rows are reduced over the integers, each
    divided by the gcd of its entries.
    """
    L = [[0] * g.n for _ in range(g.n)]
    for a, b in g.edges:
        L[a][b] = L[b][a] = -1
        L[a][a] += 1
        L[b][b] += 1
    rng = random.Random(g.n)
    v = [rng.randint(-99, 99) for _ in range(g.n - 1)]
    v.append(1 - sum(v))
    basis = []  # (pivot, row)
    while True:
        w = list(v)
        for j, b in basis:
            if w[j]:
                w = [b[j] * x - w[j] * y for x, y in zip(w, b)]
                d = math.gcd(*w) or 1
                w = [x // d for x in w]
        if not any(w):
            return len(basis) - 1
        j = next(i for i, x in enumerate(w) if x)
        basis.append((j, w))
        v = [sum(r * x for r, x in zip(row, v)) for row in L]


def star_path_star(s: int, p: int) -> Graph:
    """Two stars K_{1,s} whose centres a path of p edges joins."""
    far = s + p  # the second centre; the path runs 0, s + 1, .., s + p
    path = [0, *range(s + 1, far + 1)]
    edges = [(0, i) for i in range(1, s + 1)] + list(zip(path, path[1:]))
    return Graph(far + s + 1, tuple(edges + [(far, far + i) for i in range(1, s + 1)]))


def test_close_eigenvalues_do_not_delay_the_stop(applications, monkeypatch):
    # the two top Laplacian eigenvalues of two K_{1,20} joined by a path of 20
    # edges differ by far less than a float spectrum resolves; the exact
    # traces stop full_report and cospectrality_classes at 2d' all the same
    g = star_path_star(20, 20)
    d_prime = distinct_nonzero_eigenvalues(g)
    assert (g.n, d_prime) == (61, 23)
    rep = full_report(g)
    assert applications[0] == 2 * d_prime < g.n - 1
    assert len(cospectrality_classes(g)) == len(rep.cospectrality_classes)
    assert applications[0] == 4 * d_prime
    monkeypatch.setattr(rigidity, "_certify", lambda terms, word, big: None)
    ref = full_report(g)
    assert rep.to_dict() == ref.to_dict() and rep.tree_count == ref.tree_count == 1


@pytest.mark.parametrize(
    "g", [fam.cycle_graph(n) for n in (5, 7, 31)] + [fam.path_graph(n) for n in (5, 12, 30)],
    ids=["C5", "C7", "C31", "P5", "P12", "P30"],
)
def test_odd_cycles_and_paths_read_to_full_depth(applications, g):
    # C_n with n odd has (n - 1) / 2 distinct nonzero Laplacian eigenvalues
    # and P_n has n - 1: twice that is not below n - 1
    full_report(g)
    assert applications[0] == g.n - 1
    cospectrality_classes(g)
    assert applications[0] == 2 * (g.n - 1)


@pytest.mark.parametrize(
    "g, d_prime", [c[1:] for c in D_PRIME_CASES], ids=[c[0] for c in D_PRIME_CASES]
)
def test_wrong_trace_lifts_fall_back_to_the_stream(applications, monkeypatch, g, d_prime):
    # a lift with its last coefficient off by one mispredicts p_d' - max-degree^d'
    # by p_0 - 1 = n - 1 (and c_d' by c_0 = 2): only the exact check may
    # reject it, and reading on to power n - 1 gives the same report
    ref = full_report(g)
    coeffs = rigidity._Recurrence.coeffs

    def forged(self):
        lam = coeffs(self)
        return lam[:-1] + [lam[-1] + 1]

    monkeypatch.setattr(rigidity._Recurrence, "coeffs", forged)
    applications.clear()
    rep = full_report(g)
    assert applications[0] == g.n - 1
    assert rep.to_dict() == ref.to_dict()
    assert (rep.tree_count, rep.walk_constants) == (ref.tree_count, ref.walk_constants)
    # modulo 3 some lifts are wrong and some right; either way nothing changes
    monkeypatch.undo()
    monkeypatch.setattr(rigidity, "_WORD_PRIME", 3)
    monkeypatch.setattr(rigidity, "_PRIME", 3)
    rep = full_report(g)
    assert rep.to_dict() == ref.to_dict()
    assert (rep.tree_count, rep.walk_constants) == (ref.tree_count, ref.walk_constants)


@pytest.mark.parametrize(
    "g, expected",
    [(fam.path_graph(12), 1), (fam.random_tree(30, 4), 1),
     (fam.complete_bipartite_graph(3, 5), 6), (fam.cycle_graph(12), 11)],
    ids=["P12", "tree30", "K3_5", "C12"],
)
def test_walk_class_stops_once_both_diagonal_flags_fail(applications, g, expected):
    # diag(M) = max-degree - deg is constant overall only on a regular graph
    # and on each side only on a biregular one; after that the edge flag
    # cannot change the classification. The biregular K3_5 reads on to its
    # certified stop at 2d' = 6 and C12 (d' = 6) to power n - 1
    walk_class(g)
    assert applications[0] == expected


def test_widen_keeps_unsigned_slots_at_their_limits():
    def pack(vals, size):
        return sum(v << 8 * size * i for i, v in enumerate(vals))

    # one-byte slots hold 0 .. 255, two-byte slots 0 .. 2^16 - 1; a full slot
    # must not carry into the next byte once it is wider
    for size, new_size in ((1, 2), (2, 5)):
        top = (1 << 8 * size) - 1
        rows = [[0, top, 0, top, 1], [top, 0, top - 1, 1, 0], [top] * 5]
        packed = np.array([pack(r, size) for r in rows], dtype=object)
        wide = rigidity._widen(packed, 5, size, new_size)
        assert wide.dtype == object and wide.shape == (3,)
        assert wide.tolist() == [pack(r, new_size) for r in rows]


def test_masked_slots_at_the_slot_limits():
    # one-byte unsigned slots hold 0 .. 255 and read back as they are
    X = [[255, 0, 255], [255, 255, 255], [0, 255, 5]]
    rows = [sum(v << 8 * s for s, v in enumerate(row)) for row in X]
    # rows 0 and 1 share colour 0 and keep slots {0, 2} and {1}; row 2 keeps slot 2
    masks = [0xFF00FF, 0xFF00, 0xFF0000]
    E = rigidity._masked_slots(rows, masks, [[0, 1], [2]], 1, 3, 0)
    # three slots per colour
    assert E.shape == (6, 1)
    assert E[:, 0].tolist() == [255, 255, 255, 0, 0, 5]


def test_word_slots_at_the_slot_limits():
    # entries in [-2^(8 size - 1), 2^(8 size - 1)) read back as size little-endian
    # bytes of the entry plus 2^(8 size - 1), also where the array is wider
    # than the slot (a 3-byte slot in int32)
    for size, dtype in ((1, np.int8), (1, np.int16), (2, np.int16), (3, np.int32), (8, np.int64)):
        lo, hi = -(1 << 8 * size - 1), (1 << 8 * size - 1) - 1
        X = np.array([[hi, lo], [1, hi - 1]], dtype=dtype)
        E = rigidity._word_slots(X, np.array([0, 2, 3, 1]), size)
        assert E.shape == (4, size)
        assert rigidity._signed_slots(E.tobytes(), 4) == [hi, 1, hi - 1, lo]


@pytest.mark.parametrize(
    "width, sizes",
    [(40, [(1, 12, 1), (3, 5, 2), (40, 40, 7)]), (300, [(1, 300, 1), (3, 300, 1)]),
     (300, [(2, 150, 2), (299, 1, 299)])],
    ids=["several-blocks", "blocks-of-one", "one-block"],
)
def test_word_sums_add_each_neighbourhood(width, sizes):
    # per size d, a (d, count) array of members cut into blocks of step rows;
    # the sums follow the table whatever the blocks
    rng = np.random.default_rng(width)
    X = rng.integers(0, 100, (width, width)).astype(np.int16)
    groups = [rng.integers(0, width, (d, count)) for d, count, _ in sizes]
    table = [[m[i : i + step] for i in range(0, len(m), step)] for m, (_, _, step) in zip(groups, sizes)]
    want = np.concatenate([X[members].sum(0) for members in groups])
    got = rigidity._word_sums(X, table)
    assert got.dtype == X.dtype and (got == want).all()


def test_word_sums_add_packed_rows():
    # the same table sums an object array of packed ints, each sum a Python
    # int past 2^64, in the same order as the integer rows
    rng = np.random.default_rng(7)
    rows = [int(x) << 70 | int(x) for x in rng.integers(0, 1 << 30, 40)]
    X = np.array(rows, dtype=object)
    groups = [rng.integers(0, 40, (d, count)) for d, count in ((1, 12), (3, 5), (40, 40))]
    table = [[m[i : i + 2] for i in range(0, len(m), 2)] for m in groups]
    got = rigidity._word_sums(X, table)
    assert got.dtype == object and got.shape == (57,)
    assert got.tolist() == [sum(rows[v] for v in col) for m in groups for col in m.T.tolist()]


def test_dense_graph_keeps_the_word_phase_near_the_array_size():
    # K_n has no twins: one neighbourhood size and n classes. Summing that
    # group in one gather would hold (n - 1) n^2 entries, 256 MB of int32 at
    # power 2 here; in blocks the stream's peak stays a small multiple of n^2
    n = 400
    g = fam.complete_graph(n)
    g.neighbors, g._search, g._edge_ends  # the graph's own tables, built before tracing
    tracemalloc.start()
    try:
        res = decide_edge_rigid_exact(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every nonzero Laplacian eigenvalue of K_n is n, so w_l = z_e^T L^l z_e = 2 n^l
    assert res.rigid and res.proved and res.constants[:3] == (2, 2 * n, 2 * n * n)
    assert peak < 100 * n * n


def test_slot_masks_hold_one_row_beside_the_masks():
    # C401's one side keeps slot u of row u and slot b of row a for each edge
    # (a, b): at 64-byte slots the masks hold about 5.6 MB, and a dense
    # (401, 401, 64) byte array beside them would be 10.3 MB more
    n, size = 401, 64
    g = fam.cycle_graph(n)
    a, b = g._edge_ends
    rows, slots = (np.concatenate([np.arange(n), e]) for e in (a, b))
    tracemalloc.start()
    try:
        masks = rigidity._slot_masks(n, rows, slots, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = [0] * n
    for u, s in zip(rows.tolist(), slots.tolist()):
        want[u] |= (1 << 8 * size) - 1 << 8 * size * s
    assert masks == want
    assert peak < 1.1 * sum(sys.getsizeof(x) for x in masks)


def one_side_slots(g):
    """(rows, slots) with row u keeping slot u and the slots b > u of its edges (u, b)."""
    kept = [(u, s) for u, nb in enumerate(g.neighbors) for s in [u] + [v for v in nb if v > u]]
    return [u for u, _ in kept], [s for _, s in kept]


@pytest.mark.parametrize(
    "g",
    [fam.cycle_graph(7), fam.cycle_graph(12), fam.complete_graph(6), fam.petersen_graph(),
     fam.complete_bipartite_graph(3, 5), fam.random_tree(30, 4), hypercube(4)],
    ids=["C7", "C12", "K6", "petersen", "K3_5", "tree30", "Q4"],
)
def test_row_colors_keep_the_slots_of_one_colour_apart(g):
    # row u needs slot u and the slots b > u of its edges (u, b)
    rows, slots = one_side_slots(g)
    colors = rigidity._row_colors(g.n, rows, slots)
    seen = set()
    for u, s in zip(rows, slots):
        assert (colors[u], s) not in seen
        seen.add((colors[u], s))


def test_row_colors_count():
    assert max(rigidity._row_colors(100, *one_side_slots(fam.cycle_graph(100)))) == 2
    assert max(rigidity._row_colors(9, *one_side_slots(fam.complete_graph(9)))) == 8


def test_proved_only_by_full_depth_or_certificate():
    # C12 has 6 distinct nonzero eigenvalues: powers 0..5 prove nothing;
    # Q6 has 6, and its certificate fires at power 12
    res = decide_edge_rigid_exact(fam.cycle_graph(12), max_power=5)
    assert res.rigid and not res.proved
    assert decide_edge_rigid_exact(fam.cycle_graph(12), max_power=11).proved
    res = decide_edge_rigid_exact(hypercube(6), max_power=20)
    assert res.rigid and res.proved and len(res.constants) == 21
    assert not decide_edge_rigid_exact(hypercube(6), max_power=11).proved
    assert decide_edge_rigid_exact(fam.path_graph(4), max_power=1).proved
    # Q3 and K3,3 fire at twice the eccentricity of vertex 0, below n - 1
    for g, fires in ((hypercube(3), 6), (fam.complete_bipartite_graph(3, 3), 4)):
        assert decide_edge_rigid_exact(g, max_power=fires).proved
        assert not decide_edge_rigid_exact(g, max_power=fires - 1).proved


@pytest.fixture
def pushes(monkeypatch):
    """Count the walk constants pushed into Berlekamp-Massey."""
    count = [0]
    push = rigidity._Recurrence.push

    def counted(self, x):
        count[0] += 1
        push(self, x)

    monkeypatch.setattr(rigidity._Recurrence, "push", counted)
    return count


@pytest.mark.parametrize(
    "g",
    [fam.cycle_graph(n) for n in (3, 4, 5, 8, 13, 30)] + [fam.path_graph(n) for n in (2, 4, 12)],
    ids=["C3", "C4", "C5", "C8", "C13", "C30", "P2", "P4", "P12"],
)
def test_no_recurrence_where_no_certificate_can_fire(pushes, g):
    # a certificate fires at a power p >= 2 ecc(0), and at p = n - 1 it
    # proves no more than the full depth: C_n and P_n push nothing up to it
    full = decide_edge_rigid_exact(g)
    for P in range(g.n):
        res = decide_edge_rigid_exact(g, max_power=P)
        assert res.rigid is (full.rigid or P < full.witness.power)
        assert res.proved is (not res.rigid or P >= g.n - 1)
    assert full_report(g).edge_rigid is full.rigid
    assert pushes[0] == 0


@pytest.mark.parametrize(
    "g, witness", [(fam.circulant_graph(96, (1, 23)), 23), (fam.circulant_graph(40, (1, 7)), 7)],
    ids=["C96_1_23", "C40_1_7"],
)
def test_no_push_before_twice_the_eccentricity(pushes, g, witness):
    # no certificate fires before power 2 ecc(0), 24 and 10 here, so nothing is
    # pushed before it, and a witness that comes sooner leaves none pushed
    assert decide_edge_rigid_exact(g).witness.power == witness < 2 * g._search[2]
    assert pushes[0] == 0


def textbook_berlekamp_massey(seq, p):
    """Massey (1969) over GF(p): (C, L) after each term, C without trailing zeros."""
    C, B, L, m, b, states = [1], [1], 0, 1, 1, []
    for n, s in enumerate(seq):
        d = (s + sum(c * seq[n - i] for i, c in enumerate(C[1 : L + 1], 1))) % p
        if d == 0:
            m += 1
        else:
            T, f = C, d * pow(b, p - 2, p) % p
            C = C + [0] * max(0, len(B) + m - len(C))
            for i, x in enumerate(B):
                C[i + m] = (C[i + m] - f * x) % p
            if 2 * L <= n:
                L, B, b, m = n + 1 - L, T, d, 1
            else:
                m += 1
        while len(C) > 1 and C[-1] == 0:
            C = C[:-1]
        states.append((C, L))
    return states


def seeded_sequences(seed=7):
    rng = random.Random(seed)
    seqs = [[rng.randint(-10**6, 10**6) for _ in range(30)] for _ in range(5)]
    seqs += [[rng.choice((0, 1, -1, 2**600, -(2**600))) for _ in range(25)] for _ in range(5)]
    seqs += [[0, 0, 0, 5, 0, 0, 7], [1] * 12, [0] * 6]
    for order in range(1, 7):  # integer recurrences: a run of zero discrepancies
        lam = [rng.randint(-9, 9) for _ in range(order)]
        seq = [rng.randint(-99, 99) for _ in range(order)]
        while len(seq) < 3 * order + 8:
            seq.append(-sum(c * seq[-1 - k] for k, c in enumerate(lam)))
        seqs.append(seq)
    return seqs


DECIDE_CONSTANTS = {
    "Q6": decide_edge_rigid_exact(hypercube(6)).constants,
    # not edge-rigid at power 23, so the constants agree through 22
    "C96_1_23": decide_edge_rigid_exact(fam.circulant_graph(96, (1, 23)), max_power=22).constants,
    "K20_20": decide_edge_rigid_exact(fam.complete_bipartite_graph(20, 20)).constants,
}


@pytest.mark.parametrize(
    "seq",
    seeded_sequences() + list(DECIDE_CONSTANTS.values()),
    ids=[f"seeded{i}" for i in range(len(seeded_sequences()))] + list(DECIDE_CONSTANTS),
)
def test_recurrence_matches_textbook_berlekamp_massey(seq):
    # push keeps the inverse of the last discrepancy that grew the recurrence,
    # not the discrepancy itself; every state after every push is Massey's
    for p in (rigidity._WORD_PRIME, rigidity._PRIME):
        rec = rigidity._Recurrence(p)
        for x, (C, L) in zip(seq, textbook_berlekamp_massey(seq, p)):
            rec.push(x)
            conn = list(rec.conn)
            while len(conn) > 1 and conn[-1] == 0:
                conn.pop()
            assert (conn, rec.length) == (C, L)
            assert rec.coeffs() == [c - p if c > p // 2 else c for c in (C + [0] * L)[1 : L + 1]]


def recurrence_terms(lam, first, count):
    """count terms of x_l = -(lam_1 x_(l-1) + .. + lam_D x_(l-D)) from the D terms first."""
    terms = list(first)
    while len(terms) < count:
        terms.append(-sum(c * terms[-1 - k] for k, c in enumerate(lam)))
    return terms


# lam_1 = 2^62 + 3 is 5 modulo 2^61 - 1, where the word-size lift reads it as 5
BIG_LAM = [2**62 + 3, -5]


def test_certify_lifts_a_big_coefficient_modulo_the_big_prime():
    # the word-size lift fails its exact check, and the 2^521 - 1 one
    # certifies at the 2D + 1 terms a recurrence of D coefficients needs
    terms = recurrence_terms(BIG_LAM, [1, 2], 9)
    for count in range(1, len(terms) + 1):
        word, big = rigidity._Recurrence(rigidity._WORD_PRIME), rigidity._Recurrence(rigidity._PRIME)
        lam = rigidity._certify(terms[:count], word, big)
        assert lam == (BIG_LAM if count >= 5 else None)
        if count >= 5:
            assert word.coeffs() == [5, -5] and len(big.residues) == count


def test_certify_rejects_a_term_off_by_the_word_prime():
    # 2^61 - 1 added to a late term leaves every residue modulo the word prime,
    # and so its candidate, as it was: only the exact check rejects it, and the
    # big recurrence, fed all terms, grows too long to certify
    terms = recurrence_terms(BIG_LAM, [1, 2], 9)
    terms[7] += rigidity._WORD_PRIME
    word, big = rigidity._Recurrence(rigidity._WORD_PRIME), rigidity._Recurrence(rigidity._PRIME)
    assert rigidity._certify(terms, word, big) is None
    assert word.coeffs() == [5, -5] and 2 * word.length < len(terms)
    assert len(big.residues) == len(terms) and 2 * big.length >= len(terms)


@pytest.mark.parametrize(
    "g, d_prime", [c[1:] for c in D_PRIME_CASES], ids=[c[0] for c in D_PRIME_CASES]
)
def test_word_lift_failures_stop_at_the_same_power(applications, monkeypatch, g, d_prime):
    # modulo 3 the word-size lifts are often wrong; the 2^521 - 1 recurrence
    # then certifies at the same power, in decide and in full_report alike
    ref = full_report(g)
    monkeypatch.setattr(rigidity, "_WORD_PRIME", 3)
    applications.clear()
    assert decide_edge_rigid_exact(g).constants == ref.walk_constants
    assert applications[0] == min(2 * d_prime, g.n - 1)
    rep = full_report(g)
    assert applications[0] == 2 * min(2 * d_prime, g.n - 1)
    assert rep.to_dict() == ref.to_dict() and rep.tree_count == ref.tree_count


# ---------------------------------------------------------------------------
# cospectrality classes
# ---------------------------------------------------------------------------

def test_cospectrality_k4_single_class():
    classes = cospectrality_classes(fam.complete_graph(4))
    assert classes == ((0, 1, 2, 3, 4, 5),)


def test_cospectrality_p4_two_classes():
    g = fam.path_graph(4)
    classes = cospectrality_classes(g)
    as_edges = [set(g.edges[i] for i in cls) for cls in classes]
    assert {frozenset(c) for c in as_edges} == {
        frozenset({(0, 1), (2, 3)}),
        frozenset({(1, 2)}),
    }


def test_cospectrality_c5_single_class():
    assert len(cospectrality_classes(fam.cycle_graph(5))) == 1


def test_cospectrality_partitions_edges(corpus_case):
    _, g, expected = corpus_case
    classes = cospectrality_classes(g)
    assert sorted(i for cls in classes for i in cls) == list(range(g.m))
    assert (len(classes) == 1) is expected


# ---------------------------------------------------------------------------
# walk classification
# ---------------------------------------------------------------------------

def test_walk_class_petersen():
    cls = walk_class(fam.petersen_graph())
    assert cls.label == "1-walk-regular"
    assert cls.walk_regular and cls.one_walk_regular


def test_walk_class_star():
    cls = walk_class(fam.star_graph(2))
    assert cls.label == "1-walk-biregular"
    assert not cls.walk_regular
    assert cls.bipartite and cls.walk_biregular and cls.one_walk_biregular


def test_walk_class_p4():
    cls = walk_class(fam.path_graph(4))
    assert cls.label == "neither"
    assert not cls.walk_regular


def test_walk_class_matches_rigidity(corpus_case):
    _, g, expected = corpus_case
    label = walk_class(g).label
    assert (label in ("1-walk-regular", "1-walk-biregular")) is expected


# ---------------------------------------------------------------------------
# signed line graph
# ---------------------------------------------------------------------------

def test_signed_line_graph_walk_regular_k4_p4():
    assert signed_line_graph_walk_regular(fam.complete_graph(4))
    assert not signed_line_graph_walk_regular(fam.path_graph(4))


def test_signed_line_graph_orientation_invariance(corpus_case):
    _, g, expected = corpus_case
    rng = np.random.default_rng(123)
    assert signed_line_graph_walk_regular(g) is expected
    for _ in range(20):
        assert switched_signed_line_graph_walk_regular(g, rng) is expected


# ---------------------------------------------------------------------------
# consequences of rigidity
# ---------------------------------------------------------------------------

def test_rigid_implies_regular_or_biregular(rigid_graph):
    dc = degree_classification(rigid_graph)
    assert dc.kind in ("regular", "biregular-bipartite")
    assert dc.degree_sum_constant


def test_rigid_regular_is_one_walk_regular(rigid_graph):
    dc = degree_classification(rigid_graph)
    if dc.kind == "regular":
        assert walk_class(rigid_graph).label == "1-walk-regular"


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def test_full_report_k4():
    rep = full_report(fam.complete_graph(4))
    assert rep.edge_rigid
    assert rep.walk_class.label == "1-walk-regular"
    assert len(rep.cospectrality_classes) == 1
    assert rep.walk_constants[0] == 2
    assert all(v is True for v in rep.verdicts.values())
    assert abs(sum(rep.gammas) - 2.0) < 1e-9


def test_full_report_p4():
    rep = full_report(fam.path_graph(4))
    assert not rep.edge_rigid
    assert rep.degree_class.kind == "irregular"
    assert rep.witness is not None
    assert all(v is False for v in rep.verdicts.values())


def test_full_report_c6():
    rep = full_report(fam.cycle_graph(6))
    assert rep.edge_rigid
    assert rep.walk_class.label == "1-walk-regular"


def test_full_report_serializes(corpus_case):
    import json

    _, g, expected = corpus_case
    rep = full_report(g)
    payload = json.dumps(rep.to_dict(), sort_keys=True)
    assert json.loads(payload)["edge_rigid"] is expected
