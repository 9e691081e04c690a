from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import adjacency

from edgerigid import cli
from edgerigid import families as fam
from edgerigid.errors import (
    DimensionMismatchError,
    DisconnectedError,
    NotSimpleError,
    ParseError,
    TooSmallError,
)
from edgerigid.graphs import (
    Graph,
    WeightVector,
    adjoint_apply,
    bipartition,
    degree_classification,
    edge_energies,
    graph6_bytes,
    incidence,
    laplacian,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    signed_line_graph,
)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_edge_list_path():
    g = parse_edge_list("4 3\n0 1\n1 2\n2 3")
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_parse_edge_list_canonicalizes():
    g = parse_edge_list("3 3\n2 1\n1 0\n2 0")
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_parse_graph6_k4():
    # "C~": n=4, all six upper-triangle bits set
    g = parse_graph6("C~")
    expected = fam.complete_graph(4)
    assert g.n == 4
    assert np.array_equal(adjacency(g), adjacency(expected))


def test_parse_graph6_header_and_bytes():
    g = parse_graph6(b">>graph6<<C~")
    assert g.m == 6


def test_parse_graph6_trailing_newline():
    assert parse_graph6(b"Dhc\n").m == 5
    assert parse_graph6(b">>graph6<<Dhc\n").m == 5


def test_parse_graph6_trailing_bytes_rejected():
    # "Dhc" is C5; the parser used to ignore what follows it
    with pytest.raises(ParseError):
        parse_graph6(b"DhcXYZ")


def test_parse_graph6_second_graph_rejected():
    with pytest.raises(ParseError):
        parse_graph6(b"Dhc\nC~\n")


def test_parse_graph6_nonzero_padding_rejected():
    # n = 5 has 10 adjacency bits in two 6-bit bytes; "d" sets a padding bit
    with pytest.raises(ParseError):
        parse_graph6(b"Dhd")


@pytest.mark.parametrize(
    "data, byte",
    [(b"!", 33), (b"~!??", 33), (b"\x7f" + b"~" * 336, 127)],
    ids=["short", "long", "del"],
)
def test_parse_graph6_size_byte_out_of_range_rejected(data, byte):
    # size bytes lie in 63..126; these used to read as n=-30, n=-122880 and K64
    with pytest.raises(ParseError, match=f"size byte {byte}$"):
        parse_graph6(data)


@pytest.mark.parametrize("parse", [parse_graph6, parse_graph])
def test_non_ascii_text_is_a_parse_error(parse):
    with pytest.raises(ParseError, match="not ASCII"):
        parse("C\u00e9")


def test_underscored_header_is_a_parse_error():
    # int("1_1") is 11, so this header used to ask for 11 vertices and fail as disconnected
    with pytest.raises(ParseError, match="ASCII decimal"):
        parse_graph("1_1 2\n0 1\n1 2\n")


def test_underscored_vertex_is_a_parse_error():
    # "0 1_0" used to join vertex 0 to vertex 10, closing this path on 11 vertices
    text = "11 10\n0 1_0\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 10))
    with pytest.raises(ParseError, match="ASCII decimal"):
        parse_graph(text)


@pytest.mark.parametrize("entry", ["\u0661", "1_0"], ids=["arabic-indic-one", "underscore"])
def test_non_decimal_weight_is_a_parse_error(entry):
    # float() reads these as 1.0 and 10.0
    with pytest.raises(ParseError, match="ASCII decimal"):
        WeightVector.from_text(f"1\n{entry}\n1\n", 3)


def test_self_loop_rejected():
    with pytest.raises(NotSimpleError):
        parse_edge_list("2 1\n0 0")


def test_duplicate_edge_rejected():
    with pytest.raises(NotSimpleError):
        Graph(3, ((0, 1), (1, 0), (1, 2)))


def test_disconnected_rejected():
    with pytest.raises(DisconnectedError):
        parse_edge_list("4 2\n0 1\n2 3")


@pytest.fixture
def no_traversal(monkeypatch):
    """Fail the test if the graph search (n neighbour lists) runs."""

    def fail(self):
        pytest.fail(f"graph search ran for n={self.n}, m={self.m}")

    monkeypatch.setattr(Graph, "_search", property(fail))


@pytest.mark.parametrize("n", [3, 2_000_000, 10**9])
def test_too_few_edges_rejected_before_traversal(no_traversal, n):
    with pytest.raises(DisconnectedError):
        parse_edge_list(f"{n} 1\n0 1\n")


def test_huge_header_exits_2(no_traversal, tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1000000000 1\n0 1\n")
    assert cli.main(["decide", str(path)]) == 2
    assert "not connected" in capsys.readouterr().err


def test_too_small_rejected():
    with pytest.raises(TooSmallError):
        parse_edge_list("1 0")
    with pytest.raises(TooSmallError):
        Graph(2, ())


def test_malformed_input():
    with pytest.raises(ParseError):
        parse_edge_list("not a graph")
    with pytest.raises(ParseError):
        parse_edge_list("2 2\n0 1")  # promises 2 edges, has 1
    with pytest.raises(ParseError):
        parse_edge_list("2 1\n0 5")  # vertex out of range


# A bad edge line of a 4-vertex edge list, with the error it raises first or
# after the valid lines of VALID_EDGES: the first bad edge in input order is
# named, and a duplicate after every edge has been read.
VALID_EDGES = ["0 1", "1 2", "2 3"]
BAD_EDGE_LINES = {
    "self-loop": ("3 3", NotSimpleError, "self-loop at vertex 3"),
    "out-of-range": ("1 4", ParseError, "vertex id out of range in edge (1, 4)"),
    "negative": ("-1 2", ParseError, "vertex id out of range in edge (-1, 2)"),
    "reversed-duplicate": ("1 0", NotSimpleError, "duplicate edge (0, 1)"),
    "three-tokens": ("1 2 3", ParseError, "bad edge line '1 2 3'"),
    "one-token": ("3", ParseError, "bad edge line '3'"),
    "not-a-number": ("1 x", ParseError, "bad edge line '1 x'"),
}


@pytest.mark.parametrize("first", [True, False], ids=["first", "after-valid"])
@pytest.mark.parametrize("name", sorted(BAD_EDGE_LINES))
def test_bad_edge_line_error_names_it(name, first):
    line, error, message = BAD_EDGE_LINES[name]
    lines = [line] + VALID_EDGES if first else VALID_EDGES + [line]
    with pytest.raises(error) as exc:
        parse_edge_list("\n".join([f"4 {len(lines)}"] + lines))
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize(
    "text, error, message",
    [("4 5\n0 1\n1 2\n2 3\n", ParseError, "header promises 5 edges, found 3"),
     ("4 4\n0 1\n0 9\n2 2\n1 0\n", ParseError, "vertex id out of range in edge (0, 9)"),
     ("4 4\n1 0\n0 1\n2 2\n2 3\n", NotSimpleError, "self-loop at vertex 2"),
     ("4 4\n0 1\n1 2\n2 3\n2 3 0\n", ParseError, "bad edge line '2 3 0'")],
    ids=["wrong-count", "range-before-loop", "loop-before-duplicate", "tokens-after-valid"],
)
def test_edge_list_error_order(text, error, message):
    with pytest.raises(error) as exc:
        parse_edge_list(text)
    assert type(exc.value) is error and str(exc.value) == message


# One input per rejecting branch of the parsers: (graph bytes, weights or
# None, --input-format or None, error). Only the weights case gets past the graph.
MALFORMED = {
    "edge-list-empty": (b"\n  \n", None, None, ParseError),
    "edge-list-bad-header": (b"4 x\n0 1\n", None, None, ParseError),
    "edge-list-one-token": (b"3 2\n0 1\n1\n", None, None, ParseError),
    "edge-list-bad-vertex": (b"3 2\n0 1\n1 x\n", None, None, ParseError),
    "graph6-header-only": (b">>graph6<<\n", None, None, ParseError),
    "graph6-one-vertex": (b"@", None, None, TooSmallError),
    "graph6-bad-byte": (b"B!", None, None, ParseError),
    "graph6-huge-size": (b"~~??????????", None, None, ParseError),
    "graph6-truncated-size": (b"~??", None, None, ParseError),
    "unknown-format": (b"2 1\n0 1\n", None, "adjacency", ParseError),
    "non-ascii": (b"2 1\n0 \xff1\n", None, None, ParseError),
    "weight-not-a-number": (b"3 2\n0 1\n1 2\n", b"1\nx\n", None, ParseError),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_is_a_typed_error_and_exits_2(name, tmp_path, capsys):
    data, weights, fmt, error = MALFORMED[name]
    with pytest.raises(error):
        g = parse_graph(data, fmt)
        WeightVector.from_text(weights.decode(), g.m)
    path = tmp_path / "graph.txt"
    path.write_bytes(data)
    argv = ["tau", str(path)] + (["--input-format", fmt] if fmt else [])
    if weights is not None:
        (tmp_path / "w.txt").write_bytes(weights)
        argv += ["--weights", str(tmp_path / "w.txt")]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects an unknown --input-format
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


# str.splitlines' ASCII line breaks, and the whitespace inside a line
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
SPACES = [" ", "\t", "  ", "\x1f", " \t "]


def written_edge_lists(seed: int = 20261102) -> list[str]:
    """Seeded well-formed edge lists of random connected graphs, n = 2..30.

    Every third keeps to_edge_list's layout, its lines shuffled and reoriented;
    the others mix the line breaks and spaces above, blank and whitespace-only
    lines, leading zeros and + signs, some write ids with 20 digits, and half
    of them lose their last line break.
    """
    rng = np.random.default_rng(seed)
    texts = []
    for i in range(120):
        n = int(rng.integers(2, 31))
        order = rng.permutation(n).tolist()
        edges = {tuple(sorted((order[v], order[int(rng.integers(v))]))) for v in range(1, n)}
        edges |= {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.15}
        rows = [[n, len(edges)]] + [list(e)[:: int(rng.choice([1, -1]))] for e in edges]
        rows[1:] = [rows[1 + k] for k in rng.permutation(len(edges))]
        if i % 3 == 0:
            texts.append("".join(f"{a} {b}\n" for a, b in rows))
            continue

        def token(x):
            pad = "0" * int(rng.choice([0, 0, 0, 2, 20 - len(str(x))] if i % 9 == 1 else [0, 0, 1, 3]))
            return str(rng.choice(["", "", "+"])) + pad + str(x)

        lines = []
        for a, b in rows:
            if rng.random() < 0.2:
                lines.append(str(rng.choice(["", " ", "\t \x1f"])))
            lead, space, tail = (str(rng.choice(c)) for c in (["", " ", "\t"], SPACES, ["", " ", "\x1f"]))
            lines.append(lead + token(a) + space + token(b) + tail)
        texts.append("".join(ln + str(rng.choice(BREAKS)) for ln in lines)[: None if i % 2 else -1])
    return texts


WRITTEN = written_edge_lists()

# One malformed edge list per way to fail, each compared with the line-by-line reference
MALFORMED_EDGE_LISTS = {
    "empty": "",
    "whitespace-only": " \n\t\x0b\n",
    "header-one-token": "4\n0 1\n",
    "header-three-tokens": "4 3 1\n0 1\n1 2\n2 3\n",
    "header-not-a-number": "4 x\n0 1\n",
    "header-mismatch": "4 4\n0 1\n1 2\n2 3\n",
    "header-negative-m": "4 -1\n",
    "header-20-digit-n": "1" * 20 + " 3\n0 1\n1 2\n2 3\n",
    "header-20-digit-n-self-loop": "1" * 20 + " 2\n0 1\n1 1\n",
    "header-n-past-2^31": f"{2**31 + 1} 2\n0 1\n0 {2**31}\n",
    "n-too-small": "1 1\n0 1\n",
    "n-negative": "-4 3\n0 1\n1 2\n2 3\n",
    "no-edges": "3 0\n",
    "one-token-line": "4 3\n0 1\n1\n2 3\n",
    "three-token-line": "4 3\n0 1\n1 2 3\n2 3\n",
    "sign-alone": "4 3\n0 1\n+ 2\n2 3\n",
    "sign-after": "4 3\n0 1\n1 2-\n2 3\n",
    "sign-inside": "4 3\n0 1\n1-2 3\n2 3\n",
    "double-sign": "4 3\n0 1\n--1 2\n2 3\n",
    "hex": "4 3\n0 1\n1 0x2\n2 3\n",
    "negative-id": "4 3\n0 1\n-1 2\n2 3\n",
    "minus-zero-id": "4 3\n0 1\n1 -0\n2 3\n",
    "out-of-range-id": "4 3\n0 1\n1 4\n2 3\n",
    "20-digit-id": "4 3\n0 1\n1 " + "9" * 20 + "\n2 3\n",
    "5000-digit-id": "4 3\n0 1\n1 " + "9" * 5000 + "\n2 3\n",
    "self-loop": "4 3\n0 1\n2 2\n2 3\n",
    "duplicate": "4 3\n0 1\n0 1\n2 3\n",
    "reversed-duplicate": "4 3\n0 1\n1 0\n2 3\n",
    "loop-after-duplicate": "4 4\n1 0\n0 1\n2 2\n2 3\n",
    "disconnected-few-edges": "4 2\n0 1\n2 3\n",
    "disconnected": "5 4\n0 1\n1 2\n2 0\n3 4\n",
    "non-ascii": "4 3\n0 1\n1 \u00e92\n2 3\n",
    "underscore": "4 3\n0 1\n1_0 2\n2 3\n",
}


def parse_outcome(parse, text: str):
    """The tables of the parsed graph, or the type and message of what was raised."""
    try:
        g = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(g, oracles.ReferenceGraph):
        return g.n, g.edges, g.neighbors, g.degrees, g.search, g.edge_ends
    return g.n, g.edges, g.neighbors, g.degrees, g._search, [x.tolist() for x in g._edge_ends]


@pytest.mark.parametrize("i", range(len(WRITTEN)))
def test_parse_edge_list_matches_the_line_by_line_reference(i):
    text = WRITTEN[i]
    expected = parse_outcome(oracles.parse_edge_list, text)
    assert isinstance(expected[0], int)
    assert parse_outcome(parse_edge_list, text) == expected
    assert parse_outcome(lambda t: parse_graph(t.encode(), "edge-list"), text) == expected


@pytest.mark.parametrize("name", sorted(MALFORMED_EDGE_LISTS))
def test_malformed_edge_list_raises_as_the_reference_does(name):
    text = MALFORMED_EDGE_LISTS[name]
    expected = parse_outcome(oracles.parse_edge_list, text)
    assert isinstance(expected[0], type) and issubclass(expected[0], Exception)
    assert parse_outcome(parse_edge_list, text) == expected


def test_written_edge_lists_cover_every_layout():
    # the fast layout, every line break and in-line space, blank and
    # whitespace-only lines, signs, leading zeros and 20-digit ids
    joined = "".join(WRITTEN)
    assert all(c in joined for c in "".join(BREAKS + SPACES) + "+")
    assert sum(t == "".join(f"{ln}\n" for ln in t.splitlines()) and " " in t for t in WRITTEN) >= 40
    assert any(len(tok) == 20 for t in WRITTEN for tok in t.split())
    assert any("\n\n" in t or "\n \n" in t for t in WRITTEN)


def test_parse_auto_detection():
    assert parse_graph("C~").m == 6
    assert parse_graph("4 3\n0 1\n1 2\n2 3").m == 3


def test_serialize_round_trip(corpus_case):
    _, g, _ = corpus_case
    assert parse_edge_list(g.to_edge_list()).edges == g.edges
    assert parse_graph6(g.to_graph6()).edges == g.edges


@pytest.mark.parametrize(
    "g", [fam.cycle_graph(63), fam.cycle_graph(100), fam.random_tree(100, seed=3)],
    ids=["C63", "C100", "tree100"],
)
def test_graph6_round_trip_beyond_62_vertices(g):
    # n > 62 takes the 4-byte size header: 126, then n in three 6-bit bytes
    data = graph6_bytes(g)
    assert data[:4] == bytes([126, 63, 63 + (g.n >> 6), 63 + (g.n & 63)])
    assert parse_graph6(data).edges == g.edges


def test_graph6_rejects_more_vertices_than_the_header_holds():
    # the size check comes before any edge is read
    with pytest.raises(ValueError, match="too large"):
        graph6_bytes(SimpleNamespace(n=258048))


def reference_graph6(g: Graph) -> bytes:
    """graph6 bytes bit by bit: the pairs (i, j), i < j, in column order j, then i."""
    n = g.n
    head = bytes([n + 63]) if n <= 62 else bytes([126] + [63 + (n >> s & 63) for s in (12, 6, 0)])
    edges = set(g.edges)
    bits = [int((i, j) in edges) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = bytearray()
    for k in range(0, len(bits), 6):
        v = 0
        for bit in bits[k:k + 6]:
            v = (v << 1) | bit
        body.append(v + 63)
    return head + bytes(body)


def reference_graph6_edges(data: bytes) -> tuple[int, list[tuple[int, int]]]:
    """(n, sorted edges) of well-formed graph6 bytes, bit by bit."""
    if data[0] == 126:
        n, body = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63), data[4:]
    else:
        n, body = data[0] - 63, data[1:]
    bits = []
    for ch in body:
        bits.extend((ch - 63) >> k & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return n, sorted(edges)


@pytest.mark.parametrize("n", [2, 5, 62, 63, 64, 100, 1024])
def test_graph6_codec_matches_bitwise_reference(n):
    # n <= 62 takes the 1-byte size header, larger n the 4-byte one; a random
    # spanning tree plus n(n-1)/8 random pairs sets bits in every column
    rng = np.random.default_rng(n)
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    for a, b in rng.integers(n, size=(n * (n - 1) // 8, 2)).tolist():
        if a != b:
            edges.add((min(a, b), max(a, b)))
    g = Graph(n, tuple(edges))
    data = reference_graph6(g)
    assert graph6_bytes(g) == data
    assert reference_graph6_edges(data) == (n, list(g.edges))
    assert parse_graph6(data).edges == g.edges


# ---------------------------------------------------------------------------
# Laplacian / adjoint
# ---------------------------------------------------------------------------

def test_laplacian_k3():
    L = laplacian(fam.complete_graph(3))
    assert np.array_equal(L, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_laplacian_p3():
    L = laplacian(fam.path_graph(3))
    assert np.array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_single_heavy_edge():
    # all weight on edge (0, 1) of K3: 3 * z_01 z_01^T, rank 1
    g = fam.complete_graph(3)
    w = WeightVector.from_values([3.0, 0.0, 0.0])
    L = laplacian(g, w)
    assert np.allclose(L, [[3, -3, 0], [-3, 3, 0], [0, 0, 0]])
    assert np.linalg.matrix_rank(L) == 1


def test_laplacian_rows_sum_zero_exactly(corpus_case):
    _, g, _ = corpus_case
    L = laplacian(g)
    assert L.dtype == np.int64
    assert np.array_equal(L @ np.ones(g.n, dtype=np.int64), np.zeros(g.n, dtype=np.int64))


def test_laplacian_weight_length_checked():
    with pytest.raises(DimensionMismatchError):
        laplacian(fam.complete_graph(3), WeightVector.unit(5))


def test_adjoint_identity_and_ones():
    g = fam.petersen_graph()
    assert np.array_equal(adjoint_apply(g, np.eye(g.n)), 2 * np.ones(g.m))
    assert np.array_equal(adjoint_apply(g, np.ones((g.n, g.n))), np.zeros(g.m))


def test_adjoint_of_laplacian_k3():
    # L*(L)_ab = d_a + d_b + 2 = 6 on every edge of K3
    g = fam.complete_graph(3)
    assert list(adjoint_apply(g, laplacian(g))) == [6, 6, 6]


def test_adjoint_shape_checked():
    with pytest.raises(DimensionMismatchError):
        adjoint_apply(fam.complete_graph(3), np.eye(4))
    with pytest.raises(DimensionMismatchError):
        edge_energies(fam.complete_graph(3), np.eye(4))
    with pytest.raises(DimensionMismatchError):
        edge_energies(fam.complete_graph(3), np.ones(3))


def test_adjointness_property(corpus_case):
    # <L(w), X> == <w, L*(X)> for random symmetric X and random w >= 0
    _, g, _ = corpus_case
    rng = np.random.default_rng(42)
    for _ in range(5):
        M = rng.normal(size=(g.n, g.n))
        X = (M + M.T) / 2
        w = WeightVector(tuple(rng.exponential(1.0, size=g.m).tolist()))
        lhs = float(np.trace(laplacian(g, w) @ X))
        rhs = float(np.dot(w.as_array(), adjoint_apply(g, X)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# incidence / signed line graph
# ---------------------------------------------------------------------------

def test_incidence_p3():
    g = fam.path_graph(3)
    B = incidence(g)
    assert np.array_equal(B, [[1, 0], [-1, 1], [0, -1]])
    assert np.array_equal(B @ B.T, laplacian(g))


def test_incidence_matches_laplacian_any_orientation(corpus_case):
    # reversing the edges with d_e = -1 negates their columns: B diag(d)
    _, g, _ = corpus_case
    rng = np.random.default_rng(7)
    L = laplacian(g)
    for _ in range(5):
        B = incidence(g) * rng.choice((-1, 1), size=g.m)
        assert np.array_equal(B @ B.T, L)


def test_btb_structure_k3():
    g = fam.complete_graph(3)
    B = incidence(g)
    M = B.T @ B
    assert np.array_equal(np.diag(M), [2, 2, 2])
    off = M - 2 * np.eye(3, dtype=np.int64)
    assert set(np.abs(off[np.triu_indices(3, 1)])) == {1}


def test_signed_line_graph_p3():
    g = fam.path_graph(3)
    assert np.array_equal(signed_line_graph(g), [[0, -1], [-1, 0]])


def test_signed_line_graph_support_k3():
    # edges of K3 are pairwise adjacent: support is the line graph K3
    A = signed_line_graph(fam.complete_graph(3))
    assert np.array_equal(np.abs(A), np.ones((3, 3)) - np.eye(3))


def test_reversing_edge_is_a_switching():
    g = fam.complete_graph(4)
    A0 = signed_line_graph(g)
    d = np.ones(g.m, dtype=np.int64)
    d[3] = -1
    B1 = incidence(g) * d  # edge 3 reversed
    A1 = B1.T @ B1 - 2 * np.eye(g.m, dtype=np.int64)
    D = np.diag(d)
    assert np.array_equal(A1, D @ A0 @ D)


# ---------------------------------------------------------------------------
# degrees / weights
# ---------------------------------------------------------------------------

def test_degree_classification_petersen():
    dc = degree_classification(fam.petersen_graph())
    assert dc.kind == "regular"
    assert dc.degrees == (3,)
    assert dc.degree_sum_constant


def test_degree_classification_star():
    dc = degree_classification(fam.star_graph(2))
    assert dc.kind == "biregular-bipartite"
    assert set(dc.degrees) == {1, 2}
    assert dc.degree_sum_constant


def test_degree_classification_p4():
    g = fam.path_graph(4)
    dc = degree_classification(g)
    assert dc.kind == "irregular"
    assert not dc.degree_sum_constant
    deg = g.degrees
    assert [deg[a] + deg[b] for a, b in g.edges] == [3, 4, 3]


def test_bipartition():
    assert bipartition(fam.complete_graph(3)) is None
    parts = bipartition(fam.complete_bipartite_graph(2, 3))
    assert parts is not None
    assert sorted(map(len, parts)) == [2, 3]


def test_degree_structure_reads_no_neighbour_lists(corpus_case, monkeypatch):
    # the graph search made at construction holds the bipartition; degrees are
    # a count per vertex, not a search, and are taken before the trap is set
    _, ref, _ = corpus_case
    expected = bipartition(ref), degree_classification(ref)
    g = Graph(ref.n, ref.edges)
    g.degrees

    def fail(self):
        pytest.fail("neighbour lists read after construction")

    monkeypatch.setattr(Graph, "neighbors", property(fail))
    assert (bipartition(g), degree_classification(g)) == expected


def test_weight_normalization():
    w = WeightVector.from_values([1.0, 2.0, 3.0])
    assert abs(sum(w.values) - 3) <= 1e-12 * 3


def test_weight_zero_total_rejected():
    with pytest.raises(ValueError):
        WeightVector.from_values([0.0, 0.0])


def test_weight_negative_rejected():
    with pytest.raises(ValueError):
        WeightVector.from_values([1.0, -0.5])


def test_weights_from_text():
    w = WeightVector.from_text("1.0\n2.0\n3.0\n", 3)
    assert abs(sum(w.values) - 3) < 1e-12
    with pytest.raises(DimensionMismatchError):
        WeightVector.from_text("1.0\n2.0\n", 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_weight_non_finite_rejected(bad):
    with pytest.raises(ValueError):
        WeightVector.from_values([bad, 1.0, 1.0])
    with pytest.raises(ValueError):
        WeightVector((1.0, bad, 1.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_weight_constructor_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        WeightVector((bad, 1.0))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_weights_from_text_non_finite_rejected(bad):
    with pytest.raises(ParseError, match=f"entry 2 .*{bad}"):
        WeightVector.from_text(f"1.0\n{bad}\n1.0\n", 3)
