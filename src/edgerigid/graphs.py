"""Graph representation, input parsing, and Laplacian constructions.

Every graph in this package is simple, connected and undirected, with
vertices 0..n-1 and edges stored as (a, b), a < b, sorted lexicographically.
That canonical edge order indexes every edge-indexed vector anywhere in the
package (weights, adjoint values, resistances, incidence columns).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    DimensionMismatchError,
    DisconnectedError,
    NotSimpleError,
    ParseError,
    TooSmallError,
)

Edge = tuple[int, int]

GRAPH6_HEADER = b">>graph6<<"


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected graph with canonical edge ordering."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n < 2 or len(self.edges) < 1:
            raise TooSmallError(f"need n >= 2 and m >= 1, got n={self.n}, m={len(self.edges)}")
        canon = sorted([(a, b) if a < b else (b, a) for a, b in self.edges])
        lo, hi = zip(*canon)
        # ids in range, a < b (no self-loop), and no two equal edges side by side
        simple = min(lo) >= 0 and max(hi) < self.n and all(map(operator.lt, lo, hi))
        if not simple or any(map(operator.eq, canon, canon[1:])):
            # name the first self-loop or out-of-range id in input order, else the first duplicate
            for a, b in self.edges:
                if a == b:
                    raise NotSimpleError(f"self-loop at vertex {a}")
                if not (0 <= a < self.n and 0 <= b < self.n):
                    raise ParseError(f"vertex id out of range in edge ({a}, {b})")
            for e, f in zip(canon, canon[1:]):
                if e == f:
                    raise NotSimpleError(f"duplicate edge {e}")
        object.__setattr__(self, "edges", tuple(canon))
        # a connected graph has m >= n - 1; failing fast keeps a huge n from
        # allocating n neighbour lists
        if len(canon) < self.n - 1 or -1 in self._search[0]:
            raise DisconnectedError("graph is not connected")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(map(tuple, adj))  # ascending, as the edges are sorted

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.neighbors)

    @cached_property
    def _search(self) -> tuple[tuple[int, ...], bool, int]:
        """Breadth-first search from vertex 0: colours 0/1, -1 if unreached; odd if an
        edge joins equal colours (in one layer); and the eccentricity of vertex 0."""
        adj = self.neighbors
        depth = [-1] * self.n
        depth[0] = 0
        reached = [0]
        odd = False
        for v in reached:
            for u in adj[v]:
                if depth[u] == -1:
                    depth[u] = depth[v] + 1
                    reached.append(u)
                elif depth[u] == depth[v]:
                    odd = True
        return tuple(d % 2 if d >= 0 else -1 for d in depth), odd, depth[reached[-1]]

    @cached_property
    def _edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        arr = np.fromiter(chain.from_iterable(self.edges), np.intp, 2 * self.m).reshape(-1, 2)
        return arr[:, 0], arr[:, 1]

    def to_edge_list(self) -> str:
        """Serialize in the edge-list file format (inverse of parsing)."""
        lines = [f"{self.n} {self.m}"]
        lines += [f"{a} {b}" for a, b in self.edges]
        return "\n".join(lines) + "\n"

    def to_graph6(self) -> bytes:
        return graph6_bytes(self)


@dataclass(frozen=True)
class WeightVector:
    """Finite nonnegative edge weights; from_values rescales them to sum to the edge count."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("edge weights must be finite")
        if any(v < 0 for v in self.values):
            raise ValueError("edge weights must be nonnegative")

    @classmethod
    def unit(cls, m: int) -> "WeightVector":
        return cls((1.0,) * m)

    @classmethod
    def from_values(cls, values) -> "WeightVector":
        w = np.asarray(list(values), dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a flat vector")
        cls(tuple(float(x) for x in w))  # checks every entry
        total = float(w.sum())
        if total <= 0:
            raise ValueError("total edge weight is zero")
        w = w * (len(w) / total)  # a tiny total can overflow to inf, which is checked again
        return cls(tuple(float(x) for x in w))

    @classmethod
    def from_text(cls, data: bytes | str, m: int) -> "WeightVector":
        """Parse the weights file format: m lines, one ASCII decimal per line."""
        # a non-ASCII byte decodes to U+FFFD, so it fails like a non-ASCII character
        text = data.decode("ascii", "replace") if isinstance(data, bytes) else data
        if not text.isascii() or "_" in text:  # float() reads 1_0 and non-ASCII digits
            raise ParseError("weights must be ASCII decimal numbers")
        entries = [line.strip() for line in text.splitlines() if line.strip()]
        if len(entries) != m:
            raise DimensionMismatchError(f"expected {m} weights, got {len(entries)}")
        try:
            vals = [float(x) for x in entries]
        except ValueError as exc:
            raise ParseError(f"bad weight entry: {exc}") from exc
        for i, v in enumerate(vals):
            if not np.isfinite(v):
                raise ParseError(f"weight entry {i + 1} is not finite: {entries[i]!r}")
        return cls.from_values(vals)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line "n m", then m lines "a b", ASCII decimals."""
    if not text.isascii() or "_" in text:  # int() reads 1_0 and non-ASCII digits
        raise ParseError("edge list entries must be ASCII decimal numbers")
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(lines) - 1}")
    rows = [ln.split() for ln in lines[1:]]
    try:
        ids = list(map(int, chain.from_iterable(rows)))
    except ValueError:
        ids = None
    if ids is None or any(len(r) != 2 for r in rows):
        for ln in lines[1:]:  # some line is bad: name the first
            parts = ln.split()
            if len(parts) != 2:
                raise ParseError(f"bad edge line {ln!r}")
            try:
                int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"bad edge line {ln!r}") from exc
    return Graph(n, tuple(zip(ids[::2], ids[1::2])))


def parse_graph6(data: bytes | str) -> Graph:
    """Decode exactly one graph in graph6 format (optional ">>graph6<<" header).

    Surrounding whitespace is ignored. A second graph, bytes after the
    encoded graph and nonzero padding bits raise ParseError.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise ParseError("input is not ASCII") from exc
    data = data.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):]
    if not data:
        raise ParseError("empty graph6 input")
    if len(data.split()) > 1:
        raise ParseError("graph6 input holds more than one graph")
    n, body = _graph6_order(data)
    if n < 2:
        raise TooSmallError(f"graph6 graph has n={n}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise ParseError("graph6 data truncated")
    if len(body) > need:
        raise ParseError(f"{len(body) - need} unexpected bytes after the graph6 graph")
    v = np.frombuffer(body, np.uint8) - np.uint8(63)  # a byte below 63 wraps above 63
    bad = np.flatnonzero(v > 63)
    if bad.size:
        raise ParseError(f"invalid graph6 byte {body[bad[0]]}")
    bits = np.unpackbits(v[:, None], axis=1)[:, 2:].ravel()
    if bits[nbits:].any():
        raise ParseError("graph6 padding bits are not zero")
    # bit j(j-1)/2 + i is the pair (i, j), i < j: column j starts at j(j-1)/2
    idx = np.flatnonzero(bits)
    cols = np.arange(n)
    j = np.searchsorted(cols * (cols - 1) // 2, idx, side="right") - 1
    i = idx - j * (j - 1) // 2
    return Graph(n, tuple(zip(i.tolist(), j.tolist())))


def _graph6_order(data: bytes) -> tuple[int, bytes]:
    """(n, body) from the size bytes: one byte, or 126 and three more."""
    if data[0] != 126:
        size, body = data[:1], data[1:]
    elif len(data) >= 2 and data[1] == 126:
        raise ParseError("graph6 graphs with n > 258047 are not supported")
    elif len(data) < 4:
        raise ParseError("graph6 data truncated")
    else:
        size, body = data[1:4], data[4:]
    n = 0
    for ch in size:
        if not 63 <= ch <= 126:
            raise ParseError(f"invalid graph6 size byte {ch}")
        n = (n << 6) | (ch - 63)
    return n, body


def graph6_bytes(g: Graph) -> bytes:
    """Encode a graph in graph6 format (no header)."""
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise ValueError("graph too large for graph6 encoding")
    nbits = n * (n - 1) // 2
    bits = np.zeros(nbits + -nbits % 6, np.uint8)
    a, b = g._edge_ends
    bits[b * (b - 1) // 2 + a] = 1
    return head + (63 + (np.packbits(bits.reshape(-1, 6), axis=1) >> 2)).tobytes()


def parse_graph(data: bytes | str, format: str | None = None) -> Graph:
    """Parse a graph, auto-detecting graph6 input when no format is given."""
    if format not in (None, "edge-list", "graph6"):
        raise ParseError(f"unknown format {format!r}")
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError("input is not ASCII") from exc
    else:
        text = data
    if format is None:
        stripped = text.strip()
        looks_g6 = stripped.startswith(">>graph6<<") or (
            stripped and "\n" not in stripped and " " not in stripped
            and not stripped.isdigit()
        )
        format = "graph6" if looks_g6 else "edge-list"
    if format == "graph6":
        return parse_graph6(text)
    return parse_edge_list(text)


# ---------------------------------------------------------------------------
# matrix constructions
# ---------------------------------------------------------------------------

def laplacian(g: Graph, w: WeightVector | None = None) -> np.ndarray:
    """Weighted Laplacian sum(w_e z_e z_e^T) in the weights' dtype: int64 ones when w is None."""
    a, b = g._edge_ends
    if w is None:  # one entry per edge of a simple graph, and the degrees
        L = np.zeros((g.n, g.n), dtype=np.int64)
        L[a, b] = L[b, a] = -1
        np.fill_diagonal(L, g.degrees)
        return L
    wv = w.as_array()
    if len(wv) != g.m:
        raise DimensionMismatchError(f"got {len(wv)} weights for {g.m} edges")
    L = np.zeros((g.n, g.n), dtype=wv.dtype)
    np.add.at(L, (a, a), wv)
    np.add.at(L, (b, b), wv)
    np.add.at(L, (a, b), -wv)
    np.add.at(L, (b, a), -wv)
    return L


def adjoint_apply(g: Graph, X) -> np.ndarray:
    """Adjoint of the Laplacian map: per edge (a, b), X_aa + X_bb - 2 X_ab.

    Preserves the entry type: integer (object) matrices give exact integer
    vectors, float matrices give float vectors.
    """
    X = np.asarray(X)
    if X.shape != (g.n, g.n):
        raise DimensionMismatchError(f"expected {g.n}x{g.n} matrix, got {X.shape}")
    a, b = g._edge_ends
    return X[a, a] + X[b, b] - 2 * X[a, b]


def edge_energies(g: Graph, V) -> np.ndarray:
    """adjoint(V V^T) without forming V V^T: per edge (a, b), |V_a - V_b|^2.

    V is n x p, one row per vertex; for an orthonormal basis of an
    eigenspace these are the squared edge lengths of its embedding.
    """
    V = np.asarray(V)
    if V.ndim != 2 or V.shape[0] != g.n:
        raise DimensionMismatchError(f"expected {g.n} rows, got shape {V.shape}")
    return group_energies(g, V, (0, V.shape[1]))[0]


def group_energies(g: Graph, V: np.ndarray, bounds) -> np.ndarray:
    """Row i is edge_energies(g, V[:, bounds[i]:bounds[i + 1]]), from one gather of V_a - V_b."""
    a, b = g._edge_ends
    lo = bounds[0]  # D covers columns lo..bounds[-1]; each row sums the squares of a slice of it
    D = V[a, lo:bounds[-1]] - V[b, lo:bounds[-1]]
    cols = [D[:, i - lo:j - lo] for i, j in zip(bounds, bounds[1:])]
    return np.array([C[:, 0] * C[:, 0] if C.shape[1] == 1 else np.einsum("ij,ij->i", C, C)
                     for C in cols])


def incidence(g: Graph) -> np.ndarray:
    """Incidence matrix B with column e_a - e_b per edge (a, b), a < b."""
    B = np.zeros((g.n, g.m), dtype=np.int64)
    a, b = g._edge_ends
    B[a, np.arange(g.m)] = 1
    B[b, np.arange(g.m)] = -1
    return B


def signed_line_graph(g: Graph) -> np.ndarray:
    """Signed line-graph adjacency A_sigma = B^T B - 2I (entries in {-1,0,1})."""
    B = incidence(g)
    return B.T @ B - 2 * np.eye(g.m, dtype=np.int64)


# ---------------------------------------------------------------------------
# degree structure
# ---------------------------------------------------------------------------

def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The colour classes of g's search, unique on a connected graph; None if not bipartite."""
    color, odd, _ = g._search
    if odd:
        return None
    part0 = tuple(v for v in range(g.n) if color[v] == 0)
    part1 = tuple(v for v in range(g.n) if color[v] == 1)
    return part0, part1


@dataclass(frozen=True)
class DegreeClassification:
    kind: str  # "regular" | "biregular-bipartite" | "irregular"
    degrees: tuple[int, ...]
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None
    degree_sum_constant: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "degrees": list(self.degrees),
            "parts": [list(p) for p in self.parts] if self.parts else None,
            "degree_sum_constant": self.degree_sum_constant,
        }


def degree_classification(g: Graph) -> DegreeClassification:
    """Classify as regular / biregular bipartite / irregular.

    Also reports whether d_a + d_b is constant over edges, the combinatorial
    necessary condition for rigidity.
    """
    deg = g.degrees
    sums = {deg[a] + deg[b] for a, b in g.edges}
    const = len(sums) == 1
    if len(set(deg)) == 1:
        return DegreeClassification("regular", (deg[0],), None, const)
    parts = bipartition(g)
    if parts is not None:
        d0 = {deg[v] for v in parts[0]}
        d1 = {deg[v] for v in parts[1]}
        if len(d0) == 1 and len(d1) == 1:
            return DegreeClassification(
                "biregular-bipartite", (d0.pop(), d1.pop()), parts, const
            )
    return DegreeClassification("irregular", (), None, const)
