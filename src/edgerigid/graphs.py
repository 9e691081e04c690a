"""Graph representation, input parsing, and Laplacian constructions.

Every graph in this package is simple, connected and undirected, with
vertices 0..n-1 and edges stored as (a, b), a < b, sorted lexicographically.
That canonical edge order indexes every edge-indexed vector anywhere in the
package (weights, adjoint values, resistances, incidence columns).

A Graph is checked and kept as arrays: the parsers hand it an (m, 2) array of
ids and edge tuples become one. Construction sorts the 2m arc keys, checks
range, self-loops, duplicates and connectivity on them, and caches
_edge_ends (the canonical a and b), _arcs (degrees, and the arcs by vertex,
then neighbour) and _search (a breadth-first search over the arcs). The
edge-list parser checks the text with a regular expression and reads every
id in one np.fromstring scan; it splits text line by line only to name its
first bad line, or to read an id of more than 18 digits.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

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

# Lines of two decimals of at most 18 digits, which int64 holds, or of whitespace; breaks are
# str.splitlines' ASCII ones, and \x1c-\x1f, which np.fromstring does not skip, are translated
_ID, _SPACE, _BLANK = "[+-]?[0-9]{1,18}", "[ \t\x1f]", "[ \t\n\r\x0b\x0c\x1c-\x1f]"
_LINE = f"{_ID}{_SPACE}+{_ID}{_SPACE}*"
_EDGE_LIST = re.compile(f"{_BLANK}*{_LINE}(?:[\n\r\x0b\x0c\x1c-\x1e]{_BLANK}*{_LINE})*{_BLANK}*")
_SEPARATORS = str.maketrans("\x1c\x1d\x1e\x1f", "\n\n\n ")
_CANONICAL = re.compile("(?:[0-9]{1,18} [0-9]{1,18}\n)+")  # to_edge_list's layout, matched faster


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected graph with canonical edges, given as pairs or an (m, 2) array."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        n, m = self.n, len(self.edges)
        if n < 2 or m < 1:
            raise TooSmallError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
        edges = self.edges
        try:  # the ids as an (m, 2) int64 array, None if one does not fit int64
            ids = (np.asarray(edges, np.int64) if isinstance(edges, np.ndarray)
                   else np.fromiter(chain.from_iterable(edges), np.int64, 2 * m)).reshape(-1, 2)
        except OverflowError:
            ids = None
        # ids in [0, n), a negative one being a huge unsigned one; the arc keys t n + h of
        # arcs t -> h fit int64 for n <= 2^31, and more vertices than that leave m < n - 1
        if ids is None or n > 1 << 31 or ids.view(np.uint64).max() >= n:
            _name_fault(n, edges)
        keys = (ids @ np.array([[n, 1], [1, n]])).ravel()  # the arcs a -> b and b -> a of each edge
        keys.sort()
        if np.count_nonzero(keys[1:] == keys[:-1]):  # a self-loop or a duplicate edge repeats a key
            _name_fault(n, edges)
        if m < n - 1:  # not connected: failing fast keeps a huge n from allocating n entries
            raise DisconnectedError("graph is not connected")
        tails, heads = np.divmod(keys, n)
        out = tails < heads  # the canonical edges (a, b), in order
        a, b = tails[out], heads[out]
        object.__setattr__(self, "edges", tuple(zip(a.tolist(), b.tolist())))
        object.__setattr__(self, "_edge_ends", (a, b))
        object.__setattr__(self, "_arcs", (np.bincount(tails, minlength=n), tails, heads))
        self._search  # raises DisconnectedError if it leaves a vertex unreached

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        deg, _, heads = self._arcs
        nbrs, ends = heads.tolist(), list(accumulate(deg.tolist(), initial=0))
        return tuple(tuple(nbrs[i:j]) for i, j in zip(ends, ends[1:]))  # ascending

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self._arcs[0].tolist())

    @cached_property
    def _search(self) -> tuple[list[int], bool, int]:
        """Breadth-first search from vertex 0 over the arcs: depths (colours by parity), odd if
        an edge joins equal colours (in one layer), ecc(0); DisconnectedError if one is unreached."""
        deg, _, heads = self._arcs
        nbrs, ends = heads.tolist(), list(accumulate(deg.tolist(), initial=0))
        depth = [0] + [-1] * (self.n - 1)
        reached = [0]
        odd = False
        for v in reached:
            d = depth[v] + 1
            for u in nbrs[ends[v] : ends[v + 1]]:
                if depth[u] < 0:
                    depth[u] = d
                    reached.append(u)
                elif depth[u] == d - 1:
                    odd = True
        if len(reached) < self.n:
            raise DisconnectedError("graph is not connected")
        return depth, odd, depth[reached[-1]]

    def to_edge_list(self) -> str:
        """Serialize in the edge-list file format (inverse of parsing)."""
        lines = [f"{self.n} {self.m}"]
        lines += [f"{a} {b}" for a, b in self.edges]
        return "\n".join(lines) + "\n"

    def to_graph6(self) -> bytes:
        return graph6_bytes(self)


def _name_fault(n: int, edges) -> None:
    """Name the first self-loop or out-of-range id in input order, else the first duplicate, else
    disconnection: ids beyond int64 or n > 2^31 leave m < n - 1."""
    edges = edges.tolist() if isinstance(edges, np.ndarray) else edges
    for a, b in edges:
        if a == b:
            raise NotSimpleError(f"self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"vertex id out of range in edge ({a}, {b})")
    canon = sorted([(a, b) if a < b else (b, a) for a, b in edges])
    for e, f in zip(canon, canon[1:]):
        if e == f:
            raise NotSimpleError(f"duplicate edge {e}")
    raise DisconnectedError("graph is not connected")


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
    if _CANONICAL.fullmatch(text) or _EDGE_LIST.fullmatch(text):  # the scan reads every token
        if "\x1c" in text or "\x1d" in text or "\x1e" in text or "\x1f" in text:
            text = text.translate(_SEPARATORS)
        ids = np.fromstring(text, np.int64, sep=" ")
        n, m = ids[:2].tolist()
        if len(ids) != 2 * m + 2:
            raise ParseError(f"header promises {m} edges, found {len(ids) // 2 - 1}")
        return Graph(n, ids[2:].reshape(-1, 2))
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
    edges = []
    for ln in lines[1:]:  # name the first bad line
        try:
            a, b = map(int, ln.split())
        except ValueError as exc:
            raise ParseError(f"bad edge line {ln!r}") from exc
        edges.append((a, b))
    return Graph(n, tuple(edges))


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
    return Graph(n, np.column_stack((i, j)))


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
    depth, odd, _ = g._search
    if odd:
        return None
    part0 = tuple(v for v in range(g.n) if depth[v] % 2 == 0)
    part1 = tuple(v for v in range(g.n) if depth[v] % 2 == 1)
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
