"""Brute-force ground truth for small instances, used only by the tests.

These are deliberately naive: spanning trees by enumerating edge subsets,
walk counts by dynamic programming over adjacency lists, majorization by
sorted partial sums, edge lists split line by line into sorted tuples. They
exist to check the fast paths, so they must not share code with them, and
the package never imports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from edgerigid.errors import (
    DisconnectedError,
    EdgeRigidError,
    NotSimpleError,
    ParseError,
    TooSmallError,
)
from edgerigid.graphs import Graph, WeightVector

MAX_TREE_EDGES = 20
MAX_WALK_LENGTH = 10


class BudgetExceededError(EdgeRigidError):
    """A brute-force oracle was asked to exceed its enumeration budget."""


class LengthMismatchError(EdgeRigidError, ValueError):
    """Two vectors that must have equal length do not."""


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _spanning_subsets(g: Graph):
    if g.m > MAX_TREE_EDGES:
        raise BudgetExceededError(f"{g.m} edges exceeds tree enumeration budget {MAX_TREE_EDGES}")
    for subset in combinations(range(g.m), g.n - 1):
        uf = _UnionFind(g.n)
        if all(uf.union(*g.edges[e]) for e in subset):
            yield subset


def enumerate_spanning_trees(g: Graph) -> int:
    """Count spanning trees by checking every (n-1)-edge subset."""
    return sum(1 for _ in _spanning_subsets(g))


def weighted_enum(g: Graph, w: WeightVector) -> float:
    """Sum over spanning trees of the product of edge weights."""
    wv = w.as_array()
    total = 0.0
    for subset in _spanning_subsets(g):
        prod = 1.0
        for e in subset:
            prod *= wv[e]
        total += prod
    return total


def count_walks(g: Graph, a: int, b: int, length: int) -> int:
    """Number of walks of the given length from a to b, by DP on neighbors."""
    if length > MAX_WALK_LENGTH:
        raise BudgetExceededError(f"walk length {length} exceeds budget {MAX_WALK_LENGTH}")
    counts = [0] * g.n
    counts[a] = 1
    for _ in range(length):
        nxt = [0] * g.n
        for v in range(g.n):
            c = counts[v]
            if c:
                for u in g.neighbors[v]:
                    nxt[u] += c
        counts = nxt
    return counts[b]


def random_simplex(m: int, seed: int = 0, count: int = 1) -> list[WeightVector]:
    """Seeded strictly-positive samples from the weight simplex.

    Each sample is m iid exponential(1) draws rescaled to sum to m.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        draws = rng.exponential(1.0, size=m)
        out.append(WeightVector.from_values(draws))
    return out


def majorization_check(x, y, tol: float = 1e-9) -> bool:
    """Is x majorized by y? Descending convention.

    True when every top-k partial sum of x is at most the matching partial
    sum of y (within tol) and the totals agree (within tol).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatchError(f"got shapes {x.shape} and {y.shape}")
    xs = np.sort(x)[::-1].cumsum()
    ys = np.sort(y)[::-1].cumsum()
    if abs(xs[-1] - ys[-1]) > tol:
        return False
    return bool(np.all(xs <= ys + tol))


@dataclass(frozen=True)
class ReferenceGraph:
    """What a parsed Graph must hold: edges canonical and sorted, per-vertex
    neighbours ascending and degrees, the search (depths from vertex 0, odd,
    eccentricity of vertex 0) and the edge ends as two lists."""

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    search: tuple[list[int], bool, int]
    edge_ends: list[list[int]]


def reference_graph(n: int, edges) -> ReferenceGraph:
    """Check edges as a simple connected graph on n vertices with sorted tuples, and search it.

    Errors name the first self-loop or out-of-range id in input order, else
    the first duplicate, else disconnection.
    """
    if n < 2 or len(edges) < 1:
        raise TooSmallError(f"need n >= 2 and m >= 1, got n={n}, m={len(edges)}")
    for a, b in edges:
        if a == b:
            raise NotSimpleError(f"self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"vertex id out of range in edge ({a}, {b})")
    canon = sorted((a, b) if a < b else (b, a) for a, b in edges)
    for e, f in zip(canon, canon[1:]):
        if e == f:
            raise NotSimpleError(f"duplicate edge {e}")
    if len(canon) < n - 1:
        raise DisconnectedError("graph is not connected")
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in canon:
        adj[a].append(b)
        adj[b].append(a)
    depth, frontier, odd = {0: 0}, [0], False
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in depth:
                    depth[u] = depth[v] + 1
                    nxt.append(u)
                odd = odd or depth[u] == depth[v]
        frontier = nxt
    if len(depth) < n:
        raise DisconnectedError("graph is not connected")
    search = [depth[v] for v in range(n)], odd, max(depth.values())
    neighbors = tuple(tuple(sorted(nb)) for nb in adj)
    return ReferenceGraph(n, tuple(canon), neighbors, tuple(map(len, neighbors)), search,
                          [[a for a, _ in canon], [b for _, b in canon]])


def parse_edge_list(text: str) -> ReferenceGraph:
    """The edge-list format split line by line and read with int(): "n m", then m lines "a b"."""
    if not text.isascii() or "_" in text:
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
    for ln, row in zip(lines[1:], rows):  # name the first bad line
        if len(row) != 2:
            raise ParseError(f"bad edge line {ln!r}")
        try:
            int(row[0]), int(row[1])
        except ValueError as exc:
            raise ParseError(f"bad edge line {ln!r}") from exc
    ids = [int(x) for x in chain.from_iterable(rows)]
    return reference_graph(n, tuple(zip(ids[::2], ids[1::2])))
