"""Brute-force ground truth for small instances, used only by the tests.

These are deliberately naive: spanning trees by enumerating edge subsets,
walk counts by dynamic programming over adjacency lists, majorization by
sorted partial sums. They exist to check the fast paths, so they must not
share code with them, and the package never imports them.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from edgerigid.errors import EdgeRigidError
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
