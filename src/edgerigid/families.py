"""Constructors for the small graph families used in examples and tests."""

from __future__ import annotations

import numpy as np

from .graphs import Graph


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def star_graph(leaves: int) -> Graph:
    """K_{1, leaves}: vertex 0 joined to 1..leaves."""
    return Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(outer + spokes + inner))


def circulant_graph(n: int, jumps: tuple[int, ...]) -> Graph:
    edges = set()
    for i in range(n):
        for j in jumps:
            edges.add((min(i, (i + j) % n), max(i, (i + j) % n)))
    return Graph(n, tuple(edges))


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform random labeled tree via a seeded Pruefer sequence."""
    rng = np.random.default_rng(seed)
    seq = [int(x) for x in rng.integers(0, n, size=n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        for leaf in range(n):
            if degree[leaf] == 1:
                edges.append((leaf, v))
                degree[leaf] -= 1
                degree[v] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return Graph(n, tuple(edges))
