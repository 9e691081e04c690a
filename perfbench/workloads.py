"""Seeded job lists for the benchmark workloads.

Nothing here imports edgerigid: graphs are built, relabelled and serialized
by the benchmark's own code, so the program only ever sees input bytes.
Every graph gets a seeded vertex relabelling and edge shuffle, and the
seeded random members keep their n and m under every seed, so a job list
has the same shape (job count, n, m) whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, gcd

Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Job:
    """One call into the program.

    kind is the CLI subcommand, or "census" for the library path
    parse_graph + decide_edge_rigid_exact on graph6 bytes. edges are the
    canonical (a < b, sorted) edges of the relabelled graph, which the
    output checks use as ground truth.
    """

    name: str
    kind: str
    n: int
    edges: Edges
    data: bytes
    args: tuple[str, ...] = ()
    tree_count: int | None = None  # closed-form spanning-tree count, when one is known


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------

def canonical(edges) -> Edges:
    return tuple(sorted((min(a, b), max(a, b)) for a, b in edges))


def cycle(n: int) -> Edges:
    return canonical((i, (i + 1) % n) for i in range(n))


def path(n: int) -> Edges:
    return canonical((i, i + 1) for i in range(n - 1))


def complete(n: int) -> Edges:
    return canonical((i, j) for i in range(n) for j in range(i + 1, n))


def complete_bipartite(a: int, b: int) -> Edges:
    return canonical((i, a + j) for i in range(a) for j in range(b))


def hypercube(d: int) -> Edges:
    return canonical((v, v ^ (1 << i)) for v in range(1 << d) for i in range(d) if not v >> i & 1)


def petersen() -> Edges:
    return canonical(
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )


def circulant(n: int, jumps) -> Edges:
    return canonical({(min(i, (i + j) % n), max(i, (i + j) % n)) for i in range(n) for j in jumps})


def random_tree(n: int, rng: random.Random) -> Edges:
    """Uniform labelled tree from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (v for v in range(n) if degree[v] == 1)
    edges.append((u, w))
    return canonical(edges)


def random_regular(n: int, d: int, rng: random.Random) -> Edges:
    """Connected simple d-regular graph from the pairing model, by rejection."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(edges) == n * d // 2 and all(a != b for a, b in edges) and connected(n, edges):
            return canonical(edges)


def connected(n: int, edges) -> bool:
    nbrs = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for u in nbrs[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def hypercube_tree_count(d: int) -> int:
    count = 2 ** (2**d - d - 1)
    for k in range(1, d + 1):
        count *= k ** comb(d, k)
    return count


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def relabel(n: int, edges: Edges, rng: random.Random) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    return canonical((perm[a], perm[b]) for a, b in edges)


def edge_list_bytes(n: int, edges: Edges, rng: random.Random) -> bytes:
    """Edge-list file: "n m", then one edge per line, shuffled and reoriented."""
    lines = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]
    rng.shuffle(lines)
    return (f"{n} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in lines)).encode()


def graph6_bytes(n: int, edges: Edges) -> bytes:
    """graph6 encoding for n <= 62: upper triangle column by column, 6 bits a byte."""
    present = set(edges)
    bits = [int((i, j) in present) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = bytes(63 + int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6))
    return bytes([63 + n]) + body


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _member_rng(workload: str, seed: int, member: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{member}")


def _cli_jobs(workload: str, seed: int, kind: str, members) -> list[Job]:
    """members: (name, n, edges or a function of an rng, args, tree count or None)."""
    jobs = []
    for name, n, edges, args, trees in members:
        rng = _member_rng(workload, seed, name)
        if callable(edges):
            edges = edges(rng)
        edges = relabel(n, edges, rng)
        jobs.append(Job(name, kind, n, edges, edge_list_bytes(n, edges, rng), args, trees))
    return jobs


def decide_deep(seed: int) -> list[Job]:
    return _cli_jobs("decide-deep", seed, "decide", [
        ("C100", 100, cycle(100), (), None),
        ("Q6", 64, hypercube(6), (), None),
        ("K20,20", 40, complete_bipartite(20, 20), (), None),
        ("circulant96-1-23", 96, circulant(96, (1, 23)), (), None),
        ("regular3-100", 100, lambda rng: random_regular(100, 3, rng), (), None),
        ("tree60", 60, lambda rng: random_tree(60, rng), (), None),
    ])


def census_small(seed: int) -> list[Job]:
    members = []
    for n in range(5, 25):
        jumps = range(1, n // 2 + 1)
        sets = [(j,) for j in jumps] + [(i, j) for i in jumps for j in jumps if i < j]
        members += [(f"C{n}{list(s)}", n, circulant(n, s)) for s in sets if gcd(n, *s) == 1]
    members += [(f"tree{i}", 8 + i % 17, None) for i in range(100)]
    jobs = []
    for name, n, edges in members:
        rng = _member_rng("census-small", seed, name)
        edges = relabel(n, edges or random_tree(n, rng), rng)
        jobs.append(Job(name, "census", n, edges, graph6_bytes(n, edges)))
    return jobs


def analyze_report(seed: int) -> list[Job]:
    fmt = ("--format", "json")
    return _cli_jobs("analyze-report", seed, "analyze", [
        ("petersen", 10, petersen(), fmt, 2000),
        ("K12", 12, complete(12), fmt, 12**10),
        ("C30", 30, cycle(30), fmt, 30),
        ("P24", 24, path(24), fmt, 1),
        ("tree30", 30, lambda rng: random_tree(30, rng), fmt, 1),
        ("Q4", 16, hypercube(4), fmt, hypercube_tree_count(4)),
        ("circulant24-1-5", 24, circulant(24, (1, 5)), fmt, None),
        ("K6,6", 12, complete_bipartite(6, 6), fmt, 6**5 * 6**5),
    ])


def optimize_profile(seed: int) -> list[Job]:
    fmt = ("--format", "json")
    return _cli_jobs("optimize-profile", seed, "profile", [
        ("P12", 12, path(12), fmt, None),
        ("Q5", 32, hypercube(5), fmt, None),
        ("C60", 60, cycle(60), fmt, None),
    ]) + _cli_jobs("optimize-profile", seed, "optimize", [
        ("P30-k5-upper", 30, path(30), fmt + ("--k", "5"), None),
        # One tree shape for every seed; only its labels follow the seed. On
        # random 20-vertex trees this run stops after 830 to 5000 iterations,
        # which would make the workload's time depend on the seed.
        ("tree20-k3-lower", 20, random_tree(20, random.Random("tree20")),
         fmt + ("--k", "3", "--objective", "lower"), None),
        ("petersen-k4-upper", 10, petersen(), fmt + ("--k", "4"), None),
    ])


WORKLOADS = {
    "decide-deep": decide_deep,
    "census-small": census_small,
    "analyze-report": analyze_report,
    "optimize-profile": optimize_profile,
}


def build(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](seed)


WARMUP_ARGS = {
    "decide": (),
    "census": (),
    "analyze": ("--format", "json"),
    "profile": ("--format", "json"),
    "optimize": ("--format", "json", "--k", "2"),
}


def warmup(jobs: list[Job]) -> list[Job]:
    """One job on C6 for each kind in jobs: runs every code path once, cheaply."""
    edges = cycle(6)
    kinds = dict.fromkeys(j.kind for j in jobs)
    return [Job(f"warmup-{kind}", kind, 6, edges, graph6_bytes(6, edges) if kind == "census"
                else edge_list_bytes(6, edges, random.Random(0)), WARMUP_ARGS[kind])
            for kind in kinds]

