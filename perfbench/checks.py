"""Independent checks of the program's outputs.

None of this calls edgerigid. Walk values z_e^T L^p z_e are recomputed
with exact Python integers, tree counts come from closed forms or exact
rational elimination, and eigenvalue sums from numpy's eigvalsh on a
Laplacian built here. Each check returns None when the output is right and
a one-line reason when it is not.
"""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction
from typing import Iterator

import numpy as np

from workloads import Edges, Job

DECIDE_LINE = re.compile(
    r"not edge-rigid: power (\d+), edges \((\d+), (\d+)\) vs \((\d+), (\d+)\) "
    r"\((-?\d+) != (-?\d+)\)\n"
)


def walk_rows(n: int, edges: Edges) -> Iterator[list[int]]:
    """Yield [z_e^T L^p z_e for every edge e] for p = 0, 1, 2, ... without end.

    With U_j = L^j B (B the incidence matrix), w_2j = |U_j e|^2 and
    w_2j+1 = (U_j e) . (U_j+1 e), so each matrix step gives two powers.
    """
    m = len(edges)
    a = np.array([e[0] for e in edges])
    b = np.array([e[1] for e in edges])
    deg = np.zeros(n, dtype=object)
    np.add.at(deg, a, 1)
    np.add.at(deg, b, 1)
    U = np.zeros((n, m), dtype=object)
    U[a, np.arange(m)] = 1
    U[b, np.arange(m)] = -1
    while True:
        yield [int(x) for x in (U * U).sum(axis=0)]
        V = deg[:, None] * U
        np.add.at(V, a, -U[b])
        np.add.at(V, b, -U[a])
        yield [int(x) for x in (U * V).sum(axis=0)]
        U = V


def walk_constants(n: int, edges: Edges) -> tuple[int, ...] | None:
    """The walk constants for p = 0..n-1, or None if some power is not constant."""
    constants = []
    for _, row in zip(range(n), walk_rows(n, edges)):
        if len(set(row)) > 1:
            return None
        constants.append(row[0])
    return tuple(constants)


def check_walk_verdict(job: Job, rigid: bool, constants, witness) -> str | None:
    """Re-verify a decide verdict.

    A rigid verdict needs every power p <= n-1 constant over all edges (and
    the constants, when given, to match). A witness needs its power to be
    the first non-constant one and its two values to be the recomputed ones.
    """
    n, edges = job.n, job.edges
    if rigid:
        truth = walk_constants(n, edges)
        if truth is None:
            return "claimed edge-rigid, but some walk power is not constant"
        if constants is not None and tuple(constants) != truth:
            return "walk constants differ from the recomputed ones"
        return None
    power, edge_a, edge_b, value_a, value_b = witness
    index = {e: i for i, e in enumerate(edges)}
    if edge_a not in index or edge_b not in index:
        return f"witness edges {edge_a}, {edge_b} are not edges"
    if not 0 <= power <= n - 1:
        return f"witness power {power} out of range"
    for p, row in zip(range(power + 1), walk_rows(n, edges)):
        if p < power and len(set(row)) > 1:
            return f"power {p} is already non-constant, witness says {power}"
    if (row[index[edge_a]], row[index[edge_b]]) != (value_a, value_b) or value_a == value_b:
        return f"witness values {value_a}, {value_b} are not the recomputed walk values"
    return None


def check_decide(job: Job, code: int, out: str) -> str | None:
    if out == "edge-rigid\n":
        return "exit code is not 0" if code != 0 else check_walk_verdict(job, True, None, None)
    match = DECIDE_LINE.fullmatch(out)
    if match is None:
        return f"unparsable decide output {out[:80]!r}"
    if code != 1:
        return "exit code is not 1"
    p, a1, b1, a2, b2, va, vb = map(int, match.groups())
    return check_walk_verdict(job, False, None, (p, (a1, b1), (a2, b2), va, vb))


def check_census(job: Job, code: int, out: str) -> str | None:
    n, edges, rigid, constants, witness = ast.literal_eval(out)
    if (n, tuple(edges)) != (job.n, job.edges):
        return "parsed graph differs from the generated one"
    return check_walk_verdict(job, rigid, constants, witness)


def tree_count(n: int, edges: Edges) -> int:
    """Spanning trees: determinant of a reduced Laplacian by exact elimination."""
    L = [[Fraction(0)] * n for _ in range(n)]
    for a, b in edges:
        L[a][a] += 1
        L[b][b] += 1
        L[a][b] -= 1
        L[b][a] -= 1
    M = [row[1:] for row in L[1:]]
    det = Fraction(1)
    for k in range(n - 1):
        pivot = next(i for i in range(k, n - 1) if M[i][k] != 0)
        if pivot != k:
            M[k], M[pivot] = M[pivot], M[k]
            det = -det
        det *= M[k][k]
        for i in range(k + 1, n - 1):
            f = M[i][k] / M[k][k]
            if f:
                M[i] = [x - f * y for x, y in zip(M[i], M[k])]
    return int(det)


def check_analyze(job: Job, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    rigid = walk_constants(job.n, job.edges) is not None
    if doc["report"]["edge_rigid"] != rigid:
        return f"edge_rigid is {doc['report']['edge_rigid']}, expected {rigid}"
    expected = job.tree_count or tree_count(job.n, job.edges)
    if doc["tree_count_exact"] != expected:
        return f"tree_count_exact {doc['tree_count_exact']} != {expected}"
    foster = sum(doc["effective_resistances"])
    if abs(foster - (job.n - 1)) > 1e-8 * job.n:
        return f"resistances sum to {foster}, Foster's theorem says {job.n - 1}"
    return None


def eigensum(job: Job, w, k: int, objective: str) -> float:
    """S_k(w) (upper) or s_k(w) (lower) of the weighted Laplacian."""
    n = job.n
    L = np.zeros((n, n))
    for (a, b), x in zip(job.edges, w):
        L[a, a] += x
        L[b, b] += x
        L[a, b] -= x
        L[b, a] -= x
    ev = np.linalg.eigvalsh(L)
    return float(ev[n - k:].sum() if objective == "upper" else ev[1:k + 1].sum())


def check_optimize_result(job: Job, res: dict, rigid: bool) -> str | None:
    k, objective = res["k"], res["objective"]
    if res["verdict"] != "refuted":
        return None
    if rigid:
        return f"k={k} {objective} refuted on an edge-rigid graph"
    base = eigensum(job, [1.0] * len(job.edges), k, objective)
    value = eigensum(job, res["best_w"], k, objective)
    better = value < base if objective == "upper" else value > base
    if not better:
        return f"k={k} {objective} refuted, but best_w gives {value} against {base}"
    return None


def optimizer_results(job: Job, out: str) -> list[dict]:
    doc = json.loads(out)
    if job.kind == "optimize":
        return [doc]
    return [e[side] for e in doc["entries"] for side in ("upper", "lower")]


def check_optimizer(job: Job, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    rigid = walk_constants(job.n, job.edges) is not None
    if job.kind == "profile":
        doc = json.loads(out)
        if doc["all_rigid"] != rigid:
            return f"all_rigid is {doc['all_rigid']} on a graph with edge-rigid={rigid}"
        if len(doc["entries"]) != job.n - 1:
            return f"profile has {len(doc['entries'])} entries, expected {job.n - 1}"
    for res in optimizer_results(job, out):
        reason = check_optimize_result(job, res, rigid)
        if reason:
            return reason
    return None


CHECKS = {
    "decide": check_decide,
    "census": check_census,
    "analyze": check_analyze,
    "profile": check_optimizer,
    "optimize": check_optimizer,
}


def check(job: Job, code: int | None, out: str) -> str | None:
    """Check one job's exit code and output; exceptions count as failures."""
    try:
        return CHECKS[job.kind](job, code, out)
    except (ValueError, KeyError, TypeError, SyntaxError) as exc:
        return f"output could not be checked: {exc!r}"
