"""Exact combinatorial deciders for edge-rigidity, cross-checked in one report.

A connected graph is edge-rigid exactly when the walk stream
w_l = adjoint(L^l) is constant over edges for l = 0..n-1. With z_e the
incidence vector of edge e = (a, b),

    w_l(e) = z_e^T L^l z_e = (L^l)_aa + (L^l)_bb - 2 (L^l)_ab.

It is computed from powers of M = Delta I - L = A + diag(Delta - deg), Delta
the maximum degree, as c_l(e) = z_e^T M^l z_e; L = Delta I - M gives
w_l = sum_{i<=l} C(l, i) Delta^(l-i) (-1)^i c_i, a unit-triangular map, so
c_0..c_l are constant exactly when w_0..w_l are. The stream holds M^l as
packed rows: row u is one Python int whose slot v, an unsigned field of k
bits, holds (M^l)_uv, so CPython's limb loops do the inner dimension. A
power is one application of M, R_u <- sum_{v ~ u} R_v + (Delta - deg u) R_u:
additions, and a multiplication only where deg u < Delta (none on a regular
graph). Masks keep the diagonal slots and the slots b of the rows a of the
edges (a, b); rows whose kept slots are disjoint are merged into one int
before it is turned into bytes, and the three entries of every edge combine
into c_l as one sum of packed ints. M is nonnegative with row sums at most
Delta, so 0 <= (M^l)_uv <= Delta^l and |c_l(e)| <= 2 Delta^l: slots of
k >= bitlen(2 Delta^l) + 1 bits decode uniquely; k grows with l. The
stream to depth n-1 takes n-1 applications of M, on ints of
O(n^2 log(max-degree)) bits. ``decide_edge_rigid_exact`` often
stops sooner: a monic integer q of degree D that annihilates the constants
C_0..C_{2D} of w gives q^T H q = sum_t m_t t q(t)^2 = 0 for the Hankel matrix
H = [m C_{i+k}] = [tr L^{i+k+1}], so q vanishes on every nonzero eigenvalue t
of L, and its recurrence carries constancy to every power. Two identities
turn other deciders into functions of that stream:

- char(L - L_e) - char(L) has coefficients sum_{i<=k} p_i w_{k-i}(e), where
  p_i are those of char(L). The map is unit-triangular, so two edges are
  Laplacian-cospectral exactly when their profiles (w_0..w_{n-1})(e), or
  equally (c_0..c_{n-1})(e), agree;
- diag((2I + A_sigma)^p)_e = w_{p-1}(e) for every orientation sigma, so the
  signed line graph is walk-regular exactly when the stream is constant.

``full_report`` computes the stream once and takes the walk criterion, the
cospectrality classes and the signed-line-graph verdict from it, and the
exact spanning-tree count from the traces p_l = tr(M^l), l = 0..n-1, the
sums of the diagonal slots it already extracts. Newton's identities,
k a_k = -sum_{i=1..k} a_{k-i} p_i with exact divisions, give the
coefficients a_k of x^(n-k) in char_M(x) = det(xI - M). As
char_L(x) = (-1)^n char_M(Delta - x) and the coefficient of x in char_L is
(-1)^(n-1) n tau,

    n tau = char_M'(Delta) = sum_{k<n} (n - k) a_k Delta^(n-1-k),

one Horner pass; a_n = (-1)^n det M is never needed. It adds
1-walk-(bi)regularity and the floating-point edge-isometry check, and insists
that all five agree; a disagreement is an implementation bug, never a
mathematical outcome. walk_class's flags, defined on powers of A, are read
from those of M. On a regular graph M = A. On a bipartite biregular graph
with degrees d_1 < Delta, M = [[cI, B], [B^T, 0]] with c = Delta - d_1 >= 1;
the diagonal blocks of M^(2j) are monic of degree j in BB^T or B^T B, the
edge block of M^(2j+1) is (monic of degree j in BB^T) B, and other blocks are
integer polynomials of no higher degree, such as c^3 + 2c BB^T in M^3:
constancy through l = n - 1 is the same on M and A. Any other graph fails
both diagonal flags at l <= 2 on either stream, and then the edge flag
reaches no field of WalkClassification. The independent references,
``exactmat.adjugate_quadratic_form`` and the m x m power loop of
``signed_line_graph_walk_regular``, are checked against the stream in
tests/test_stream_oracles.py on the corpus and on seeded random graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InternalInconsistencyError
from .exactmat import mat_pow_stream
from .graphs import (
    DegreeClassification,
    Edge,
    Graph,
    Orientation,
    bipartition,
    degree_classification,
    laplacian,
    signed_line_graph,
)
from .spectral import IsometryCheck, Spectrum, check_tol, edge_isometry_check, spectrum

WALK_LABELS = (
    "1-walk-regular",
    "walk-regular-only",
    "1-walk-biregular",
    "walk-biregular-only",
    "neither",
)


@dataclass(frozen=True)
class WalkWitness:
    """Smallest power l where adjoint(L^l) is not constant, with two edges."""

    power: int
    edge_a: Edge
    edge_b: Edge
    value_a: int
    value_b: int

    def to_dict(self) -> dict:
        return {
            "power": self.power,
            "edge_a": list(self.edge_a),
            "edge_b": list(self.edge_b),
            "value_a": self.value_a,
            "value_b": self.value_b,
        }


@dataclass(frozen=True)
class WalkCriterion:
    """Walk constants C_0..C_lmax, or the witness of the first failing power.

    proved says whether the verdict is a proof: a witness always is; constants
    are when they reach power n - 1 or a recurrence certificate produced them.
    """

    rigid: bool
    constants: tuple[int, ...] | None
    witness: WalkWitness | None
    proved: bool


def _split(raw: bytes, count: int) -> list[int]:
    """The count little-endian unsigned slots of equal size that make up raw."""
    size = len(raw) // count
    return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]


def _signed_slots(raw: bytes, count: int) -> list[int]:
    """The count slots of raw, each holding its signed value plus 2^(8 size - 1)."""
    half = 1 << 8 * (len(raw) // count) - 1
    return [x - half for x in _split(raw, count)]


def _constant(raw: bytes, count: int) -> bool:
    size = len(raw) // count
    return raw == raw[:size] * count


def _repeat(x: int, size: int, count: int) -> int:
    """count slots of size bytes, each holding 0 <= x < 2^(8 size)."""
    return int.from_bytes(x.to_bytes(size, "little") * count, "little")


def _slot_masks(n: int, rows, slots, count: int, size: int) -> list[int]:
    """For each u < n, all ones in the slots slots[i] with rows[i] == u."""
    M = np.zeros((n, count, size), dtype=np.uint8)
    M[rows, slots] = 0xFF
    return _split(M.tobytes(), n)


def _widen(rows: list[int], count: int, size: int, new_size: int) -> list[int]:
    """Re-pack rows of count unsigned slots from size to new_size bytes."""
    buf = b"".join(r.to_bytes(count * size, "little") for r in rows)
    wide = np.zeros((len(rows), count, new_size), dtype=np.uint8)
    wide[..., :size] = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), count, size)
    return _split(wide.tobytes(), len(rows))


def _neighbor_sums(rows: list[int], neighbors: tuple[tuple[int, ...], ...]) -> list[int]:
    """Row u of A X for packed rows of X: the sum of rows[v] over v ~ u."""
    sums = []
    for nb in neighbors:
        s = rows[nb[0]]
        for v in nb[1:]:
            s += rows[v]
        sums.append(s)
    return sums


def _slot_bytes(r: int, l: int) -> int:
    """Bytes per slot for signed values up to 2 r^l in absolute value."""
    return ((2 * r**l).bit_length() + 8) // 8


def _packed_powers(g: Graph, lmax: int) -> Iterator[tuple[list[int], int]]:
    """Yield (rows of M^l, slot size in bytes) for l = 0..lmax, M = Delta I - L.

    Row u of M^l is one int with (M^l)_uv in unsigned slot v (bit 8 size v),
    starting from the identity in one-byte slots. Row u of M^(l+1) is
    sum_{v ~ u} R_v + (Delta - deg u) R_u for the rows R of M^l, nnz(A)
    big-int additions on ints of n slots, and a multiplication for each u
    with deg u < Delta. The entries of M^l, and the partial sums that
    compute them, lie in [0, Delta^l]; slots of
    k >= bitlen(2 Delta^l) + 1 bits also hold the signed walk values of
    _walk_stream. When the next power needs more, the slots grow before the
    application, to twice their size or to what power lmax needs if that is
    less. M^(l+1) is computed only once the power l has been consumed.
    """
    delta = max(g.degrees)
    lifted = [(u, delta - d) for u, d in enumerate(g.degrees) if d < delta]
    rows = [1 << 8 * u for u in range(g.n)]
    size = 1
    for l in range(lmax + 1):
        if l:
            need = _slot_bytes(delta, l)
            if need > size:
                new_size = min(max(need, 2 * size), _slot_bytes(delta, lmax))
                rows = _widen(rows, g.n, size, new_size)
                size = new_size
            sums = _neighbor_sums(rows, g.neighbors)
            for u, d in lifted:
                sums[u] += d * rows[u]
            rows = sums
        yield rows, size


def _row_colors(g: Graph) -> list[int]:
    """Colours of the rows u of an n x n matrix; rows of one colour need distinct slots.

    Row u needs slot u (its diagonal entry) and the slots b > u of its edges
    (u, b), so slot s is needed by row s and by the neighbours of s below
    it. Rows are coloured greedily in vertex order, with the colours taken
    at each slot kept as a bit set: a cycle takes 3 colours, K_n takes n.
    """
    taken = [0] * g.n
    colors = []
    for u, nb in enumerate(g.neighbors):
        need = [u] + [v for v in nb if v > u]
        busy = 0
        for s in need:
            busy |= taken[s]
        c = (~busy & (busy + 1)).bit_length() - 1  # lowest colour not in busy
        for s in need:
            taken[s] |= 1 << c
        colors.append(c)
    return colors


def _masked_slots(rows: list[int], masks: list[int], colors: list[int], size: int) -> np.ndarray:
    """The slots the masks keep, as a uint8 array.

    Entry [colors[u], s] holds slot s of rows[u] for every slot s that
    masks[u] keeps; rows of one colour keep distinct slots, so they are
    OR-ed into one int, and one int per colour is converted to bytes.
    """
    n = len(rows)
    merged = [0] * (max(colors) + 1)
    for r, mask, c in zip(rows, masks, colors):
        merged[c] |= r & mask
    buf = b"".join(x.to_bytes(n * size, "little") for x in merged)
    return np.frombuffer(buf, dtype=np.uint8).reshape(len(merged), n, size)


def _matrix_powers(g: Graph, lmax: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield diag(M^l) and the entries (M^l)_ab of the edges (a, b), l = 0..lmax.

    M is Delta I - L (_packed_powers). Each comes as a uint8 array of n
    or m little-endian unsigned slots of equal size. On top of the
    application of M, a power costs 2n big-int operations and one conversion
    to bytes per colour.
    """
    n = g.n
    a, b = np.transpose(g.edges)
    vertices = np.arange(n)
    colors = _row_colors(g)
    col = np.array(colors)
    diag_at, edge_at = col * n + vertices, col[a] * n + b  # rows of E.reshape(-1, size)
    mask_size = 0
    for rows, size in _packed_powers(g, lmax):
        if size != mask_size:
            mask_size = size
            masks = _slot_masks(
                n, np.concatenate([vertices, a]), np.concatenate([vertices, b]), n, size
            )
        E = _masked_slots(rows, masks, colors, size).reshape(-1, size)
        yield E.take(diag_at, axis=0), E.take(edge_at, axis=0)


def _walk_stream(g: Graph, lmax: int, powers: Iterable | None = None) -> Iterator[bytes]:
    """Yield the shifted walk vectors c_l(e) = z_e^T M^l z_e, l = 0..lmax, M = Delta I - L.

    For e = (a, b), c_l(e) = (M^l)_aa + (M^l)_bb - 2 (M^l)_ab. The three
    entries come from _matrix_powers (or powers, its output for M at depth
    lmax, read once) as m slots each, so one sum of three packed ints and
    2^(8 size - 1) per slot gives c_l: |c_l(e)| <= 2 Delta^l fits the slot.
    Each c_l is yielded as m little-endian slots of equal size
    (_signed_slots).
    """
    a, b = np.transpose(g.edges)
    for diag, upper in powers or _matrix_powers(g, lmax):
        aa, bb, ab = (
            int.from_bytes(x.tobytes(), "little")
            for x in (diag.take(a, axis=0), diag.take(b, axis=0), upper)
        )
        half = _repeat(1 << 8 * upper.shape[1] - 1, upper.shape[1], g.m)
        yield (aa + bb + half - 2 * ab).to_bytes(upper.nbytes, "little")


def _record_traces(
    powers: Iterable, traces: list[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pass the (diag, upper) of _matrix_powers through, appending tr(M^l) to traces.

    The trace is the sum of diag's n unsigned slots: its byte columns are
    summed in int64 (each sum is below 256 n) and shifted into place.
    """
    for diag, upper in powers:
        cols = diag.sum(axis=0, dtype=np.int64).tolist()
        traces.append(sum(c << 8 * j for j, c in enumerate(cols)))
        yield diag, upper


def _char_coeffs(traces: list[int]) -> list[int]:
    """Coefficients a_0..a_(N-1) of x^n, .., x^(n-N+1) in det(xI - M) from p_l = tr(M^l), l < N.

    Newton's identities: a_0 = 1 and k a_k = -sum_{i=1..k} a_{k-i} p_i. The
    division is exact for the traces of an integer matrix; a remainder means
    the traces are wrong and raises InternalInconsistencyError.
    """
    a = [1]
    for k in range(1, len(traces)):
        q, r = divmod(-sum(x * p for x, p in zip(reversed(a), traces[1:])), k)
        if r:
            raise InternalInconsistencyError(f"Newton's identity at k={k} left remainder {r}")
        a.append(q)
    return a


def _tree_count(traces: list[int], delta: int) -> int:
    """Spanning-tree count tau from p_l = tr(M^l), l < n: n tau = char_M'(Delta), by Horner."""
    n = len(traces)
    acc = 0
    for k, a in enumerate(_char_coeffs(traces)):
        acc = acc * delta + (n - k) * a
    tau, r = divmod(acc, n)
    if r:
        raise InternalInconsistencyError(f"n tau = {acc} is not a multiple of n = {n}")
    return tau


# Modulus of the Berlekamp-Massey run on the walk constants, a Mersenne prime.
# Its candidates are only trusted after an exact integer check.
_PRIME = 2**521 - 1


class _Recurrence:
    """Berlekamp-Massey modulo _PRIME, fed one term at a time.

    coeffs() lifts the shortest recurrence
    x_l = -(lambda_1 x_{l-1} + .. + lambda_D x_{l-D}) of the residues pushed
    so far to symmetric integer residues lambda_1..lambda_D.
    """

    def __init__(self) -> None:
        self.residues: list[int] = []
        self.conn, self.prev = [1], [1]  # connection polynomials 1 + lambda_1 z + ..
        self.length, self.shift, self.last = 0, 1, 1

    def push(self, x: int) -> None:
        p = _PRIME
        self.residues.append(x % p)
        d = sum(c * r for c, r in zip(self.conn, reversed(self.residues))) % p
        if d == 0:
            self.shift += 1
            return
        f = d * pow(self.last, -1, p) % p
        conn = self.conn + [0] * (len(self.prev) + self.shift - len(self.conn))
        for i, b in enumerate(self.prev, self.shift):
            conn[i] = (conn[i] - f * b) % p
        if 2 * self.length < len(self.residues):
            self.prev, self.last = self.conn, d
            self.length, self.shift = len(self.residues) - self.length, 1
        else:
            self.shift += 1
        self.conn = conn

    def coeffs(self) -> list[int]:
        p = _PRIME
        lam = (self.conn + [0] * self.length)[1 : self.length + 1]
        return [c - p if c > p // 2 else c for c in lam]


def _predict(terms: list[int], lam: list[int], l: int) -> int:
    return -sum(c * terms[l - 1 - k] for k, c in enumerate(lam))


def _walk_criterion(
    g: Graph, walks: Iterable[bytes], lmax: int | None = None
) -> WalkCriterion:
    """Walk constants C_l, or the first non-constant power's witness, from the c_l of _walk_stream.

    Each constant becomes C_l = sum_{i<=l} C(l, i) Delta^(l-i) (-1)^i c_i as
    it is read, in O(l) scalar operations; at the first non-constant power l
    the walk values are w_l(e) = (-1)^l c_l(e) + K_l, K_l the sum over i < l.
    Given lmax, reading stops as soon as the recurrence of D lifted
    Berlekamp-Massey coefficients exactly generates the 2D + 1 or more
    constants read so far; the constants are then extended to power lmax by
    that recurrence. This is a proof (see decide_edge_rigid_exact).
    """
    delta = max(g.degrees)
    constants: list[int] = []
    signed: list[int] = []  # (-1)^i c_i for the constants read
    binom = [1]  # C(power, i) Delta^(power - i), i = 0..power
    rec = _Recurrence()
    for power, raw in enumerate(walks):
        if power:
            binom = [delta * x + y for x, y in zip(binom + [0], [0] + binom)]
        sign = -1 if power % 2 else 1
        k = sum(x * c for x, c in zip(binom, signed))
        if not _constant(raw, g.m):
            vals = [k + sign * c for c in _signed_slots(raw, g.m)]
            lo, hi = vals.index(min(vals)), vals.index(max(vals))
            witness = WalkWitness(power, g.edges[lo], g.edges[hi], vals[lo], vals[hi])
            return WalkCriterion(False, None, witness, True)
        signed.append(sign * _signed_slots(raw[: len(raw) // g.m], 1)[0])
        constants.append(k + signed[-1])
        if lmax is None:
            continue
        rec.push(constants[-1])
        if 2 * rec.length >= len(constants):
            continue
        lam = rec.coeffs()
        if all(_predict(constants, lam, l) == constants[l] for l in range(len(lam), power + 1)):
            while len(constants) <= lmax:
                constants.append(_predict(constants, lam, len(constants)))
            return WalkCriterion(True, tuple(constants), None, True)
    return WalkCriterion(True, tuple(constants), None, len(constants) >= g.n)


def _profile_classes(g: Graph, walks: list[bytes]) -> tuple[tuple[int, ...], ...]:
    """Group edge indices by their walk profile (w_0(e), .., w_last(e)).

    A power constant over the edges separates none of them, so the profiles
    are keyed on the other powers only; when every power is constant there
    is one class.
    """
    varying = [raw for raw in walks if not _constant(raw, g.m)]
    if not varying:
        return (tuple(range(g.m)),)
    buckets: dict[tuple[int, ...], list[int]] = {}
    for e, profile in enumerate(zip(*(_split(raw, g.m) for raw in varying))):
        buckets.setdefault(profile, []).append(e)
    return tuple(tuple(c) for c in sorted(buckets.values(), key=lambda c: c[0]))


def decide_edge_rigid_exact(g: Graph, max_power: int | None = None) -> WalkCriterion:
    """Exact integer decider: adjoint(L^l) constant for l = 0..max_power.

    max_power defaults to n - 1, which is sufficient because the minimal
    polynomial of L has degree at most n; a smaller value checks only a
    prefix, which is not a proof of rigidity. Returns the walk constants C_l
    on success, or the first offending power with a witness edge pair.

    The stream is that of M = Delta I - L, whose walk vectors c_l map to
    w_l unit-triangularly (_walk_criterion); the constants C_l are those of
    w. The stream stops early when a monic integer q of degree D annihilates
    C_0..C_N with N >= 2D. Then H q = 0 for H = [tr L^{i+k+1}]_{i,k<=D}, and
    q^T H q = sum_t m_t t q(t)^2 = 0 over the nonzero eigenvalues t of L
    (multiplicity m_t), so q(t) = 0 and q(L) z_e = 0 for every edge e: every
    w_l(e) follows q's recurrence, and the constant w_0..w_{D-1} make every
    power constant. A rigid graph with d' distinct nonzero eigenvalues thus
    costs min(2d', n - 1) applications of M, one per power read.
    """
    if max_power is not None and max_power < 0:
        raise ValueError(f"max_power must be >= 0, got {max_power}")
    lmax = g.n - 1 if max_power is None else max_power
    return _walk_criterion(g, _walk_stream(g, lmax), lmax)


def cospectrality_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition edge indices into Laplacian-cospectrality classes.

    Edges are grouped by their walk profiles, which determine char(L - L_e)
    and are determined by it. One class means all edges are pairwise
    Laplacian-cospectral, which is equivalent to edge-rigidity.
    """
    return _profile_classes(g, list(_walk_stream(g, g.n - 1)))


@dataclass(frozen=True)
class WalkClassification:
    label: str
    walk_regular: bool
    one_walk_regular: bool
    bipartite: bool
    walk_biregular: bool | None  # None when the graph is not bipartite
    one_walk_biregular: bool | None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "walk_regular": self.walk_regular,
            "one_walk_regular": self.one_walk_regular,
            "bipartite": self.bipartite,
            "walk_biregular": self.walk_biregular,
            "one_walk_biregular": self.one_walk_biregular,
        }


def _record_walk_flags(g: Graph, powers: Iterable, flags: list[bool]) -> Iterator[tuple]:
    """Pass the (diag, upper) of _matrix_powers through, keeping walk_class's flags in flags.

    flags: diag, upper, and diag on each side of the bipartition (False if
    none) were constant in every power so far; each test compares bytes.
    """
    parts = bipartition(g)
    flags[:] = True, True, parts is not None
    for diag, upper in powers:
        flags[0] = flags[0] and _constant(diag.tobytes(), g.n)
        flags[1] = flags[1] and _constant(upper.tobytes(), g.m)
        flags[2] = flags[2] and all(_constant(diag.take(p, 0).tobytes(), len(p)) for p in parts)
        yield diag, upper


def walk_class(g: Graph, flags: list[bool] | None = None) -> WalkClassification:
    """Exact walk-regularity classification, defined on adjacency powers A^l.

    Checks l = 0..n-1: walk-regular means diag(A^l) is globally constant;
    1-walk-regular additionally has (A^l)_ab constant over edges.
    Walk-biregular graphs have diag(A^l) constant on each side of the
    bipartition; the biregular tests are skipped for non-bipartite input.
    The flags come from the walk stream's powers of M = Delta I - L, which
    give those of A (module docstring). flags, when given, are
    _record_walk_flags's at depth n - 1; otherwise the loop stops once both
    diagonal flags fail, after one power unless g is (bi)regular.
    """
    if flags is None:
        flags = []
        for _ in _record_walk_flags(g, _matrix_powers(g, g.n - 1), flags):
            if not (flags[0] or flags[2]):
                break
    diag_const, edge_const, part_const = flags
    parts = bipartition(g)

    if diag_const:
        label = "1-walk-regular" if edge_const else "walk-regular-only"
    elif parts is not None and part_const:
        label = "1-walk-biregular" if edge_const else "walk-biregular-only"
    else:
        label = "neither"
    return WalkClassification(
        label=label,
        walk_regular=diag_const,
        one_walk_regular=diag_const and edge_const,
        bipartite=parts is not None,
        walk_biregular=part_const if parts is not None else None,
        one_walk_biregular=(part_const and edge_const) if parts is not None else None,
    )


def signed_line_graph_walk_regular(g: Graph, o: Orientation | None = None) -> bool:
    """True iff diag((2I + A_sigma)^p) is constant for p = 1..m.

    The edge count m bounds the degree of the minimal polynomial of B^T B,
    and the verdict is orientation-independent (switching invariance).
    """
    M = signed_line_graph(g, o) + 2 * np.eye(g.m, dtype=np.int64)
    return all(len(set(P.diagonal())) == 1 for P in mat_pow_stream(M, g.m))


@dataclass(frozen=True)
class RigidityReport:
    """Verdicts from every decider, plus the structural classifications.

    spectrum and isometry (unit weights) back the float_embedding verdict.
    tree_count, the exact spanning-tree count from the walk stream's traces,
    is not part of to_dict.
    """

    edge_rigid: bool
    verdicts: dict[str, bool]
    walk_constants: tuple[int, ...] | None
    witness: WalkWitness | None
    cospectrality_classes: tuple[tuple[int, ...], ...]
    degree_class: DegreeClassification
    walk_class: WalkClassification
    spectrum: Spectrum
    isometry: IsometryCheck
    tree_count: int

    @property
    def gammas(self) -> tuple[float, ...]:
        return self.isometry.gammas

    def to_dict(self) -> dict:
        return {
            "edge_rigid": self.edge_rigid,
            "verdicts": dict(self.verdicts),
            "walk_constants": list(self.walk_constants) if self.walk_constants else None,
            "witness": self.witness.to_dict() if self.witness else None,
            "cospectrality_classes": [list(c) for c in self.cospectrality_classes],
            "degree_class": self.degree_class.to_dict(),
            "walk_class": self.walk_class.to_dict(),
            "gammas": list(self.gammas),
            "float_tol": self.isometry.tol,
        }


def full_report(g: Graph, tol: float = 1e-8) -> RigidityReport:
    """Run every decider and assemble the cross-checked report.

    The walk stream is computed once, at full depth; the walk criterion,
    the cospectrality classes, the signed-line-graph verdict, walk_class's
    flags and the exact tree count (from its traces) all come from it, the
    last two as the powers pass; no power is kept. All five verdicts must
    agree or InternalInconsistencyError is raised. tol, the float embedding
    test's tolerance, must be finite and > 0.
    """
    check_tol(tol)
    traces: list[int] = []
    flags: list[bool] = []
    powers = _record_walk_flags(g, _record_traces(_matrix_powers(g, g.n - 1), traces), flags)
    walks = list(_walk_stream(g, g.n - 1, powers))
    wc = _walk_criterion(g, walks)
    classes = _profile_classes(g, walks)
    wclass = walk_class(g, flags)
    s = spectrum(laplacian(g).astype(float))
    iso = edge_isometry_check(g, s, tol)
    verdicts = {
        "walk_criterion": wc.rigid,
        "cospectrality": len(classes) == 1,
        # diag((2I + A_sigma)^p) for p = 1..m is w_0..w_{m-1}
        "signed_line_graph": all(_constant(raw, g.m) for raw in walks[: g.m]),
        "walk_regularity_class": wclass.label in ("1-walk-regular", "1-walk-biregular"),
        "float_embedding": iso.all_constant,
    }
    if len(set(verdicts.values())) > 1:
        raise InternalInconsistencyError(
            f"equivalent deciders disagree on edge-rigidity: {verdicts}"
        )

    return RigidityReport(
        edge_rigid=wc.rigid,
        verdicts=verdicts,
        walk_constants=wc.constants,
        witness=wc.witness,
        cospectrality_classes=classes,
        degree_class=degree_classification(g),
        walk_class=wclass,
        spectrum=s,
        isometry=iso,
        tree_count=_tree_count(traces, max(g.degrees)),
    )
