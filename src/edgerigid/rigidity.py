"""Exact combinatorial deciders for edge-rigidity, cross-checked in one report.

A connected graph is edge-rigid exactly when the walk stream
w_l = adjoint(L^l) is constant over edges for l = 0..n-1. With z_e the
incidence vector of edge e = (a, b),

    w_l(e) = z_e^T L^l z_e = (L^l)_aa + (L^l)_bb - 2 (L^l)_ab.

It is computed from powers of M = Delta I - L = A + diag(Delta - deg), Delta
the maximum degree, as c_l(e) = z_e^T M^l z_e; L = Delta I - M gives
w_l = sum_{i<=l} C(l, i) Delta^(l-i) (-1)^i c_i, a unit-triangular map, so
c_0..c_l are constant exactly when w_0..w_l are. It is one difference table
(_differences): row 0 is c_0, c_1, .., and row l + 1 is Delta x_i - x_(i+1)
for the entries x_i of row l, so row l holds z_e^T L^l M^i z_e and starts
with w_l. N terms take N(N - 1)/2 products by Delta and as many
subtractions, no product of two big integers. _walk_stream holds the rows
of M^l, (M^l)_uv in slot pos(v) of row u: one numpy integer array while a
slot fits 8 bytes, packed Python ints past that, and on a regular bipartite
graph one chain of n/2 rows of n/2 slots. M is nonnegative with row sums at
most Delta, so 0 <= (M^l)_uv <= Delta^l and |c_l(e)| <= 2 Delta^l: slots of
k >= bitlen(2 Delta^l) + 1 bits decode uniquely; k grows with l. The stream
to depth n - 1 takes n - 1 applications of M, R_u <- sum_{v ~ u} R_v +
(Delta - deg u) R_u, with one sum per class of twins.
``decide_edge_rigid_exact`` often stops sooner, on a certificate read from
the c_l themselves. Over the eigenvalues t of L with multiplicities m_t,
m c_l = tr(M^l L) = sum_t m_t t (Delta - t)^l. A monic integer q of degree D
that annihilates the constants c_0..c_{2D} gives H q = 0 for the Hankel
matrix H = [m c_{i+k}] = [tr(M^(i+k) L)], so q^T H q = sum_t m_t t
q(Delta - t)^2 = 0 and q(Delta - t) = 0 at every nonzero t. z_e is
orthogonal to the kernel of L, so q(M) z_e = 0 and every c_l(e) follows q's
recurrence, which carries constancy to every power. The roots Delta - t are
distinct exactly when the t are, so a rigid graph with d' distinct nonzero
eigenvalues is certified after min(2d', n - 1) applications. The C_l are
formed only when read. Two identities turn other deciders into functions of
that stream:

- char(L - L_e) - char(L) has coefficients sum_{i<=k} p_i w_{k-i}(e), where
  p_i are those of char(L). The map is unit-triangular, so two edges are
  Laplacian-cospectral exactly when their profiles (w_0..w_{n-1})(e), or
  equally (c_0..c_{n-1})(e), agree;
- diag((2I + A_sigma)^p)_e = w_{p-1}(e) for every orientation sigma, so the
  signed line graph is walk-regular exactly when the stream is constant.

_walk_stream yields, per power, the diagonal slots of M^l, its slots
(M^l)_ab over the edges and c_l, all from one gather. ``full_report`` reads
it in one loop (_read): the walk criterion, the cospectrality classes and
the signed-line-graph verdict come from the c_l, walk_class's flags from the
diagonal and edge slots, and the exact spanning-tree count from the traces
p_l = tr(M^l) = sum_t m_t (Delta - t)^l, t = 0 included, the sums of the
diagonal slots. The argument above stops the loop: m_0 = 1 on a connected
graph, so a monic integer q' of degree D that annihilates
p_l - Delta^l = sum_{t != 0} m_t (Delta - t)^l, l = 0..2D, gives q(M) = 0
for q = (x - Delta) q'. The flags and profiles read are final, and q extends
the traces and walk constants to power n - 1. It is tried once, at power
2(r - 1) for the float spectrum's r groups: min(2d', n - 1) applications,
as in decide, when r - 1 = d'. Newton's identities,
k a_k = -sum_{i=1..k} a_{k-i} p_i with exact divisions, give the
coefficients a_k of x^(n-k) in char_M(x) = det(xI - M). As
char_L(x) = (-1)^n char_M(Delta - x) and the coefficient of x in char_L is
(-1)^(n-1) n tau,

    n tau = char_M'(Delta) = sum_{k<n} (n - k) a_k Delta^(n-1-k),

one Horner pass; a_n = (-1)^n det M is never needed. full_report adds the
floating-point edge-isometry check and insists that all five verdicts agree;
a disagreement is an implementation bug, never a mathematical outcome.
walk_class's flags, defined on powers of A, are read from those of M. On a
regular graph M = A. On a bipartite biregular graph with degrees
d_1 < Delta, M = [[cI, B], [B^T, 0]] with c = Delta - d_1 >= 1; the diagonal
blocks of M^(2j) are monic of degree j in BB^T or B^T B, the edge block of
M^(2j+1) is (monic of degree j in BB^T) B, and other blocks are integer
polynomials of no higher degree, such as c^3 + 2c BB^T in M^3: constancy
through l = n - 1 is the same on M and A. Any other graph fails both
diagonal flags at l <= 2 on either stream, and then the edge flag
reaches no field of WalkClassification. The independent references,
``exactmat.adjugate_quadratic_form`` and the m x m power loop of
``signed_line_graph_walk_regular`` (canonical orientation; the tests run
the same loop on random switchings D A_sigma D), are checked against the
stream in tests/test_stream_oracles.py on the corpus and on seeded random
graphs. The brute-force oracles live in tests/oracles.py, outside the package.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import InternalInconsistencyError
from .exactmat import mat_pow_stream
from .graphs import (
    DegreeClassification,
    Edge,
    Graph,
    bipartition,
    degree_classification,
    laplacian,
    signed_line_graph,
)
from .spectral import FLOAT_TOL, IsometryCheck, Spectrum, edge_isometry_check, spectrum

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
    """Constants c_0..c_lmax of c_l = z_e^T M^l z_e, M = delta I - L, or a witness.

    constants, the C_l of w_l = adjoint(L^l), is formed on first read, as
    the first column of the difference table on shifted (_unshift). proved
    says whether the verdict is a proof: a witness always is; constants are
    when they reach power n - 1 or a recurrence certificate produced them.
    """

    rigid: bool
    shifted: tuple[int, ...] | None
    delta: int
    witness: WalkWitness | None
    proved: bool

    @cached_property
    def constants(self) -> tuple[int, ...] | None:
        return None if self.shifted is None else _unshift(self.shifted, self.delta)


def _differences(shifted: Iterable[int], delta: int) -> Iterator[int]:
    """sum_{i<=l} C(l, i) delta^(l-i) (-1)^i c_i for l = 0, 1, .., from c_0, c_1, ..

    The first column of the difference table whose row 0 is the c_i and
    whose row l + 1 is delta x_i - x_(i+1) for the entries x_i of row l.
    """
    row = list(shifted)
    while row:
        yield row[0]
        row = [delta * x - y for x, y in zip(row, row[1:])]


def _unshift(shifted: tuple[int, ...], delta: int) -> tuple[int, ...]:
    """The walk constants C_l of w_l = adjoint(L^l) from the c_l of M = delta I - L."""
    return tuple(_differences(shifted, delta))


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


def _slot_masks(width: int, rows, slots, size: int) -> list[int]:
    """Per row u < width of width slots of size bytes, all ones in slots[i] where rows[i] == u.

    Each kept slot is OR-ed into its row's int, so no more than a row is held beside the masks.
    """
    ones, masks = (1 << 8 * size) - 1, [0] * width
    for u, s in zip(rows.tolist(), slots.tolist()):
        masks[u] |= ones << 8 * size * s
    return masks


def _pack(slots: np.ndarray, size: int) -> np.ndarray:
    """Object array of packed rows of size-byte slots from uint8 (rows, count, k <= size)."""
    wide = np.zeros(slots.shape[:2] + (size,), dtype=np.uint8)
    wide[..., : slots.shape[2]] = slots
    return np.array(_split(wide.tobytes(), len(slots)), dtype=object)


def _widen(rows: np.ndarray, count: int, size: int, new_size: int) -> np.ndarray:
    """Re-pack _pack's rows of count unsigned slots from size to new_size bytes."""
    buf = b"".join(r.to_bytes(count * size, "little") for r in rows)
    return _pack(np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), count, size), new_size)


def _block_sum(X: np.ndarray, block: np.ndarray) -> np.ndarray:
    """X[block[0]] + X[block[1]] + ..., for the rows of X."""
    return X[block[0]] if len(block) == 1 else np.add.reduce(X[block], 0, X.dtype)


def _word_sums(X: np.ndarray, table: list[list[np.ndarray]]) -> np.ndarray:
    """For the rows of X, the sum of X[v] over v in each neighbourhood.

    X is an integer array of one row per vertex, or a 1-D object array of
    packed ints, one per row; numpy adds object entries as Python ints. The
    neighbourhoods are grouped by size: table holds, per size d, the
    (d, count) array of their members cut along its first axis into blocks,
    nnz rows in all. Each block is gathered and summed on its own, so no
    temporary is larger than a block. The sums follow table's order.
    """
    sums = []
    for blocks in table:
        s = _block_sum(X, blocks[0])
        for block in blocks[1:]:
            s += _block_sum(X, block)
        sums.append(s)
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


def _le_bytes(X: np.ndarray) -> np.ndarray:
    """The entries of the integer array X as little-endian bytes, on a new last axis."""
    k = X.itemsize
    return np.asarray(X, f"<i{k}").view(np.uint8).reshape(X.shape + (k,))


def _word_slots(X: np.ndarray, rows, slots, size: int) -> np.ndarray:
    """X[rows[i], slots[i]], each in [0, 2^(8 size)), as a uint8 array of one slot per row."""
    return _le_bytes(X[rows, slots])[:, :size]


def _slot_bytes(r: int, l: int) -> int:
    """Bytes per slot for signed values up to 2 r^l in absolute value."""
    return ((2 * r**l).bit_length() + 8) // 8


def _row_colors(n: int, rows, slots) -> list[int]:
    """Colours of the rows u < n that keep the slots slots[i] with rows[i] == u.

    Rows of one colour keep distinct slots, and every row keeps one or more.
    Rows are coloured greedily in order, with the colours taken at each slot
    kept as a bit set. On one side, where row u keeps slot u and the slots
    b > u of its edges (u, b), a cycle takes 3 colours and K_n takes n.
    """
    needs: list[list[int]] = [[] for _ in range(n)]
    for u, s in zip(rows, slots):
        needs[u].append(s)
    taken = [0] * n
    colors = []
    for need in needs:
        busy = 0
        for s in need:
            busy |= taken[s]
        c = (~busy & (busy + 1)).bit_length() - 1  # lowest colour not in busy
        for s in need:
            taken[s] |= 1 << c
        colors.append(c)
    return colors


def _masked_slots(rows: list[int], masks: list[int], groups, size: int, width: int) -> np.ndarray:
    """The slots the masks keep, as a uint8 array of one slot per row.

    groups[c] lists the rows of colour c. Row c width + s holds slot s of
    rows[u] for every slot s that masks[u] keeps; rows of one colour keep
    distinct slots, so they are OR-ed into one int, and one int of width
    slots per colour is converted to bytes.
    """
    merged = []
    for group in groups:
        x = 0
        for u in group:
            x |= rows[u] & masks[u]
        merged.append(x.to_bytes(width * size, "little"))
    return np.frombuffer(b"".join(merged), dtype=np.uint8).reshape(-1, size)


def _walk_stream(g: Graph, lmax: int) -> Iterator[tuple[np.ndarray, np.ndarray, bytes]]:
    """Yield (diag, ab, c_l) for l = 0..lmax, M = Delta I - L.

    diag holds the n slots diag(M^l) and ab the m slots (M^l)_ab over the
    edges (a, b): uint8 arrays, one row per unsigned slot. c_l(e) =
    (M^l)_aa + (M^l)_bb - 2 (M^l)_ab is one sum of packed ints plus the
    offset 2^(8 size - 1) per slot, built once per slot size, as m
    little-endian slots of equal size (_signed_slots): |c_l(e)| <= 2 Delta^l
    fits the slot. The stream keeps rows of M^l, (M^l)_uv in slot pos(v) of
    row u, pos(v) being v's place within its side. A regular bipartite graph
    has two sides, its colour classes; any other graph one, of all n
    vertices in vertex order, and row u is kept for every u. A walk on a
    regular bipartite graph changes side at every step, so there one chain
    is kept: the n/2 rows of the vertices u on side l mod 2, in pos order,
    each of the n/2 slots of side 0.

    Row u of M^(l+1) is sum_{v ~ u} R_v + (Delta - deg u) R_u for the rows
    R of M^l. Twins, vertices with one neighbourhood, share one sum: one
    _word_sums call per power sums each neighbourhood size's rows in blocks
    of at most max(width^2, 2^16) entries, at most nnz(A) - n row additions,
    nnz(A)/2 - n/2 on a chain, a + b - 2 on K_{a,b} and a - 1 on K_{a,a},
    and one reindex hands each twin its class's sum. When the next power
    needs wider slots (_slot_bytes), they grow before the application, to
    twice their size or to what power lmax needs if that is less. While they
    fit 8 bytes, 2 Delta^l < 2^63, the rows are one integer array of the
    narrowest width (int8 to int64) that holds a slot, from the identity on,
    and the gather is one fancy index (_word_slots). At the first power that
    needs 9 bytes the array is packed once into a 1-D object array, row u
    one int with (M^l)_uv in unsigned slot pos(v), so that CPython's limb
    loops do the inner dimension; the rows are coloured there and masks
    built at every slot size, and a gather costs two big-int operations per
    row, one conversion to bytes per colour and one take (_masked_slots).
    The yielded bytes are the same either way. The lift (Delta - deg u) R_u
    is kept two ways, as full-depth streams measured on a 2-core x86-64 VM:
    one dense product on the integer array, where lifting by index made a
    random tree with n = 30 x1.19 slower, and one big-int product per lifted
    row on packed ints, where a dense product, with a zero product and a
    copy for every unlifted row, made P300 x1.52 slower. M^(l+1) is
    computed once power l is consumed.

    On one side the gather takes the diagonal and (M^l)_ab from row a, n + m
    slots, and (M^l)_aa and (M^l)_bb are read off the diagonal. On a chain
    the diagonal is zero at odd l, and (M^l)_ab is gathered from the row of
    the end on side 1, at the slot of the end on side 0. At even l (M^l)_ab
    is zero, and M = A gives diag(M^l)_v = sum_{e ~ v} (M^(l-1))_e. When one
    _constant compare finds every edge value of power l - 1 equal to x,
    every diagonal slot is d x and c_l = 2 d x: no sum and no gather.
    Otherwise d layer ints, layer i holding every vertex's i-th edge value
    of power l - 1 widened to this power's slots, are summed, at most
    Delta^l a slot so that none carries, and (M^l)_aa and (M^l)_bb are read
    off the sum. Only a graph that is not edge-rigid gets there, after
    decide has stopped with a witness.
    """
    n, m = g.n, g.m
    delta = max(g.degrees)
    color, odd, _ = g._search
    sides = 1 if odd or min(g.degrees) < delta else 2
    side = [0] * n if sides == 1 else list(color)
    count, pos = [0, 0], []
    for s in side:
        pos.append(count[s])
        count[s] += 1
    width = n // sides
    steps = []  # per side: _word_sums' table, and each row's place in its sums
    for s in range(sides):
        twins: dict[tuple[int, ...], int] = {}
        classes = [twins.setdefault(nb, len(twins)) for nb, t in zip(g.neighbors, side) if t == s]
        hoods = tuple(twins) if sides == 1 else tuple(tuple(pos[v] for v in nb) for nb in twins)
        sizes: dict[int, list[int]] = {}  # classes by neighbourhood size, and their place in table
        for c, nb in enumerate(hoods):
            sizes.setdefault(len(nb), []).append(c)
        table = []  # per size, its (d, count) members in blocks of step x count rows
        for cs in sizes.values():
            members = np.array([hoods[c] for c in cs]).T
            # one block per size on a sparse graph; no temporary much larger than X on a dense one
            step = max(1, max(width * width, 1 << 16) // (len(cs) * width))
            table.append([members[i : i + step] for i in range(0, len(members), step)])
        place = {c: i for i, c in enumerate(c for cs in sizes.values() for c in cs)}
        order = [place[c] for c in classes]
        steps.append((table, None if order == sorted(place) else np.array(order)))
    lifted = [(u, delta - d) for u, d in enumerate(g.degrees) if d < delta]
    # one side only, as a regular graph lifts no row; Delta - deg fits every power's dtype
    lift = np.array([[delta - d] for d in g.degrees], np.min_scalar_type(-delta))
    a, b = g._edge_ends
    ends = np.concatenate([a, b])
    if sides == 1:
        # diag(M^l), then (M^l)_ab: row u keeps its slot u and the slot b of each edge (u, b)
        rows, slots = (np.concatenate([np.arange(n), e]) for e in (a, b))
    else:
        side, pos = np.array(side), np.array(pos)
        r = np.where(side[a] == 1, a, b)
        rows, slots = pos[r], pos[a + b - r]
        layers = np.argsort(ends, kind="stable").reshape(n, -1).T % m  # i: each vertex's i-th edge
    X, size, half = np.eye(width, dtype=np.int8), 1, _repeat(1 << 7, 1, m)
    for l in range(lmax + 1):
        if l:
            need = _slot_bytes(delta, l)
            if need > size:
                new_size = min(max(need, 2 * size), _slot_bytes(delta, lmax))
                if X.dtype == object:
                    X = _widen(X, width, size, new_size)
                elif new_size > 8:
                    X = _pack(_le_bytes(X), new_size)
                    colors = _row_colors(width, rows.tolist(), slots.tolist())
                    groups = [[] for _ in range(max(colors) + 1)]
                    for u, c in enumerate(colors):
                        groups[c].append(u)
                    at = np.array(colors)[rows] * width + slots
                else:
                    X = X.astype(f"<i{1 << (new_size - 1).bit_length()}")
                size, half = new_size, _repeat(1 << 8 * new_size - 1, new_size, m)
                if X.dtype == object:
                    masks = _slot_masks(width, rows, slots, size)
            table, order = steps[l % sides]
            sums = _word_sums(X, table)
            if order is not None:
                sums = sums[order]
            if X.dtype == object:
                for u, d in lifted:
                    sums[u] += d * X[u]
            elif lifted:
                sums += lift * X
            X = sums
        k = m * size
        if sides == 1 or l % 2:
            G = (_word_slots(X, rows, slots, size) if X.dtype != object
                 else _masked_slots(X.tolist(), masks, groups, size, width).take(at, axis=0))
        if sides == 2 and l % 2:
            diag, ab = np.zeros((n, size), np.uint8), G
            c = half - 2 * int.from_bytes(ab.tobytes(), "little")
        elif sides == 2 and l and _constant(ab.tobytes(), m):
            # every edge value of power l - 1 is x: diag(M^l) = d x and c_l = 2 d x
            dx = g.degrees[0] * int.from_bytes(ab[0].tobytes(), "little")
            diag = np.frombuffer(dx.to_bytes(size, "little") * n, np.uint8).reshape(n, size)
            ab = np.zeros((m, size), np.uint8)
            c = _repeat(2 * dx + (1 << 8 * size - 1), size, m)
        else:
            if sides == 1:
                diag, ab = G[:n], G[n:]
            else:
                diag = np.ones((n, 1), np.uint8)  # M^0 = I
                if l:
                    wide = np.zeros((len(layers), n, size), np.uint8)
                    wide[..., : ab.shape[1]] = ab[layers]  # the edge values of power l - 1
                    total = sum(_split(wide.tobytes(), len(layers))).to_bytes(n * size, "little")
                    diag = np.frombuffer(total, np.uint8).reshape(n, size)
                ab = np.zeros((m, size), np.uint8)
            raw = diag.take(ends, axis=0).tobytes()
            c = (int.from_bytes(raw[:k], "little") + int.from_bytes(raw[k:], "little") + half
                 - 2 * int.from_bytes(ab.tobytes(), "little"))
        yield diag, ab, c.to_bytes(k, "little")


def _trace(diag: np.ndarray) -> int:
    """tr(M^l): diag's byte columns summed in int64 (each below 256 n), shifted into place."""
    cols = diag.sum(axis=0, dtype=np.int64).tolist()
    return sum(c << 8 * j for j, c in enumerate(cols))


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
        self.length, self.shift, self.inverse = 0, 1, 1  # inverse: of prev's discrepancy

    def push(self, x: int) -> None:
        p = _PRIME
        self.residues.append(x % p)
        d = sum(c * r for c, r in zip(self.conn, reversed(self.residues))) % p
        if d == 0:
            self.shift += 1
            return
        f = d * self.inverse % p
        conn = self.conn + [0] * (len(self.prev) + self.shift - len(self.conn))
        for i, b in enumerate(self.prev, self.shift):
            conn[i] = (conn[i] - f * b) % p
        if 2 * self.length < len(self.residues):
            self.prev, self.inverse = self.conn, pow(d, -1, p)
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


def _certify(terms: list[int], rec: _Recurrence) -> list[int] | None:
    """rec's lifted recurrence, once fed all terms, if it generates them and 2D < len(terms)."""
    for x in terms[len(rec.residues) :]:
        rec.push(x)
    if 2 * rec.length >= len(terms):
        return None
    lam = rec.coeffs()
    ok = all(_predict(terms, lam, l) == terms[l] for l in range(len(lam), len(terms)))
    return lam if ok else None


def _trace_recurrence(traces: list[int], delta: int) -> list[int] | None:
    """The recurrence of q = (x - Delta) q' with q(M) = 0, q' proved by p_l - Delta^l, or None."""
    lam = _certify([p - delta**l for l, p in enumerate(traces)], _Recurrence())
    return lam and [a - delta * b for a, b in zip(lam + [0], [1] + lam)]


def _walk_criterion(g: Graph, walks: Iterable[bytes], lmax: int, lam=None) -> WalkCriterion:
    """Constants c_0..c_lmax of _walk_stream's walks c_l, or the first non-constant power's witness.

    At the first non-constant power l, w_l(e) = (-1)^l c_l(e) + K_l with
    K_l = sum_{i<l} C(l, i) Delta^(l-i) (-1)^i c_i, the last first-column
    entry of the difference table on (c_0, .., c_(l-1), 0): l(l + 1)/2
    products by Delta and as many subtractions (_differences). Reading
    stops as soon as the recurrence of D lifted Berlekamp-Massey
    coefficients exactly generates the 2D + 1 or more c_l read so far, which
    it then extends to power lmax. This is a proof (module docstring), so the
    extended constants are those the stream would have given. A certificate
    fires at a power p >= 2D >= 2 d' >= 2 diam(G) >= 2 ecc(0), because
    I, L, .., L^diam are independent, and one that fires at p = lmax >= n - 1
    returns what reading to lmax returns. So nothing is pushed into
    Berlekamp-Massey before power 2 ecc(0), and nothing at all where no
    other p is left, as on C_n and P_n. Given lam, a recurrence that M
    satisfies (_trace_recurrence), nothing is pushed: lam extends the walks.
    """
    delta = max(g.degrees)
    shifted: list[int] = []
    rec = _Recurrence()
    reach = 2 * g._search[2]  # 2 ecc(0)
    certify = reach <= lmax and reach < max(lmax, g.n - 1)
    for power, raw in enumerate(walks):
        if not _constant(raw, g.m):
            sign = -1 if power % 2 else 1
            *_, k = _differences(shifted + [0], delta)
            vals = [k + sign * c for c in _signed_slots(raw, g.m)]
            lo, hi = vals.index(min(vals)), vals.index(max(vals))
            witness = WalkWitness(power, g.edges[lo], g.edges[hi], vals[lo], vals[hi])
            return WalkCriterion(False, None, delta, witness, True)
        size = len(raw) // g.m
        shifted.append(int.from_bytes(raw[:size], "little") - (1 << 8 * size - 1))
        if not lam and certify and power >= reach:
            lam = _certify(shifted, rec)
            if lam:
                break
    if lam:
        while len(shifted) <= lmax:
            shifted.append(_predict(shifted, lam, len(shifted)))
        return WalkCriterion(True, tuple(shifted), delta, None, True)
    return WalkCriterion(True, tuple(shifted), delta, None, len(shifted) >= g.n)


def _profile_classes(g: Graph, walks: list[bytes]) -> tuple[tuple[int, ...], ...]:
    """Group edge indices by their walk profile (w_0(e), .., w_last(e)).

    A power constant over the edges separates none of them, so an edge's key
    is its row of slot bytes in the other powers only; when every power is
    constant there is one class. Classes come in the order of first edges.
    """
    varying = [raw for raw in walks if not _constant(raw, g.m)]
    if not varying:
        return (tuple(range(g.m)),)
    rows = np.hstack([np.frombuffer(raw, np.uint8).reshape(g.m, -1) for raw in varying])
    buckets: dict[bytes, list[int]] = {}
    for e, key in enumerate(rows.view(f"V{rows.shape[1]}")[:, 0].tolist()):
        buckets.setdefault(key, []).append(e)
    return tuple(tuple(c) for c in buckets.values())


def decide_edge_rigid_exact(g: Graph, max_power: int | None = None) -> WalkCriterion:
    """Exact integer decider: adjoint(L^l) constant for l = 0..max_power.

    max_power defaults to n - 1, which is sufficient because the minimal
    polynomial of L has degree at most n; a smaller value checks only a
    prefix, which is not a proof of rigidity. Returns the constants c_l of
    the stream of M = Delta I - L on success, or the first offending power
    with a witness edge pair of w. The walk constants C_l of w are formed
    only if .constants is read. The stream stops early on the recurrence
    certificate of the module docstring, so a rigid graph with d' distinct
    nonzero eigenvalues costs min(2d', n - 1) applications of M.
    """
    if max_power is not None and max_power < 0:
        raise ValueError(f"max_power must be >= 0, got {max_power}")
    lmax = g.n - 1 if max_power is None else max_power
    return _walk_criterion(g, (c for _, _, c in _walk_stream(g, lmax)), lmax)


def cospectrality_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition edge indices into Laplacian-cospectrality classes.

    Edges are grouped by their walk profiles, which determine char(L - L_e)
    and are determined by it. One class means all edges are pairwise
    Laplacian-cospectral, which is equivalent to edge-rigidity. The profiles
    are read to _read's certified stop, which fixes every later power.
    """
    return _profile_classes(g, [c for _, c, _, _ in _read(g)])


@dataclass(frozen=True)
class WalkClassification:
    label: str
    walk_regular: bool
    one_walk_regular: bool
    bipartite: bool
    walk_biregular: bool | None  # None when the graph is not bipartite
    one_walk_biregular: bool | None

    def to_dict(self) -> dict:
        return asdict(self)


def _walk_flags(g: Graph, parts, diag: np.ndarray, ab: np.ndarray, flags: tuple) -> tuple:
    """walk_class's flags after one more power of _walk_stream, and its trace tr(M^l).

    flags: diag, (M^l)_ab, and diag on each side of the bipartition parts
    (False if there is none) were constant in every power so far; each test
    compares bytes. A constant diagonal gives the trace as n times its first
    slot and every side's flag; the edge slots are read only while theirs holds.
    """
    diag_const, edge_const, part_const = flags
    raw = diag.tobytes()
    level = _constant(raw, g.n)
    flags = (
        diag_const and level,
        edge_const and _constant(ab.tobytes(), g.m),
        part_const and (level or all(_constant(diag.take(p, 0).tobytes(), len(p)) for p in parts)),
    )
    return flags, g.n * int.from_bytes(raw[: len(raw) // g.n], "little") if level else _trace(diag)


def _read(g: Graph, r: int | None = None) -> Iterator[tuple]:
    """Per power l of _walk_stream: walk_class's flags so far, c_l, the traces p_0..p_l, and lam.

    r, the unit spectrum's group count, only schedules one try of
    _trace_recurrence, at power 2(r - 1) < n - 1. When it proves q(M) = 0,
    every later power of M follows q's recurrence lam, so the flags and
    profiles read are final: that power comes with lam and the traces
    extended to power n - 1, and reading stops; otherwise lam is None. A
    wrong r costs time, never a verdict. Without r, the spectrum is taken at
    power 2 if 2 ecc(0) < n - 1, as r - 1 = d' >= diam(G) >= ecc(0).
    """
    stop = 2 * r - 2 if r else None
    parts = bipartition(g)
    flags = True, True, parts is not None
    traces: list[int] = []
    for l, (diag, ab, c) in enumerate(_walk_stream(g, g.n - 1)):
        if stop is None and l == 2 and 2 * g._search[2] < g.n - 1:
            stop = 2 * spectrum(laplacian(g).astype(float)).r - 2
        flags, p = _walk_flags(g, parts, diag, ab, flags)
        traces.append(p)
        lam = _trace_recurrence(traces, max(g.degrees)) if l == stop < g.n - 1 else None
        while lam and len(traces) < g.n:
            traces.append(_predict(traces, lam, len(traces)))
        yield flags, c, traces, lam
        if lam:
            return


def _classify(parts, diag_const: bool, edge_const: bool, part_const: bool) -> WalkClassification:
    """The WalkClassification that the flags of _walk_flags give."""
    if diag_const:
        label = "1-walk-regular" if edge_const else "walk-regular-only"
    elif part_const:
        label = "1-walk-biregular" if edge_const else "walk-biregular-only"
    else:
        label = "neither"
    if parts is None:
        return WalkClassification(label, diag_const, diag_const and edge_const, False, None, None)
    return WalkClassification(
        label, diag_const, diag_const and edge_const, True, part_const, part_const and edge_const
    )


def walk_class(g: Graph) -> WalkClassification:
    """Exact walk-regularity classification, defined on adjacency powers A^l.

    Checks l = 0..n-1: walk-regular means diag(A^l) is globally constant;
    1-walk-regular additionally has (A^l)_ab constant over edges.
    Walk-biregular graphs have diag(A^l) constant on each side of the
    bipartition; the biregular tests are skipped for non-bipartite input.
    The flags come from the walk stream's powers of M = Delta I - L, which
    give those of A (module docstring). The loop stops once both diagonal
    flags fail, after one power unless g is (bi)regular, or at _read's
    certified stop.
    """
    for flags, _, _, _ in _read(g):
        if not (flags[0] or flags[2]):
            break
    return _classify(bipartition(g), *flags)


def signed_line_graph_walk_regular(g: Graph) -> bool:
    """True iff diag((2I + A_sigma)^p) is constant for p = 1..m.

    The edge count m bounds the degree of the minimal polynomial of B^T B.
    A_sigma is taken in the canonical orientation, each edge (a, b), a < b,
    directed from b to a. That suffices: reversing edges is a switching,
    A_sigma -> D A_sigma D with D = diag(+-1), and diag(D M^p D) = diag(M^p).
    """
    M = signed_line_graph(g) + 2 * np.eye(g.m, dtype=np.int64)
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
            "float_tol": FLOAT_TOL,
        }


def full_report(g: Graph) -> RigidityReport:
    """Run every decider and assemble the cross-checked report.

    The unit spectrum comes first, and one loop (_read) reads the walk
    stream: it keeps the walks c_l and the traces tr(M^l), and updates
    walk_class's flags, as the powers pass; no power is kept. It stops at
    power 2(r - 1), r the spectrum's group count, when the traces read prove
    q(M) = 0 (module docstring), and at power n - 1 otherwise. The walk
    criterion, the cospectrality classes and the signed-line-graph verdict
    come from the walks, the exact tree count from the traces; past a stop,
    q extends the walk constants and the traces. All five verdicts must
    agree or InternalInconsistencyError is raised.
    """
    s = spectrum(laplacian(g).astype(float))
    walks: list[bytes] = []
    for flags, c, traces, lam in _read(g, s.r):
        walks.append(c)
    wc = _walk_criterion(g, walks, g.n - 1, lam)
    classes = _profile_classes(g, walks)
    wclass = _classify(bipartition(g), *flags)
    iso = edge_isometry_check(g, s)
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
