"""Exact combinatorial deciders for edge-rigidity, cross-checked in one report.

A connected graph is edge-rigid exactly when the walk stream
w_l = adjoint(L^l) is constant over edges for l = 0..n-1. With z_e the
incidence vector of edge e = (a, b),

    w_l(e) = z_e^T L^l z_e = (L^l)_aa + (L^l)_bb - 2 (L^l)_ab.

It is computed in a basis of polynomials in M = Delta I - L =
A + diag(Delta - deg), Delta the maximum degree: P_0 = 1, P_1 = x and
P_(l+1) = x P_l - c P_(l-1) with c = floor(Delta^2 / 4), the Chebyshev
polynomials of the second kind scaled to [-Delta, Delta] (Mason and
Handscomb, Chebyshev Polynomials, 2003), as c'_l(e) = z_e^T P_l(M) z_e. The
P_l are monic, so (Delta - x)^l = sum_{i<=l} beta_(l,i) P_i(x) with
beta_(l,l) = (-1)^l: w_l = sum_i beta_(l,i) c'_i is unit-triangular with
the same coefficients on every edge, and c'_0..c'_l are constant exactly
when w_0..w_l are. It is one difference table (_differences): row 0 is
c'_0, c'_1, .., and row l + 1 is Delta x_i - x_(i+1) - c x_(i-1) for the
entries x_i of row l (x_(-1) = 0), so row l holds z_e^T L^l P_i(M) z_e and
starts with w_l; N terms take N(N - 1)/2 products by Delta and as many by
c. With c = 0 it is the binomial transform of powers of M, with Delta = 0
it turns tr(P_l(M)) into tr((-M)^l). M's eigenvalues lie in [-Delta,
Delta], where |P_l| <= P_l(Delta) <= Delta^l, P_l(Delta) = r^l +
r^(l-1) s + .. + s^l for the roots r >= s of x^2 - Delta x + c: so
|P_l(M)_uv| <= P_l(Delta), |c'_l(e)| <= 2 P_l(Delta), and slots of
k >= bitlen(2 P_l(Delta)) + 1 bits, each holding its value plus 2^(k - 1),
decode uniquely. A power adds about log2(Delta / 2) bits to k, where M^l
added log2(Delta); on C_n, P_l(2) = l + 1. The stream to depth n - 1 takes
n - 1 applications of M (_walk_stream), and ``decide_edge_rigid_exact``
often stops sooner, on a certificate read from the walk constants, which
the table forms one anti-diagonal a power. Over the eigenvalues t of L
with multiplicities m_t, m w_l = tr(L^(l+1)) = sum_t m_t t^(l+1). A monic
integer q of degree D that annihilates w_0..w_{2D} gives H q = 0 for the
Hankel matrix H = [m w_{i+k}], so q^T H q = sum_t m_t t q(t)^2 = 0 and
q(t) = 0 at every nonzero t. z_e is orthogonal to the kernel of L, so
q(L) z_e = 0 and every w_l(e) follows q's recurrence, which carries
constancy to every power: a rigid graph with d' distinct nonzero
eigenvalues is certified after min(2d', n - 1) applications. Two
identities turn other deciders into functions of the stream:

- char(L - L_e) - char(L) has coefficients sum_{i<=k} p_i w_{k-i}(e), where
  p_i are those of char(L). The map is unit-triangular, so two edges are
  Laplacian-cospectral exactly when their profiles (w_0..w_{n-1})(e), or
  equally (c'_0..c'_{n-1})(e), agree;
- diag((2I + A_sigma)^p)_e = w_{p-1}(e) for every orientation sigma, so the
  signed line graph is walk-regular exactly when the stream is constant.

_walk_stream yields, per power, the diagonal slots of P_l(M), its slots
P_l(M)_ab over the edges and c'_l, all from one gather. ``full_report``
reads it in one loop (_read): the walk criterion, the cospectrality classes
and the signed-line-graph verdict come from the c'_l, walk_class's flags
from the diagonal and edge slots, and the exact spanning-tree count from
the traces p_l = tr(M^l) = sum_t m_t (Delta - t)^l, t = 0 included, that
the table with Delta = 0 forms from the diagonal sums. The argument above
stops the loop: m_0 = 1 on a connected graph, so a monic integer q' of
degree D that annihilates p_l - Delta^l, l = 0..2D, gives q(M) = 0 for
q = (x - Delta) q', and L follows (-1)^(D+1) q(Delta - x) (_reflect). The
flags and profiles read are final, and q extends the traces and walk
constants to power n - 1. It is tried at every power from 2 ecc(0) below
n - 1, decide's rule (_stop_rule): min(2d', n - 1) applications, as in
decide. Newton's identities, k a_k = -sum_{i=1..k} a_{k-i} p_i with exact
divisions, give the coefficients a_k of x^(n-k) in char_M(x) = det(xI - M),
smaller than those of char_L (a seventh of the time on Q10). As char_L(x) =
(-1)^n char_M(Delta - x) and its coefficient of x is (-1)^(n-1) n tau,

    n tau = char_M'(Delta) = sum_{k<n} (n - k) a_k Delta^(n-1-k),

one Horner pass; a_n = (-1)^n det M is never needed. full_report adds the
floating-point edge-isometry check and insists that all five verdicts agree;
a disagreement is an implementation bug, never a mathematical outcome.
walk_class's flags, defined on powers of A, are read from the P_l(M), which
span what M^0..M^l span, unit-triangularly. On a regular graph M = A. On a
bipartite biregular graph with degrees d_1 < Delta, M = [[cI, B], [B^T, 0]]
with c = Delta - d_1 >= 1; the diagonal blocks of M^(2j) are monic of
degree j in BB^T or B^T B, the edge block of M^(2j+1) is (monic of degree j
in BB^T) B, and other blocks are integer polynomials of no higher degree,
such as c^3 + 2c BB^T in M^3: constancy through l = n - 1 is the same on M
and A. Any other graph fails both diagonal flags at l <= 2 on either
stream, and then the edge flag reaches no field of WalkClassification. The
independent references, ``exactmat.adjugate_quadratic_form`` and the m x m
power loop of ``signed_line_graph_walk_regular`` (canonical orientation;
the tests run the same loop on random switchings D A_sigma D), are checked
against the stream in tests/test_stream_oracles.py on the corpus and on
seeded random graphs. The brute-force oracles live in tests/oracles.py.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

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
    """The walk constants C_l of w_l = adjoint(L^l), l = 0..lmax, or a witness.

    shifted holds the c'_l = z_e^T P_l(M) z_e, M = delta I - L, of the powers
    the stream gave (module docstring); constants is formed on first read as
    the first column of the difference table on them (_unshift), unless a
    certified recurrence extended the C_l to power lmax already (certified).
    proved says whether the verdict is a proof: a witness always is;
    constants are when they reach power n - 1 or a certificate produced them.
    """

    rigid: bool
    shifted: tuple[int, ...] | None
    delta: int
    witness: WalkWitness | None
    proved: bool
    certified: tuple[int, ...] = ()

    @cached_property
    def constants(self) -> tuple[int, ...] | None:
        return self.shifted and (self.certified or _unshift(self.shifted, self.delta))


def _differences(terms: Iterable[int], delta: int, c: int) -> Iterator[int]:
    """First column of the difference table on x_0, x_1, .., one entry per term read.

    Row 0 is the terms and row l + 1 is delta x_i - x_(i+1) - c x_(i-1) for the entries x_i of
    row l, x_(-1) = 0: for x_i = f(P_i), f linear and P_(i+1) = x P_i - c P_(i-1), row l holds
    f((delta - x)^l P_i). Entry l comes from the last two anti-diagonals when term l is read.
    """
    last, prev = [], [0]  # the last anti-diagonal, the one before and x_(-1) = 0
    for x in terms:
        new = [x]
        for y, z in zip(last, prev):
            x = delta * y - x - c * z
            new.append(x)
        yield x
        prev, last = last + [0], new


def _unshift(shifted: tuple[int, ...], delta: int) -> tuple[int, ...]:
    """The walk constants C_l of w_l = adjoint(L^l) from the c'_l of P_l(M), M = delta I - L."""
    return tuple(_differences(shifted, delta, delta * delta // 4))


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
    """x times the int of count slots of size bytes that each hold 1."""
    return x * int.from_bytes(b"\1".ljust(size, b"\0") * count, "little")


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
    return X.take(block[0], 0) if len(block) == 1 else np.add.reduce(X.take(block, 0), 0, X.dtype)


def _word_sums(X: np.ndarray, table: list[list[np.ndarray]]) -> np.ndarray:
    """For the rows of X, the sum of X[v] over v in each neighbourhood.

    X is an integer array of one row per vertex, or a 1-D object array of
    packed ints, one per row. table holds, per neighbourhood size d, the
    (d, count) array of their members cut along its first axis into blocks;
    each block is gathered and summed on its own, so no temporary is larger
    than a block. The sums follow table's order.
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
    return np.asarray(X, f"<i{X.itemsize}").view(np.uint8).reshape(X.shape + (X.itemsize,))


def _word_slots(X: np.ndarray, at: np.ndarray, size: int) -> np.ndarray:
    """X.flat[at], each |x| < 2^(8 size - 1), as size little-endian bytes of x + 2^(8 size - 1):
    two's complement with the bits from 8 size - 1 up flipped, cut to size bytes."""
    return _le_bytes(X.take(at) ^ (-1 << 8 * size - 1))[:, :size]


def _slot_bytes(delta: int, l: int) -> int:
    """Bytes per slot for signed values up to 2 P_l(delta) in absolute value.

    P_l(delta) = r^l + r^(l-1) s + .. + s^l, r = ceil(delta / 2) and s = floor(delta / 2).
    """
    r, s = (delta + 1) // 2, delta // 2
    bound = (l + 1) * s**l if r == s else r ** (l + 1) - s ** (l + 1)
    return ((2 * bound).bit_length() + 8) // 8


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


def _masked_slots(rows: list[int], masks: list[int], groups, size: int, width: int,
                  add: int) -> np.ndarray:
    """The slots the masks keep, plus add's, as a uint8 array of one slot per row.

    groups[c] lists the rows of colour c. Row c width + s holds slot s of
    rows[u] for every slot s that masks[u] keeps; rows of one colour keep
    distinct slots, so they are added into one int that starts at add, and
    one int of width slots per colour is converted to bytes.
    """
    merged = []
    for group in groups:
        x = add
        for u in group:
            x += rows[u] & masks[u]
        merged.append(x.to_bytes(width * size, "little"))
    return np.frombuffer(b"".join(merged), dtype=np.uint8).reshape(-1, size)


def _filled(x: int, size: int, count: int) -> np.ndarray:
    """count slots of size bytes, each holding x plus 2^(8 size - 1), as uint8 (count, size)."""
    raw = (x + (1 << 8 * size - 1)).to_bytes(size, "little") * count
    return np.frombuffer(raw, np.uint8).reshape(count, size)


def _walk_stream(g: Graph, lmax: int) -> Iterator[tuple[np.ndarray, np.ndarray, bytes]]:
    """Yield (diag, ab, c'_l) for l = 0..lmax, c'_l(e) = z_e^T P_l(M) z_e, M = Delta I - L.

    diag holds the n slots diag(P_l(M)) and ab the m slots P_l(M)_ab over the
    edges (a, b): uint8 arrays, one row per slot, each holding its signed value
    plus 2^(8 size - 1), as c'_l(e) = P_aa + P_bb - 2 P_ab does, one sum of
    packed ints (_signed_slots). The stream keeps rows of P_l(M), P_l(M)_uv in
    slot pos(v) of row u. A regular bipartite graph keeps one chain: P_l has the
    parity of l, so the n/2 rows of side l mod 2 (its colour classes), each of
    the n/2 slots of side 0, hold all of it; any other graph keeps n rows on one
    side. The set-up sorts a key per vertex, its side in a chain or degree and
    then its neighbours from the Graph's arcs: each size comes together and
    twins (one neighbourhood) side by side, to share one sum; pos(v) is v's
    place in that order, so a graph without twins needs no reindex of sums.

    Row u of P_(l+1)(M) is sum_{v ~ u} R_v + (Delta - deg u) R_u - c R'_u for
    the rows R of P_l(M) and R' of P_(l-1)(M). One _word_sums call sums each
    neighbourhood size's rows in blocks of at most max(width^2, 2^16) entries.
    Slots grow before the application that needs them (_slot_bytes), to twice
    their size or to what power lmax needs; every partial sum is at most
    Delta P_l(Delta) <= 2 P_(l+1)(Delta). Up to 8 bytes the rows are one integer
    array of the narrowest width that holds a slot (on C_n, int8 to power 62 and
    int16 after), and a gather is one take (_word_slots). Past that they are
    packed once into an object array of ints, slot pos(v) of row u holding
    P_l(M)_uv + P_l(Delta) >= 0, an offset that the recurrence itself carries
    on, as M's rows sum to Delta: M (P_l + P_l(Delta) J) - c (P_(l-1) +
    P_(l-1)(Delta) J) = P_(l+1) + P_(l+1)(Delta) J for the all-ones J. A gather
    costs two big-int operations per row, one conversion to bytes per row
    colour and one take (_masked_slots), which moves the offset to 2^(8 size - 1).

    One side gathers the diagonal and P_l(M)_ab from row a, n + m slots. A
    chain's diagonal is zero at odd l, where P_l(M)_ab is gathered from the row
    of the end on side 1. At even l P_l(M)_ab is zero and M = A gives
    diag(P_l)_v = sum_{e ~ v} P_(l-1)(M)_e - c diag(P_(l-2))_v: d x - c y when
    the edge values of power l - 1 are one x and the diagonal of power l - 2 one
    y, with no sum and no gather, else the edge values summed in d layers, layer
    i holding each vertex's i-th edge; only a graph that is not edge-rigid gets
    there, after decide has stopped with a witness.
    """
    n, m = g.n, g.m
    deg, tails, nbrs = g._arcs
    delta = max(g.degrees)
    c = delta * delta // 4
    depth, odd, _ = g._search
    regular = min(g.degrees) == delta
    sides = 2 if regular and not odd else 1
    width = n // sides
    a, b = g._edge_ends
    ends = np.concatenate([a, b])
    key = np.full((n, delta + 1), -1, np.int32)  # side of a chain, else degree; neighbours, -1s
    key[:, 0] = np.array(depth) % 2 if sides == 2 else deg
    key[:, 1:][np.arange(delta) < deg[:, None]] = nbrs
    # vertices by key: the sides in turn, each size together, twins (one neighbourhood) in a run
    keys = key.view(f"V{4 * delta + 4}").ravel()
    o = keys.argsort(kind="stable")
    keys = keys[o]
    new = np.ones(n, bool)  # the first row of each class of twins
    new[1:] = keys[1:] != keys[:-1]
    pos = o.argsort()  # v's place in the order, then within its side
    heads = key[o[new]]  # one per class
    hoods, sizes = pos[heads[:, 1:]] % width, heads[:, 0]
    cuts = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), len(heads)]
    sizes = sizes.tolist()
    tables: list[list] = [[] for _ in range(sides)]  # per side and size, members in blocks
    for lo, hi in zip(cuts, cuts[1:]):
        s, d = (sizes[lo], delta) if sides == 2 else (0, sizes[lo])
        members = hoods[lo:hi, :d].T
        # one block per size on a sparse graph; no temporary much larger than X on a dense one
        step = max(1, max(width * width, 1 << 16) // ((hi - lo) * width))
        tables[s].append([members[i : i + step] for i in range(0, d, step)])
    # per side: _word_sums' table, and each row's class, if any has twins
    steps = [(t, np.cumsum(new[s * width : (s + 1) * width]) - 1 if len(heads) < n else None)
             for s, t in enumerate(tables)]
    # Delta - deg per row of the one side of an irregular graph, in every power's dtype
    lift = None if regular else (delta - deg[o])[:, None].astype(np.min_scalar_type(-delta))
    if sides == 1:  # diag(P_l(M)), then P_l(M)_ab: row u keeps slot u and slot b of edge (u, b)
        flat = np.concatenate([pos * (width + 1), pos[a] * width + pos[b]])
    else:  # P_l(M)_ab from the row of the end on side 1, the one placed later
        pa, pb = pos[a], pos[b]
        flat = np.maximum(pa, pb) * width + np.minimum(pa, pb) - width * width
        layers = None  # i: each vertex's i-th edge, formed where first needed
    X = Xp = np.zeros((width, width), np.int8)
    X.ravel()[:: width + 1] = 1
    size, h, hp = 0, 1, 0  # the offsets P_l(Delta) and P_(l-1)(Delta) of packed rows
    for l in range(lmax + 1):
        need = _slot_bytes(delta, l)
        if need > size:
            new_size = min(max(need, 2 * size), _slot_bytes(delta, lmax))
            if X.dtype == object:
                X, Xp = (_widen(Y, width, size, new_size) for Y in (X, Xp))
            elif new_size > 8:
                X, Xp = (_pack(_le_bytes(Y + o), new_size) for Y, o in ((X, h), (Xp, hp)))
                rows, slots = np.divmod(flat, width)
                colors = _row_colors(width, rows.tolist(), slots.tolist())
                groups = [[] for _ in range(max(colors) + 1)]
                for u, col in enumerate(colors):
                    groups[col].append(u)
                at = np.array(colors)[rows] * width + slots  # the gather's slots by colour
                lifted = [] if regular else np.flatnonzero(lift).tolist()
            else:
                word = f"<i{1 << (new_size - 1).bit_length()}"
                X, Xp = (Y.astype(word, copy=False) for Y in (X, Xp))
            size, top, ones = new_size, 1 << 8 * new_size - 1, _repeat(1, new_size, m)
            half, zeros = top * ones, (_filled(0, size, n), _filled(0, size, m))
            if X.dtype == object:
                masks, fill = _slot_masks(width, rows, slots, size), _repeat(1, size, width)
        if l:
            table, order = steps[l % sides]
            sums = _word_sums(X, table)
            if order is not None:
                sums = sums[order]
            if X.dtype == object:
                for u in lifted:
                    sums[u] += int(lift[u, 0]) * X[u]
                sums -= c * Xp  # l >= 2: power 1 fits 8 bytes
            else:
                if lift is not None:
                    sums += lift * X
                if l > 1 and c:
                    sums -= c * Xp
            Xp, X, hp, h = X, sums, h, delta * h - c * hp
        k = m * size
        if l and (sides == 1 or l % 2):
            if X.dtype != object:
                G = _word_slots(X, flat, size)
            else:  # packed slots carry h, the gathered ones top
                G = _masked_slots(X.tolist(), masks, groups, size, width, (top - h) * fill)
                G = G.take(at, axis=0)
        if not l:  # P_0 = I: c'_0 = 2 on every edge
            diag, ab, walk = _filled(1, 1, n), zeros[1], 2 * ones + half
            even, y = diag, 1
        elif sides == 2 and l % 2:
            edge = G.tobytes()
            diag, ab, walk = zeros[0], G, 3 * half - 2 * int.from_bytes(edge, "little")
            x = int.from_bytes(edge[:size], "little") - top if _constant(edge, m) else None
        elif sides == 2 and x is not None and y is not None:
            # every edge value of power l - 1 is x and every diagonal slot of power l - 2 is y
            y = g.degrees[0] * x - c * y
            diag, ab, walk = _filled(y, size, n), zeros[1], 2 * y * ones + half
            even = diag
        else:
            if sides == 1:
                diag, ab = G[:n], G[n:]
            else:  # the edge values of power l - 1 by layer, less c diag(P_(l-2)), re-offset
                if layers is None:  # by the arc's key among the edges'
                    arcs = np.minimum(tails, nbrs) * n + np.maximum(tails, nbrs)
                    layers = np.searchsorted(a * n + b, arcs).reshape(n, -1).T
                tops = [1 << 8 * Y.shape[1] - 1 for Y in (ab, even)]
                total = (sum(_pack(ab[layers], size)) - c * _pack(even[None], size)[0]
                         + _repeat(top - len(layers) * tops[0] + c * tops[1], size, n))
                diag = np.frombuffer(total.to_bytes(n * size, "little"), np.uint8).reshape(n, size)
                ab, even, y = zeros[1], diag, None
            raw = diag.take(ends, axis=0).tobytes()
            walk = (int.from_bytes(raw[:k], "little") + int.from_bytes(raw[k:], "little")
                    + half - 2 * int.from_bytes(ab.tobytes(), "little"))
        yield diag, ab, walk.to_bytes(k, "little")


def _trace(diag: np.ndarray) -> int:
    """tr(P_l(M)): diag's byte columns summed in int64, shifted into place, less the offsets."""
    cols = diag.sum(axis=0, dtype=np.int64).tolist()
    return sum(c << 8 * j for j, c in enumerate(cols)) - (len(diag) << 8 * len(cols) - 1)


def _power_traces(traces: list[int], delta: int) -> list[int]:
    """p_l = tr(M^l) from tr(P_l(M)): the table with delta 0 gives tr((-M)^l)."""
    return [-p if l % 2 else p for l, p in enumerate(_differences(traces, 0, delta * delta // 4))]


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


# Berlekamp-Massey moduli, Mersenne primes; a candidate is trusted only after an exact check.
_WORD_PRIME = 2**61 - 1
_PRIME = 2**521 - 1


class _Recurrence:
    """Berlekamp-Massey modulo prime, fed one term at a time.

    coeffs() lifts the shortest recurrence x_l = -(lambda_1 x_{l-1} + .. + lambda_D x_{l-D}) of
    the residues pushed so far to symmetric integer residues lambda_1..lambda_D. Every integer
    recurrence of the terms holds modulo prime, so none is shorter than D.
    """

    def __init__(self, prime: int) -> None:
        self.prime = prime
        self.residues: list[int] = []
        self.conn, self.prev = [1], [1]  # connection polynomials 1 + lambda_1 z + ..
        self.length, self.shift, self.inverse = 0, 1, 1  # inverse: of prev's discrepancy

    def push(self, x: int) -> None:
        p = self.prime
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
        p = self.prime
        lam = (self.conn + [0] * self.length)[1 : self.length + 1]
        return [c - p if c > p // 2 else c for c in lam]


def _predict(terms: list[int], lam: list[int], l: int) -> int:
    return -sum(c * terms[l - 1 - k] for k, c in enumerate(lam))


def _certify(terms: list[int], word: _Recurrence, big: _Recurrence) -> list[int] | None:
    """A lifted recurrence of D coefficients that generates all terms, 2D < len(terms), or None.

    word's D is at most any integer recurrence's, so where 2D >= len(terms) none certifies; big
    is fed only where word's lift fails its exact check, as where a coefficient is above 2^60.
    """
    for rec in (word, big):
        for x in terms[len(rec.residues) :]:
            rec.push(x)
        if 2 * rec.length >= len(terms):
            return None
        lam = rec.coeffs()
        if all(_predict(terms, lam, l) == terms[l] for l in range(len(lam), len(terms))):
            return lam
    return None


def _stop_rule(g: Graph, lmax: int) -> Callable[[list[int]], list[int] | None] | None:
    """_certify on the terms read so far, one a power p, at 2 ecc(0) <= p < max(lmax, n - 1).

    None where there is no such p, as on C_n and P_n. A certificate fires at p >= 2D >= 2 d' >=
    2 diam(G) >= 2 ecc(0), and one at p = lmax >= n - 1 proves what the terms read do.
    """
    reach, last = 2 * g._search[2], lmax - (lmax >= g.n - 1)
    if reach > last:
        return None
    recs = _Recurrence(_WORD_PRIME), _Recurrence(_PRIME)
    return lambda terms: _certify(terms, *recs) if reach < len(terms) <= last + 1 else None


def _reflect(lam: list[int], delta: int) -> list[int]:
    """From q's recurrence, that of the monic (-1)^D q(delta - x): L's when q(M) = 0."""
    poly: list[int] = []  # ascending coefficients of q(delta - x), by Horner
    for a in [1] + lam:
        poly = [delta * x - y for x, y in zip(poly + [0], [0] + poly)]
        poly[0] += a
    return [poly[-1] * x for x in reversed(poly[:-1])]


def _walk_criterion(g: Graph, walks: Iterable[bytes], lmax: int, lam=None) -> WalkCriterion:
    """Constants c'_0..c'_lmax of _walk_stream's walks, or the first non-constant power's witness.

    At the first non-constant power l, w_l(e) = (-1)^l c'_l(e) + K_l, K_l the
    last first-column entry of the difference table on (c'_0, .., c'_(l-1),
    0). Where a certificate may fire (_stop_rule), the table forms the walk
    constants C_l as the c'_l are read, and reading stops at the first
    certificate, whose recurrence extends them to power lmax: a proof
    (module docstring). Given lam, a recurrence that L satisfies (_read),
    lam extends the C_l.
    """
    delta, m = max(g.degrees), g.m
    c = delta * delta // 4
    shifted: list[int] = []  # the c'_l read
    constants: list[int] = []  # the C_l formed
    table = _differences((shifted[i] for i in itertools.count()), delta, c)  # as shifted grows
    stop = None if lam else _stop_rule(g, lmax)
    for power, raw in enumerate(walks):
        if not _constant(raw, m):
            sign = -1 if power % 2 else 1
            shifted.append(0)  # K_l is the last first-column entry on (c'_0, .., c'_(l-1), 0)
            *_, k = [next(table)] if lam or stop else _differences(shifted, delta, c)
            vals = [k + sign * x for x in _signed_slots(raw, m)]
            lo, hi = vals.index(min(vals)), vals.index(max(vals))
            witness = WalkWitness(power, g.edges[lo], g.edges[hi], vals[lo], vals[hi])
            return WalkCriterion(False, None, delta, witness, True)
        size = len(raw) // m
        shifted.append(int.from_bytes(raw[:size], "little") - (1 << 8 * size - 1))
        if lam or stop:
            constants.append(next(table))
        if stop and (lam := stop(constants)):
            break
    if lam:
        while len(constants) <= lmax:
            constants.append(_predict(constants, lam, len(constants)))
        return WalkCriterion(True, tuple(shifted), delta, None, True, tuple(constants))
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
    prefix, which is not a proof of rigidity. Returns the constants c'_l of
    the stream of M = Delta I - L on success, or the first offending power
    with a witness edge pair of w. Unless a certificate formed them, the
    walk constants C_l of w are formed only if .constants is read. The
    stream stops early on the recurrence certificate of the module
    docstring, so a rigid graph with d' distinct nonzero eigenvalues costs
    min(2d', n - 1) applications of M.
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
        return {
            "label": self.label,
            "walk_regular": self.walk_regular,
            "one_walk_regular": self.one_walk_regular,
            "bipartite": self.bipartite,
            "walk_biregular": self.walk_biregular,
            "one_walk_biregular": self.one_walk_biregular,
        }


def _walk_flags(g: Graph, parts, diag: np.ndarray, ab: np.ndarray, flags: tuple) -> tuple:
    """walk_class's flags after one more power of _walk_stream, and its trace tr(P_l(M)).

    flags: diag, P_l(M)_ab, and diag on each side of the bipartition parts
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
    size = len(raw) // g.n
    first = int.from_bytes(raw[:size], "little") - (1 << 8 * size - 1)
    return flags, g.n * first if level else _trace(diag)


def _read(g: Graph) -> Iterator[tuple]:
    """Per power l of _walk_stream: walk_class's flags so far, c'_l, tr(P_0(M))..tr(P_l(M)), lam.

    Where a certificate may fire, _stop_rule reads p_l - Delta^l, p_l = tr(M^l) from the table
    with delta 0 on the traces. Once it proves q(M) = 0, q = (x - Delta) q' for its q', the flags
    and profiles read are final: that power comes with q's recurrence lam, and reading stops;
    otherwise lam is None.
    """
    parts = bipartition(g)
    flags = True, True, parts is not None
    delta = max(g.degrees)
    traces: list[int] = []
    gaps = []  # p_l - Delta^l, p_l = tr(M^l) = (-1)^l tr((-M)^l)
    signed = _differences((traces[i] for i in itertools.count()), 0, delta * delta // 4)
    stop, lam = _stop_rule(g, g.n - 1), None
    for l, (diag, ab, c) in enumerate(_walk_stream(g, g.n - 1)):
        flags, p = _walk_flags(g, parts, diag, ab, flags)
        traces.append(p)
        if stop:
            gaps.append((-1) ** l * next(signed) - delta**l)
            lam = stop(gaps)
            lam = lam and [a - delta * b for a, b in zip(lam + [0], [1] + lam)]
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
    certified stop; no float spectrum is taken.
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

    One loop (_read) reads the walk stream, keeping the walks c'_l and the
    traces tr(P_l(M)) and updating walk_class's flags as the powers pass, up
    to where the traces read prove q(M) = 0 (module docstring), else to power
    n - 1. The walk criterion, the cospectrality classes and the signed-line
    graph verdict come from the walks, the exact tree count from the traces
    tr(M^l) that the table forms from them; past a stop, q extends those traces
    and the walk constants. Only the float verdict needs the unit spectrum. All
    five must agree or InternalInconsistencyError is raised.
    """
    walks: list[bytes] = []
    for flags, c, traces, lam in _read(g):
        walks.append(c)
    delta = max(g.degrees)
    # a tree (m = n - 1) is its own one spanning tree: no trace is extended or read
    traces = None if g.m == g.n - 1 else _power_traces(traces, delta)
    while lam and traces and len(traces) < g.n:
        traces.append(_predict(traces, lam, len(traces)))
    wc = _walk_criterion(g, walks, g.n - 1, lam and _reflect(lam, delta))
    classes = _profile_classes(g, walks)
    wclass = _classify(bipartition(g), *flags)
    s = spectrum(laplacian(g).astype(float))
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
        tree_count=_tree_count(traces, delta) if traces else 1,
    )
