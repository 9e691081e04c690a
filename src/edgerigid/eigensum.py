"""Ky Fan eigenvalue sums and their optimization over the weight simplex.

S_k(w) is the sum of the k largest eigenvalues of the weighted Laplacian,
s_k(w) the sum of the k smallest nontrivial ones. ``optimize`` minimizes
S_k (or maximizes s_k) over normalized nonnegative edge weights and
certifies progress with a dual bound that is sound at every iterate: for
any matrix X with 0 <= X <= I and tr X = k, the pair
(X, x = min_e adjoint(X)_e) is feasible for the dual program, so
|E| * x lower-bounds S_k everywhere on the simplex.

Every run is an upper run: s_k(w) + S_{n-1-k}(w) = 2|E| on the simplex,
so the lower entry at k is the upper run at n-1-k, and one scale (_scale)
gives both entries their verdict margin and the run every stop.

A run stops as soon as its verdict is settled. S_k is convex, so w is
optimal iff some subgradient adjoint(X) in dS_k(w) is constant
(Overton-Womersley 1993). _face picks the subgradient g of least spread
on the face dS_k(w): a constant g proves optimality, otherwise
-(g - mean g) is the steepest descent direction. From unit weights a run
takes Armijo steps along the entropic mirror path w exp(-alpha (g - mean g))
of its last accepted point. The first, with d = g_1 - mean g_1, is
alpha = min(m / ||g_1||_inf, gap / (4 max_deg ||d||_inf)), gap the
distance from the mean of the eigenvalue group at slot k to the nearest
nonzero neighbouring group mean of L(1): by Weyl's inequality it moves no
eigenvalue by more than about gap / 2. The gap is a float test:
spectral.GROUP_TOL decides which eigenvalues are distinct. While the
predicted decrease is at least the margin, an accepted point already
refutes rigidity, so a non-rigid run usually ends within a few
eigendecompositions.

Runs start from a stack of first iterates, the spectrum of L(1) and one
row per k: one array minimum gives every dual bound, and only the runs
whose gap stays open go on. optimize stacks one k, k_rigidity_profile
all n - 1. _slot_energies builds every stack, and the row of every
rejected trial, as running sums of group energies plus the fraction of
the group split at slot k that lies in the top k. On an edge-rigid graph
every run stops at its first iterate: the profile costs one eigh of
L(1), one gather of edge differences and O(n |E|) array work, and its
upper runs share one unit-weight best_w tuple.

A refuted run's best_w witnesses every level, as the eigenvalues of L(w)
give each S_j(w): a later open level that a kept best_w lowers by more than
the margin is refuted by it, with no face solve or descent (_upper_runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LevelOutOfRangeError
from .graphs import Graph, group_energies, incidence, laplacian
from .spectral import FLOAT_TOL, group_eigenvalues, spectrum

VERDICT_RIGID = "rigid-within-tol"
VERDICT_REFUTED = "refuted"
VERDICT_INCONCLUSIVE = "inconclusive"

# A run's verdict margin is this times its scale (_scale).
TOL = 1e-5

# An upper run also stops once its relative primal-dual gap is this small.
GAP_TOL = 1e-9

# _face's projected-gradient solve takes at most this many steps.
FACE_ITERS = 1000


def fractional_top_projector(evals: np.ndarray, evecs: np.ndarray, k: int) -> np.ndarray:
    """Trace-k matrix 0 <= X <= I filling eigenvalue groups from the top.

    A group that does not fit entirely contributes (slots left) / (group
    size) times its projector, so X commutes with the Laplacian and is the
    natural optimizer of the Ky Fan program at degenerate eigenvalues.
    """
    X = np.zeros((len(evals), len(evals)))
    remaining = float(k)
    for sl in reversed(group_eigenvalues(evals)):
        if remaining <= 0:
            break
        size, V = sl.stop - sl.start, evecs[:, sl]
        X += min(1.0, remaining / size) * (V @ V.T)
        remaining -= size
    return X


def _slot_energies(g: Graph, evals: np.ndarray, evecs: np.ndarray, ks) -> np.ndarray:
    """Row i is adjoint(fractional_top_projector(evals, evecs, ks[i])); ks ascend.

    Slot k, counted from the top, lies in eigenvalue group J, which gets
    weight W = (slots of k in J) / |J|. The row is the running sum of the
    edge energies of the groups above J plus W times J's, so no n x n
    matrix is built. One gather serves the groups down to the deepest J,
    and a profile skips the kernel group.
    """
    n = len(evals)
    bounds = [sl.start for sl in group_eigenvalues(evals) if sl.stop > n - ks[-1]] + [n]
    E = group_energies(g, evecs, bounds)
    t, rows, running = len(E) - 1, [], np.zeros(g.m)  # running: the energies above group t
    for k in ks:
        while k > n - bounds[t]:
            running, t = running + E[t], t - 1
        rows.append(running + (k - n + bounds[t + 1]) / (bounds[t + 1] - bounds[t]) * E[t])
    return np.array(rows)


def _scale(g: Graph, k: int, baseline: float) -> float:
    """Scale of the upper run at k, baseline = S_k(1), shared by its lower mirror.

    Both entries see the same absolute change, so they share one scale: the
    smaller of their baselines S_k(1) and s_{n-1-k}(1) = 2|E| - S_k(1). The
    run at k = n-1 gives no lower entry (s_0 is not an objective). The
    verdict margin is TOL times it, and every stop GAP_TOL times it.
    """
    mirror = 2.0 * g.m - baseline if k < g.n - 1 else baseline
    return max(1.0, min(baseline, mirror))


def _face(g: Graph, evals: np.ndarray, evecs: np.ndarray, k: int, w: np.ndarray) -> np.ndarray:
    """The edge gradient adjoint(X) of least w-weighted spread on the face dS_k(w).

    evals, evecs: the eigenpairs of L(w). X = U_1 U_1^T + U_2 Z U_2^T, U_1 the
    groups above slot k's group J, U_2 J's basis, 0 <= Z <= I, tr Z = t (k's
    slots in J). An unsplit J leaves Z = I, the _slot_energies row. On a split
    J, accelerated projected gradient from Z = (t/|J|) I, restarted whenever
    the spread rises, minimizes sum_e w_e (g_e - mean_w g)^2 over
    g(Z) = g_1' + K vec(Z), K_e = vec(D_e^T D_e), D = U_2[a] - U_2[b]. Any
    such g gives the sound dual bound |E| min g.
    """
    lo, hi = next((sl.start, sl.stop) for sl in group_eigenvalues(evals) if sl.stop > g.n - k)
    if lo == g.n - k:
        return _slot_energies(g, evals, evecs, [k])[0]
    p, t = hi - lo, k - g.n + hi
    a, b = g._edge_ends
    D = evecs[a, lo:] - evecs[b, lo:]
    above = np.einsum("ij,ij->i", D[:, p:], D[:, p:])
    K = (D[:, :p, None] * D[:, None, :p]).reshape(g.m, p * p)
    omega = w / w.sum()
    # the spread is |sqrt(w) (K - omega K) vec(Z) + c|^2: its gradient's Lipschitz constant
    lip = 2.0 * max(np.linalg.norm(np.sqrt(w)[:, None] * (K - omega @ K), 2) ** 2, 1e-300)

    def energies(Z):
        gz = above + K @ Z.ravel()
        r = gz - omega @ gz
        return gz, r, float(w @ r ** 2)

    Z = Y = np.eye(p) * (t / p)
    theta, (gz, _, spread) = 1.0, energies(Z)
    for _ in range(FACE_ITERS):
        _, r, _ = energies(Y)
        z, Q = np.linalg.eigh(Y - (2.0 / lip) * (K.T @ (w * r)).reshape(p, p))
        # project z onto {0 <= z <= 1, sum z = t}: clip(z - tau, 0, 1), tau from the kinks
        cuts = np.sort(np.concatenate([z - 1.0, z]))
        sums = np.clip(z[None, :] - cuts[:, None], 0.0, 1.0).sum(axis=1)
        Znew = (Q * np.clip(z - np.interp(-t, -sums, cuts), 0.0, 1.0)) @ Q.T
        gnew, _, new = energies(Znew)
        if new > spread and theta > 1.0:  # momentum overshot: restart from Z
            Y, theta = Z, 1.0
            continue
        moved = float(np.abs(Znew - Z).max())
        theta, prev = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0, theta
        Y = Znew + ((prev - 1.0) / theta) * (Znew - Z)
        Z, gz, spread = Znew, gnew, new
        if moved <= 1e-13:
            break
    return gz


def _direction(x: np.ndarray, gvec: np.ndarray) -> tuple[np.ndarray, float]:
    """d = g - mean_x g and the slope |d|^2_x = sum_e x_e d_e^2 of the mirror path at x."""
    d = gvec - (x * gvec).sum() / x.sum()
    return d, float(np.sum(x * d * d))


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of one eigensum optimization run.

    For the upper objective, best_primal is the smallest S_k value found
    and best_dual the largest certified lower bound on min S_k, so
    gap = best_primal - best_dual >= 0. For the lower objective the roles
    mirror: best_primal is the largest s_k found, best_dual a certified
    upper bound on max s_k, gap = best_dual - best_primal. A lower result
    is the upper run at n-1-k read through the trace identity, and it
    carries that run's verdict. A refuted run stops at its first witness,
    so its best_primal and best_dual are certified bounds, not the
    optimum. iterations counts the evaluated weight vectors, one
    eigendecomposition each (k_rigidity_profile makes the unit-weight one
    once for all its runs). iterations 0 in a profile means a shared
    witness: the best_w of a refuted run at a lower level, whose S_k is
    best_primal, with the unit-weight best_dual. Runs that stop at unit
    weights share one best_w tuple, as do the levels one witness refutes,
    and to_dict returns it as is.
    """

    k: int
    objective: str
    verdict: str
    baseline: float  # objective value at unit weights
    best_primal: float
    best_dual: float
    gap: float
    best_w: tuple[float, ...]
    iterations: int

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "objective": self.objective,
            "verdict": self.verdict,
            "baseline": self.baseline,
            "best_primal": self.best_primal,
            "best_dual": self.best_dual,
            "gap": self.gap,
            "best_w": self.best_w,
            "iterations": self.iterations,
            "tol": TOL,
        }


def optimize(g: Graph, k: int, objective: str = "upper", iters: int = 5000) -> OptimizeResult:
    """Optimize one extreme eigenvalue sum over the weight simplex.

    upper starts at unit weights. The run has one margin,
    TOL * max(1, min(S_k(1), 2|E| - S_k(1))), shared with the lower entry
    at n-1-k (S_k(1) alone at k = n-1). While the gap is open, the run
    takes Armijo steps from its last accepted point x along
    w(alpha) ~ x exp(-alpha (g - mean_x g)), g = _face at x, from
    alpha = min(m / ||g||_inf, gap / (4 max_deg ||g - mean g||_inf)) at
    unit weights, gap the distance from slot k's eigenvalue group mean of
    L(1) to the nearest nonzero neighbouring one (groups within
    spectral.GROUP_TOL; no neighbour keeps the first term). A trial is
    accepted when S_k falls by at least alpha |g - mean_x g|_x^2 / 2; alpha
    doubles after an accepted trial and halves after a rejected one. Every
    trial costs one eigendecomposition and yields a certified dual bound.
    The run stops as soon as S_k is below S_k(1) by more than the margin,
    or once the gap or the predicted decrease is below GAP_TOL times the
    margin's scale max(1, min(S_k(1), 2|E| - S_k(1))). lower
    maximizes s_k, reduced to the upper objective at n-1-k through the
    trace identity s_k(w) + S_{n-1-k}(w) = 2|E| on the simplex, and
    reports that run's verdict.

    Verdict: rigid-within-tol when the dual bound is within the margin of
    S_k(1), so unit weights are optimal; refuted when a w better by more
    than the margin was found (best_w, a checkable witness); inconclusive
    when the run stopped before either, for instance on a spent iteration
    budget. A spent budget is a verdict, never an exception.
    """
    if not 1 <= k <= g.n - 1:
        raise ValueError(f"k must be in 1..{g.n - 1}, got {k}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if objective not in ("upper", "lower"):
        raise ValueError(f"objective must be 'upper' or 'lower', got {objective!r}")
    if objective == "lower" and k == g.n - 1:
        return _lower_from_upper(g, k, _zero_upper(g))
    top = k if objective == "upper" else g.n - 1 - k
    (up,) = _upper_runs(g, [top], iters)
    return up if objective == "upper" else _lower_from_upper(g, k, up)


def _upper_runs(g: Graph, ks, iters: int) -> list[OptimizeResult]:
    """The upper runs at the ascending levels ks, from one eigh of L(1) = B B^T.

    B is the float incidence matrix of g. The runs whose gap closes at unit
    weights, where the dual comes from the _slot_energies row, share one
    best_w tuple of ones. The best_w of each refuted run, with the eigenvalues
    of L(best_w), is kept and tried, in the order kept, on every later open
    level before its descent.
    """
    B = incidence(g).astype(float)
    evals, evecs = np.linalg.eigh(B @ B.T)
    unit_w = (1.0,) * g.m
    G = _slot_energies(g, evals, evecs, ks)
    groups = group_eigenvalues(evals)
    out, kept = [], []  # kept: (best_w, eigenvalues of L(best_w)) of each refuted run
    for k, row, dual in zip(ks, G, (g.m * G.min(axis=1)).tolist()):
        baseline = float(evals[g.n - k:].sum())
        scale = _scale(g, k, baseline)
        margin = TOL * scale
        best_primal, best_dual, best_w, iterations = baseline, dual, unit_w, 1
        # the first kept witness below the margin refutes k with no face solve or descent;
        # a k whose unit-weight dual is within the margin is rigid and tries none
        shared = baseline - dual > margin and next(
            ((w, s) for w, ev in kept if (s := float(ev[g.n - k:].sum())) < baseline - margin), None)
        if shared:
            (best_w, best_primal), iterations = shared, 0
        elif baseline - dual > GAP_TOL * scale:
            j = next(j for j, sl in enumerate(groups) if sl.stop > g.n - k)  # slot k's group J
            g1 = row if groups[j].start == g.n - k else _face(g, evals, evecs, k, np.ones(g.m))
            here = float(evals[groups[j]].mean())  # gap: to J's nearest nonzero neighbour
            gap = min((abs(float(evals[groups[i]].mean()) - here)
                       for i in (j - 1, j + 1) if 0 < i < len(groups)), default=math.inf)
            best_primal, best_dual, best_w, iterations, best_evals = _optimize_upper(
                g, B, k, iters, margin, GAP_TOL * scale, g1, baseline, dual, gap,
            )
        if baseline - best_dual <= margin:
            verdict = VERDICT_RIGID
        elif best_primal < baseline - margin:
            verdict = VERDICT_REFUTED
            if iterations:
                kept.append((best_w, best_evals))
        else:
            verdict = VERDICT_INCONCLUSIVE
        out.append(OptimizeResult(
            k, "upper", verdict, baseline, best_primal, best_dual, best_primal - best_dual,
            best_w, iterations,
        ))
    return out


def _optimize_upper(
    g: Graph, B: np.ndarray, k: int, iters: int, margin: float, gap_tol: float,
    g1: np.ndarray, baseline: float, dual: float, gap: float,
) -> tuple:
    """Go on from an open first iterate: g1 = _face at unit weights, baseline = S_k(1).

    dual is |E| min of the unit-weight _slot_energies row, gap the distance from
    slot k's group mean of L(1) to the nearest nonzero one (math.inf if none).
    Returns best_primal, best_dual, best_w, the iteration count (the first
    included) and the eigenvalues of L(best_w), None while best_w is unit.
    """
    n, m = g.n, g.m
    x, fx, t = np.ones(m), baseline, 1  # the last accepted point, S_k there, eigh count
    d, slope = _direction(x, g1)
    # Weyl: |L(w) - L(1)|_2 <= 2 max_deg |w - 1|_inf ~ 2 max_deg step |d|_inf, so the
    # first trial moves no eigenvalue of L(1) by more than about gap / 2
    step = min(m / max(float(np.abs(g1).max()), 1e-12),
               gap / (4 * max(g.degrees) * max(float(np.abs(d).max()), 1e-12)))
    best_primal, best_dual, best_w, best_evals = baseline, max(dual, m * float(g1.min())), x, None
    while t < iters and best_primal - best_dual > gap_tol and best_primal >= baseline - margin:
        decrease = step * slope / 2  # Armijo's: while >= margin, an accepted point refutes
        if decrease < gap_tol:
            break
        expo = -step * d  # the mirror path x exp(-step d), rescaled to sum m
        w = x * np.exp(expo - expo.max())
        w *= m / w.sum()
        evals, evecs = np.linalg.eigh((B * w) @ B.T)
        t += 1
        primal = float(evals[n - k:].sum())
        if primal < best_primal:
            best_primal, best_w, best_evals = primal, w, evals
        if baseline - margin <= primal <= fx - decrease:
            gvec = _face(g, evals, evecs, k, w)
            x, fx, step = w, primal, 2 * step
            d, slope = _direction(x, gvec)
        else:  # a rejected trial, or a refutation that ends the run
            (gvec,) = _slot_energies(g, evals, evecs, [k])
            step /= 2
        best_dual = max(best_dual, m * float(gvec.min()))
    return best_primal, best_dual, tuple(best_w.tolist()), t, best_evals


def _zero_upper(g: Graph) -> OptimizeResult:
    """Zero-iteration stand-in for S_0 = 0, so s_{n-1} = tr L(w) = 2|E|."""
    return OptimizeResult(0, "upper", VERDICT_RIGID, 0.0, 0.0, 0.0, 0.0, (1.0,) * g.m, 0)


def _lower_from_upper(g: Graph, k: int, up: OptimizeResult) -> OptimizeResult:
    """Lower result at k from the upper run at n-1-k: s_k(w) = 2|E| - S_{n-1-k}(w)."""
    two_m = 2.0 * g.m
    best_primal, best_dual = two_m - up.best_primal, two_m - up.best_dual
    return OptimizeResult(
        k, "lower", up.verdict, two_m - up.baseline, best_primal, best_dual,
        best_dual - best_primal, up.best_w, up.iterations,
    )


@dataclass(frozen=True)
class KCertificate:
    """Primal-dual optimality certificate for one eigenvalue level j.

    The dual matrix X is the projector onto the top j eigenspaces of the
    unit Laplacian and x the sum of their mean edge energies (gammas); Y
    and y are the matching primal pair. X and Y exist only while the
    residuals are computed. For edge-rigid graphs all residuals vanish and
    |E| * x equals S_{k_j}(1), certifying upper k_j-conformal rigidity;
    otherwise the dual feasibility residual is positive because
    adjoint(X) is not constant.
    """

    j: int
    k_j: int
    x: float
    y: float
    gammas: tuple[float, ...]
    residuals: dict[str, float]
    bound: float  # |E| * x
    top_eigensum: float  # S_{k_j}(1)

    @property
    def passes(self) -> bool:
        return all(v <= FLOAT_TOL for v in self.residuals.values())

    def to_dict(self) -> dict:
        return {
            "j": self.j,
            "k_j": self.k_j,
            "x": self.x,
            "y": self.y,
            "gammas": list(self.gammas),
            "residuals": dict(self.residuals),
            "bound": self.bound,
            "top_eigensum": self.top_eigensum,
            "passes": self.passes,
            "tol": FLOAT_TOL,
        }


def certificate(g: Graph, j: int) -> KCertificate:
    """Build and check the level-j certificate from the unit spectrum.

    The three complementary-slackness residuals (stationarity, projection,
    complementarity at unit weights) are identities of the spectral
    decomposition; the discriminating quantity is dual feasibility
    adjoint(X) >= x * 1, which fails exactly on non-rigid graphs. Failure
    is reported through the residuals, not raised: the certificate passes
    when every residual is at most spectral.FLOAT_TOL.
    """
    L = laplacian(g).astype(float)
    s = spectrum(L)
    r = s.r
    if not 1 <= j <= r - 1:
        raise LevelOutOfRangeError(f"level j must be in 1..{r - 1}, got {j}")
    y = s.eigenvalues[r - j - 1]
    energies = group_energies(g, s.evecs, s.bounds[r - j:])
    gammas = tuple(energies.mean(axis=1).tolist())
    x = float(sum(gammas))
    adj = sum(energies)
    # X = U U^T and Y = U diag(lambda - y) U^T for the top bases U, contiguous as BLAS saw it
    U = s.evecs[:, s.bounds[r - j]:].copy()
    lam = np.repeat(s.eigenvalues[r - j:], s.multiplicities[r - j:])
    X = U @ U.T
    Y = (U * (lam - y)) @ U.T
    residuals = {
        "stationarity": float(np.linalg.norm(X @ (Y + y * np.eye(g.n) - L))),
        "projection": float(np.linalg.norm(X @ Y - Y)),
        "complementarity": float(abs(np.sum(adj - x))),
        "dual_feasibility": float(max(0.0, x - float(adj.min()))),
    }
    return KCertificate(
        j=j,
        k_j=len(lam),
        x=x,
        y=float(y),
        gammas=gammas,
        residuals=residuals,
        bound=g.m * x,
        top_eigensum=float(lam.sum()),
    )


@dataclass(frozen=True)
class GaugeProduct:
    """S_k(1), the dual gauge value at unit weights, and their product.

    The dual gauge is |E| divided by min over the simplex of S_k, so the
    certified value uses the optimizer's dual bound; product bounds bracket
    the truth whenever the optimizer is inconclusive. The product equals
    |E| exactly when the graph is upper k-conformally rigid.
    """

    k: int
    top_eigensum: float  # S_k(1)
    dual_gauge: float  # S_k-degree dual gauge at unit weights
    product: float
    product_lo: float
    optimize_result: OptimizeResult


def gauge_product(g: Graph, k: int, iters: int = 5000) -> GaugeProduct:
    """Evaluate the gauge identity product S_k(1) * dual_gauge(1).

    The product comes from one upper optimize run. A refuted run stops at
    its first witness, so product and product_lo then bracket the true
    value loosely; product_lo > |E| already shows that k is not rigid.
    """
    res = optimize(g, k, "upper", iters=iters)
    m = g.m
    s1 = res.baseline
    dual_gauge = m / res.best_dual if res.best_dual > 0 else math.inf
    product = s1 * dual_gauge
    product_lo = s1 * m / res.best_primal if res.best_primal > 0 else math.inf
    return GaugeProduct(
        k=k,
        top_eigensum=s1,
        dual_gauge=dual_gauge,
        product=product,
        product_lo=product_lo,
        optimize_result=res,
    )


@dataclass(frozen=True)
class ProfileEntry:
    k: int
    upper: OptimizeResult
    lower: OptimizeResult

    def to_dict(self) -> dict:
        return {"k": self.k, "upper": self.upper.to_dict(), "lower": self.lower.to_dict()}


@dataclass(frozen=True)
class RigidityProfile:
    """Per-k verdicts for both objectives; entries[k - 1] holds k."""

    entries: tuple[ProfileEntry, ...]

    @property
    def all_rigid(self) -> bool:
        return all(
            e.upper.verdict == VERDICT_RIGID and e.lower.verdict == VERDICT_RIGID
            for e in self.entries
        )

    def refuted_entries(self) -> list[tuple[int, str]]:
        out = []
        for e in self.entries:
            if e.upper.verdict == VERDICT_REFUTED:
                out.append((e.k, "upper"))
            if e.lower.verdict == VERDICT_REFUTED:
                out.append((e.k, "lower"))
        return out

    def to_dict(self) -> dict:
        return {
            "entries": [e.to_dict() for e in self.entries],
            "all_rigid": self.all_rigid,
            "refuted": [list(t) for t in self.refuted_entries()],
        }


def k_rigidity_profile(g: Graph, iters: int = 5000) -> RigidityProfile:
    """Run optimize for every k and both objectives.

    Each of the n-1 upper runs is made once: the lower entry at k reuses
    the upper run at n-1-k through the trace identity s_k + S_{n-1-k} = 2|E|,
    exactly as optimize(g, k, "lower") would compute it, verdict included.
    One eigh of L(1) and one _slot_energies call (one gather) give every
    k's g_1 from the additions a standalone run makes. An entry that made
    its own iterations, or is not refuted, is bit-identical to its
    standalone run. A refuted entry with iterations 0 carries instead the
    witness of a refuted run at a lower upper level (_upper_runs); its
    standalone run is refuted or inconclusive. The per-k work of a rigid profile is one O(|E|)
    row, one eigenvalue sum and two results.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    n = g.n
    uppers = [_zero_upper(g)] + _upper_runs(g, range(1, n), iters)
    return RigidityProfile(tuple(
        ProfileEntry(k, uppers[k], _lower_from_upper(g, k, uppers[n - 1 - k]))
        for k in range(1, n)
    ))
