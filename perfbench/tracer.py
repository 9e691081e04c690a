"""Timing wrappers around the program's public functions, for the traced run.

The wrappers live here, not in the program: install() replaces each target
function object wherever an edgerigid module (or numpy.linalg, for eigh and
eigvalsh) holds a reference to it, so calls through re-bound names such as
rigidity.adjugate_quadratic_form or cli.full_report are timed as well.
uninstall() puts the originals back. The untraced run never installs them.

A span is (id, parent id, job id, name, start, end, self seconds, facts).
Self time is the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import hashlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module under edgerigid, function name); numpy.linalg targets are separate
TARGETS = (
    ("cli", "main"),
    ("graphs", "parse_graph"),
    ("graphs", "adjoint_apply"),
    ("graphs", "laplacian"),
    ("exactmat", "exact_matrix"),
    ("exactmat", "char_poly"),
    ("exactmat", "det_exact"),
    ("exactmat", "adjugate_quadratic_form"),
    ("rigidity", "decide_edge_rigid_exact"),
    ("rigidity", "cospectrality_classes"),
    ("rigidity", "signed_line_graph_walk_regular"),
    ("rigidity", "walk_class"),
    ("rigidity", "full_report"),
    ("spectral", "spectrum"),
    ("spectral", "edge_isometry_check"),
    ("spectral", "effective_resistances"),
    ("spectral", "kirchhoff_index"),
    ("spectral", "weighted_tree_count"),
    ("spectral", "tree_count_exact"),
    ("eigensum", "optimize"),
    ("eigensum", "k_rigidity_profile"),
    ("eigensum", "fractional_top_projector"),
)
NUMPY_TARGETS = ("eigh", "eigvalsh")


def _int_matrix_key(args, kwargs):
    A = np.asarray(args[0])
    return hash((A.shape, tuple(int(x) for x in A.flat)))


def _float_matrix_key(args, kwargs):
    A = np.ascontiguousarray(args[0], dtype=float)
    return (A.shape, hashlib.blake2b(A.tobytes(), digest_size=16).digest())


def _decide_facts(args, kwargs, result):
    if result.rigid:
        values = result.constants
        powers = len(values)
    else:
        w = result.witness
        values = (w.value_a, w.value_b)
        powers = w.power + 1
    return args[0].n, powers, max(abs(v).bit_length() for v in values)


class Tracer:
    """Records spans for calls made while installed; one instance per run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._seen: dict[str, set] = defaultdict(set)
        self._patched: list[tuple[object, str, object]] = []

    def begin_job(self, job: int) -> None:
        """Tag later spans with job; dup ratios count repeats within one job."""
        self.job = job
        self._seen.clear()

    def _wrap(self, name, fn, key=None, facts=None):
        tracer = self

        def wrapper(*args, **kwargs):
            extra = None
            if key is not None:
                seen = tracer._seen[key.__name__]
                h = key(args, kwargs)
                extra = h in seen
                seen.add(h)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if facts is not None:
                    extra = facts(args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0
                tracer.spans.append(
                    (sid, parent, tracer.job, name, t0, t1, t1 - t0 - frame[1], extra)
                )

        return wrapper

    def install(self) -> None:
        import edgerigid

        modules = [m for k, m in sys.modules.items() if k == "edgerigid" or k.startswith("edgerigid.")]
        for mod_name, attr in TARGETS:
            fn = getattr(getattr(edgerigid, mod_name), attr)
            name = f"{mod_name}.{attr}"
            key = _int_matrix_key if name == "exactmat.char_poly" else None
            facts = None
            if name == "rigidity.decide_edge_rigid_exact":
                facts = _decide_facts
            elif name == "eigensum.optimize":
                facts = _optimize_facts(fn)
            wrapped = self._wrap(name, fn, key, facts)
            for mod in modules:
                for k, v in list(vars(mod).items()):
                    if v is fn:
                        self._patch(mod, k, wrapped)
        for attr in NUMPY_TARGETS:
            fn = getattr(np.linalg, attr)
            self._patch(np.linalg, attr, self._wrap(f"numpy.linalg.{attr}", fn, _float_matrix_key))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tjob\tname\tstart\tend\tself_s\tfacts\n")
            for span in self.spans:
                f.write("\t".join(map(str, span)) + "\n")


def _optimize_facts(fn):
    signature = inspect.signature(fn)

    def facts(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return result.iterations, bound.arguments["iters"]

    return facts


def layer_metrics(spans: list[tuple], jobs: int) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    dups: dict[str, int] = defaultdict(int)
    facts: dict[str, list] = defaultdict(list)
    for _, _, _, name, t0, t1, own, extra in spans:
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += own
        if extra is True:
            dups[name] += 1
        elif extra not in (None, False):
            facts[name].append(extra)

    def ratio(a, b):
        return a / b if b else 0.0

    eigh_calls = calls["numpy.linalg.eigh"] + calls["numpy.linalg.eigvalsh"]
    decides = facts["rigidity.decide_edge_rigid_exact"]
    powers = sum(p for _, p, _ in decides)
    runs = facts["eigensum.optimize"]
    iterations = sum(i for i, _ in runs)
    optimize_s = total["eigensum.optimize"]
    exact_calls = sum(calls[f] for f in (
        "rigidity.decide_edge_rigid_exact", "rigidity.walk_class",
        "rigidity.signed_line_graph_walk_regular", "exactmat.char_poly",
    ))
    return {
        "cli.self_s": self_s["cli.main"],
        "graphs.parse_calls": calls["graphs.parse_graph"],
        "graphs.parse_s": total["graphs.parse_graph"],
        "graphs.adjoint_apply_calls": calls["graphs.adjoint_apply"],
        "graphs.adjoint_apply_s": total["graphs.adjoint_apply"],
        "graphs.laplacian_calls": calls["graphs.laplacian"],
        "exactmat.char_poly_calls": calls["exactmat.char_poly"],
        "exactmat.char_poly_s": total["exactmat.char_poly"],
        "exactmat.char_poly_dup_ratio": ratio(dups["exactmat.char_poly"], calls["exactmat.char_poly"]),
        "exactmat.exact_matrix_calls": calls["exactmat.exact_matrix"],
        "exactmat.exact_matrix_s": total["exactmat.exact_matrix"],
        "exactmat.det_exact_s": total["exactmat.det_exact"],
        "rigidity.decide_calls": calls["rigidity.decide_edge_rigid_exact"],
        "rigidity.decide_s": total["rigidity.decide_edge_rigid_exact"],
        "rigidity.powers_computed": powers,
        "rigidity.depth_ratio": ratio(powers, sum(n for n, _, _ in decides)),
        "rigidity.max_bits": max((b for _, _, b in decides), default=0),
        "rigidity.cospectrality_s": total["rigidity.cospectrality_classes"],
        "rigidity.signed_line_s": total["rigidity.signed_line_graph_walk_regular"],
        "rigidity.walk_class_s": total["rigidity.walk_class"],
        "rigidity.full_report_self_s": self_s["rigidity.full_report"],
        "rigidity.exact_passes": ratio(exact_calls, jobs),
        "spectral.eigh_calls": eigh_calls,
        "spectral.eigh_s": total["numpy.linalg.eigh"] + total["numpy.linalg.eigvalsh"],
        "spectral.eigh_dup_ratio": ratio(
            dups["numpy.linalg.eigh"] + dups["numpy.linalg.eigvalsh"], eigh_calls
        ),
        "spectral.spectrum_s": total["spectral.spectrum"],
        "spectral.isometry_s": total["spectral.edge_isometry_check"],
        "spectral.invariants_s": sum(total[f] for f in (
            "spectral.effective_resistances", "spectral.kirchhoff_index",
            "spectral.weighted_tree_count", "spectral.tree_count_exact",
        )),
        "eigensum.optimize_calls": calls["eigensum.optimize"],
        "eigensum.iterations": iterations,
        "eigensum.iter_us": ratio(optimize_s, iterations) * 1e6,
        "eigensum.optimize_s": optimize_s,
        "eigensum.early_stop_ratio": ratio(sum(i < budget for i, budget in runs), len(runs)),
        "eigensum.projector_s": total["eigensum.fractional_top_projector"],
        "eigensum.profile_self_s": self_s["eigensum.k_rigidity_profile"],
    }


def self_time_shares(spans: list[tuple], wall: float) -> list[tuple[str, float]]:
    """Each span name's self time as a share of the pass wall time, largest first."""
    own: dict[str, float] = defaultdict(float)
    for span in spans:
        own[span[3]] += span[6]
    return sorted(((k, v / wall) for k, v in own.items()), key=lambda kv: -kv[1])
