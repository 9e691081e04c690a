"""Command-line interface.

Subcommands
-----------
analyze    full rigidity report with spectral invariants (JSON or text)
decide     exit 0 if edge-rigid, 1 if not, 2 on error, 3 if a truncated
           --max-power check found no violation (not a proof)
optimize   minimize S_k / maximize s_k over the weight simplex
profile    optimize for every k and both objectives
certify    primal-dual certificate for one eigenvalue level
embed      write the spectral embedding of one eigenspace as CSV
tau        (weighted) spanning-tree count
kf         Kirchhoff index

Each subcommand accepts only the options it reads. Every one takes the
graph path and --input-format. analyze, optimize, profile, certify, tau
and kf write text or JSON (--format) to stdout or --output; embed writes
CSV to stdout or --output; decide answers with one line of text on stdout
and its exit code. Diagnostics go to stderr. With the same input and
flags, JSON output is byte-identical across runs: it is exactly
json.dumps(payload, indent=2, sort_keys=True) plus a newline. _dumps writes
those bytes itself: each dict through one cached template per key set and
depth, each distinct nonzero float formatted once per call, and lists of
numbers with the C encoder, which the stdlib uses only without indent.

No option sets a numeric margin, so no option can make a numeric verdict
contradict decide's exact one: optimize and profile use eigensum.TOL,
analyze's float embedding check and certify's residuals spectral.FLOAT_TOL.
JSON output echoes the margin as "tol" (analyze: report.float_tol and
parameters.tol).

main builds the argument parser once per process (build_parser is cached),
so in-process callers pay for it once; importing the package builds none.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .eigensum import certificate, k_rigidity_profile, optimize
from .errors import EdgeRigidError
from .graphs import Graph, WeightVector, laplacian, parse_graph
from .rigidity import decide_edge_rigid_exact, full_report
from .spectral import (
    FLOAT_TOL,
    GROUP_TOL,
    embedding,
    kirchhoff_from_eigenvalues,
    kirchhoff_index,
    resistances_from_eigh,
    spectrum,
    tree_count_exact,
    tree_count_from_eigenvalues,
    weighted_tree_count,
)

EXIT_OK = 0
EXIT_NOT_RIGID = 1
EXIT_ERROR = 2
EXIT_TRUNCATED = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; callers share it and must not change it."""
    parser = argparse.ArgumentParser(
        prog="edgerigid",
        description="Edge-rigidity and conformal rigidity of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, report: bool = True) -> None:
        """The input options; report adds --format/--output."""
        p.add_argument("path", help="input graph file (edge list or graph6)")
        p.add_argument(
            "--input-format",
            choices=["edge-list", "graph6"],
            default=None,
            help="override format auto-detection (.g6 means graph6)",
        )
        if report:
            p.add_argument("--format", choices=["text", "json"], default="text")
            p.add_argument("--output", default=None, help="write results here instead of stdout")

    p = sub.add_parser("analyze", help="full rigidity report with spectral invariants")
    add_common(p)

    p = sub.add_parser("decide", help="exit 0 iff the graph is edge-rigid")
    add_common(p, report=False)
    p.add_argument(
        "--max-power", type=int, default=None,
        help="walk test depth (default n-1); a smaller depth that passes exits 3",
    )

    p = sub.add_parser("optimize", help="optimize one extreme eigenvalue sum")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--objective", choices=["upper", "lower"], default="upper")
    p.add_argument("--iters", type=int, default=5000)

    p = sub.add_parser("profile", help="optimize for every k and both objectives")
    add_common(p)
    p.add_argument("--iters", type=int, default=5000)

    p = sub.add_parser("certify", help="primal-dual certificate at one level")
    add_common(p)
    p.add_argument("--j", type=int, required=True, help="eigenvalue level, 1..r-1")

    p = sub.add_parser("embed", help="CSV spectral embedding of one eigenspace")
    add_common(p, report=False)
    p.add_argument("--output", default=None, help="write the CSV here instead of stdout")
    p.add_argument("--eigenspace", type=int, default=2, help="eigenvalue group index, 2..r")

    p = sub.add_parser("tau", help="spanning-tree count")
    add_common(p)
    p.add_argument("--weights", default=None, help="weights file (m lines)")

    p = sub.add_parser("kf", help="Kirchhoff index")
    add_common(p)
    p.add_argument("--weights", default=None)

    return parser


def _load_graph(args: argparse.Namespace) -> Graph:
    path = Path(args.path)
    data = path.read_bytes()
    fmt = args.input_format
    if fmt is None and path.suffix == ".g6":
        fmt = "graph6"
    return parse_graph(data, fmt)


def _load_weights(args: argparse.Namespace, m: int) -> WeightVector | None:
    if getattr(args, "weights", None) is None:
        return None
    return WeightVector.from_text(Path(args.weights).read_bytes(), m)


_compact = json.JSONEncoder(separators=(",", ":")).encode
_NUMBERS = {float, int}  # exact types only: bool and IntEnum are not plain numbers


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# The JSON text of a scalar whose type is exactly one of these, as the
# C encoder writes it; subclasses (np.float64, IntEnum) go to _compact.
_SCALARS = {
    float: _float_text,
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
    str: json.encoder.encode_basestring_ascii,
}


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte; keys must be str.

    Each call keeps its own memo. A tuple held more than once at one depth,
    such as a weight vector shared by several results, is encoded once, keyed
    on (id, pad); the payload keeps those ids valid. A nonzero float is
    formatted once, keyed on its value, which never equals a tuple key.
    """
    return _encode(obj, "\n", {})


@functools.cache
def _template(keys: tuple[str, ...], pad: str) -> tuple[str, tuple[str, ...]]:
    """A dict's text at pad with %s for each value, and its keys in that order."""
    order = tuple(sorted(keys))
    heads = (json.encoder.encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in order)
    return "{" + pad + "  " + ("," + pad + "  ").join(heads) + pad + "}", order


def _encode(obj, pad: str, memo: dict) -> str:
    """_dumps for obj nested at pad, the newline and indentation before its closing bracket.

    A dict's scalar values are formatted in place. A list of plain floats and
    ints, or of non-empty such lists, is one compact C-encoder call,
    re-indented: no number's text holds a comma or a bracket.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        template, order = _template(tuple(obj), pad)
        texts = []
        for k in order:
            v = obj[k]
            if type(v) is float and v:  # 0.0 == -0.0: zeros skip the memo
                text = memo.get(v) or memo.setdefault(v, _float_text(v))
            elif (scalar := _SCALARS.get(type(v))) is not None:
                text = scalar(v)
            else:
                text = _encode(v, inner, memo)
            texts.append(text)
        return template % tuple(texts)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        key = (id(obj), pad)
        if key in memo:
            return memo[key]
        if (types := {type(v) for v in obj}) <= _NUMBERS:
            body = _compact(obj)[1:-1].replace(",", "," + inner)
        elif types == {list} and all(obj) and {type(x) for v in obj for x in v} <= _NUMBERS:
            deep = inner + "  "
            rows = _compact(obj)[1:-1].replace(",", "," + deep).replace("[", "[" + deep)
            body = rows.replace("]", inner + "]").replace("]," + deep + "[", "]," + inner + "[")
        else:
            body = ("," + inner).join(_encode(v, inner, memo) for v in obj)
        text = "[" + inner + body + pad + "]"
        if type(obj) is tuple:
            memo[key] = text
        return text
    return _compact(obj)


def _write(args: argparse.Namespace, out: str) -> None:
    if args.output:
        Path(args.output).write_text(out)
    else:
        sys.stdout.write(out)


def _emit(args: argparse.Namespace, payload: dict, text: Callable[[], str]) -> None:
    """Write payload as JSON, or text(), which JSON output never builds."""
    _write(args, _dumps(payload) + "\n" if args.format == "json" else text())


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = full_report(g)
    s = report.spectrum
    resistances = resistances_from_eigh(g, s.evals, s.evecs)
    kf = kirchhoff_from_eigenvalues(g.n, s.evals)
    tau_exact = report.tree_count
    payload = {
        "graph": {"n": g.n, "m": g.m, "edges": [list(e) for e in g.edges]},
        "report": report.to_dict(),
        "spectrum": {
            "eigenvalues": list(s.eigenvalues),
            "multiplicities": list(s.multiplicities),
            "group_tol": GROUP_TOL,
        },
        "gamma_anomalies": list(report.isometry.gamma_anomalies),
        "kirchhoff_index": kf,
        "tree_count": tree_count_from_eigenvalues(g.n, s.evals),
        "tree_count_exact": tau_exact,
        "effective_resistances": resistances.tolist(),
        "foster_sum": float(np.sum(resistances)),
        "parameters": {"tol": FLOAT_TOL},
    }

    def text() -> str:
        lines = [
            f"graph: n={g.n} m={g.m}",
            f"edge_rigid: {report.edge_rigid}",
            f"verdicts: {report.verdicts}",
            f"degree_class: {report.degree_class.kind} {report.degree_class.degrees}",
            f"walk_class: {report.walk_class.label}",
            f"eigenvalues: {[round(v, 6) for v in s.eigenvalues]} x {list(s.multiplicities)}",
            f"tree_count_exact: {tau_exact}",
            f"kirchhoff_index: {kf}",
            f"resistances: {[round(float(r), 6) for r in resistances]}",
        ]
        if report.walk_constants is not None:
            lines.insert(3, f"walk_constants: {list(report.walk_constants)}")
        if report.witness is not None:
            lines.insert(3, f"witness: {report.witness.to_dict()}")
        return "\n".join(lines) + "\n"

    _emit(args, payload, text)
    return EXIT_OK


def cmd_decide(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    # powers past n - 1 prove nothing more, and full depth is always a proof
    max_power = args.max_power if args.max_power is None else min(args.max_power, g.n - 1)
    res = decide_edge_rigid_exact(g, max_power=max_power)
    if res.rigid and not res.proved:
        sys.stdout.write(f"walk constants agree through power {args.max_power} (not a proof)\n")
        return EXIT_TRUNCATED
    if res.rigid:
        sys.stdout.write("edge-rigid\n")
        return EXIT_OK
    w = res.witness
    sys.stdout.write(
        f"not edge-rigid: power {w.power}, edges {w.edge_a} vs {w.edge_b} "
        f"({w.value_a} != {w.value_b})\n"
    )
    return EXIT_NOT_RIGID


def cmd_optimize(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    res = optimize(g, args.k, args.objective, iters=args.iters)
    _emit(args, res.to_dict(), lambda: (
        f"k={res.k} objective={res.objective} verdict={res.verdict}\n"
        f"baseline={res.baseline!r} best_primal={res.best_primal!r} "
        f"best_dual={res.best_dual!r} gap={res.gap!r}\n"
        f"iterations={res.iterations}\n"
    ))
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    prof = k_rigidity_profile(g, iters=args.iters)
    _emit(args, prof.to_dict(), lambda: "".join(
        f"k={e.k} upper={e.upper.verdict} (gap={e.upper.gap:.3e}) "
        f"lower={e.lower.verdict} (gap={e.lower.gap:.3e})\n"
        for e in prof.entries
    ) + f"all_rigid={prof.all_rigid}\n")
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    cert = certificate(g, args.j)
    _emit(args, cert.to_dict(), lambda: (
        f"level j={cert.j} (k_j={cert.k_j}): passes={cert.passes}\n"
        f"x={cert.x!r} y={cert.y!r} bound={cert.bound!r} "
        f"S_k(1)={cert.top_eigensum!r}\n"
        f"residuals={cert.residuals}\n"
    ))
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    s = spectrum(laplacian(g).astype(float))
    _write(args, embedding(s, args.eigenspace).to_csv())
    return EXIT_OK


def cmd_tau(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    w = _load_weights(args, g.m)
    value = weighted_tree_count(g, w)
    payload = {"tree_count": value}
    if w is None:
        payload["tree_count_exact"] = tree_count_exact(g)
    _emit(args, payload, lambda: "".join(f"{k}: {v!r}\n" for k, v in payload.items()))
    return EXIT_OK


def cmd_kf(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    w = _load_weights(args, g.m)
    value = kirchhoff_index(g, w)
    payload = {"kirchhoff_index": value if math.isfinite(value) else "inf"}
    _emit(args, payload, lambda: f"kirchhoff_index: {value!r}\n")
    return EXIT_OK


COMMANDS = {
    "analyze": cmd_analyze,
    "decide": cmd_decide,
    "optimize": cmd_optimize,
    "profile": cmd_profile,
    "certify": cmd_certify,
    "embed": cmd_embed,
    "tau": cmd_tau,
    "kf": cmd_kf,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (EdgeRigidError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
