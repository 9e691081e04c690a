"""edgerigid benchmark: one workload, in one process, from the repository root.

    python3 perfbench/run.py --workload decide-deep --seed 1 --seconds 25 --trace 0

The workload's jobs are generated from --seed (see workloads.py) and written
as input files; CLI jobs call edgerigid.cli.main in-process and census jobs
call the library. Set-up ends with a warm-up on small graphs. The outputs
of the first timed pass are checked by the benchmark's own code
(checks.py), outside the timed region, and every later pass must
reproduce them byte for byte. --seconds becomes a fixed number of timed
passes (see NOMINAL_PASS_S).

--trace 0 prints the end-to-end metrics (see measure for wall_ref). --trace 1 alternates untraced and
traced passes, prints the per-layer metrics and writes the spans to
perfbench/out/. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Tests of the benchmark itself:
python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Typical time of one pass of each workload at the seed commit, in seconds,
# on a 2-core x86-64 VM. --seconds is divided by it to give a pass count
# that does not depend on the commit being measured, so the medians and the
# tail percentile always rest on the same number of samples.
NOMINAL_PASS_S = {
    "decide-deep": 6.5,
    "census-small": 1.25,
    "analyze-report": 8.5,
    "optimize-profile": 6.5,
}
MIN_PASSES = 3
SETUP_SAMPLES = 7
CLI_KINDS = ("decide", "analyze", "profile", "optimize")

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ratio", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_program():
    """Import edgerigid from the checkout's src/, never from anywhere else."""
    if not (SRC / "edgerigid" / "__init__.py").is_file():
        raise SystemExit(f"error: no edgerigid package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import edgerigid
    import edgerigid.cli

    if SRC.resolve() not in Path(edgerigid.__file__).resolve().parents:
        raise SystemExit(f"error: edgerigid was imported from {edgerigid.__file__}")
    return edgerigid


def write_inputs(jobs, workdir: Path) -> list[Path | None]:
    """Write each CLI job's input file; census jobs hand their bytes to the library."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, job in enumerate(jobs):
        path = None
        if job.kind in CLI_KINDS:
            path = workdir / f"{i:03d}.txt"
            path.write_bytes(job.data)
        paths.append(path)
    return paths


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program, generate and write the workload's inputs, and warm up.

    The warm-up runs one small job of each kind, so that lazy imports and
    first-call costs land here and not in the first timed pass.
    """
    er = import_program()
    jobs = workloads.build(workload, seed)
    warm = workloads.warmup(jobs)
    paths = write_inputs(jobs + warm, workdir)
    run_pass(er, warm, paths[len(jobs):])
    return er, jobs, paths[:len(jobs)]


def setup_probe(args) -> None:
    t0 = perf_counter()
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        set_up(args.workload, args.seed, workdir)
        print(perf_counter() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_seconds(args) -> list[float]:
    """Set-up time measured in fresh interpreters, one per sample."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_job(er, job, path: Path | None) -> tuple[int, str]:
    """Run one job; returns (exit code, output text)."""
    if job.kind == "census":
        g = er.graphs.parse_graph(job.data)
        res = er.rigidity.decide_edge_rigid_exact(g)
        w = res.witness
        witness = w and (w.power, w.edge_a, w.edge_b, w.value_a, w.value_b)
        return 0, repr((g.n, g.edges, res.rigid, res.constants, witness))
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = er.cli.main([job.kind, str(path), *job.args])
    return code, stdout.getvalue()


def reference_seconds() -> float:
    """Time one run of a fixed kernel that shares no code with edgerigid.

    It does the three kinds of work the workloads spend their time on:
    interpreted Python loops, products of object arrays of Python ints, and
    eigh on small float matrices. So it slows down with the machine as they
    do, and wall_ref divides that out.
    """
    import numpy as np

    t0 = perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    A = np.array([[(3 * i + 5 * j) % 7 - 3 for j in range(20)] for i in range(20)], dtype=object)
    P = A
    for _ in range(10):
        P = P @ A
    x = np.arange(30.0)
    M = np.cos(np.add.outer(x, x))
    for _ in range(60):
        np.linalg.eigh(M)
    return perf_counter() - t0


def run_pass(er, jobs, paths, tracer=None, first_job_id=0, refs=None):
    """One pass over the job list: (seconds in jobs, [(code, output, seconds)]).

    With refs, the reference kernel is timed before each job and appended.
    """
    gc.collect()
    results = []
    for j, (job, path) in enumerate(zip(jobs, paths)):
        if refs is not None:
            refs.append(reference_seconds())
        if tracer is not None:
            tracer.begin_job(first_job_id + j)
        t0 = perf_counter()
        try:
            code, out = run_job(er, job, path)
        except (Exception, SystemExit) as exc:  # a failed job must not stop the run
            code, out = None, f"raised {exc!r}"
        results.append((code, out, perf_counter() - t0))
    return sum(dt for _, _, dt in results), results


class Ledger:
    """Counts attempted and failed job runs.

    The first pass is checked by the independent checks; every later pass
    must reproduce its exit codes and output bytes exactly.
    """

    def __init__(self, jobs, check):
        self.jobs = jobs
        self.check = check
        self.reference: list[tuple[int | None, str]] | None = None
        self.reasons: list[str | None] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add_pass(self, results) -> int:
        """Record one pass; returns how many of its jobs succeeded."""
        if self.reference is None:
            self.reference = [(code, out) for code, out, _ in results]
            self.reasons = [
                out if code is None else self.check(job, code, out)
                for job, (code, out) in zip(self.jobs, self.reference)
            ]
        ok = 0
        for job, reason, ref, (code, out, _) in zip(self.jobs, self.reasons, self.reference, results):
            if reason is None and (code, out) != ref:
                reason = "output differs from the first pass"
            self.attempted += 1
            if reason is None:
                ok += 1
            else:
                self.failed += 1
                self.messages.append(f"{job.name}: {reason}")
        return ok


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples above it: (value, percentile).

    With 10 samples or fewer no such percentile exists, and the maximum is returned.
    """
    xs = sorted(samples)
    i = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def inconclusive_ratio(jobs, reference) -> float | None:
    import checks

    verdicts = [
        res["verdict"]
        for job, (code, out) in zip(jobs, reference)
        if job.kind in ("profile", "optimize") and code == 0
        for res in checks.optimizer_results(job, out)
    ]
    return sum(v == "inconclusive" for v in verdicts) / len(verdicts) if verdicts else None


def pass_count(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    # Every float matrix here is at most 100 x 100, where BLAS threads only add noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_program()  # fail before the set-up probes if there is no program
    setup = setup_seconds(args) if args.trace == 0 else []

    import checks
    import tracer as tracing

    workdir = OUT / f"work-{os.getpid()}"
    try:
        er, jobs, paths = set_up(args.workload, args.seed, workdir)
        ledger = Ledger(jobs, checks.check)
        passes = pass_count(args.workload, args.seconds)
        if args.trace == 0:
            metrics, notes = measure(er, jobs, paths, ledger, passes, setup)
        else:
            metrics, notes = measure_traced(er, jobs, paths, ledger, passes, args, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ratio = inconclusive_ratio(jobs, ledger.reference)
    if args.trace == 1:
        metrics["eigensum.inconclusive_ratio"] = (ratio or 0.0, "ratio")
    if ratio is not None:
        notes.append(f"inconclusive_ratio {ratio:.6f} ratio (optimizer verdicts)")
    report(args, jobs, ledger, metrics, notes)
    return 0


def measure(er, jobs, paths, ledger, passes, setup):
    """End-to-end metrics over the timed passes.

    wall_ref is wall_s over the median time of the reference kernel, timed
    before every job: the speed of the 2-core VM this was built on switched
    between two states about 1.5x apart for minutes at a time, which moved
    wall_s itself by more than any allowed bound between sets of runs.
    wall_s, jobs_per_s (the job count over wall_s), job_p50_ms and
    job_tail_ms are printed but are not in the result, for the same reason.
    job_p50_ms is the median over jobs of each job's median latency: with
    few jobs of very different sizes, the median of the raw samples would
    fall between the slowest run of one job and the fastest of the next.
    """
    walls, per_pass, refs, ok = [], [], [], 0
    for _ in range(passes):
        wall, results = run_pass(er, jobs, paths, refs=refs)
        ok += ledger.add_pass(results)
        walls.append(wall)
        per_pass.append([dt for _, _, dt in results])
    latencies = [dt for lats in per_pass for dt in lats]
    tail_s, pct = tail(latencies)
    wall_s = statistics.median(walls)
    ref_s = statistics.median(refs)
    values = {
        "setup_s": statistics.median(setup),
        "wall_ref": wall_s / ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    p50 = statistics.median(statistics.median(job) for job in zip(*per_pass))
    notes = [
        f"{'wall_s':32s} {wall_s:14.6f} s",
        f"{'reference_s':32s} {ref_s:14.6f} s (median of {len(refs)} runs of the reference kernel)",
        f"{'jobs_per_s':32s} {ok / passes / wall_s:14.6f} 1/s",
        f"{'job_p50_ms':32s} {p50 * 1e3:14.6f} ms",
        f"{'job_tail_ms':32s} {tail_s * 1e3:14.6f} ms (p{pct:.1f} of {len(latencies)} job samples)",
        f"{passes} timed passes",
        f"setup_s samples {[round(s, 4) for s in setup]}",
        f"wall_s samples {[round(w, 4) for w in walls]}",
    ]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, notes


def measure_traced(er, jobs, paths, ledger, passes, args, tracing):
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    for i in range(max(2, passes // 2)):
        wall, results = run_pass(er, jobs, paths)
        ledger.add_pass(results)
        plain.append(wall)
        first_span = len(tracer.spans)
        tracer.install()
        try:
            wall, results = run_pass(er, jobs, paths, tracer, first_job_id=(i + 1) * len(jobs))
        finally:
            tracer.uninstall()
        ledger.add_pass(results)
        traced.append(wall)
        spans = tracer.spans[first_span:]
        layers.append(tracing.layer_metrics(spans, len(jobs)))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans_path)
    metrics = {
        name: (statistics.median(layer[name] for layer in layers), unit_of(name))
        for name in layers[0]
    }
    stdout_bytes = sum(
        len(out.encode()) for job, (_, out) in zip(jobs, ledger.reference) if job.kind in CLI_KINDS
    )
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    top = ", ".join(f"{name} {share:.3f}" for name, share in tracing.self_time_shares(spans, wall)[:6])
    notes = [
        f"{len(traced)} traced passes, wall_s {statistics.median(traced):.4f} s;"
        f" {len(plain)} untraced, wall_s {statistics.median(plain):.4f} s",
        f"self-time shares of the last traced pass: {top}",
        f"spans written to {spans_path.relative_to(ROOT)}",
    ]
    return metrics, notes


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def report(args, jobs, ledger, metrics, notes) -> None:
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"jobs {len(jobs)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(f"{'failed_ratio':32s} {ledger.failed / ledger.attempted:14.6f} ratio"
          f" ({ledger.failed} of {ledger.attempted} job runs)")
    for note in notes:
        print(note)
    for message in ledger.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
