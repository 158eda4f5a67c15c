"""Run one mixlap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve_ladder --seed 1 --seconds 40 --trace 0

Run from the root of a mixlap source tree: the package is imported from
``./src``.  Jobs run serially in this process, a closed loop with one
client; BLAS keeps its default thread count.  Passes over the workload's
fixed job list repeat: as many passes as fit in ``--seconds`` at the
workload's baseline pass time (at least one).  The pass count does not
depend on how fast the machine runs, so the same seed always attempts, and
fails, the same jobs.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass
time), ``peak_rss_mb`` (peak resident memory of this process during the
first pass) and ``setup_s`` (median over fresh interpreters of importing
mixlap and building the workload's first ``OperatorParams``).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the median traced pass, with ``trace.overhead_frac``
= traced / untraced wall - 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
every job that raised, exited non-zero or missed its output check;
``correct`` is false when any job crashed or returned a wrong output.  A
typed refusal (``MixlapError``, CLI exit 2) is a failure but not a wrong
output.  Lines before it give provenance, per-pass results and every
failed job's reason.  Artifacts, results and spans go to ``perfbench/_work``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import PER_LAYER_UNITS, Tracer, layer_metrics, median_metrics

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_REPEATS = 5
MAX_OVERRUN = 3.0
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import mixlap
mixlap.OperatorParams({n_dim}, {s!r})
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_mixlap(root: Path) -> None:
    """Import mixlap from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import mixlap
    import mixlap.cli  # noqa: F401  (not imported by the package itself)

    if Path(mixlap.__file__).resolve().parent != src / "mixlap":
        raise SystemExit(f"error: imported mixlap from {mixlap.__file__}, not {src}")


def measure_setup(root: Path, n_dim: int, s: float) -> float:
    """Median over fresh interpreters of import + first OperatorParams."""
    code = SETUP_SNIPPET.format(n_dim=n_dim, s=s)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded in this process, by library file."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def provenance(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "mixlap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe(tag: str, outcomes) -> str:
    wall = sum(o.seconds for o in outcomes)
    bad = [f"{i}:{o.status}" for i, o in enumerate(outcomes) if o.failed]
    return f"# {tag} wall_s={wall:.4f} failed={len(bad)}/{len(outcomes)} {' '.join(bad)}"


def traced_pass(workload, workdir, clock, tracer: Tracer, number: int):
    """One pass with the layer functions wrapped; returns outcomes and metrics."""
    first = len(tracer.spans)
    tracer.install()
    try:
        outcomes = workloads.run_pass(workload, workdir, clock,
                                      on_job=lambda i: tracer.job(f"{number}:{i}"))
    finally:
        tracer.uninstall()
    spans = tracer.spans[first:]
    for sp, job, o in zip((sp for sp in spans if sp[0] == "job"), workload.jobs, outcomes):
        sp[5].update(label=job.label, status=o.status, artifact_bytes=o.artifact_bytes)
    return outcomes, layer_metrics(spans, first)


def measure(workload, workdir: Path, seconds: float, trace: bool, tracer: Tracer,
            setup_s: float | None = None) -> dict:
    """Run the passes that fit in ``seconds``; return the result object.

    The count is ``seconds // workload.pass_s`` passes, at least one.  With
    ``trace`` each round is an untraced and a traced pass, in alternating
    order so that neither side always pays the first pass's warm-up, and
    there are half as many rounds.  A run that takes ``MAX_OVERRUN`` times
    longer than planned stops early, so that it still ends in time.
    """
    clock = tracer.clock
    untraced, traced, layer_passes = [], [], []
    peak_rss = None
    passes = max(1, int(seconds // workload.pass_s))
    rounds = max(1, passes // 2) if trace else passes
    deadline = MAX_OVERRUN * max(seconds, workload.pass_s)
    start = clock()
    for _ in range(rounds):
        order = [False, True] if trace else [False]
        if len(traced) % 2:
            order.reverse()
        for with_trace in order:
            if with_trace:
                outcomes, layers = traced_pass(workload, workdir, clock, tracer, len(traced))
                traced.append(outcomes)
                layer_passes.append(layers)
                print(describe(f"traced pass {len(traced)}", outcomes))
            else:
                outcomes = workloads.run_pass(workload, workdir, clock)
                untraced.append(outcomes)
                # later passes only add allocator fragmentation, by how many ran
                peak_rss = peak_rss or rss_mb()
                print(describe(f"pass {len(untraced)}", outcomes))
        if clock() - start >= deadline:
            print(f"# stopped after {clock() - start:.1f} s, {MAX_OVERRUN}x the planned time")
            break

    every = [o for p in untraced + traced for o in p]
    reasons = {(i, o.status, o.reason) for p in untraced + traced
               for i, o in enumerate(p) if o.failed}
    for i, status, reason in sorted(reasons):
        print(f"# job {i} ({workload.jobs[i].label}) {status}: {reason[:200]}")
    attempted = len(every)
    failed = sum(o.failed for o in every)
    wall = statistics.median(sum(o.seconds for o in p) for p in untraced)
    if trace:
        metrics = median_metrics(layer_passes)
        traced_wall = statistics.median(sum(o.seconds for o in p) for p in traced)
        metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
        metrics["fail_frac"] = failed / attempted
        units = PER_LAYER_UNITS
    else:
        metrics = {"wall_s": wall, "peak_rss_mb": peak_rss, "setup_s": setup_s}
        units = END_TO_END_UNITS
    return {
        "correct": not any(o.status in ("wrong", "crashed") for o in every),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mixlap" / "__init__.py").is_file():
        print(f"error: no mixlap sources under {root / 'src'}; run from a source tree",
              file=sys.stderr)
        return 2
    import_mixlap(root)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = None if args.trace else measure_setup(root, *workload.setup_params)
    prov = provenance(root, args.seed)
    print("# provenance " + json.dumps(prov, sort_keys=True))

    workdir = root / "perfbench" / "_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(time.perf_counter)
    result = measure(workload, workdir, args.seconds, bool(args.trace), tracer, setup_s)
    metrics = result["metrics"]
    if args.trace:
        spans_path = workdir / f"spans_seed{args.seed}.json"
        tracer.write(spans_path)
        print(f"# spans written to {spans_path.relative_to(root)}")
    else:
        print(f"# {args.workload}: wall_s={metrics['wall_s']['value']:.4f} s  "
              f"fail_frac={result['failed'] / result['attempted']:.4f} "
              f"({result['failed']}/{result['attempted']})  "
              f"peak_rss_mb={metrics['peak_rss_mb']['value']:.1f} MB  "
              f"setup_s={setup_s:.4f} s  outputs {'correct' if result['correct'] else 'WRONG'}")
    record = dict(result, workload=args.workload, trace=args.trace, provenance=prov)
    (workdir / f"result_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
