"""Spans around the calls into mixlap's layers, recorded from the benchmark.

The program is not changed: each public function listed in ``LAYERS`` is
wrapped and the wrapper is rebound in every ``mixlap`` module namespace that
holds the same function object (``from .kernel import frac_apply`` copies
the object into ``barrier``, ``verify`` and the package itself, so patching
``kernel`` alone would miss those callers).  A span records its name, start,
end, parent span, job id and a few attributes; spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


def _frac_apply_span(args, kwargs) -> str:
    # no workload reaches the radial path; its calls are kept out of the 1D metrics
    params = kwargs["params"] if "params" in kwargs else args[2]
    return "kernel.frac_apply_1d" if params.n_dim == 1 else "kernel.frac_apply_radial"


def _mesh_n(args, kwargs, _result) -> dict:
    return {"n": (kwargs.get("mesh") or args[0]).n}


def _load_n(args, kwargs, _result) -> dict:
    return {"n": (kwargs.get("mesh") or args[1]).n}


def _solve_note(args, kwargs, report) -> dict:
    return {"n": (kwargs.get("sys") or args[0]).mesh.n, "iterations": report.iterations}


def _barrier_note(args, kwargs, p) -> dict:
    return {"s": kwargs.get("s", args[0] if args else None), "d": p.d}


def _reports_note(_args, _kwargs, result) -> dict:
    reports = result if isinstance(result, list) else [result]
    return {"checks": len(reports), "checks_failed": sum(not r.passed for r in reports)}


def _argv_note(args, kwargs, _status) -> dict:
    return {"argv": list(kwargs.get("argv") or args[0] or [])}


# (module, function) -> (span name or a function of the call's arguments,
#                        attributes taken from arguments and result)
LAYERS: Dict[tuple, tuple] = {
    ("kernel", "frac_apply"): (_frac_apply_span, None),
    ("kernel", "mixed_apply"): ("kernel.mixed_apply", None),
    ("kernel", "normalization_constant"): ("kernel.normalization_constant", None),
    ("assembly", "nonlocal_stiffness"): ("assembly.nonlocal_stiffness", _mesh_n),
    ("assembly", "local_stiffness"): ("assembly.local_stiffness", _mesh_n),
    ("assembly", "load_vector"): ("assembly.load_vector", _load_n),
    ("assembly", "export_matrix"): ("assembly.export_matrix", None),
    ("solve", "solve_dirichlet"): ("solve.solve_dirichlet", _solve_note),
    ("solve", "export_solution_csv"): ("solve.export_solution_csv", None),
    ("barrier", "build_barrier"): ("barrier.build_barrier", _barrier_note),
    ("verify", "run_suite"): ("verify.run_suite", _reports_note),
    ("verify", "counterexample_ces"): ("verify.counterexample", _reports_note),
    ("verify", "counterexample_general"): ("verify.counterexample", _reports_note),
    ("verify", "counterexample_boundary_only"): ("verify.counterexample", _reports_note),
    ("cli", "main"): ("cli.main", _argv_note),
}

# Per-layer metrics, in the order BENCHMARK.json lists them, with units.
# ``bytes``, ``points`` and ``flops`` are computed from sizes, not measured.
PER_LAYER_UNITS: Dict[str, str] = {
    "kernel.frac_apply_1d.calls": "count",
    "kernel.frac_apply_1d.self_s": "s",
    "kernel.mixed_apply.calls": "count",
    "kernel.mixed_apply.self_s": "s",
    "kernel.normalization_constant.calls": "count",
    "kernel.normalization_constant.self_s": "s",
    "assembly.nonlocal_stiffness.calls": "count",
    "assembly.nonlocal_stiffness.self_s": "s",
    "assembly.nonlocal_stiffness.bytes": "B",
    "assembly.local_stiffness.self_s": "s",
    "assembly.load_vector.calls": "count",
    "assembly.load_vector.self_s": "s",
    "assembly.load_vector.points": "count",
    "assembly.export_matrix.self_s": "s",
    "solve.solve_dirichlet.calls": "count",
    "solve.solve_dirichlet.self_s": "s",
    "solve.solve_dirichlet.failed": "count",
    "solve.solve_dirichlet.refined": "count",
    "solve.solve_dirichlet.flops": "flop",
    "solve.export_solution_csv.self_s": "s",
    "barrier.build_barrier.calls": "count",
    "barrier.build_barrier.self_s": "s",
    "barrier.build_barrier.attempts": "count",
    "barrier.build_barrier.useful_ratio": "ratio",
    "verify.run_suite.calls": "count",
    "verify.run_suite.self_s": "s",
    "verify.counterexample.calls": "count",
    "verify.counterexample.self_s": "s",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.artifact_bytes": "B",
    "job.self_s": "s",
    "fail_frac": "ratio",
    "trace.pass_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans while installed; ``spans`` holds them all, in order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # each span: [name, start, end, parent index or -1, job id, attrs]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._job: Optional[str] = None
        self._rebound: List[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), math.nan, parent, self._job, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def job(self, job_id: str):
        """Root span of one job; layer spans opened inside it share its id."""
        self._job = job_id
        idx = self._open("job")
        try:
            yield self.spans[idx][5]
        finally:
            self._close(idx)
            self._job = None

    def _wrap(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.spans[idx][5]["raised"] = type(exc).__name__
                raise
            finally:
                tracer._close(idx)
            if note is not None:
                tracer.spans[idx][5].update(note(args, kwargs, result))
            return result

        return traced

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and rebind it wherever mixlap holds it."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "mixlap" or name.startswith("mixlap."))}
        for (mod_name, fn_name), (span, note) in LAYERS.items():
            original = getattr(modules[f"mixlap.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span, note)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job", "attrs")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, sp)) for sp in self.spans], fh)


def self_times(spans: List[list], offset: int = 0) -> List[float]:
    """Each span's duration minus the time covered by its direct children.

    ``spans`` may be a slice of a longer record that starts at ``offset``;
    parent indices are positions in the whole record.
    """
    own = [sp[2] - sp[1] for sp in spans]
    for sp in spans:
        if sp[3] >= offset:
            own[sp[3] - offset] -= sp[2] - sp[1]
    return own


def layer_metrics(spans: List[list], offset: int = 0) -> Dict[str, float]:
    """Per-layer metrics of one traced pass: ``spans`` from ``offset`` on."""
    own = self_times(spans, offset)
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    m: Dict[str, float] = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for sp, t in zip(spans, own):
        name, attrs = sp[0], sp[5]
        calls[name] += 1
        self_s[name] += t
        if name == "assembly.nonlocal_stiffness":
            m["assembly.nonlocal_stiffness.bytes"] += 8 * attrs["n"] ** 2
        elif name == "assembly.load_vector":
            m["assembly.load_vector.points"] += 6 * (attrs["n"] + 1)
        elif name == "solve.solve_dirichlet":
            refined = attrs.get("iterations", 0) >= 1
            m["solve.solve_dirichlet.refined"] += refined
            m["solve.solve_dirichlet.failed"] += "raised" in attrs
            # refinement re-factorizes; a raised solve gave up after refining
            factorizations = 2 if (refined or "raised" in attrs) else 1
            n = attrs.get("n") or 0
            m["solve.solve_dirichlet.flops"] += factorizations * n ** 3 / 3.0
        elif name == "barrier.build_barrier":
            d = attrs.get("d")
            m["barrier.build_barrier.attempts"] += 13 if d is None else 1 + math.log2(0.5 / d)
        elif name in ("verify.run_suite", "verify.counterexample"):
            # count reports where they reach the caller, not inside run_suite
            parent = sp[3] - offset
            if parent < 0 or not spans[parent][0].startswith("verify."):
                m["verify.checks"] += attrs.get("checks", 0)
                m["verify.checks_failed"] += attrs.get("checks_failed", 0)
        elif name == "job":
            m["cli.artifact_bytes"] += attrs.get("artifact_bytes", 0)
            m["trace.pass_s"] += sp[2] - sp[1]
    for key, unit in PER_LAYER_UNITS.items():
        layer, _, stat = key.rpartition(".")
        if stat == "calls":
            m[key] = calls.get(layer, 0)
        elif stat == "self_s":
            m[key] = self_s.get(layer, 0.0)
    attempts = m["barrier.build_barrier.attempts"]
    m["barrier.build_barrier.useful_ratio"] = (
        calls.get("barrier.build_barrier", 0) / attempts if attempts else 0.0)
    return m


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    """Median over passes of each metric (counts repeat, so theirs are exact)."""
    return {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in per_pass[0]}
