"""Batch front-end: config parsing, dispatch, CSV/JSON artifact emission.

Configuration is a flat JSON document; command-line flags override keys.
Each command accepts only the keys it reads (``_READS``).  All artifacts are
plain text with full-precision decimal floats so runs can be diffed byte for
byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import assembly, barrier, solve, verify
from .errors import ConfigError, MixlapError
from .fields import ScalarField, constant
from .kernel import OperatorParams

# the keys each command reads besides output_dir; a counterexample reads
# those of its variant, with "auto" resolved by s (see _variant)
_READS = {
    "solve": ("s", "domain", "n", "f"),
    "barrier": ("s",),
    "verify": ("s", "domain", "n", "seed"),
    "counterexample": {
        "ces": ("s", "variant"),
        "general": ("s", "variant", "dimension"),
        "boundary": ("s", "variant", "n", "annulus_radius"),
    },
}

# key -> (kind, condition, wording); domain and f have their own checks
_CHECKS = {
    "s": (float, lambda s: 0.0 < s < 1.0, "must lie in (0,1)"),
    "n": (int, lambda n: n >= 1, "must be a positive integer"),
    "output_dir": (str, lambda path: True, ""),
    "seed": (int, lambda seed: seed >= 0, "must be a nonnegative integer"),
    "variant": (str, lambda v: v in ("auto", *_READS["counterexample"]),
                "must be auto|ces|general|boundary"),
    "dimension": (int, lambda d: d in (1, 2, 3), "must be 1, 2 or 3"),
    "annulus_radius": (float, lambda rr: 1.0 < rr < math.inf, "must be finite and exceed 1"),
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    s: float = 0.5
    domain: tuple = (-1.0, 1.0)
    n: int = 127
    f: str = "constant:1"
    output_dir: str = "out"
    seed: int = 0
    variant: str = "auto"       # counterexample selector: ces|general|boundary|auto
    dimension: int = 1          # for the nonnegative-exterior counterexample
    annulus_radius: float = 2.0  # for the boundary-only counterexample


_KEYS = tuple(fld.name for fld in fields(RunConfig))[1:]  # in the order they are checked


def _require(cond: bool, key: str, msg: str):
    if not cond:
        raise ConfigError(f"{key}: {msg}")


def _typed(doc, key, kind, name: str = ""):
    """kind(doc[key]), or a ConfigError on ``name`` (default: the key)."""
    val = doc[key]
    try:
        # a bool is no number, and an int keeps no fractional part
        if isinstance(val, bool) or (kind is int and isinstance(val, float)
                                     and not val.is_integer()):
            raise ValueError
        return kind(val)
    except (TypeError, ValueError, OverflowError) as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name or key}: {val!r} is not {noun}") from exc


def _json_object(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"document: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError("document: must be a JSON object")
    return doc


def _checked(doc: dict, key: str):
    """The value of doc[key] once it passes its check."""
    if key == "domain":
        dom = doc["domain"]
        _require(isinstance(dom, (list, tuple)) and len(dom) == 2, "domain",
                 "must be a pair [a, b]")
        a, b = _typed(dom, 0, float, "domain"), _typed(dom, 1, float, "domain")
        _require(math.isfinite(a) and math.isfinite(b), "domain", "must be finite")
        _require(a < b, "domain", "must satisfy a < b")
        return (a, b)
    if key == "f":
        _load_field(str(doc["f"]))  # validates eagerly
        return str(doc["f"])
    kind, ok, wording = _CHECKS[key]
    val = str(doc[key]) if kind is str else _typed(doc, key, kind)
    _require(ok(val), key, wording)
    return val


def _variant(cfg: RunConfig) -> str:
    if cfg.variant != "auto":
        return cfg.variant
    return "ces" if cfg.s < 0.5 else "general"


def _validated(doc: dict) -> RunConfig:
    unknown = set(doc) - {"command", *_KEYS}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown key")
    if "command" not in doc:
        raise ConfigError("command: missing required key")
    command = str(doc["command"])
    _require(command in _READS, "command", f"must be one of {tuple(_READS)}")
    values = {key: _checked(doc, key) for key in _KEYS if key in doc}
    cfg = RunConfig(command, **values)
    reads, reader = _READS[command], command
    if command == "counterexample":
        variant = _variant(cfg)
        reads, reader = reads[variant], f"{command} --variant {variant}"
    unread = [key for key in values if key not in (*reads, "output_dir")]
    if unread:
        raise ConfigError(f"{unread[0]}: not read by {reader}")
    return cfg


def _load_field(spec: str) -> ScalarField:
    """Named loads: constant:V | poly:c0,c1,... | csv:path."""
    kind, _, rest = spec.partition(":")
    if kind == "constant":
        try:
            return constant(float(rest))
        except ValueError as exc:
            raise ConfigError(f"f: bad constant value {rest!r}") from exc
    if kind == "poly":
        try:
            coeffs = [float(c) for c in rest.split(",") if c.strip()]
        except ValueError as exc:
            raise ConfigError(f"f: bad polynomial coefficients {rest!r}") from exc
        if not coeffs:
            raise ConfigError("f: polynomial needs at least one coefficient")

        def horner(x):  # an overflow is refused as a non-finite load sample
            with np.errstate(over="ignore", invalid="ignore"):
                out = coeffs[-1] + x * 0
                for c in coeffs[-2::-1]:
                    out = c + out * x
            return out

        return ScalarField(evaluate=horner, name=f"poly({rest})")
    if kind == "csv":
        path = Path(rest)
        if not path.exists():
            raise ConfigError(f"f: sample file {rest!r} not found")
        try:
            with warnings.catch_warnings():  # a header-only file is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"f: sample file {rest!r} is not numeric CSV ({exc})") from exc
        if data.shape[0] == 0 or data.shape[1] < 2:
            raise ConfigError(f"f: sample file {rest!r} needs rows of x,u samples")
        xs, ys = data[:, 0], data[:, 1]
        order = np.argsort(xs)
        xs, ys = xs[order], ys[order]

        def ev(x):
            return np.interp(np.asarray(x, dtype=float), xs, ys, left=0.0, right=0.0)

        return ScalarField(evaluate=ev, name=f"csv({rest})")
    raise ConfigError(f"f: unknown load kind {kind!r}")


# ---------------------------------------------------------------------------
# command runners
# ---------------------------------------------------------------------------


def _run_solve(cfg: RunConfig, outdir: Path) -> int:
    a, b = cfg.domain
    mesh = assembly.build_mesh(a, b, cfg.n)
    params = OperatorParams(1, cfg.s)
    sys_ = assembly.build_system(mesh, params)
    report = solve.solve_dirichlet(sys_, _load_field(cfg.f))
    solve.export_solution_csv(outdir / "solution.csv", report)
    solve.export_report(outdir / "report.json", report)
    assembly.export_matrix(outdir / "stiffness.txt", sys_.row,
                           comment=f"s={cfg.s} n={cfg.n} h={mesh.h:.17g}")
    return 0


def _run_barrier(cfg: RunConfig, outdir: Path) -> int:
    p = barrier.build_barrier(cfg.s)
    xs = np.array(p.gamma_grid)  # the grid Lgamma >= 1 was certified on
    columns = (p.gamma_grid, barrier.beta_field(p)(xs).tolist(),
               barrier.gamma_field(p)(xs).tolist(), p.lgamma)
    with open(outdir / "barrier.csv", "w") as fh:
        fh.write("x,beta,gamma,Lgamma\n")
        fh.writelines(f"{x:.17g},{b:.17g},{g:.17g},{lg:.17g}\n" for x, b, g, lg in zip(*columns))
    with open(outdir / "certificate.txt", "w") as fh:
        fh.write(f"s = {cfg.s:.17g}\n")
        fh.write(f"case = {p.ladder.case}\n")
        fh.write(f"alphas = {[f'{a:.17g}' for a in p.ladder.alphas]}\n")
        fh.write(f"kappas = {[f'{k:.17g}' for k in p.kappas]}\n")
        fh.write(f"coefficients = {[f'{c:.17g}' for c in p.cs]}\n")
        for key in ("d", "C_sharp", "C2", "C0", "C1", "ell", "M", "R", "c_gamma", "S_d"):
            fh.write(f"{key} = {getattr(p, key):.17g}\n")
        for key, val in sorted(p.certificate.items()):
            fh.write(f"certificate.{key} = {val}\n")
    return 0


def _run_verify(cfg: RunConfig, outdir: Path) -> int:
    reports = verify.run_suite(cfg.s, cfg.n, cfg.seed, domain=cfg.domain)
    lines = [r.line() for r in reports]
    ok = all(r.passed for r in reports)
    summary = "\n".join(lines) + f"\nsuite: {'all passed' if ok else 'FAILURES'}\n"
    (outdir / "verify_summary.txt").write_text(summary)
    sys.stdout.write(summary)
    return 0 if ok else 1


def _run_counterexample(cfg: RunConfig, outdir: Path) -> int:
    variant = _variant(cfg)
    if variant == "ces":
        rep = verify.counterexample_ces(cfg.s)
    elif variant == "general":
        rep = verify.counterexample_general(cfg.s, cfg.dimension)
    else:
        rep = verify.counterexample_boundary_only(cfg.annulus_radius, cfg.s, cfg.n)
    summary = rep.line() + "\n"
    (outdir / "counterexample_summary.txt").write_text(summary)
    sys.stdout.write(summary)
    return 0 if rep.passed else 1


def run(config: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit status."""
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    runner = {
        "solve": _run_solve,
        "barrier": _run_barrier,
        "verify": _run_verify,
        "counterexample": _run_counterexample,
    }[config.command]
    return runner(config, outdir)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache  # parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mixlap",
        description="Mixed local/nonlocal Dirichlet solver and verification suite",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    options = {"domain": {"type": float, "nargs": 2, "metavar": ("A", "B")},
               "f": {"help": "constant:V | poly:c0,c1,... | csv:path"},
               "variant": {"choices": ("auto", *_READS["counterexample"])}}
    for name, reads in _READS.items():
        if isinstance(reads, dict):  # a flag for each key some variant reads
            reads = {key for keys in reads.values() for key in keys}
        p = sub.add_parser(name)
        # argparse < 3.13 takes "-1e6" and "-inf" for options; no option here
        # starts with a digit, "inf" or "nan"
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; flags override its keys")
        for key in _KEYS:
            if key in reads or key == "output_dir":
                p.add_argument("--" + key.replace("_", "-"),
                               **(options.get(key) or {"type": _CHECKS[key][0]}))
    return ap


def _config_from_args(args) -> RunConfig:
    doc = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config: cannot read {args.config!r} ({exc})") from exc
        doc = _json_object(text)
    doc["command"] = args.command
    for key in _KEYS:
        val = getattr(args, key, None)
        if val is not None:
            doc[key] = val
    if "output_dir" not in doc and os.environ.get("MIXLAP_OUTPUT_DIR"):
        doc["output_dir"] = os.environ["MIXLAP_OUTPUT_DIR"]
    return _validated(doc)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except MixlapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
