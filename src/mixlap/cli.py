"""Batch front-end: config parsing, dispatch, CSV/JSON artifact emission.

Configuration is a flat JSON document; command-line flags override keys.
All artifacts are plain text with full-precision decimal floats so runs can
be diffed byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import assembly, barrier, solve, verify
from .errors import ConfigError, MixlapError
from .fields import ScalarField, TailExpansion, constant
from .kernel import OperatorParams, mixed_apply

_COMMANDS = ("solve", "barrier", "verify", "counterexample")
_CONFIG_KEYS = {
    "command", "s", "domain", "n", "f", "output_dir", "seed",
    "variant", "dimension", "annulus_radius",
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


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document; unknown keys are rejected."""
    return _validated(_json_object(text))


def _validated(doc: dict) -> RunConfig:
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown key")
    if "command" not in doc:
        raise ConfigError("command: missing required key")
    cfg = RunConfig(command=str(doc["command"]))
    _require(cfg.command in _COMMANDS, "command", f"must be one of {_COMMANDS}")
    if "s" in doc:
        s = _typed(doc, "s", float)
        _require(0.0 < s < 1.0, "s", "must lie in (0,1)")
        cfg = replace(cfg, s=s)
    if "domain" in doc:
        dom = doc["domain"]
        _require(isinstance(dom, (list, tuple)) and len(dom) == 2, "domain",
                 "must be a pair [a, b]")
        a, b = _typed(dom, 0, float, "domain"), _typed(dom, 1, float, "domain")
        _require(math.isfinite(a) and math.isfinite(b), "domain", "must be finite")
        _require(a < b, "domain", "must satisfy a < b")
        cfg = replace(cfg, domain=(a, b))
    if "n" in doc:
        n = _typed(doc, "n", int)
        _require(n >= 1, "n", "must be a positive integer")
        cfg = replace(cfg, n=n)
    if "f" in doc:
        spec = str(doc["f"])
        _load_field(spec, cfg.domain)  # validates eagerly
        cfg = replace(cfg, f=spec)
    if "output_dir" in doc:
        cfg = replace(cfg, output_dir=str(doc["output_dir"]))
    if "seed" in doc:
        seed = _typed(doc, "seed", int)
        _require(seed >= 0, "seed", "must be a nonnegative integer")
        cfg = replace(cfg, seed=seed)
    if "variant" in doc:
        v = str(doc["variant"])
        _require(v in ("auto", "ces", "general", "boundary"), "variant",
                 "must be auto|ces|general|boundary")
        cfg = replace(cfg, variant=v)
    if "dimension" in doc:
        d = _typed(doc, "dimension", int)
        _require(d in (1, 2, 3), "dimension", "must be 1, 2 or 3")
        cfg = replace(cfg, dimension=d)
    if "annulus_radius" in doc:
        rr = _typed(doc, "annulus_radius", float)
        _require(rr > 1.0, "annulus_radius", "must exceed 1")
        cfg = replace(cfg, annulus_radius=rr)
    return cfg


def _load_field(spec: str, domain) -> ScalarField:
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

        poly = np.polynomial.polynomial
        plus = tuple((c, float(k)) for k, c in enumerate(coeffs) if c != 0.0)
        minus = tuple((c * (-1.0) ** k, float(k)) for k, c in enumerate(coeffs) if c != 0.0)
        return ScalarField(
            evaluate=lambda x: poly.polyval(x, coeffs),
            second_derivative=lambda x: poly.polyval(x, poly.polyder(coeffs, 2)),
            tail=TailExpansion(max(abs(domain[0]), abs(domain[1])), plus, minus),
            name=f"poly({rest})",
        )
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

        return ScalarField(
            evaluate=ev, kinks=tuple(xs),
            tail=TailExpansion(float(np.max(np.abs(xs)))),
            name=f"csv({rest})", graded_kinks=(),
        )
    raise ConfigError(f"f: unknown load kind {kind!r}")


# ---------------------------------------------------------------------------
# command runners
# ---------------------------------------------------------------------------


def _run_solve(cfg: RunConfig, outdir: Path) -> int:
    a, b = cfg.domain
    mesh = assembly.build_mesh(a, b, cfg.n)
    params = OperatorParams(1, cfg.s)
    sys_ = assembly.build_system(mesh, params)
    report = solve.solve_dirichlet(sys_, _load_field(cfg.f, cfg.domain))
    solve.export_solution_csv(outdir / "solution.csv", report)
    solve.export_report(outdir / "report.json", report)
    assembly.export_matrix(outdir / "stiffness.txt", sys_.row,
                           comment=f"s={cfg.s} n={cfg.n} h={mesh.h:.17g}")
    return 0


def _run_barrier(cfg: RunConfig, outdir: Path) -> int:
    p = barrier.build_barrier(cfg.s)
    params = OperatorParams(1, cfg.s)
    bf = barrier.beta_field(p)
    gf = barrier.gamma_field(p)
    xs = np.geomspace(p.ell * 1e-3, p.ell * 0.99, 50)
    columns = (xs, bf(xs), gf(xs), mixed_apply(gf, xs, params))
    with open(outdir / "barrier.csv", "w") as fh:
        fh.write("x,beta,gamma,Lgamma\n")
        fh.writelines(f"{x:.17g},{b:.17g},{g:.17g},{lg:.17g}\n"
                      for x, b, g, lg in zip(*(c.tolist() for c in columns)))
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
    variant = cfg.variant
    if variant == "auto":
        variant = "ces" if cfg.s < 0.5 else "general"
    if variant == "ces":
        rep = verify.counterexample_ces(cfg.s)
    elif variant == "general":
        rep = verify.counterexample_general(cfg.s, cfg.dimension)
    elif variant == "boundary":
        rep = verify.counterexample_boundary_only(cfg.annulus_radius, cfg.s, cfg.n)
    else:  # pragma: no cover - guarded by parse_config
        raise ConfigError(f"variant: unknown {variant!r}")
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


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mixlap",
        description="Mixed local/nonlocal Dirichlet solver and verification suite",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        # argparse < 3.13 takes "-1e6" and "-inf" for options; no option here
        # starts with a digit, "inf" or "nan"
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; flags override its keys")
        p.add_argument("--s", type=float, default=None)
        p.add_argument("--domain", type=float, nargs=2, default=None,
                       metavar=("A", "B"))
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--f", type=str, default=None,
                       help="constant:V | poly:c0,c1,... | csv:path")
        p.add_argument("--output-dir", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "counterexample":
            p.add_argument("--variant", choices=("auto", "ces", "general", "boundary"),
                           default=None)
            p.add_argument("--dimension", type=int, default=None)
            p.add_argument("--annulus-radius", type=float, default=None)
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
    for key in _CONFIG_KEYS - {"command"}:
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
