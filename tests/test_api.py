import argparse
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mixlap
from mixlap.cli import _build_parser, main

# the public surface of the package; a name added or removed shows up here as
# a reviewed diff (w_alpha is gone: use fields.truncated_power(alpha, L))
PUBLIC_NAMES = {
    "AccuracyError", "BarrierParams", "ConfigError", "ConstructionError",
    "DomainError", "ExponentLadder", "GridFunction", "InputError",
    "Mesh", "MixlapError", "NumericalError", "OperatorParams",
    "QuadratureSpec", "RadialField", "ResolutionError", "ScalarField",
    "SolveReport", "StiffnessSystem", "TailDivergenceError", "TailExpansion",
    "VerificationReport", "build_barrier", "build_mesh", "build_system",
    "check_boundary_lipschitz", "check_linf_bound", "check_weak_mp",
    "counterexample_boundary_only", "counterexample_ces", "counterexample_general",
    "frac_apply", "load_vector", "mixed_apply", "normalization_constant",
    "radial_cutoff", "run_suite", "solve_dirichlet",
}

# the parameters of the public drivers; a knob added to one shows up here as a
# reviewed diff (each driver evaluates at the default quadrature tolerance)
DRIVER_PARAMETERS = {
    "build_barrier": ["s"],
    "counterexample_ces": ["s"],
    "counterexample_general": ["s", "n_dim"],
    "run_suite": ["s", "n", "seed", "domain"],
}


# what a caller can set on the operator, its quadrature and its assembly; a
# setting added back shows up here as a reviewed diff.  The operator is
# always -Delta + (-Delta)^s, both parts assembled, and the tolerance is the
# quadrature's one setting.
SETTABLE = {
    "OperatorParams": ["n_dim", "s"],
    "QuadratureSpec": ["tolerance"],
    "build_system": ["mesh", "params"],
    "frac_apply": ["u", "x", "params", "quad"],
    "mixed_apply": ["u", "x", "params", "quad"],
}

# the options of each CLI command: --config and one flag for each key the
# command reads (a counterexample: any of its variants); the CLI's counterpart
# to SETTABLE, so a flag added shows up here as a reviewed diff
CLI_OPTIONS = {
    "solve": ["--config", "--s", "--domain", "--n", "--f", "--output-dir"],
    "barrier": ["--config", "--s", "--output-dir"],
    "verify": ["--config", "--s", "--domain", "--n", "--output-dir", "--seed"],
    "counterexample": ["--config", "--s", "--n", "--output-dir", "--variant", "--dimension",
                       "--annulus-radius"],
}

# the total line count of src/mixlap/*.py; growth shows up here as a reviewed
# diff, as a public name does in PUBLIC_NAMES
SOURCE_LINE_CEILING = 2608


def _parameters(names):
    return {name: list(inspect.signature(getattr(mixlap, name)).parameters)
            for name in names}


def test_public_names_snapshot():
    names = {n for n, v in vars(mixlap).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == PUBLIC_NAMES


def test_driver_parameters_snapshot():
    assert _parameters(DRIVER_PARAMETERS) == DRIVER_PARAMETERS


def test_settable_surface_snapshot():
    # a dataclass's signature lists its init fields: c_ns is derived
    assert _parameters(SETTABLE) == SETTABLE


def test_cli_options_snapshot():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: [opt for action in p._actions for opt in action.option_strings
                      if opt not in ("-h", "--help")]
               for name, p in sub.choices.items()}
    assert options == CLI_OPTIONS


def test_source_line_ceiling():
    src = Path(__file__).resolve().parents[1] / "src" / "mixlap"
    lines = sum(len(path.read_text().splitlines()) for path in src.glob("*.py"))
    assert lines <= SOURCE_LINE_CEILING


# public functions and methods that the drivers below do not reach, and why
# each stays public; a name reached, or newly unreached, shows up here
UNREACHED_BY_DRIVERS = {
    "GridFunction.frac_image": "the closed-form image of a hat interpolant, which "
                               "frac_apply refuses by name; tests image with it",
    "RadialField.laplacian": "the local part in dimensions 2 and 3, reached by "
                             "counterexample --variant general --dimension 2/3 (2.3 s)",
    "RadialField.c2_distance": "the radii kept in dimensions 2 and 3, reached by "
                               "counterexample --variant general --dimension 2/3",
}

# cheap CLI jobs that between them run every check of the suite, both
# counterexamples of run_suite, the barrier and a solve
_DRIVER_JOBS = (
    ["solve", "--n", "15", "--s", "0.3"],
    ["barrier", "--s", "0.3"],
    ["verify", "--n", "15", "--s", "0.3"],
    ["verify", "--n", "15", "--s", "0.7"],
    ["counterexample", "--variant", "boundary", "--n", "63"],
)


def _public_code():
    """The code object of each public function and of each public method or
    property of a public class, by dotted name."""
    out = {}
    for name, obj in vars(mixlap).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
        for attr, v in members:
            if attr is not None and attr.startswith("_"):
                continue
            v = getattr(v, "fget", None) or getattr(v, "func", None) or v
            if inspect.isfunction(v):
                out[name if attr is None else f"{name}.{attr}"] = v.__code__
    return out


def test_every_public_function_is_reached_by_a_driver(tmp_path, capsys):
    public = _public_code()
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for i, argv in enumerate(_DRIVER_JOBS):
            assert main([*argv, "--output-dir", str(tmp_path / str(i))]) == 0, argv
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    unreached = {name for name, code in public.items() if code not in reached}
    assert unreached == set(UNREACHED_BY_DRIVERS)


def _fresh_interpreter(code: str) -> str:
    """What ``code`` prints when run by a new interpreter with mixlap on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, check=True).stdout


def test_import_leaves_scipy_integrate_unloaded():
    # the constants are closed forms and the preconditioner's DST-I is a
    # numpy rfft; importing mixlap and building the first operator pulls in
    # neither scipy's quadrature nor its FFT package
    out = _fresh_interpreter(
        "import sys, mixlap; mixlap.OperatorParams(1, 0.25); "
        "print('scipy.integrate' in sys.modules, 'scipy.fft' in sys.modules)")
    assert out.split() == ["False", "False"]


def test_import_and_dense_builders_leave_scipy_unloaded():
    # the dense Toeplitz matrices are built with numpy: no scipy module at all
    code = (
        "import sys, mixlap, mixlap.cli\n"
        "p = mixlap.OperatorParams(1, 0.25)\n"
        "mesh = mixlap.build_mesh(-1.0, 1.0, 7)\n"
        "mixlap.build_system(mesh, p)\n"
        "mixlap.assembly.local_stiffness(mesh)\n"
        "mixlap.assembly.nonlocal_stiffness(mesh, p)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    assert _fresh_interpreter(code).strip() == "[]"


def test_verify_suite_leaves_numpy_ma_unloaded():
    # the boundary check takes its median by hand: np.median imports numpy.ma
    code = ("import sys, mixlap\n"
            "mixlap.run_suite(0.5, 63, seed=7)\n"
            "print('numpy.ma' in sys.modules)\n")
    assert _fresh_interpreter(code).strip() == "False"


def test_drivers_run_without_lapack_or_numpy_polynomial():
    # the Gauss rules are tabulated and the boundary slope is a closed form:
    # a solve, a verify suite and a barrier call no LAPACK routine, and
    # nothing imports numpy.polynomial
    code = ("import sys, numpy.linalg\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('a LAPACK routine was called')\n"
            "for name in ('lstsq', 'eigvalsh', 'eigh', 'solve', 'svd'):\n"
            "    setattr(numpy.linalg, name, refuse)\n"
            "import mixlap\n"
            "from mixlap.fields import constant\n"
            "mesh = mixlap.build_mesh(-1.0, 1.0, 63)\n"
            "mixlap.solve_dirichlet(mixlap.build_system(mesh, mixlap.OperatorParams(1, 0.5)),\n"
            "                       constant(1.0))\n"
            "mixlap.run_suite(0.5, 63, seed=7)\n"
            "mixlap.build_barrier(0.3)\n"
            "print('numpy.polynomial' in sys.modules)\n")
    assert _fresh_interpreter(code).strip() == "False"


def test_operator_constant_is_derived_not_passed():
    with pytest.raises(TypeError):
        mixlap.OperatorParams(1, 0.5, c_ns=1.0)
