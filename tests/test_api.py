import argparse
import importlib
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
SOURCE_LINE_CEILING = 2576


def _parameters(names):
    return {name: list(inspect.signature(getattr(mixlap, name)).parameters)
            for name in names}


def test_public_names_snapshot():
    # the package imports its modules on first use, so its names are the
    # lookup table's, not what vars(mixlap) happens to hold
    assert set(mixlap.__all__) == PUBLIC_NAMES
    assert not any(isinstance(getattr(mixlap, n), types.ModuleType) for n in mixlap.__all__)


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


# every function, method, closure and lambda in src/mixlap that the driver
# jobs below do not call, by module and qualified name, and why each stays;
# one reached, or newly unreached, shows up here.  Class bodies (run at
# import) and comprehensions (run with the code around them) are not listed
_RADIAL = ("the radial path, reached only by counterexample --variant general "
           "--dimension 2/3, which takes 2-3 s")
_PERFBENCH = "perfbench/ wraps or passes it, so it waits for the benchmark's mend (ROADMAP item 0)"
UNREACHED_BY_DRIVERS = {
    "kernel.frac_apply_radial": _RADIAL,
    "kernel._direction_panels": _RADIAL,
    "kernel._line_field": _RADIAL,
    "kernel._line_field.<locals>.<lambda>": _RADIAL,
    "kernel._line_field.<locals>.d2": _RADIAL,
    "fields.RadialField.__call__": _RADIAL,
    "fields.RadialField.laplacian": _RADIAL,
    "fields.RadialField.c2_distance": _RADIAL,
    "verify._radial_counterexample_profile.<locals>.d1": _RADIAL + " (the profile's slope)",
    "assembly._toeplitz": _PERFBENCH,
    "assembly.nonlocal_stiffness": _PERFBENCH,
    "assembly.local_stiffness": _PERFBENCH,
    "kernel.QuadratureSpec.__post_init__": _PERFBENCH + "; frac_apply's default runs it at import",
    "assembly.GridFunction.frac_image": "the closed-form image of a hat interpolant, which "
                                        "frac_apply refuses by name; tests image with it",
    "__init__.__getattr__": "the package's lookup on first use; the CLI imports its modules by "
                            "name, so no driver job goes through it, and the tests below call it",
}

# cheap CLI jobs, with the exit each gives, that between them run every check
# of the suite, both counterexamples of run_suite, the barrier on both sides
# of 1/2, each command's keys, a --config file, each load kind, and a refusal
# for each error class that has its own __init__
_DRIVER_JOBS = (
    (["solve", "--n", "15", "--s", "0.3"], 0),
    (["solve", "--n", "15", "--f", "poly:1,2"], 0),
    (["solve", "--n", "15", "--f", "csv:{csv}"], 0),
    (["solve", "--config", "{config}"], 0),
    (["barrier", "--s", "0.3"], 0),
    (["barrier", "--s", "0.75"], 0),
    (["verify", "--n", "15", "--s", "0.3", "--seed", "3"], 0),
    (["verify", "--n", "15", "--s", "0.7"], 0),
    (["counterexample", "--variant", "boundary", "--n", "63"], 0),
    (["counterexample", "--variant", "boundary", "--n", "15", "--annulus-radius", "3"], 0),
    (["counterexample", "--variant", "general", "--dimension", "1", "--s", "0.75"], 0),
    (["solve", "--n", "1", "--domain", "-1e-300", "1e-300"], 2),    # NumericalError
    (["barrier", "--s", "0.5000001"], 2),                            # ConstructionError
)

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _code_locations():
    """(file, first line, name) of each function, method, closure and lambda
    in src/mixlap, grouped by module and qualified name."""
    found = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name in _COMPREHENSIONS:
                continue
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                found.setdefault(f"{module}.{name}", []).append(
                    (const.co_filename, const.co_firstlineno, const.co_name))
                walk(const, module, name + ".<locals>.")
            else:
                walk(const, module, name + ".")

    for path in sorted(Path(mixlap.__file__).parent.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem, "")
    return found


def test_every_public_function_is_reached_by_a_driver(tmp_path, capsys):
    # public or not: every function and closure in src/mixlap
    csv, config = tmp_path / "load.csv", tmp_path / "config.json"
    csv.write_text("x,u\n-1,0\n0,1\n1,0\n")
    config.write_text('{"s": 0.3, "n": 15}')
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    # a cached function's body runs once a process: clear every cache, so
    # that an earlier test's call cannot stand in for the drivers'
    for module in [m for name, m in sys.modules.items() if name.startswith("mixlap.")]:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for i, (argv, code) in enumerate(_DRIVER_JOBS):
            argv = [arg.format(csv=csv, config=config) for arg in argv]
            assert main([*argv, "--output-dir", str(tmp_path / str(i))]) == code, argv
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    unreached = {name for name, where in _code_locations().items()
                 if not reached.issuperset(where)}
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


def test_import_loads_only_the_modules_a_name_needs():
    # the package imports a module when one of its names is first used: the
    # operator needs kernel, fields and errors, not the solver, the barrier,
    # the verify suite or the json and hashlib they import
    out = _fresh_interpreter(
        "import sys, mixlap; mixlap.OperatorParams(1, 0.25); "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'mixlap')); "
        "print('json' in sys.modules, 'hashlib' in sys.modules)")
    assert out.splitlines() == ["mixlap mixlap.errors mixlap.fields mixlap.kernel", "False False"]


def test_package_names_are_the_modules_own_objects():
    for name in PUBLIC_NAMES:
        home = importlib.import_module(f"mixlap.{mixlap._HOME[name]}")
        assert getattr(mixlap, name) is getattr(home, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from mixlap import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_an_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mixlap.no_such_name
    assert not hasattr(mixlap, "no_such_name")


def test_the_package_sees_a_function_rebound_in_its_module(monkeypatch):
    # perfbench's tracer rebinds each traced function in its module and
    # restores it afterwards; a copy cached in the package would outlive that
    home = importlib.import_module("mixlap.solve")
    original = home.solve_dirichlet

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(home, "solve_dirichlet", wrapper)
        assert mixlap.solve_dirichlet is wrapper
    assert mixlap.solve_dirichlet is original


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
