"""Mixed local/nonlocal elliptic solver, barrier builder and verification suite.

The operator is the superposition of the Laplacian and the fractional
Laplacian of order s in (0, 1), with Dirichlet data prescribed on the whole
exterior of the domain.  The package evaluates the operator pointwise on
explicit functions, assembles and solves the Galerkin system on an interval,
constructs certified boundary barriers, and runs checks of the maximum
principles, uniform bounds, boundary growth rates and the wrong-sign /
boundary-only counterexamples.  Each module is imported when one of its names
is first used (PEP 562); ``mixlap.cli`` imports all of them.
"""

import importlib

_HOME = {name: module for module, names in {
    "assembly": "GridFunction Mesh StiffnessSystem build_mesh build_system load_vector",
    "barrier": "BarrierParams ExponentLadder build_barrier radial_cutoff",
    "errors": "AccuracyError ConfigError ConstructionError DomainError InputError MixlapError "
              "NumericalError ResolutionError TailDivergenceError",
    "fields": "RadialField ScalarField TailExpansion",
    "kernel": "OperatorParams QuadratureSpec frac_apply mixed_apply normalization_constant",
    "solve": "SolveReport solve_dirichlet",
    "verify": "VerificationReport check_boundary_lipschitz check_linf_bound check_weak_mp "
              "counterexample_boundary_only counterexample_ces counterexample_general run_suite",
}.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached in globals(): a caller that rebinds a module's function is seen here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
