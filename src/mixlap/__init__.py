"""Mixed local/nonlocal elliptic solver, barrier builder and verification suite.

The operator is the superposition of the Laplacian and the fractional
Laplacian of order s in (0, 1), with Dirichlet data prescribed on the whole
exterior of the domain.  The package evaluates the operator pointwise on
explicit functions, assembles and solves the Galerkin system on an interval,
constructs certified boundary barriers, and runs checks of the maximum
principles, uniform bounds, boundary growth rates and the wrong-sign /
boundary-only counterexamples.
"""

from .assembly import (GridFunction, Mesh, StiffnessSystem, build_mesh,
                       build_system, load_vector)
from .barrier import BarrierParams, ExponentLadder, build_barrier, radial_cutoff
from .errors import (AccuracyError, ConfigError, ConstructionError,
                     DomainError, InputError, MixlapError, NumericalError,
                     ResolutionError, TailDivergenceError)
from .fields import RadialField, ScalarField, TailExpansion
from .kernel import (OperatorParams, QuadratureSpec, frac_apply, mixed_apply,
                     normalization_constant)
from .solve import SolveReport, solve_dirichlet
from .verify import (VerificationReport, check_boundary_lipschitz,
                     check_linf_bound, check_weak_mp, counterexample_boundary_only,
                     counterexample_ces, counterexample_general, run_suite)

__version__ = "0.1.0"
