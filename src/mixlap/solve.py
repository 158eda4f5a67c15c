"""Solution of the discrete zero-exterior Dirichlet problem.

The matrix is symmetric positive definite Toeplitz.  It is solved by
conjugate gradients with an FFT matvec, preconditioned by its natural tau
matrix T - H(T), which the DST-I diagonalises (Bini & Di Benedetto, SPAA
1990; Chan & Ng, SIAM Review 38, 1996); the tridiagonal local row is its own
tau matrix.  A solution is accepted when its normwise backward error
||Au - b|| / (||A|| ||u|| + ||b||), infinity norm, is at most n eps
(Rigal-Gaches; Higham, Accuracy and Stability, sec. 7.1).  Reports carry the
energy, gradient norm and load norm to monitor stability constants.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .assembly import GridFunction, StiffnessSystem, load_vector
from .errors import DomainError, NumericalError
from .fields import ScalarField, pointwise
from .kernel import mixed_apply, tail_integral

MAX_ITERATIONS = 500
_EPS = np.finfo(float).eps


def lp_norm(f: ScalarField, mesh, p: float) -> float:
    """||f||_{L^p(a,b)} by load_vector's Gauss rule, so pointwise loads reuse samples."""
    pts, w = mesh.gauss_points()
    vals = np.abs(f.evaluate(pts.ravel())) ** p
    return float(np.sum(vals.reshape(pts.shape) * w)) ** (1.0 / p)


@dataclass(frozen=True)
class SolveReport:
    """Solution plus the quantities mirroring the existence estimate."""

    solution: GridFunction
    residual_norm: float
    energy: float
    x_norm: float
    l2_f_norm: float
    ratio_energy: float
    iterations: int
    backward_error: float
    f: Optional[ScalarField] = None
    exterior: Optional[ScalarField] = None
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n": self.solution.mesh.n,
            "interval": [self.solution.mesh.a, self.solution.mesh.b],
            "residual_norm": self.residual_norm,
            "energy": self.energy,
            "x_norm": self.x_norm,
            "l2_f_norm": self.l2_f_norm,
            "ratio_energy": self.ratio_energy,
            "iterations": self.iterations,
            "max_abs_u": self.solution.max_abs(),
            "min_u": float(np.min(self.solution.coeffs)),
            **self.meta,
        }


def _dst1(x: np.ndarray) -> np.ndarray:
    """DST-I (scipy's type 1) by one rfft of the odd extension; squared, 2(n+1) I."""
    return -np.fft.rfft(np.concatenate([[0.0], x, [0.0], -x[::-1]])).imag[1:x.size + 1]


def _tau_eigenvalues(row: np.ndarray) -> np.ndarray:
    """Spectrum of T - H(T), first column t - [t_2, ..., t_{n-1}, 0, 0]; must be > 0."""
    n = row.size
    col = row - np.concatenate([row[2:], np.zeros(min(n, 2))])
    lam = _dst1(col) / (2.0 * np.sin(np.pi * np.arange(1, n + 1) / (n + 1)))
    if not lam.min() > 0.0:
        raise NumericalError("the tau spectrum of the Toeplitz row is not positive",
                             eigenvalue_estimate=float(lam.min()))
    return lam


def _backward_error(row: np.ndarray, b: np.ndarray, r: np.ndarray, u: np.ndarray) -> float:
    """||r|| / (||A|| ||u|| + ||b||) in the infinity norm; ||A|| from the
    row's cumulative sums (row i sums offsets up to i and up to n-1-i)."""
    cum = np.cumsum(np.abs(row))
    norm_a = float(np.max(cum + cum[::-1])) - abs(row[0])
    scale = norm_a * float(np.max(np.abs(u))) + float(np.max(np.abs(b)))
    size = float(np.max(np.abs(r)))
    return size / scale if scale > 0.0 else size


def _pcg(sys: StiffnessSystem, b: np.ndarray):
    """u, A u and the iteration count of PCG, stopped at backward error n eps
    or MAX_ITERATIONS.  The recursive residual proposes convergence and the
    one recomputed from u confirms it, or CG goes on from the recomputed one."""
    row, n = sys.row, b.size
    lam = 2.0 * (n + 1) * _tau_eigenvalues(row)
    u, r, p, rz = np.zeros(n), b.copy(), None, 0.0
    for iterations in range(MAX_ITERATIONS):
        if _backward_error(row, b, r, u) <= n * _EPS:
            au = sys.apply(u)
            r = b - au
            if _backward_error(row, b, r, u) <= n * _EPS:
                return u, au, iterations
            p = None
        z = _dst1(_dst1(r) / lam)
        rz_old, rz = rz, float(r @ z)
        p = z if p is None else z + (rz / rz_old) * p
        q = sys.apply(p)
        pq = float(p @ q)
        if not pq > 0.0:
            pp = float(p @ p)
            raise NumericalError(
                "PCG breakdown: p^T A p is not positive (the matrix is not "
                "positive definite, or the data underflow)",
                eigenvalue_estimate=pq / pp if pp > 0.0 else None)
        alpha = rz / pq
        u = u + alpha * p
        r = r - alpha * q
    return u, sys.apply(u), MAX_ITERATIONS


def solve_dirichlet(sys: StiffnessSystem, f: ScalarField) -> SolveReport:
    """Solve (local + nonlocal) u = load and report energies and norms.

    Raises ``NumericalError`` if the backward error of u exceeds n eps."""
    b = load_vector(f, sys.mesh)
    u, au, iterations = _pcg(sys, b)
    err = _backward_error(sys.row, b, b - au, u)
    if err > b.size * _EPS:
        raise NumericalError(f"backward error {err:.3g} exceeds n eps = "
                             f"{b.size * _EPS:.3g} after {iterations} PCG iterations")
    loc = np.append(sys.local_row[:2], 0.0)  # diagonal and off-diagonal, even at n = 1
    steps = np.diff(u, prepend=0.0, append=0.0)
    x_sq = (loc[0] + 2.0 * loc[1]) * float(u @ u) - loc[1] * float(steps @ steps)
    x_norm = math.sqrt(max(x_sq, 0.0))
    fl2 = lp_norm(f, sys.mesh, 2.0)
    return SolveReport(
        solution=GridFunction(sys.mesh, u),
        residual_norm=float(np.linalg.norm(au - b)),
        energy=float(u @ au),
        x_norm=x_norm,
        l2_f_norm=fl2,
        ratio_energy=(x_norm / fl2 if fl2 > 0 else math.inf if x_norm > 0 else 0.0),
        iterations=iterations,
        backward_error=err,
        f=f,
        meta={"solver": "toeplitz-pcg"},
    )


def lift_nonhomogeneous(sys: StiffnessSystem, f: ScalarField,
                        g: ScalarField) -> SolveReport:
    """Nonhomogeneous exterior data: solve for v with load f - L g, return v + g.

    ``g`` must be twice differentiable near the closed interval and have a
    finite membership integral; its exterior values are kept exactly (the
    correction v has zero exterior data).
    """
    if g.second_derivative is None:
        raise DomainError("exterior datum needs a second derivative near the domain")
    if not math.isfinite(tail_integral(g, sys.params)):
        raise DomainError("exterior datum fails the membership integral")
    mesh = sys.mesh
    lg = pointwise(lambda t: mixed_apply(g, t, sys.params))
    rhs_field = ScalarField(evaluate=lambda x: f.evaluate(x) - lg(x), name="f - L g")
    report = solve_dirichlet(sys, rhs_field)
    u_vals = report.solution.coeffs + g.evaluate(mesh.nodes)
    return replace(
        report, solution=GridFunction(mesh, u_vals), l2_f_norm=lp_norm(f, mesh, 2.0),
        f=f, exterior=g, meta={**report.meta, "lifted": True})


# ---------------------------------------------------------------------------
# artifact export
# ---------------------------------------------------------------------------


def export_solution_csv(path, report: SolveReport) -> None:
    """Two-column CSV (x, u) over the interior nodes, 17 significant digits."""
    mesh = report.solution.mesh
    with open(path, "w") as fh:
        fh.write("x,u\n")
        fh.writelines(f"{x:.17g},{u:.17g}\n" for x, u in
                      zip(mesh.nodes.tolist(), report.solution.coeffs.tolist()))


def export_report(path, report: SolveReport) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
