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
from dataclasses import dataclass

import numpy as np

from .assembly import GridFunction, StiffnessSystem, _odd_rfft, load_vector
from .errors import NumericalError
from .fields import ScalarField

MAX_ITERATIONS = 500
_EPS = np.finfo(float).eps
# a power sum at or above this lost no bits to subnormal terms
_NORMAL_FLOOR = np.finfo(float).tiny / _EPS
# the binary exponents, as math.frexp gives them, of the normal doubles
_MIN_EXP, _MAX_EXP = np.finfo(float).minexp + 1, np.finfo(float).maxexp


def _lp_of_samples(vals: np.ndarray, w: np.ndarray, p: float) -> float:
    """||f||_{L^p} by load_vector's Gauss rule on its (n+1, 6) samples.  Where
    |f|^p or the sum leaves the normal range, above or below, the samples are
    divided by max |f| first; every other load keeps the plain sum's bits."""
    with np.errstate(over="ignore"):
        powers = np.abs(vals) ** p
        total = float(np.sum(powers * w))
    peak = float(np.max(powers, initial=0.0))
    if _NORMAL_FLOOR <= peak and _NORMAL_FLOOR <= total < math.inf:
        return total ** (1.0 / p)
    top = float(np.max(np.abs(vals), initial=0.0))
    if not 0.0 < top < math.inf:  # a zero load, or a non-finite sample
        return top
    return top * float(np.sum((np.abs(vals) / top) ** p * w)) ** (1.0 / p)


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
            "solver": "toeplitz-pcg",
        }


def _tau_solve(r: np.ndarray, neg_lam: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """DST(DST(r) / lam), lam = -neg_lam: the tau preconditioner, with the
    division written straight into the second transform's extension."""
    n = r.size
    ext[1:n + 1] = r
    np.divide(_odd_rfft(ext, n), neg_lam, out=ext[1:n + 1])
    return -_odd_rfft(ext, n)


def _backward_error(norm_a: float, norm_b: float, r: np.ndarray, u: np.ndarray) -> float:
    """||r|| / (||A|| ||u|| + ||b||) in the infinity norm, given ||A|| and ||b||."""
    scale = norm_a * float(np.abs(u).max()) + norm_b
    size = float(np.abs(r).max())
    return size / scale if scale > 0.0 else size


def _pcg(sys: StiffnessSystem, b: np.ndarray):
    """u, A u and the iteration count of PCG, stopped at backward error n eps
    or MAX_ITERATIONS.  The recursive residual proposes convergence and the
    one recomputed from u confirms it, or CG goes on from the recomputed one."""
    n = b.size
    neg_lam = -2.0 * (n + 1) * sys.tau
    norm_a, norm_b, tol = sys.norm_inf, float(np.abs(b).max()), n * _EPS
    ext = np.zeros(2 * n + 2)
    u, r, p, rz = np.zeros(n), b.copy(), None, 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        for iterations in range(MAX_ITERATIONS):
            if _backward_error(norm_a, norm_b, r, u) <= tol:
                au = sys.apply(u)
                r = b - au
                if _backward_error(norm_a, norm_b, r, u) <= tol:
                    return u, au, iterations
                p = None
            z = _tau_solve(r, neg_lam, ext)
            rz_old, rz = rz, float(r @ z)
            p = z if p is None else z + (rz / rz_old) * p
            q = sys.apply(p)
            pq = float(p @ q)
            if not (math.isfinite(rz) and math.isfinite(pq)):
                raise NumericalError(
                    "PCG left the double range: r^T z or p^T A p is not finite "
                    "(the domain or the load is too large to solve in doubles)")
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

    The load is sampled once: ||f||_2 comes from load_vector's samples.  PCG
    runs on the load vector b over 2^k, k the binary exponent of max |b|, so
    its inner products neither overflow nor underflow with the load's size;
    u, its energy and the norms are scaled back, which changes no bit of
    normal data.  Raises ``NumericalError`` if the backward error of u
    exceeds n eps, or if u or its energy leaves the double range."""
    samples = []
    b = load_vector(f, sys.mesh, samples=samples)
    k = math.frexp(float(np.max(np.abs(b))))[1]
    u, au, iterations = _pcg(sys, np.ldexp(b, -k, out=b))
    err = _backward_error(sys.norm_inf, float(np.abs(b).max()), b - au, u)
    if err > b.size * _EPS:
        raise NumericalError(f"backward error {err:.3g} exceeds n eps = "
                             f"{b.size * _EPS:.3g} after {iterations} PCG iterations")
    peak, energy = float(np.max(np.abs(u))), float(u @ au)
    # below the normal range u has lost its bits; past it, u or its energy is inf
    if not (_MIN_EXP <= math.frexp(peak)[1] + k <= _MAX_EXP
            and math.frexp(energy)[1] + 2 * k <= _MAX_EXP):
        raise NumericalError("the solution or its energy left the double range "
                             "(the domain or the load is too small or too large for doubles)")
    steps, inv_h = np.diff(u, prepend=0.0, append=0.0), 1.0 / sys.mesh.h
    with np.errstate(over="ignore"):  # ||u_h'||^2 = steps @ steps / h, rescaled out of range
        squares = float(steps @ steps)
        x_norm = math.sqrt(inv_h * squares)
    if peak > 0.0 and not (_NORMAL_FLOOR <= squares and x_norm < math.inf):
        top = float(np.max(np.abs(steps)))
        x_norm = top * math.sqrt(inv_h * float((steps / top) @ (steps / top)))
    x_norm = math.ldexp(x_norm, k)
    fl2 = _lp_of_samples(*samples, 2.0)
    return SolveReport(
        solution=GridFunction(sys.mesh, np.ldexp(u, k, out=u)),
        residual_norm=math.ldexp(float(np.linalg.norm(au - b)), k),
        energy=math.ldexp(energy, 2 * k),
        x_norm=x_norm,
        l2_f_norm=fl2,
        ratio_energy=(x_norm / fl2 if fl2 > 0 else math.inf if x_norm > 0 else 0.0),
        iterations=iterations,
        backward_error=err,
    )


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
