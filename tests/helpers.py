"""Test-only fields built from the library's ScalarField, single-part
stiffness systems, and the functions only tests call: the far-field mass,
the load's L^p norm, the exterior-data lift, the barrier value wrappers, the
bilinear form, the embedding index, the strong-principle contact check and
the interior residual check."""

import dataclasses
import math
from typing import Sequence

import numpy as np

from mixlap.assembly import GridFunction, StiffnessSystem
from mixlap.barrier import BarrierParams, beta_field, gamma_field
from mixlap.errors import DomainError
from mixlap.fields import (RadialField, ScalarField, TailExpansion, _smoothstep_d1,
                           _smoothstep_d2, smoothstep)
from mixlap.kernel import (_SPHERE_AREA, Field, OperatorParams, QuadratureSpec,
                           _gauss_nodes, mixed_apply)
from mixlap.solve import SolveReport, _lp_of_samples, solve_dirichlet
from mixlap.verify import VerificationReport, _digest


def pure_power(alpha: float) -> ScalarField:
    """x -> max(x, 0)**alpha; grows like x**alpha at +infinity."""
    if alpha <= 0:
        raise DomainError("pure_power requires a positive exponent")

    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, np.maximum(x, 0.0) ** alpha, 0.0)

    def d2(x):
        x = np.asarray(x, dtype=float)
        xp = np.where(x > 0.0, x, 1.0)
        return np.where(x > 0.0, alpha * (alpha - 1.0) * xp ** (alpha - 2.0), 0.0)

    return ScalarField(
        evaluate=ev,
        second_derivative=d2,
        kinks=(0.0,),
        tail=TailExpansion(1.0, ((1.0, alpha),), ()),
        name=f"x_+^{alpha}",
        support=(0.0, math.inf),
    )


def scaled_tail(tail: TailExpansion, eps: float) -> TailExpansion:
    """Tail of x -> u(x/eps), where ``tail`` is the tail of u."""
    return TailExpansion(
        cutoff=tail.cutoff * eps,
        plus_terms=tuple((c * eps ** (-p), p) for c, p in tail.plus_terms),
        minus_terms=tuple((c * eps ** (-p), p) for c, p in tail.minus_terms),
    )


def scaled(u: ScalarField, eps: float) -> ScalarField:
    """x -> u(x / eps)."""
    if eps <= 0:
        raise DomainError("scaling factor must be positive")
    d2 = None
    if u.second_derivative is not None:
        d2 = lambda x: u.second_derivative(x / eps) / eps**2  # noqa: E731
    return ScalarField(
        evaluate=lambda x: u.evaluate(np.asarray(x, dtype=float) / eps),
        second_derivative=d2,
        kinks=tuple(k * eps for k in u.kinks),
        tail=scaled_tail(u.tail, eps),
        name=f"{u.name}(x/{eps})",
        support=(u.support[0] * eps, u.support[1] * eps),
    )


def translated(u: ScalarField, t: float) -> ScalarField:
    """x -> u(x - t).  Only supported for compact or constant tails."""
    if u.tail.max_power() > 0:
        raise DomainError("translation is only supported for bounded tails")
    d2 = None
    if u.second_derivative is not None:
        d2 = lambda x: u.second_derivative(x - t)  # noqa: E731
    return ScalarField(
        evaluate=lambda x: u.evaluate(np.asarray(x, dtype=float) - t),
        second_derivative=d2,
        kinks=tuple(k + t for k in u.kinks),
        tail=TailExpansion(u.tail.cutoff + abs(t), u.tail.plus_terms, u.tail.minus_terms),
        name=f"{u.name}(x-{t})",
        support=(u.support[0] + t, u.support[1] + t),
    )


def linear_combination(coeffs, fields) -> ScalarField:
    """sum_k coeffs[k] * fields[k], with tails merged term by term."""
    coeffs = [float(c) for c in coeffs]
    fields = list(fields)
    if len(coeffs) != len(fields):
        raise DomainError("coefficient/field length mismatch")

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, f in zip(coeffs, fields):
            out = out + c * f.evaluate(x)
        return out

    d2 = None
    if all(f.second_derivative is not None for f in fields):
        d2 = lambda x: sum(  # noqa: E731
            (c * f.second_derivative(x) for c, f in zip(coeffs, fields)),
            np.zeros_like(np.asarray(x, dtype=float)))
    cutoff = max([f.tail.cutoff for f in fields] + [0.0])
    plus = tuple((c * a, p) for c, f in zip(coeffs, fields) for a, p in f.tail.plus_terms)
    minus = tuple((c * a, p) for c, f in zip(coeffs, fields) for a, p in f.tail.minus_terms)
    kinks = tuple(sorted({k for f in fields for k in f.kinks}))
    return ScalarField(
        evaluate=ev,
        second_derivative=d2,
        kinks=kinks,
        tail=TailExpansion(cutoff, plus, minus),
        name="+".join(f"{c}*{f.name}" for c, f in zip(coeffs, fields)),
        support=(min(f.support[0] for f in fields), max(f.support[1] for f in fields)),
    )


def _bump_profile(t):
    """exp(-1/(1-t^2)) on |t|<1, zero outside; smooth on all of R."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    tt = np.where(inside, t, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(inside, np.exp(-1.0 / np.maximum(1.0 - tt * tt, 1e-300)), 0.0)


def mollifier_bump(center: float, radius: float, height: float = 1.0) -> ScalarField:
    """Smooth bump supported on (center - radius, center + radius), peak = height."""
    if radius <= 0:
        raise DomainError("bump radius must be positive")
    h = height * math.e  # profile peaks at exp(-1)

    def ev(x):
        x = np.asarray(x, dtype=float)
        return h * _bump_profile((x - center) / radius)

    def d2(x):
        t = (np.asarray(x, dtype=float) - center) / radius
        inside = np.abs(t) < 1.0
        t = np.where(inside, t, 0.0)
        g = 1.0 - t * t
        val = np.exp(-1.0 / g) * (4.0 * t * t / g**4 - 2.0 / g**2 - 8.0 * t * t / g**3)
        return np.where(inside, h * val / radius**2, 0.0)

    # the support edges are smooth but non-analytic; as support ends they
    # get log-variable rules from inside
    return ScalarField(
        evaluate=ev,
        second_derivative=d2,
        kinks=(center - radius, center + radius),
        tail=TailExpansion(abs(center) + radius),
        name=f"bump(c={center},r={radius})",
        support=(center - radius, center + radius),
    )


def plateau(lo_inner, lo_outer, hi_inner, hi_outer, depth: float = 1.0) -> ScalarField:
    """C^2 plateau: depth on [lo_outer, hi_inner], 0 outside (lo_inner, hi_outer).

    Ramps are quintic smoothsteps, C^2 on all of R; each ramp end is a kink.
    """
    if not (lo_inner < lo_outer <= hi_inner < hi_outer):
        raise DomainError("plateau breakpoints must be increasing")

    def ev(x):
        x = np.asarray(x, dtype=float)
        up = smoothstep((x - lo_inner) / (lo_outer - lo_inner))
        down = smoothstep((hi_outer - x) / (hi_outer - hi_inner))
        return depth * up * down

    def d2(x):
        x = np.asarray(x, dtype=float)
        wu = lo_outer - lo_inner
        wd = hi_outer - hi_inner
        tu = (x - lo_inner) / wu
        td = (hi_outer - x) / wd
        up = smoothstep(tu)
        down = smoothstep(td)
        up1 = _smoothstep_d1(tu) / wu
        down1 = -_smoothstep_d1(td) / wd
        up2 = _smoothstep_d2(tu) / wu**2
        down2 = _smoothstep_d2(td) / wd**2
        return depth * (up2 * down + 2.0 * up1 * down1 + up * down2)

    return ScalarField(
        evaluate=ev,
        second_derivative=d2,
        kinks=(lo_inner, lo_outer, hi_inner, hi_outer),
        tail=TailExpansion(max(abs(lo_inner), abs(hi_outer))),
        name=f"plateau[{lo_inner},{lo_outer},{hi_inner},{hi_outer}]",
    )


def ring_well(r: float) -> ScalarField:
    """The boundary counterexample's ring well as a field: the even extension
    of plateau(r+1, r+2, r+3, r+4, depth=-1), with its second derivative,
    the reference for verify._ring_well's values."""
    kink_radii = (r + 1.0, r + 2.0, r + 3.0, r + 4.0)
    well = plateau(*kink_radii, depth=-1.0)
    return ScalarField(
        evaluate=lambda x: well.evaluate(np.abs(x)),
        second_derivative=lambda x: well.second_derivative(np.abs(x)),
        kinks=tuple(-k for k in kink_radii[::-1]) + kink_radii,
        tail=TailExpansion(r + 4.0),
        name=f"ring well(r={r})",
    )


def without(sys_, *parts):
    """The system with the named rows ("local_row", "nonlocal_row") zeroed:
    a single-part operator, for contrast runs."""
    return dataclasses.replace(sys_, **{part: np.zeros(sys_.mesh.n) for part in parts})


def fourth_difference_moments_reference(n: int, s: float) -> np.ndarray:
    """The row series of assembly._fourth_difference_moments as one loop of
    array passes, each adding a term to every offset up to the last one that
    still feels its term.  The library finishes the last offsets one at a
    time; both must give the same bits."""
    eps = np.finfo(float).eps
    p = 3.0 - 2.0 * s
    g = np.zeros(n)
    t = np.abs(np.arange(-2.0, 5.0))
    log_t = np.log(t, out=np.zeros_like(t), where=t > 0.0)
    e = p - 2.0

    def delta4(j: int) -> np.ndarray:
        phi = t**j * (np.expm1((p - j) * log_t) / e if e != 0.0 else log_t)
        return np.convolve(phi, [1.0, -4.0, 6.0, -4.0, 1.0], "valid")

    head = min(n, 3)
    nearest = min(3, max(1, round(p)))
    g[:head] = (np.append(delta4(2)[:2], delta4(nearest)[2])[:head]
                / (p * (p - 1.0) * 2.0 * s))
    m = np.arange(3.0, n)
    power = m ** (p - 4.0)
    inv_sq = 1.0 / (m * m)
    coef = (p - 3.0) / (2.0 * s)
    k, live = 4, m.size
    while live:
        term = coef * power[:live]
        g[3:3 + live] += term
        felt = np.flatnonzero(np.abs(term) > 0.25 * eps * np.abs(g[3:3 + live]))
        live = int(felt[-1]) + 1 if felt.size else 0
        power[:live] *= inv_sq[:live]
        coef *= ((2.0 ** (k + 3) - 8.0) / (2.0 ** (k + 1) - 8.0)
                 * (p - k) * (p - k - 1.0) / ((k + 1.0) * (k + 2.0)))
        k += 2
    return g


# ---------------------------------------------------------------------------
# weighted far-field mass
# ---------------------------------------------------------------------------


def _geometric_refine(breaks, panels_per_octave: int):
    """Insert points so consecutive breakpoints have ratio <= 2^(1/panels)."""
    ratio = 2.0 ** (1.0 / panels_per_octave)
    out = [breaks[0]]
    for b in breaks[1:]:
        a = out[-1]
        if a > 0 and b / a > ratio:
            k = int(math.ceil(math.log(b / a) / math.log(ratio)))
            step = (b / a) ** (1.0 / k)
            for j in range(1, k):
                out.append(a * step**j)
        out.append(b)
    return out


def _radial_mass(u: RadialField, breaks, params: OperatorParams) -> float:
    """int of |u(y)| / (1 + |y|^{N+2s}) over the shell of radii spanned by breaks."""
    pts, w = _gauss_nodes(breaks[:-1], breaks[1:])
    n = params.n_dim
    vals = np.abs(u.profile(pts))
    return _SPHERE_AREA[n] * float(
        np.sum(w * vals * pts ** (n - 1) / (1.0 + pts ** (n + 2.0 * params.s))))


def tail_kappa(R: float, g: Field, params: OperatorParams) -> float:
    """Weighted far-field mass: int over |y| >= R of |g(y)| / (1 + |y|^{N+2s}).

    Compactly supported fields give exactly zero once R clears the support;
    bounded tails are integrated with the 1/y substitution on graded panels.
    """
    if R <= 0:
        raise DomainError("radius must be positive")
    s = params.s
    if isinstance(g, RadialField):
        if R >= g.support_radius:
            return 0.0
        return _radial_mass(g, _geometric_refine([R, g.support_radius], 4), params)
    if params.n_dim != 1:
        raise DomainError("dimension above 1 requires a radial field")
    if not g.tail.plus_terms and not g.tail.minus_terms and R >= g.tail.cutoff:
        return 0.0
    if g.tail.max_power() >= 2.0 * s:
        return math.inf
    breaks = _geometric_refine([1e-10, 1.0], 4)
    t, tw = _gauss_nodes(breaks[:-1], breaks[1:])
    y = R / t
    jac = R / t**2
    weight = 1.0 / (1.0 + y ** (1.0 + 2.0 * s))
    hi = float(np.sum(tw * np.abs(g.evaluate(y)) * weight * jac))
    lo = float(np.sum(tw * np.abs(g.evaluate(-y)) * weight * jac))
    return hi + lo


def tail_integral(u: Field, params: OperatorParams) -> float:
    """The membership integral int |u(x)| / (1 + |x|^{N+2s}) dx.

    Returns ``math.inf`` when the comparison test on the stored tail growth
    proves divergence.
    """
    if params.n_dim == 1:
        if not isinstance(u, ScalarField):
            raise DomainError("dimension 1 requires a ScalarField")
        y0 = max(u.tail.cutoff, 1.0)
        breaks = _geometric_refine([1e-8 * y0, y0], 2)
        breaks = [-b for b in breaks[::-1]] + breaks
        pts, w = _gauss_nodes(breaks[:-1], breaks[1:])
        body = float(np.sum(w * np.abs(u.evaluate(pts))
                            / (1.0 + np.abs(pts) ** (1.0 + 2.0 * params.s))))
        return body + tail_kappa(y0, u, params)
    if not isinstance(u, RadialField):
        raise DomainError("dimensions 2 and 3 require a RadialField")
    y0 = max(u.support_radius, 1.0)
    return _radial_mass(u, _geometric_refine([1e-10 * y0, y0], 2), params)


# ---------------------------------------------------------------------------
# exterior data, barrier values, the bilinear form, the embedding index
# ---------------------------------------------------------------------------


def lp_norm(f: ScalarField, mesh, p: float) -> float:
    """||f||_{L^p(a,b)} by load_vector's Gauss rule, at the same samples."""
    pts, w = mesh.gauss_points()
    return _lp_of_samples(f.evaluate(pts.ravel()).reshape(pts.shape), w, p)


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
    rhs_field = ScalarField(evaluate=lambda x: f.evaluate(x) - mixed_apply(g, x, sys.params),
                            name="f - L g")
    report = solve_dirichlet(sys, rhs_field)
    u_vals = report.solution.coeffs + g.evaluate(mesh.nodes)
    return dataclasses.replace(
        report, solution=GridFunction(mesh, u_vals), l2_f_norm=lp_norm(f, mesh, 2.0))


def beta(x, p: BarrierParams):
    """Barrier value; vanishes for x <= 0, linear-ish on (0, d), bounded below
    by a positive constant past d."""
    return beta_field(p)(x)


def gamma(x, p: BarrierParams):
    """Scaled barrier: zero for x <= 0, comparable to x on (0, ell), >= 1 past ell."""
    return gamma_field(p)(x)


def theta(x, p: BarrierParams, cutoff: RadialField) -> float:
    """Truncated comparison function: gamma(x_1) times the radial plateau."""
    plateau_radius = cutoff.kinks[0] if cutoff.kinks else cutoff.support_radius / 2.0
    if plateau_radius <= p.R / 2.0:
        raise DomainError("truncation radius must exceed four domain radii")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.linalg.norm(xv))
    return float(gamma(xv[0], p) * cutoff(r))


def bilinear_eval(u: GridFunction, v: GridFunction, sys: StiffnessSystem) -> float:
    """u^T (local + nonlocal) v for grid functions on the system's mesh."""
    if u.mesh != sys.mesh or v.mesh != sys.mesh:
        raise DomainError("grid functions must live on the system's mesh")
    return float(u.coeffs @ sys.apply(v.coeffs))


def lstsq_boundary_exponent(report: SolveReport, band: float) -> float:
    """fit_boundary_exponent by LAPACK: the least-squares line through
    (log dist, log |u|) over the band's nonzero values, nan below 4 of them."""
    mesh = report.solution.mesh
    d = np.minimum(mesh.nodes - mesh.a, mesh.b - mesh.nodes)
    u = np.abs(report.solution.coeffs)
    mask = (d <= band) & (u > 0.0)
    if int(np.sum(mask)) < 4:
        return math.nan
    X = np.log(d[mask])
    A = np.vstack([X, np.ones_like(X)]).T
    return float(np.linalg.lstsq(A, np.log(u[mask]), rcond=None)[0][0])


def sobolev_index(m: int, n_dim: int):
    """Continuity order granted by the embedding of H^{m+2}: floor(m - N/2)
    off the integer lattice, one less on it; ``None`` when nothing follows.

    Whether the lattice convention includes zero is not fixed by usage; the
    nonpositive range returns ``None``.
    """
    if m < 0 or n_dim < 1:
        raise DomainError("need m >= 0 and N >= 1")
    diff = m - n_dim / 2.0
    if diff <= 0.0:
        return None
    if abs(diff - round(diff)) < 1e-12:
        return int(round(diff)) - 1
    return int(math.floor(diff))


# ---------------------------------------------------------------------------
# the strong principle at a contact point
# ---------------------------------------------------------------------------


# a supersolution's image may dip this far below zero, 100 times the
# quadrature tolerance, before the strong-principle check calls it inconclusive
CONTACT_SIGN_TOL = 100.0 * QuadratureSpec.tolerance


def check_strong_mp_contact(u, params: OperatorParams, x0: float,
                            omega=(-1.0, 1.0)) -> VerificationReport:
    """Interior contact point of a supersolution forces global vanishing.

    Exact contact points do not arise in floating point, so the check is
    guarded: with no contact it passes in contrapositive form; with contact
    but unverifiable operator sign it reports inconclusive.  Nonnegativity
    is sampled on [-8, 8].
    """
    a, b = omega
    digest = _digest(x0=x0, omega=omega, s=params.s)
    xs = np.linspace(-8.0, 8.0, 801)
    uvals = u.evaluate(xs)
    maxu = float(np.max(np.abs(uvals)))
    if float(np.min(uvals)) < -1e-10 * (1.0 + maxu):
        return VerificationReport(
            "strong_maximum_principle", True, 0.0, 0.0, digest,
            notes="inconclusive: u is not nonnegative, principle not applicable",
        )
    u_at_x0 = float(u(x0))
    if u_at_x0 > 1e-12:
        return VerificationReport(
            "strong_maximum_principle", True, u_at_x0, 1e-12, digest,
            notes="no interior contact (u(x0) > 0); contrapositive holds",
        )
    if not (a < x0 < b):
        return VerificationReport(
            "strong_maximum_principle", True, 0.0, 0.0, digest,
            notes="inconclusive: contact point lies outside the domain",
        )
    interior = np.linspace(a, b, 41)[1:-1]
    try:
        lu = mixed_apply(u, interior, params)
    except DomainError:
        return VerificationReport(
            "strong_maximum_principle", True, 0.0, 0.0, digest,
            notes="inconclusive: operator not evaluable on the domain grid",
        )
    if min(lu) < -CONTACT_SIGN_TOL:
        return VerificationReport(
            "strong_maximum_principle", True, 0.0, 0.0, digest,
            notes=(f"inconclusive: supersolution sign fails "
                   f"(min L u = {min(lu):.3g}), not applicable"),
        )
    return VerificationReport(
        "strong_maximum_principle", maxu <= 1e-8, maxu, 1e-8, digest,
        notes="interior contact forces global vanishing",
    )


# ---------------------------------------------------------------------------
# pointwise residual of discrete solutions
# ---------------------------------------------------------------------------


# u'' at an element's midpoint from the six nodal values around it, times
# 48 h^2: the exact second derivative of the quintic through them
_MIDPOINT_CURVATURE = np.array([-5.0, 39.0, -34.0, -34.0, 39.0, -5.0])


def _midpoint_residual(report: SolveReport, targets, f: ScalarField,
                       params: OperatorParams):
    """max |L u_h - f| over the midpoints of the elements k that hold the
    targets, and how many targets were skipped: k is kept iff 3 <= k <= n-3,
    where the curvature stencil stays off the boundary.  L u_h is minus that
    curvature plus the interpolant's closed-form image, for all at once."""
    sol, mesh = report.solution, report.solution.mesh
    k = np.floor((np.asarray(targets) - mesh.a) / mesh.h).astype(int)
    k = k[(3 <= k) & (k <= mesh.n - 3)]
    xs = mesh.a + (k + 0.5) * mesh.h
    stencils = np.pad(sol.coeffs, 1)[k[:, None] + np.arange(-2, 4)]
    upps = np.sum(stencils * _MIDPOINT_CURVATURE, axis=-1) / (48.0 * mesh.h**2)
    residuals = np.abs(sol.frac_image(xs, params) - upps - f.evaluate(xs))
    return float(np.max(residuals, initial=0.0)), len(targets) - k.size


def residual_check(reports: Sequence[SolveReport], f: ScalarField,
                   params: OperatorParams) -> VerificationReport:
    """Max |L u_h - f| on the middle half must decrease across refinements."""
    if len(reports) < 3:
        raise DomainError("need at least three refinements")
    mesh0 = reports[0].solution.mesh
    center = 0.5 * (mesh0.a + mesh0.b)
    w = (mesh0.b - mesh0.a) / 4.0
    targets = np.linspace(center - w, center + w, 17)
    residuals = []
    skipped = 0
    for rep in reports:
        worst, missed = _midpoint_residual(rep, targets, f, params)
        residuals.append(worst)
        skipped += missed
    floor = 1e-12
    decreasing = all(
        r2 < r1 or (r1 <= floor and r2 <= floor)
        for r1, r2 in zip(residuals[:-1], residuals[1:])
    )
    digest = _digest(ns=tuple(r.solution.mesh.n for r in reports), w=w)
    notes = f"residuals {['%.4g' % r for r in residuals]}"
    if skipped:
        notes += f"; {skipped} boundary-adjacent points skipped"
    return VerificationReport(
        "interior_residual_decay", decreasing, residuals[-1], residuals[-2],
        digest, notes=notes,
    )
