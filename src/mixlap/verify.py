"""Executable checks for the maximum principles, bounds and counterexamples.

Each check returns a :class:`VerificationReport`; ``passed`` always reflects
the stated comparison between ``measured`` and ``threshold``.  Checks whose
preconditions cannot be established are emitted with an ``inconclusive``
note rather than a failure, since they assert nothing either way.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import assembly
from .assembly import build_mesh, build_system
from .barrier import radial_cutoff
from .errors import DomainError, ResolutionError
from .fields import (RadialField, ScalarField, TailExpansion, constant,
                     parabola_cap, plateau, pointwise)
from .kernel import (LocalSign, OperatorParams, QuadratureSpec, _panel_nodes,
                     frac_apply, mixed_apply)
from .solve import SolveReport, lp_norm, solve_dirichlet

MP_TOL = 1e-8
# a supersolution's image may dip this far below zero, 100 times the
# quadrature tolerance, before the strong-principle check calls it inconclusive
CONTACT_SIGN_TOL = 100.0 * QuadratureSpec.tolerance
_EPS = np.finfo(float).eps
_RING_LOAD_CHUNK = 512  # points per product: 512 x 36 doubles, 147 kB a temporary
# the boundary counterexample's interior minimum, like its load, scales with
# c_{1,s}; it must lie this far below zero relative to the load's L^2 norm
_BOUNDARY_MIN_REL = 1e-2


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    passed: bool
    measured: float
    threshold: float
    inputs_digest: str
    notes: str = ""

    def line(self) -> str:
        status = "passed" if self.passed else "FAILED"
        return (f"{self.check_name}: {status}  measured={self.measured:.6g} "
                f"threshold={self.threshold:.6g}  [{self.inputs_digest[:12]}] {self.notes}")


def _digest(**kw) -> str:
    text = "|".join(f"{k}={kw[k]!r}" for k in sorted(kw))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# maximum principles
# ---------------------------------------------------------------------------


def check_weak_mp(report: SolveReport, exterior_min: float = 0.0) -> VerificationReport:
    """Nonnegative data must give a nonnegative discrete solution.

    Small undershoots of order the conditioning are tolerated: the continuum
    statement does not guarantee a discrete M-matrix at every s.
    """
    if exterior_min < 0.0:
        raise DomainError("the principle requires nonnegative exterior data")
    u = report.solution.coeffs
    scale = 1.0 + (float(np.max(np.abs(u))) if u.size else 0.0)
    measured = float(np.min(u)) if u.size else 0.0
    threshold = -MP_TOL * scale
    return VerificationReport(
        check_name="weak_maximum_principle",
        passed=measured >= threshold,
        measured=measured,
        threshold=threshold,
        inputs_digest=_digest(n=report.solution.mesh.n, ext=exterior_min,
                              f=report.l2_f_norm),
        notes=f"min nodal value vs -{MP_TOL}*(1+max|u|)",
    )


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
    if u.second_derivative is None:
        return VerificationReport(
            "strong_maximum_principle", True, 0.0, 0.0, digest,
            notes="inconclusive: operator sign unverifiable (no second derivative)",
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
# uniform bounds and boundary growth
# ---------------------------------------------------------------------------


def check_linf_bound(reports: Sequence[SolveReport], p: float = 2.0) -> VerificationReport:
    """sup |u_h| / ||f||_p must stabilize across refinements of one load."""
    if p < 1.0:
        raise DomainError("need an integrability exponent p >= 1 on the line")
    ratios = []
    ns = []
    for rep in reports:
        if rep.f is None:
            raise DomainError("reports must carry their load for the norm")
        fnorm = lp_norm(rep.f, rep.solution.mesh, p)
        if fnorm == 0.0:
            continue  # zero loads carry no information here
        ratios.append(rep.solution.max_abs() / fnorm)
        ns.append(rep.solution.mesh.n)
    digest = _digest(p=p, ns=tuple(ns))
    if len(ratios) < 2:
        return VerificationReport(
            "linf_bound", True, 0.0, 0.0, digest,
            notes="inconclusive: fewer than two nonzero-load refinements",
        )
    spread = (max(ratios) - min(ratios)) / min(ratios)
    return VerificationReport(
        "linf_bound", spread < 0.5, spread, 0.5, digest,
        notes=f"ratios {['%.5g' % r for r in ratios]} across n={ns}",
    )


def _distance_to_boundary(mesh) -> np.ndarray:
    return np.minimum(mesh.nodes - mesh.a, mesh.b - mesh.nodes)


def fit_boundary_exponent(report: SolveReport, band: float) -> float:
    """Least-squares slope of log |u| against log dist over the boundary band.

    Returns nan when the band holds too few nonzero values to fit."""
    mesh = report.solution.mesh
    d = _distance_to_boundary(mesh)
    if not np.any(d <= band):
        raise DomainError("no nodes inside the boundary band")
    u = np.abs(report.solution.coeffs)
    mask = (d <= band) & (u > 0.0)
    if int(np.sum(mask)) < 4:
        return math.nan
    X = np.log(d[mask])
    A = np.vstack([X, np.ones_like(X)]).T
    slope = np.linalg.lstsq(A, np.log(u[mask]), rcond=None)[0][0]
    return float(slope)


def check_boundary_lipschitz(reports: Sequence[SolveReport],
                             band: float) -> VerificationReport:
    """Q(h) = max |u|/dist over the boundary band must stay bounded under
    refinement; the fitted growth exponent is recorded in the notes."""
    if not reports:
        raise DomainError("need at least one solve report")
    mesh0 = reports[0].solution.mesh
    if band >= (mesh0.b - mesh0.a) / 4.0:
        raise DomainError("band must be smaller than a quarter of the interval")
    qs = []
    for rep in reports:
        mesh = rep.solution.mesh
        d = _distance_to_boundary(mesh)
        mask = d <= band
        if not np.any(mask):
            raise DomainError("no nodes inside the boundary band")
        qs.append(float(np.max(np.abs(rep.solution.coeffs[mask]) / d[mask])))
    exponent = fit_boundary_exponent(reports[-1], band)
    median = float(np.median(qs))
    measured = qs[-1]
    digest = _digest(band=band, ns=tuple(r.solution.mesh.n for r in reports))
    return VerificationReport(
        "boundary_lipschitz", measured <= 1.25 * median, measured, 1.25 * median,
        digest,
        notes=f"Q values {['%.5g' % q for q in qs]}; fitted exponent e={exponent:.3f}",
    )


# ---------------------------------------------------------------------------
# counterexamples for the wrong-sign operator
# ---------------------------------------------------------------------------


def _scale_exponent(s: float, excess: float):
    """k = -log2 eps0, the least k >= 1 with w excess < 1, w = 2^(-k(2-2s)):
    eps0^2 (Delta + (-Delta)^s) u(./eps0) at eps0 y is Delta u(y) + w (-Delta)^s u(y).
    k is log2(excess)/(2-2s) rounded up; rounded to nearest it is k or k - 1,
    and the inequality at that one k decides, rounding ties included."""
    a = 2.0 - 2.0 * s
    k = max(1, round(math.log2(excess) / a))
    if 1.0 - 2.0 ** (-k * a) * excess <= 0.0:
        k += 1
    return k, 2.0 ** (-k * a)


def _frac_at(u, y: np.ndarray, params: OperatorParams) -> np.ndarray:
    """(-Delta)^s u at the points y, or at the radii y of a radial u."""
    if params.n_dim == 1:
        return frac_apply(u, y, params)
    return np.array([frac_apply(u, r * np.eye(params.n_dim)[0], params) for r in y.tolist()])


def _wrong_sign_image(u, y: np.ndarray, params: OperatorParams, w: float) -> np.ndarray:
    """Delta u + w (-Delta)^s u at the points y, or at the radii y of a radial u."""
    lap = [float(u.second_derivative(r)) if params.n_dim == 1
           else u.laplacian(r, params.n_dim) for r in y.tolist()]
    return np.array(lap) + w * _frac_at(u, y, params)


def _certify_sign(k: int, lvals, uvals):
    """min(L u_eps, -u_eps), eps0 and the least image L u_eps = 4^k lvals:
    absolute while that is finite, and eps0 = 2^-k while it is normal."""
    lmin = float(np.min(lvals))
    eps0 = 2.0 ** -k if k <= 1022 else f"2^-{k}"
    try:
        image = math.ldexp(lmin, 2 * k)
    except OverflowError:  # past the double range lmin keeps the sign
        return min(lmin, float(np.min(-uvals))), eps0, f"{lmin:.4g}*4^{k}"
    return min(image, float(np.min(-uvals))), eps0, f"{image:.4g}"


def _true_sign_weak_mp(s: float, w: float, load_on) -> VerificationReport:
    """The true-sign solve on (-eps0, eps0) at n = 127, as -Delta + w (-Delta)^s
    on (-1, 1): its system and load vector are eps0 times the original ones."""
    mesh = build_mesh(-1.0, 1.0, 127)
    sys_ = build_system(mesh, OperatorParams(1, s))
    return check_weak_mp(solve_dirichlet(
        replace(sys_, nonlocal_row=w * sys_.nonlocal_row), load_on(mesh)))


def counterexample_ces(s: float) -> VerificationReport:
    """Zero exterior data, sign-reversed local part, s below 1/2.

    Scales the capped parabola until its wrong-sign image is strictly
    positive while the function itself is strictly negative inside; also
    solves the true-sign problem with the resulting positive load and
    demands the weak principle there.
    """
    if not (0.0 < s < 0.5):
        raise DomainError("this construction needs s in (0, 1/2)")
    params = OperatorParams(1, s)
    coeff = 2.0 ** (1.0 - 2.0 * s) * params.c_ns * (1.0 - s) / (s * (1.0 - 2.0 * s))
    k, w = _scale_exponent(s, coeff)
    f = parabola_cap()
    grid = np.linspace(-1.0, 1.0, 101)[1:-1]
    fvals = f.evaluate(grid)
    violation, eps0, image = _certify_sign(k, _wrong_sign_image(f, grid, params, w), fvals)

    # positive side: same positive data under the true-sign operator
    pos_load = pointwise(lambda t: np.maximum(_wrong_sign_image(f, t, params, w), 0.0))
    mp = _true_sign_weak_mp(
        s, w, lambda mesh: ScalarField(evaluate=pos_load, name="wrong-sign image"))
    return VerificationReport(
        "counterexample_zero_exterior", violation > 0.0 and mp.passed, violation, 0.0,
        _digest(s=s, eps0=eps0),
        notes=(f"eps0={eps0}; min wrong-sign image={image}; "
               f"max f={np.max(fvals):.4g}; true-sign weak principle "
               f"{'passed' if mp.passed else 'FAILED'} (min u={mp.measured:.3g})"),
    )


def _radial_counterexample_profile(n_dim: int):
    """(|x|^2 - 1) times a C^2 plateau equal to 1 on B(0,1), 0 outside B(0,2)."""
    cutoff = radial_cutoff(1.0)
    phi, phi_d1, phi_d2 = cutoff.profile, cutoff.d_profile, cutoff.dd_profile

    def prof(r):
        r = np.asarray(r, dtype=float)
        return (r * r - 1.0) * phi(r)

    def d1(r):
        return 2.0 * r * float(phi(r)) + (r * r - 1.0) * phi_d1(r)

    def d2(r):
        return (2.0 * float(phi(r)) + 4.0 * r * phi_d1(r)
                + (r * r - 1.0) * phi_d2(r))

    if n_dim == 1:
        def ev(x):
            return prof(np.abs(np.asarray(x, dtype=float)))

        return ScalarField(
            evaluate=ev,
            second_derivative=lambda x: d2(abs(x)),
            kinks=(-2.0, -1.0, 1.0, 2.0),
            tail=TailExpansion(2.0),
            name="capped paraboloid",
            graded_kinks=(),
        )
    return RadialField(
        profile=prof, d_profile=d1, dd_profile=d2, support_radius=2.0,
        kinks=(1.0, 2.0), name="capped paraboloid",
    )


def counterexample_general(s: float, n_dim: int) -> VerificationReport:
    """Nonnegative exterior data, wrong-sign local part, any s in (0, 1)."""
    if n_dim not in (1, 2, 3):
        raise DomainError("dimensions 1, 2 and 3 only")
    params = OperatorParams(n_dim, s)
    u = _radial_counterexample_profile(n_dim)

    radii = np.concatenate((np.linspace(0.0, 2.5, 41), np.geomspace(2.5, 8.0, 8)))
    radii = radii[[u.c2_distance(float(r)) > 1e-9 for r in radii]]
    sup_frac = float(np.max(np.abs(_frac_at(u, radii, params))))
    k, w = _scale_exponent(s, sup_frac / (2.0 * n_dim))
    pts = np.linspace(-0.95, 0.95, 41) if n_dim == 1 else np.linspace(0.0, 0.95, 21)
    uvals, lvals = u(pts), _wrong_sign_image(u, pts, params, w)
    violation, eps0, image = _certify_sign(k, lvals, uvals)

    # positive side: the true-sign weak principle, in dimension 1 (the solver's)
    mp_ok, mp_note = True, "true-sign side certified in dimension 1 (solver is 1D)"
    if n_dim == 1:
        mp_ok = _true_sign_weak_mp(s, w, lambda mesh: assembly.grid_interpolant(
            mesh, np.maximum(np.interp(mesh.nodes, pts, lvals), 0.0))).passed
        mp_note = f"true-sign weak principle {'passed' if mp_ok else 'FAILED'}"
    return VerificationReport(
        "counterexample_nonnegative_exterior",
        violation > 0.0 and mp_ok, violation, 0.0,
        _digest(s=s, N=n_dim, eps0=eps0),
        notes=(f"N={n_dim}, eps0={eps0}; sup |(-D)^s u| = {sup_frac:.4g}; "
               f"min wrong-sign image={image}; "
               f"max u={np.max(uvals):.4g}; {mp_note}"),
    )


def _ring_well(r: float) -> ScalarField:
    """Even C^2 field: -1 on r+2 <= |x| <= r+3, 0 inside |x| <= r+1 and
    outside |x| >= r+4, values in [-1, 0]: the even extension of a plateau."""
    kink_radii = (r + 1.0, r + 2.0, r + 3.0, r + 4.0)
    well = plateau(*kink_radii, depth=-1.0)
    return ScalarField(
        evaluate=lambda x: well.evaluate(np.abs(np.asarray(x, dtype=float))),
        second_derivative=lambda x: well.second_derivative(abs(x)),
        kinks=tuple(-k for k in kink_radii[::-1]) + kink_radii,
        tail=TailExpansion(r + 4.0),
        name=f"ring well(r={r})",
        graded_kinks=(),
    )


def _ring_load(r: float, params: OperatorParams) -> ScalarField:
    """-L phi for the ring well phi, exact on |x| < r+1.

    phi and phi'' vanish there, so -L phi(x) = c int phi(y) |x-y|^(-1-2s) dy
    over the well's support r+1 <= |y| <= r+4, where the kernel is smooth.
    phi is even, and 12-point Gauss on its three polynomial pieces gives the
    whole array of points in one product per chunk.
    """
    y, gw = _panel_nodes([r + 1.0, r + 2.0, r + 3.0, r + 4.0])
    w = params.c_ns * gw * _ring_well(r).evaluate(y)
    p = -1.0 - 2.0 * params.s

    def ev(x):
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) >= r + 1.0):
            raise DomainError(f"the ring load holds only on |x| < r+1 = {r + 1.0}")
        flat = x.ravel()
        out = np.empty(flat.size)
        for i in range(0, flat.size, _RING_LOAD_CHUNK):
            t = flat[i:i + _RING_LOAD_CHUNK, None]
            out[i:i + _RING_LOAD_CHUNK] = ((y - t) ** p + (y + t) ** p) @ w
        return out.reshape(x.shape)

    return ScalarField(evaluate=ev, name="transferred ring load")


def counterexample_boundary_only(r: float, s: float, n: int) -> VerificationReport:
    """Sign conditions on the topological boundary alone admit no principle.

    Builds the ring well, transfers it to a zero-exterior solve through its
    own mixed image, and exhibits v with L v = 0 inside, v > 0 on the
    boundary and on the surrounding annulus, yet v < 0 inside.
    """
    if r <= 1.0:
        raise DomainError("the annulus radius must exceed 1")
    params = OperatorParams(1, s, LocalSign.MINUS)
    phi = _ring_well(r)
    mesh = build_mesh(-1.0, 1.0, n)
    sys_ = build_system(mesh, params)

    f = _ring_load(r, params)
    rep = solve_dirichlet(sys_, f)
    u = rep.solution.coeffs
    m = float(min(np.min(u), 0.0))
    threshold = -_BOUNDARY_MIN_REL * rep.l2_f_norm
    if m >= threshold:
        raise ResolutionError(
            f"interior minimum {m:.3g} not below {threshold:.3g} at n={n}; refine the mesh"
        )
    v_boundary = -m
    v_min_inside = m
    annulus = np.linspace(1.0 + 1e-9, r, 33)
    v_annulus = 2.0 * phi.evaluate(annulus) - m

    # positive side: the transferred load is nonpositive inside, so its
    # negation drives a weak-principle-obeying solve on the same geometry
    neg_f = ScalarField(evaluate=lambda x: -np.asarray(f.evaluate(x)),
                        name="negated ring load")
    mp_rep = check_weak_mp(solve_dirichlet(sys_, neg_f))

    passed = (
        m < threshold
        and v_boundary > 0.0
        and v_min_inside < 0.0
        and float(np.min(v_annulus)) > 0.0
        and rep.backward_error <= n * _EPS
        and mp_rep.passed
    )
    return VerificationReport(
        "counterexample_boundary_only", passed, m, threshold,
        _digest(r=r, s=s, n=n),
        notes=(f"v(+-1)={v_boundary:.4g} > 0; min v inside={v_min_inside:.4g}; "
               f"min v on annulus={float(np.min(v_annulus)):.4g}; "
               f"backward error={rep.backward_error:.3g} (n eps {n * _EPS:.3g}); "
               f"full-exterior-data principle "
               f"{'passed' if mp_rep.passed else 'FAILED'}"),
    )


# ---------------------------------------------------------------------------
# pointwise residual of discrete solutions
# ---------------------------------------------------------------------------


def _pointwise_mixed_image(report: SolveReport, x: float, params: OperatorParams) -> float:
    """L u_h at x: quintic-fit curvature plus the nonlocal image of the
    zero-extended interpolant."""
    mesh = report.solution.mesh
    vals = report.solution.values_with_boundary()
    xs = np.concatenate(([mesh.a], mesh.nodes, [mesh.b]))
    order = np.argsort(np.abs(xs - x))
    stencil = np.sort(order[:6])
    if stencil[0] == 0 or stencil[-1] == len(xs) - 1:
        raise DomainError("stencil touches the boundary")
    loc = (xs[stencil] - x) / mesh.h  # unit-spaced abscissas keep the fit conditioned
    coeffs = np.polyfit(loc, vals[stencil], 5)
    upp = 2.0 * coeffs[-3] / mesh.h**2
    field = report.solution.as_field()
    return -upp + frac_apply(field, x, params)


def residual_check(reports: Sequence[SolveReport], f: ScalarField,
                   params: OperatorParams,
                   halfwidth: Optional[float] = None) -> VerificationReport:
    """Interior max |L u_h - f| must decrease across successive refinements."""
    if len(reports) < 3:
        raise DomainError("need at least three refinements")
    mesh0 = reports[0].solution.mesh
    center = 0.5 * (mesh0.a + mesh0.b)
    w = halfwidth if halfwidth is not None else (mesh0.b - mesh0.a) / 4.0
    targets = np.linspace(center - w, center + w, 17)
    residuals = []
    skipped = 0
    for rep in reports:
        mesh = rep.solution.mesh
        worst = 0.0
        for t in targets:
            k = int(np.floor((t - mesh.a) / mesh.h))
            x = mesh.a + (k + 0.5) * mesh.h  # snap to the element midpoint
            try:
                image = _pointwise_mixed_image(rep, float(x), params)
            except DomainError:
                skipped += 1
                continue
            worst = max(worst, abs(image - float(f(x))))
        residuals.append(worst)
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


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


def _random_nonneg_load(mesh, rng) -> ScalarField:
    vals = np.abs(rng.standard_normal(mesh.n))
    return assembly.grid_interpolant(mesh, vals)


def run_suite(s: float, n: int, seed: int, domain=(-1.0, 1.0)) -> list:
    """A deterministic battery of checks at one fractional order.

    Returns the list of reports; the caller decides how to render them.
    """
    a, b = domain
    params = OperatorParams(1, s)
    rng = np.random.default_rng(seed)
    out = []

    mesh = build_mesh(a, b, n)
    sys_ = build_system(mesh, params)
    for _ in range(5):
        f = _random_nonneg_load(mesh, rng)
        out.append(check_weak_mp(solve_dirichlet(sys_, f)))

    family = []
    for nn in (63, 127, 255):
        m = build_mesh(a, b, nn)
        family.append(solve_dirichlet(build_system(m, params), constant(1.0)))
    one = family[-1]
    out.append(check_linf_bound(family, p=2.0))
    out.append(check_boundary_lipschitz(family, band=(b - a) / 20.0))

    # contrapositive of the strong principle on the positive solve
    interp = one.solution.as_field()
    interior_min = float(np.min(one.solution.coeffs))
    x_star = float(one.solution.mesh.nodes[int(np.argmin(one.solution.coeffs))])
    out.append(
        check_strong_mp_contact(interp, params, x_star, omega=(a, b))
        if interior_min <= 1e-12
        else VerificationReport(
            "strong_maximum_principle", True, interior_min, 1e-12,
            _digest(s=s, n=n, seed=seed),
            notes="positive load gives strictly positive interior; contrapositive holds",
        )
    )

    if s < 0.5:
        out.append(counterexample_ces(s))
    else:
        out.append(counterexample_general(s, 1))
    out.append(counterexample_boundary_only(2.0, s, 255))
    return out


# ---------------------------------------------------------------------------
# embedding index
# ---------------------------------------------------------------------------


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
