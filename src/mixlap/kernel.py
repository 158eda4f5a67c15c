"""Pointwise evaluation of the fractional Laplacian and the mixed operators.

The fractional Laplacian is evaluated through its regularized
second-difference form

    (-Delta)^s u(x) = -(c_{N,s}/2) * int (u(x+z) + u(x-z) - 2 u(x)) / |z|^{N+2s} dz,

which removes the principal value for C^2 integrands.  The integral is split
into an analytic core around z = 0 (second-order Taylor resummation, which
also steps over the floating-point cancellation floor of the raw second
difference), a graded-panel Gauss zone out to a finite radius, and an exact
tail resummation driven by the field's :class:`~mixlap.fields.TailExpansion`.

The normalization constant c_{N,s} is taken in its Gamma-function closed
form.  The weighted far-field mass
int |u| / (1 + |x|^{N+2s}), over all space or beyond a radius, decides
whether u is admissible exterior data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, TailDivergenceError
from .fields import RadialField, ScalarField

_EPS = np.finfo(float).eps
_MIN_C2_ZONE = 1e-12

_GAUSS_ORDER = 12
_GX, _GW = leggauss(_GAUSS_ORDER)
# 1D evaluation gathers the panel nodes of consecutive points into one field
# call; a bound on the block keeps its temporaries small and in cache
_BLOCK_NODES = 2**12

_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


class LocalSign(enum.Enum):
    """Sign of the local part: MINUS gives -Delta + (-Delta)^s, PLUS gives
    the wrong-sign operator Delta + (-Delta)^s."""

    MINUS = "minus"
    PLUS = "plus"


@dataclass(frozen=True)
class QuadratureSpec:
    """Node-placement parameters for the singular quadrature.

    ``panels`` is the number of geometric panels per factor-2 span; higher
    values tighten the Gauss error at proportional cost.  Every driver
    evaluates at the default.  A smaller ``tolerance`` moves the core
    radius z0 outward (see :func:`_noise_floor`) without making images more
    accurate: the two-term Taylor core then carries the error, 4.3e-9
    instead of 1.7e-14 on the truncated power x_+^1.8 at s = 0.9, x = 0.05,
    with 1e-12 in place of 1e-8.
    """

    inner_radius: float = 0.25
    outer_radius: float = 64.0
    panels: int = 2
    tolerance: float = 1e-8

    def __post_init__(self):
        if not (0 < self.inner_radius < self.outer_radius):
            raise DomainError("require 0 < inner_radius < outer_radius")
        if self.panels < 1:
            raise DomainError("panels must be a positive integer")
        if self.tolerance <= 0:
            raise DomainError("tolerance must be positive")


@dataclass(frozen=True)
class OperatorParams:
    """Dimension, fractional order and local sign; ``c_ns`` is derived from
    them by :func:`normalization_constant`, which also validates them."""

    n_dim: int
    s: float
    local_sign: LocalSign = LocalSign.MINUS
    c_ns: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "c_ns", normalization_constant(self.n_dim, self.s))


# ---------------------------------------------------------------------------
# normalization constant
# ---------------------------------------------------------------------------


def normalization_constant(n_dim: int, s: float) -> float:
    """Reciprocal of int over R^N of (1 - cos zeta_1) / |zeta|^{N+2s} d zeta.

    Closed form s 4^s Gamma(N/2 + s) / (pi^{N/2} Gamma(1 - s)) (Di Nezza,
    Palatucci & Valdinoci, Bull. Sci. Math. 136, 2012), for N in {1, 2, 3}.
    """
    if not (0.0 < s < 1.0):
        raise DomainError("s must lie in (0, 1)")
    if n_dim not in (1, 2, 3):
        raise DomainError("only dimensions 1, 2, 3 are supported")
    return (s * 4.0**s * math.gamma(0.5 * n_dim + s)
            / (math.pi ** (0.5 * n_dim) * math.gamma(1.0 - s)))


# ---------------------------------------------------------------------------
# panel machinery
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


def _dyadic_into(lo: float, hi: float, toward: float, floor: float):
    """Breakpoints on [lo, hi] accumulating dyadically toward one endpoint.

    Used where the integrand has an algebraic (fractional-power) kink at the
    endpoint; each panel then sees the singular point at a distance
    comparable to its own length, restoring Gauss accuracy.
    """
    gap = hi - lo
    pts = []
    d = gap / 2.0
    while d > floor and len(pts) < 48:
        pts.append(d)
        d /= 2.0
    if toward == lo:
        inner = [lo + t for t in reversed(pts)]
    else:
        inner = [hi - t for t in pts]
    return [lo] + inner + [hi]


def _assemble_breaks(z0, r_in, offsets, r_out, panels, graded):
    """Full breakpoint list: graded core zone, kink offsets, outer growth.

    Every kink offset is a panel break; the offsets in ``graded`` also get
    dyadic accumulation from both sides.
    """
    pts = [z0, r_in]
    for b in offsets:
        if b > pts[-1] * (1.0 + 1e-13):
            pts.append(b)
    if r_out > pts[-1] * (1.0 + 1e-13):
        pts.append(r_out)
    else:
        pts[-1] = r_out
    breaks = [pts[0]]
    for lo, hi in zip(pts[:-1], pts[1:]):
        seg = _geometric_refine([lo, hi], panels)
        if lo in graded and len(seg) >= 2:
            floor = 1e-12 * max(1.0, lo)
            seg = _dyadic_into(seg[0], seg[1], seg[0], floor) + seg[2:]
        if hi in graded and len(seg) >= 2:
            floor = 1e-12 * max(1.0, hi)
            seg = seg[:-2] + _dyadic_into(seg[-2], seg[-1], seg[-1], floor)
        breaks.extend(seg[1:])
    return breaks


def _panel_nodes(breaks):
    """Gauss nodes/weights for all panels [breaks[i], breaks[i+1]] at once."""
    return _gauss_nodes(breaks[:-1], breaks[1:])


def _gauss_nodes(lo, hi):
    """Gauss nodes/weights for the panels [lo[i], hi[i]]."""
    a = np.asarray(lo)
    b = np.asarray(hi)
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    nodes = mid + half * _GX[None, :]
    weights = half * _GW[None, :]
    return nodes.ravel(), weights.ravel()


def _real_binomial(p: float, k: int) -> float:
    out = 1.0
    for i in range(1, k + 1):
        out *= (p - i + 1) / i
    return out


def _tail_power_moment(p: float, shift: float, radius: float, s: float) -> float:
    """int_R^inf (t + shift)^p t^(-1-2s) dt for |shift| < R and p < 2s.

    Expands (t + shift)^p = t^p sum_k C(p,k) (shift/t)^k; the series
    converges geometrically since |shift| / R < 1.
    """
    if p >= 2.0 * s:
        raise TailDivergenceError("tail power meets or exceeds 2s")
    if abs(shift) >= radius:
        raise DomainError("tail radius must exceed the evaluation offset")
    total = 0.0
    for k in range(0, 120):
        denom = 2.0 * s + k - p
        term = _real_binomial(p, k) * shift**k * radius ** (p - k - 2.0 * s) / denom
        total += term
        if k > 2 and abs(term) < 1e-18 * max(abs(total), 1e-300):
            break
    return total


def _tail_contribution(u: ScalarField, x: float, ux: float, radius: float,
                       s: float) -> float:
    """int_R^inf (u(x+t) + u(x-t) - 2 ux) t^(-1-2s) dt, ux = u(x), resummed exactly."""
    plus = sum(
        c * _tail_power_moment(p, x, radius, s) for c, p in u.tail.plus_terms
    )
    minus = sum(
        c * _tail_power_moment(p, -x, radius, s) for c, p in u.tail.minus_terms
    )
    return plus + minus - 2.0 * ux * radius ** (-2.0 * s) / (2.0 * s)


# ---------------------------------------------------------------------------
# fractional Laplacian, one dimension
# ---------------------------------------------------------------------------


def _noise_floor(s: float, tolerance: float, scale: float) -> float:
    """Smallest offset at which raw second differences beat roundoff.

    Integrating machine noise eps*scale against z^(-1-2s) from z0 outward
    contributes ~ eps*scale*z0^(-2s)/(2s); keep that below tolerance/10
    (inf past e^700: the caller clamps z0 to the core radius anyway).
    """
    base, power = 10.0 * _EPS * scale / (2.0 * s * tolerance), 1.0 / (2.0 * s)
    return base ** power if power * math.log(base) < 700.0 else math.inf


def _second_derivative_estimate(u: ScalarField, x: float, h: float):
    """(upp, u4): second derivative and a fourth-derivative estimate at x.

    frac_apply_1d refuses points within _MIN_C2_ZONE of a kink, so d > 0."""
    if u.second_derivative is not None:
        upp = float(u.second_derivative(x))
        d = max(h, 1e-5)
        d = min(d, u.c2_distance(x) / 4.0) if u.kinks else d
        u4 = (
            float(u.second_derivative(x + d))
            + float(u.second_derivative(x - d))
            - 2.0 * upp
        ) / d**2
        return upp, u4
    pts = np.array([x - h, x, x + h])
    vals = u.evaluate(pts)
    upp = (vals[0] + vals[2] - 2.0 * vals[1]) / h**2
    return float(upp), 0.0


def _middle_integrals(u: ScalarField, xs: np.ndarray, uxs, breaks, s: float):
    """int_{z0}^{r_out} (u(x+z) + u(x-z) - 2 u(x)) z^(-1-2s) dz at each point
    x of ``xs``, on its own panels ``breaks``, with one field evaluation."""
    lo = [a for b in breaks for a in b[:-1]]
    hi = [a for b in breaks for a in b[1:]]
    z, w = _gauss_nodes(lo, hi)
    counts = [(len(b) - 1) * _GAUSS_ORDER for b in breaks]
    x = np.repeat(xs, counts)
    vals = u.evaluate(np.concatenate((x + z, x - z)))
    delta2 = vals[:z.size] + vals[z.size:] - 2.0 * np.repeat(uxs, counts)
    panel_vals = w * delta2 * z ** (-1.0 - 2.0 * s)
    # one fsum per point over its panel sums keeps the inner-to-outer
    # summation order explicit
    panel_sums = panel_vals.reshape(-1, _GAUSS_ORDER).sum(axis=1).tolist()
    out, first = [], 0
    for b in breaks:
        out.append(math.fsum(panel_sums[first:first + len(b) - 1]))
        first += len(b) - 1
    return out


def frac_apply_1d(u: ScalarField, xs: np.ndarray, params: "OperatorParams",
                  quad: QuadratureSpec) -> np.ndarray:
    """(-Delta)^s u at each point of the 1-D array ``xs``.

    Each point gets its own core radius, panels and tail; the panels of
    consecutive points are gathered into blocks of about ``_BLOCK_NODES``
    nodes, and the field is evaluated once per block.
    """
    s = params.s
    c = params.c_ns
    points = xs.tolist()
    r_c2 = [u.c2_distance(x) for x in points]
    for x, r in zip(points, r_c2):
        if r < _MIN_C2_ZONE:
            raise DomainError(
                f"evaluation point {x} is within {_MIN_C2_ZONE} of a smoothness break"
            )
    if u.tail.max_power() >= 2.0 * s:
        raise TailDivergenceError(
            "field grows at least like |x|^(2s); the defining integral diverges"
        )

    uxs = u.evaluate(xs).tolist()
    graded_kinks = u.kinks if u.graded_kinks is None else u.graded_kinks
    out = np.empty(len(points))
    start, cores, tails, breaks, nodes = 0, [], [], [], 0
    for i, (x, ux, r) in enumerate(zip(points, uxs, r_c2)):
        r_in = min(quad.inner_radius, 0.5 * r)
        z0 = _noise_floor(s, quad.tolerance, 1.0 + abs(ux))
        z0 = min(max(z0, 1e-8 * r_in), r_in / 8.0)

        # analytic core on (0, z0]: delta2(z) ~ upp z^2 + u4 z^4 / 12
        upp, u4 = _second_derivative_estimate(u, x, z0)
        cores.append(-c * (
            upp * z0 ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
            + u4 * z0 ** (4.0 - 2.0 * s) / (12.0 * (4.0 - 2.0 * s))
        ))

        # breakpoints: graded [z0, r_in], then kink offsets out to the tail radius
        r_out = max(quad.outer_radius, 2.0 * abs(x) + 2.0, u.tail.cutoff + abs(x) + 1.0)
        offsets = sorted({abs(k - x) for k in u.kinks if z0 < abs(k - x) < r_out})
        graded = {abs(k - x) for k in graded_kinks}
        breaks.append(_assemble_breaks(z0, r_in, offsets, r_out, quad.panels, graded))
        nodes += (len(breaks[-1]) - 1) * _GAUSS_ORDER
        tails.append(-c * _tail_contribution(u, x, ux, r_out, s))

        if nodes >= _BLOCK_NODES or i == len(points) - 1:
            middles = _middle_integrals(u, xs[start:i + 1], uxs[start:i + 1], breaks, s)
            out[start:i + 1] = [math.fsum((core, -c * middle, tail))
                                for core, middle, tail in zip(cores, middles, tails)]
            start, cores, tails, breaks, nodes = i + 1, [], [], [], 0
    return out


# ---------------------------------------------------------------------------
# fractional Laplacian, radial fields in dimension 2 and 3
# ---------------------------------------------------------------------------


def _angular_mean(u: RadialField, r: float, rho: np.ndarray, n_dim: int) -> np.ndarray:
    """int over the unit sphere of u(|x + rho theta|) d sigma, |x| = r.

    The distance argument sweeps [|r - rho|, r + rho]; where it crosses a
    profile kink the angular integrand loses smoothness, so the angular
    variable is segmented at the crossing before applying Gauss panels.
    In dimension 2 the Chebyshev weight is absorbed by tau = cos(theta).
    """
    if n_dim not in (2, 3):
        raise DomainError("radial evaluation supports dimensions 2 and 3 only")
    omega = _SPHERE_AREA[n_dim]
    out = np.empty(rho.size)
    for idx, p in enumerate(rho):
        if r == 0.0 or p == 0.0:
            out[idx] = omega * float(u.profile(np.asarray([abs(r + p)]))[0])
            continue
        # angular positions where the swept distance hits a kink radius
        cuts = []
        for k in u.kinks:
            tau_star = (k * k - r * r - p * p) / (2.0 * r * p)
            if -1.0 < tau_star < 1.0:
                cuts.append(tau_star)
        if n_dim == 2:
            lo, hi = 0.0, math.pi
            cut_pts = sorted(math.acos(t) for t in cuts)
        else:
            lo, hi = -1.0, 1.0
            cut_pts = sorted(cuts)
        # grade each segment dyadically into both endpoints: the profile is
        # only Hoelder at a cut, and a cut sitting just beyond the interval
        # (crossing about to enter or leave) still puts a boundary layer at
        # the endpoint that plain Gauss cannot resolve
        breaks = [lo]
        for a, b in zip([lo] + cut_pts, cut_pts + [hi]):
            if b <= breaks[-1] + 1e-300:
                continue
            mid = 0.5 * (a + b)
            floor = (b - a) * 1e-8
            seg = (_dyadic_into(a, mid, a, floor)
                   + _dyadic_into(mid, b, b, floor)[1:])
            breaks.extend(seg[1:])
        nodes, weights = _panel_nodes(breaks)
        if n_dim == 2:
            dist = np.sqrt(np.maximum(
                r * r + p * p + 2.0 * r * p * np.cos(nodes), 0.0))
            out[idx] = 2.0 * float(u.profile(dist) @ weights)
        else:
            dist = np.sqrt(np.maximum(r * r + p * p + 2.0 * r * p * nodes, 0.0))
            out[idx] = 2.0 * math.pi * float(u.profile(dist) @ weights)
    return out


def frac_apply_radial(u: RadialField, x, params: "OperatorParams",
                      quad: QuadratureSpec) -> float:
    """(-Delta)^s of a compactly supported radial field at the point x."""
    n = params.n_dim
    s = params.s
    c = params.c_ns
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != n:
        raise DomainError("point dimension does not match operator dimension")
    r = float(np.linalg.norm(x))
    if u.c2_distance(r) < _MIN_C2_ZONE:
        raise DomainError("evaluation radius sits on a smoothness break")

    omega = _SPHERE_AREA[n]
    ur = float(u(r))

    def sphere_defect(rho: np.ndarray) -> np.ndarray:
        """int_S (u(x + rho theta) - u(x)) d sigma(theta)."""
        return _angular_mean(u, r, rho, n) - omega * ur

    r_c2 = u.c2_distance(r)
    r_in = min(quad.inner_radius, 0.5 * r_c2) if math.isfinite(r_c2) else quad.inner_radius
    z0 = _noise_floor(s, quad.tolerance, 1.0 + abs(ur))
    z0 = min(max(z0, 1e-8 * r_in), r_in / 8.0)

    lap = u.laplacian(r, n)
    core = -(c / 2.0) * (omega * lap / n) * z0 ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)

    r_out = max(quad.outer_radius, u.support_radius + r + 1.0)
    offsets = sorted(
        {abs(k - r) for k in u.kinks if z0 < abs(k - r) < r_out}
        | {k + r for k in u.kinks if z0 < k + r < r_out}
    )
    breaks = _assemble_breaks(z0, r_in, offsets, r_out, quad.panels, set(offsets))

    rho, w = _panel_nodes(breaks)
    defect = sphere_defect(rho)
    panel_vals = w * defect * rho ** (-1.0 - 2.0 * s)
    panel_sums = panel_vals.reshape(-1, _GAUSS_ORDER).sum(axis=1)
    # the sphere integral of (u(x + rho theta) - u(x)) already pairs +/- rho,
    # so the 1/2 of the second-difference form cancels against the folding
    middle = -c * math.fsum(panel_sums)

    # beyond r_out the field vanishes: only the -2u(x) term survives
    tail = c * ur * omega * r_out ** (-2.0 * s) / (2.0 * s)
    return math.fsum((core, middle, tail))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

Field = Union[ScalarField, RadialField]


def frac_apply(u: Field, x, params: OperatorParams, quad: QuadratureSpec = QuadratureSpec()):
    """Pointwise (-Delta)^s u(x) via the regularized second-difference form.

    In dimension 1, ``x`` may be an array of points: the result is an array
    of the same shape, and a float for a scalar ``x``.  In dimensions 2 and
    3, ``x`` is one point.
    """
    if params.n_dim == 1:
        if not isinstance(u, ScalarField):
            raise DomainError("dimension 1 requires a ScalarField")
        xs = np.asarray(x, dtype=float)
        out = frac_apply_1d(u, xs.reshape(-1), params, quad)
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)
    if not isinstance(u, RadialField):
        raise DomainError("dimensions 2 and 3 require a RadialField")
    return frac_apply_radial(u, x, params, quad)


def mixed_apply(u: Field, x, params: OperatorParams, quad: QuadratureSpec = QuadratureSpec()):
    """-+ Delta u(x) + (-Delta)^s u(x), sign set by ``params.local_sign``.

    Accepts an array of points in dimension 1, as :func:`frac_apply` does.
    """
    if params.n_dim == 1:
        if not isinstance(u, ScalarField) or u.second_derivative is None:
            raise DomainError("mixed operator needs a second derivative")
        xs = np.asarray(x, dtype=float)
        lap = np.reshape([float(u.second_derivative(t)) for t in xs.reshape(-1).tolist()],
                         xs.shape)
        if xs.ndim == 0:
            lap = float(lap)
    else:
        if not isinstance(u, RadialField):
            raise DomainError("dimensions 2 and 3 require a RadialField")
        lap = u.laplacian(float(np.linalg.norm(np.asarray(x, dtype=float))), params.n_dim)
    local = -lap if params.local_sign is LocalSign.MINUS else lap
    return local + frac_apply(u, x, params, quad)


def _radial_mass(u: RadialField, breaks, params: OperatorParams) -> float:
    """int of |u(y)| / (1 + |y|^{N+2s}) over the shell of radii spanned by breaks."""
    pts, w = _panel_nodes(breaks)
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
    if g.tail.is_compact() and R >= g.tail.cutoff:
        return 0.0
    if g.tail.max_power() >= 2.0 * s:
        return math.inf
    t, tw = _panel_nodes(_geometric_refine([1e-10, 1.0], 4))
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
        pts, w = _panel_nodes([-b for b in breaks[::-1]] + breaks)
        body = float(np.sum(w * np.abs(u.evaluate(pts))
                            / (1.0 + np.abs(pts) ** (1.0 + 2.0 * params.s))))
        return body + tail_kappa(y0, u, params)
    if not isinstance(u, RadialField):
        raise DomainError("dimensions 2 and 3 require a RadialField")
    y0 = max(u.support_radius, 1.0)
    return _radial_mass(u, _geometric_refine([1e-10 * y0, y0], 2), params)
