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

from .errors import AccuracyError, DomainError, TailDivergenceError
from .fields import RadialField, ScalarField

_EPS = np.finfo(float).eps
_MIN_C2_ZONE = 1e-12

_GAUSS_ORDER = 12
_GX, _GW = leggauss(_GAUSS_ORDER)
# 1D evaluation lays out the panels of up to _CHUNK_POINTS points at once and
# evaluates the field on up to _BLOCK_NODES Gauss nodes a call.  On barrier
# fields (up to 150 panels a point: 75 KB of panel ends a chunk, 32 KB of
# field values a call) every temporary so stays under glibc's 128 KB mmap
# threshold and is reused from the heap, not mapped and faulted in anew.
_CHUNK_POINTS = 64
_BLOCK_NODES = 2**12
_MAX_HALVINGS = 48
_TAIL_TERMS = 120
_TAIL_BLOCK = 16

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
    while d > floor and len(pts) < _MAX_HALVINGS:
        pts.append(d)
        d /= 2.0
    if toward == lo:
        inner = [lo + t for t in reversed(pts)]
    else:
        inner = [hi - t for t in pts]
    return [lo] + inner + [hi]


def _halvings(gap: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """How many of gap/2, gap/4, ... exceed floor, at most _MAX_HALVINGS:
    the points :func:`_dyadic_into` puts into a panel of length gap.  The
    log2 estimate is corrected by exact power-of-two comparisons."""
    n = np.maximum(np.ceil(np.log2(gap / floor)).astype(int) - 1, 0)
    n -= (n > 0) & (np.ldexp(gap, -n) <= floor)
    n += np.ldexp(gap, -n - 1) > floor
    return np.minimum(n, _MAX_HALVINGS)


def _ramp(n: np.ndarray):
    """Each index i repeated n[i] times, alongside the counter 1..n[i]."""
    i = np.repeat(np.arange(n.size), n)
    return i, np.arange(1, i.size + 1) - np.repeat(np.cumsum(n) - n, n)


def _panel_layout(z0, r_in, offsets, graded, r_out, panels: int):
    """Gauss panels (lo, hi) of a chunk of points, in point order, and the
    panel count of each point.  Row i holds one point's core radius z0, core
    zone end r_in, kink offsets, graded kink offsets and tail radius r_out.
    Its breaks are z0, r_in, each offset in (z0, r_out) over 1e-13 relative
    past the last break kept, and r_out, which replaces that break when it
    does not clear it.  Gaps are split geometrically, ratio at most
    2^(1/panels); the panel next to a break equal to a graded offset is
    graded dyadically into it."""
    m, n_off = offsets.shape
    rows = np.arange(m)
    pts = np.column_stack((z0, r_in, np.sort(offsets, axis=1), r_out))
    keep = np.ones(pts.shape, bool)
    last = np.ones(m, int)  # column of the last breakpoint kept
    for j in range(2, n_off + 2):
        b = pts[:, j]
        keep[:, j] = (z0 < b) & (b < r_out) & (b > pts[rows, last] * (1.0 + 1e-13))
        last = np.where(keep[:, j], j, last)
    keep[:, -1] = r_out > pts[rows, last] * (1.0 + 1e-13)
    last = np.where(keep[:, -1], n_off + 2, last)  # or r_out replaces that break
    pts[rows, last] = r_out
    grd = np.zeros(pts.shape, bool)
    for g in graded.T:
        grd |= pts == g[:, None]

    # one segment per pair of consecutive breakpoints of a point
    owner = np.nonzero(keep)[0]
    pts, grd = pts[keep], grd[keep]
    same = owner[1:] == owner[:-1]
    lo, hi = pts[:-1][same], pts[1:][same]
    ratio = 2.0 ** (1.0 / panels)
    q = hi / lo
    k = np.where(q > ratio, np.ceil(np.log(q) / math.log(ratio)), 1.0)
    # libm's pow, not numpy's: a last-bit change in the step grows j-fold in
    # the point lo step^j
    step = np.array(list(map(math.pow, q.tolist(), (1.0 / k).tolist())))
    gap_lo = np.where(k > 1.0, lo * step, hi) - lo
    n_lo = np.where(grd[:-1][same], _halvings(gap_lo, 1e-12 * np.maximum(1.0, lo)), 0)
    gap_hi = hi - np.where(k > 1.0, lo * step ** (k - 1.0),
                           np.where(n_lo > 0, lo + 0.5 * gap_lo, lo))
    n_hi = np.where(grd[1:][same], _halvings(gap_hi, 1e-12 * np.maximum(1.0, hi)), 0)

    # a segment's panel ends: lo + gap_lo 2^-j (j = n_lo..1), lo step^j
    # (j = 1..k-1), hi - gap_hi 2^-j (j = 1..n_hi), hi
    k = k.astype(int)
    sizes = n_lo + k + n_hi
    base = np.cumsum(sizes) - sizes + n_lo  # where the geometric ends start
    ends = np.empty(sizes.sum())
    i, j = _ramp(n_lo)
    ends[base[i] - j] = lo[i] + np.ldexp(gap_lo[i], -j)
    i, j = _ramp(k - 1)
    ends[base[i] + j - 1] = lo[i] * step[i] ** j
    i, j = _ramp(n_hi)
    ends[base[i] + k[i] - 2 + j] = hi[i] - np.ldexp(gap_hi[i], -j)
    ends[base + k - 1 + n_hi] = hi
    starts = np.empty_like(ends)
    starts[1:] = ends[:-1]
    starts[base - n_lo] = lo
    return starts, ends, np.bincount(owner[1:][same], sizes, m).astype(int)


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


def _tail_power_moments(p: float, shift: np.ndarray, radius: np.ndarray,
                        s: float) -> np.ndarray:
    """int_R^inf (t + shift)^p t^(-1-2s) dt at each shift, R = radius, for
    |shift| < R and p < 2s.

    Expands (t + shift)^p = t^p sum_k C(p,k) (shift/t)^k; the series
    converges geometrically since |shift| / R < 1.  Each point sums its
    terms in order until one falls below 1e-18 of the sum (k > 2), over at
    most _TAIL_TERMS terms, taken _TAIL_BLOCK at a time.
    """
    k = np.arange(float(_TAIL_TERMS))
    binom = np.cumprod(np.concatenate(([1.0], (p - k[1:] + 1.0) / k[1:])))
    total, todo = np.zeros(shift.size), np.arange(shift.size)
    for k0 in range(0, _TAIL_TERMS, _TAIL_BLOCK):
        kk = k[k0:k0 + _TAIL_BLOCK]
        with np.errstate(over="ignore", invalid="ignore"):  # only past a stop
            terms = (binom[k0:k0 + _TAIL_BLOCK] * shift[todo, None] ** kk
                     * radius[todo, None] ** (p - kk - 2.0 * s) / (2.0 * s + kk - p))
            sums = np.cumsum(np.column_stack((total[todo], terms)), axis=1)[:, 1:]
        stop = (np.abs(terms) < 1e-18 * np.maximum(np.abs(sums), 1e-300)) & (kk > 2)
        hit = stop.any(axis=1)
        total[todo] = sums[np.arange(todo.size), np.where(hit, stop.argmax(axis=1), -1)]
        todo = todo[~hit]
        if not todo.size:
            break
    if not np.isfinite(total).all():
        raise AccuracyError("tail series overflows before it converges at offset "
                            f"{float(shift[~np.isfinite(total)][0])}")
    return total


def _tail_contributions(u: ScalarField, xs: np.ndarray, uxs: np.ndarray,
                        radius: np.ndarray, s: float) -> np.ndarray:
    """int_R^inf (u(x+t) + u(x-t) - 2 u(x)) t^(-1-2s) dt at each x of xs,
    R = radius, u(x) = uxs, resummed exactly."""
    plus = sum(c * _tail_power_moments(p, xs, radius, s) for c, p in u.tail.plus_terms)
    minus = sum(c * _tail_power_moments(p, -xs, radius, s) for c, p in u.tail.minus_terms)
    return plus + minus - 2.0 * uxs * radius ** (-2.0 * s) / (2.0 * s)


# ---------------------------------------------------------------------------
# fractional Laplacian, one dimension
# ---------------------------------------------------------------------------


def _noise_floor(s: float, tolerance: float, scale):
    """Smallest offset at which raw second differences beat roundoff.

    Integrating machine noise eps*scale against z^(-1-2s) from z0 outward
    contributes ~ eps*scale*z0^(-2s)/(2s); keep that below tolerance/10
    (inf past e^700: the caller clamps z0 to the core radius anyway).
    """
    base, power = 10.0 * _EPS * np.asarray(scale) / (2.0 * s * tolerance), 1.0 / (2.0 * s)
    return np.power(base, power, out=np.full(base.shape, math.inf),
                    where=power * np.log(base) < 700.0)


def _second_derivative_estimates(u: ScalarField, xs: np.ndarray, h: np.ndarray,
                                 r_c2: np.ndarray):
    """(upp, u4): second derivative and a fourth-derivative estimate at each
    point of xs, h its core radius, r_c2 its distance to the nearest kink.

    frac_apply_1d refuses points within _MIN_C2_ZONE of a kink, so d > 0."""
    if u.second_derivative is None:
        vals = u.evaluate(np.concatenate((xs - h, xs, xs + h))).reshape(3, -1)
        return (vals[0] + vals[2] - 2.0 * vals[1]) / h**2, np.zeros(xs.size)
    d2 = u.second_derivative
    upp = [float(d2(x)) for x in xs.tolist()]
    ds = np.minimum(np.maximum(h, 1e-5), r_c2 / 4.0).tolist()
    u4 = [(float(d2(x + d)) + float(d2(x - d)) - 2.0 * v) / d**2
          for x, d, v in zip(xs.tolist(), ds, upp)]
    return np.array(upp), np.array(u4)


def _middle_integrals(u: ScalarField, xs: np.ndarray, uxs: np.ndarray, lo, hi,
                      counts, s: float):
    """int_{z0}^{r_out} (u(x+z) + u(x-z) - 2 u(x)) z^(-1-2s) dz at each point
    x of ``xs``, on its ``counts`` panels [lo, hi], in blocks of at most
    _BLOCK_NODES Gauss nodes."""
    ends = np.cumsum(counts)
    panel_sums = np.empty(lo.size)
    step = _BLOCK_NODES // _GAUSS_ORDER
    for i in range(0, lo.size, step):
        z, w = _gauss_nodes(lo[i:i + step], hi[i:i + step])
        at = np.searchsorted(ends, np.arange(i, i + z.size // _GAUSS_ORDER), side="right")
        y = np.repeat(xs[at], _GAUSS_ORDER)
        # (u(x+z) + u(x-z) - 2 u(x)) w z^(-1-2s), from two half-size field
        # calls and in place, to keep the temporaries few and small
        delta2 = u.evaluate(y + z) + u.evaluate(y - z)
        delta2 -= 2.0 * np.repeat(uxs[at], _GAUSS_ORDER)
        delta2 *= w
        delta2 *= z ** (-1.0 - 2.0 * s)
        panel_sums[i:i + step] = delta2.reshape(-1, _GAUSS_ORDER).sum(axis=1)
    # one fsum per point over its panel sums keeps the inner-to-outer
    # summation order explicit
    ends = ends.tolist()
    return [math.fsum(panel_sums[a:b].tolist()) for a, b in zip([0] + ends, ends)]


def frac_apply_1d(u: ScalarField, xs: np.ndarray, params: "OperatorParams",
                  quad: QuadratureSpec) -> np.ndarray:
    """(-Delta)^s u at each point of the 1-D array ``xs``.

    Each point gets its own core radius, panels and tail.  They are laid
    out as arrays for a chunk of at most _CHUNK_POINTS points at a time, and
    the field is evaluated on blocks of at most _BLOCK_NODES nodes.
    """
    s = params.s
    c = params.c_ns
    kinks = np.asarray(u.kinks, dtype=float)
    graded = kinks if u.graded_kinks is None else np.asarray(u.graded_kinks, dtype=float)
    r_c2 = np.full(xs.size, math.inf)  # distance to the nearest kink
    for k in u.kinks:
        np.minimum(r_c2, np.abs(xs - k), out=r_c2)
    near = np.flatnonzero(r_c2 < _MIN_C2_ZONE)
    if near.size:
        raise DomainError(f"evaluation point {float(xs[near[0]])} is within "
                          f"{_MIN_C2_ZONE} of a smoothness break")
    if u.tail.max_power() >= 2.0 * s:
        raise TailDivergenceError(
            "field grows at least like |x|^(2s); the defining integral diverges"
        )

    uxs = u.evaluate(xs)
    out = np.empty(xs.size)
    for i in range(0, xs.size, _CHUNK_POINTS):
        chunk = slice(i, i + _CHUNK_POINTS)
        x, ux, r = xs[chunk], uxs[chunk], r_c2[chunk]
        r_in = np.minimum(quad.inner_radius, 0.5 * r)
        z0 = _noise_floor(s, quad.tolerance, 1.0 + np.abs(ux))
        z0 = np.minimum(np.maximum(z0, 1e-8 * r_in), r_in / 8.0)

        # analytic core on (0, z0]: delta2(z) ~ upp z^2 + u4 z^4 / 12
        upp, u4 = _second_derivative_estimates(u, x, z0, r)
        cores = -c * (
            upp * z0 ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
            + u4 * z0 ** (4.0 - 2.0 * s) / (12.0 * (4.0 - 2.0 * s))
        )

        # panels: graded [z0, r_in], then kink offsets out to the tail radius
        r_out = np.maximum(np.maximum(quad.outer_radius, 2.0 * np.abs(x) + 2.0),
                           u.tail.cutoff + np.abs(x) + 1.0)
        lo, hi, counts = _panel_layout(z0, r_in, np.abs(kinks - x[:, None]),
                                       np.abs(graded - x[:, None]), r_out, quad.panels)
        middles = _middle_integrals(u, x, ux, lo, hi, counts, s)
        tails = -c * _tail_contributions(u, x, ux, r_out, s)
        out[chunk] = [math.fsum((core, -c * middle, tail)) for core, middle, tail
                      in zip(cores.tolist(), middles, tails.tolist())]
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

    r_in = min(quad.inner_radius, 0.5 * u.c2_distance(r))
    z0 = float(_noise_floor(s, quad.tolerance, 1.0 + abs(ur)))
    z0 = min(max(z0, 1e-8 * r_in), r_in / 8.0)

    lap = u.laplacian(r, n)
    core = -(c / 2.0) * (omega * lap / n) * z0 ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)

    # every kink offset |k - r| and k + r is graded
    r_out = max(quad.outer_radius, u.support_radius + r + 1.0)
    kinks = np.asarray(u.kinks, dtype=float)
    offsets = np.concatenate((np.abs(kinks - r), kinks + r))[None, :]
    lo, hi, _ = _panel_layout(np.array([z0]), np.array([r_in]), offsets, offsets,
                              np.array([r_out]), quad.panels)

    rho, w = _gauss_nodes(lo, hi)
    # int_S (u(x + rho theta) - u(x)) d sigma(theta)
    defect = _angular_mean(u, r, rho, n) - omega * ur
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
