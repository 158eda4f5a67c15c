"""Pointwise evaluation of the fractional Laplacian and the mixed operator.

The fractional Laplacian is evaluated through its regularized
second-difference form

    (-Delta)^s u(x) = -(c_{N,s}/2) * int (u(x+z) + u(x-z) - 2 u(x)) / |z|^{N+2s} dz,

which removes the principal value for C^2 integrands.  In one dimension the
integral is split into a core (0, z0] inside the point's C^2 zone, which
two integrations by parts put on the field's u'' (the local form of the du'
definition: Kwasnicki, Fract. Calc. Appl. Anal. 20, 2017), Gauss-Legendre
rules in log variables out to where the field's :class:`~mixlap.fields.TailExpansion`
is exact, and an exact resummation of that expansion beyond; every length
follows the point.  A radial field in dimension 2 or 3 is imaged as the
sphere average of the 1D images of its restrictions to the lines through
the point, so one quadrature serves every dimension.

The normalization constant c_{N,s} is taken in its Gamma-function closed
form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import AccuracyError, DomainError, TailDivergenceError
from .fields import RadialField, ScalarField, TailExpansion

_MIN_C2_ZONE = 1e-12


@functools.lru_cache(maxsize=None)
def _legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], n even, built on first use, and
    mixlap's only source of one: 6 Newton steps (4 reach the last bit) on the three-term
    recurrence from cos(pi (k - 1/4) / (n + 1/2)), mirrored; each weight 2 / ((1 - x^2)
    P_n'^2) is moved to the root x - step by its log derivative -2x / (1 - x^2)."""
    x, step = np.cos(math.pi * (np.arange(n // 2, 0, -1) - 0.25) / (n + 0.5)), 0.0
    for _ in range(6):
        x = x - step
        prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
        one_minus_x2, dp = (1.0 - x) * (1.0 + x), n * (prev - x * p)  # (1 - x^2) P_n'
        step = p * one_minus_x2 / dp
    w = 2.0 * one_minus_x2 / (dp * dp) * (1.0 + 2.0 * x * step / one_minus_x2)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


_GX, _GW = _legendre(12)
_CORE_NODES = 0.5 + 0.5 * _GX  # the Gauss nodes on [0, 1]
# 1D evaluation lays out the parts of up to _CHUNK_POINTS points at once and
# evaluates the field at x + z and x - z on up to _BLOCK_NODES Gauss nodes z in one
# call, up to 2 _BLOCK_NODES positions: 64 KiB a temporary.  Barrier fields take
# about 7 parts and 181 nodes a point (120,168 over the 664 points of build_barrier(0.9)).
_CHUNK_POINTS, _BLOCK_NODES = 128, 2**12
# a middle-zone part gets the first size n with rho^(-2n) <= 2^(-1.2 * 53),
# rho <= _MAX_RHO its Bernstein ellipse; 3072 covers z0 >= 1e-13 to 1e308
_RULE_SIZES = np.array([8, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96, 128, 160, 192, 256,
                        384, 512, 768, 1024, 1536, 2048, 3072])
_DIGITS, _MAX_RHO = 1.2 * 53.0 * math.log(2.0), 6.0
_END_FLOOR, _END_SPLIT = 2.0**-60, 3.0  # see _part_layout

_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
_INNER_RADIUS = 0.25  # where the core zone ends on a field with no kink


@dataclass(frozen=True)
class QuadratureSpec:
    """The tolerance of the singular quadrature, its one setting, which
    reaches no computation: the 1D rules are fixed (see :func:`frac_apply_1d`),
    and a radial field is imaged through the same 1D quadrature.
    ``frac_apply`` and ``mixed_apply`` still accept one.
    """

    tolerance: float = 1e-8

    def __post_init__(self):
        if self.tolerance <= 0:
            raise DomainError("tolerance must be positive")


@dataclass(frozen=True)
class OperatorParams:
    """Dimension and fractional order of -Delta + (-Delta)^s; ``c_ns`` is
    derived from them by :func:`normalization_constant`, which also
    validates them."""

    n_dim: int
    s: float
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
    if s < 2.0**-1022:  # 1/(2s) in the stiffness row would overflow
        raise DomainError(f"s = {s!r} is subnormal; the operator needs s >= 2^-1022")
    if n_dim not in (1, 2, 3):
        raise DomainError("only dimensions 1, 2, 3 are supported")
    return (s * 4.0**s * math.gamma(0.5 * n_dim + s)
            / (math.pi ** (0.5 * n_dim) * math.gamma(1.0 - s)))


def _gauss_nodes(lo, hi):
    """Gauss nodes/weights for the panels [lo[i], hi[i]]."""
    a, b = np.asarray(lo)[:, None], np.asarray(hi)[:, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * _GX).ravel(), (half * _GW).ravel()


def _tail_power_moments(p: float, shift: np.ndarray, radius: np.ndarray,
                        s: float, lift=0.0) -> np.ndarray:
    """int_R^inf (t + shift)^p t^(-1-2s) dt at each shift, R = radius, for
    |shift| <= R/2 and p < 2s, times R^lift: R^(p-2s) sum_k C(p,k) q^k / (2s+k-p)
    with q = shift/R.  Each point sums its terms with |q|^k >= 2^-60 (at most 60)
    by Horner's rule, so its value does not depend on the call's other points.
    """
    q = shift / radius
    n = np.ceil(-60.0 / np.log2(np.maximum(np.abs(q), 2.0**-60))).astype(int)
    k = np.arange(float(n.max()))
    coef = np.cumprod(np.concatenate(([1.0], (p - k[1:] + 1.0) / k[1:]))) / (2.0 * s + k - p)
    total = np.zeros(q.size)
    for j in range(k.size - 1, -1, -1):
        total = np.where(j < n, coef[j] + q * total, 0.0)
    return radius ** (p - 2.0 * s + lift) * total


def _tail_contributions(u: ScalarField, xs: np.ndarray, uxs: np.ndarray,
                        radius: np.ndarray, s: float) -> np.ndarray:
    """int_R^inf (u(x+t) + u(x-t) - 2 u(x)) t^(-1-2s) dt at each x of xs,
    R = radius, u(x) = uxs, resummed exactly; where R^(-2s) is not normal the
    terms take R^(-s) and their sum R^(-s), so none underflows before u(x)."""
    lift = np.where(radius ** (-2.0 * s) < np.finfo(float).tiny, s, 0.0)
    plus = sum(c * _tail_power_moments(p, xs, radius, s, lift) for c, p in u.tail.plus_terms)
    minus = sum(c * _tail_power_moments(p, -xs, radius, s, lift) for c, p in u.tail.minus_terms)
    # the p = 0 moment as the series gives it, so a constant cancels exactly
    moment0 = radius ** (lift - 2.0 * s) * (1.0 / (2.0 * s))
    return (plus + minus - 2.0 * uxs * moment0) * radius ** -lift


# ---------------------------------------------------------------------------
# fractional Laplacian, one dimension
# ---------------------------------------------------------------------------


def _part_layout(z0, r_in, offsets, below, above, r_out):
    """The middle-zone parts of a chunk of points, in point order and then
    in z: each part's point, anchor b, ends near and far in e = z - b, with
    |near| < |far|, and rule size.  Row i holds one point's z0, r_in, break
    offsets, offsets graded from below and from above, and r_out.

    Its breaks are z0, r_in, each offset over 1e-13 relative past the last
    break kept and short of r_out, and r_out.  A break b graded from below
    takes [b/2, b) of the segment below it, one graded from above (b, 2b] of
    the one above (a narrower segment whole, or half of it), in log |e| down
    to |e| = _END_FLOOR b, split _END_SPLIT below its top; the rest of a
    segment, its body, is a part in t = log z (b = 0).  A graded break is a
    singular point on the axis of the log variable for the term u(x -+ z)
    graded there and pi off it for the other; a body keeps to a strip of
    half width pi, which also bounds its growth."""
    rows, tol = np.arange(z0.size), 1.0 + 1e-13
    pts = np.column_stack((z0, r_in, np.sort(offsets, axis=1), r_out))
    keep = np.ones(pts.shape, bool)
    last = np.ones_like(rows)  # column of the last breakpoint kept
    for j in range(2, pts.shape[1] - 1):
        b = pts[:, j]
        keep[:, j] = (z0 < b) & (b * tol < r_out) & (b > pts[rows, last] * tol)
        last = np.where(keep[:, j], j, last)
    from_below, from_above = ((pts[:, :, None] == g[:, None, :]).any(axis=2)[keep]
                              for g in (below, above))

    # one segment [lo, hi] per pair of consecutive breakpoints of a point
    owner, pts = np.nonzero(keep)[0], pts[keep]
    same = owner[1:] == owner[:-1]
    lo, hi, owner = pts[:-1][same], pts[1:][same], owner[1:][same]
    up, down = from_above[:-1][same], from_below[1:][same]
    body = hi > lo * np.where(up & down, 4.0, np.where(up | down, 2.0, 1.0))
    share = np.where(up & down, 0.5, 1.0) * (hi - lo)
    top_lo, top_hi = np.where(body, lo, share), np.where(body, 0.5 * hi, share)
    start, stop = np.where(up, 2.0 * lo, lo), np.where(down, 0.5 * hi, hi)
    split_lo, split_hi = top_lo * math.exp(-_END_SPLIT), top_hi * math.exp(-_END_SPLIT)
    # how far past each part its nearest singular point on the axis lies, in
    # its log variable, and where one pi off it does: a body's middle, or the
    # next break out from a w-part; [z0, r_in] is a factor 2 short of a kink
    past_body = np.where(up | down | (lo == z0[owner]), math.log(2.0), np.inf)
    past_lo = np.where(down, np.log((hi - lo) / top_lo), np.inf)
    past_hi = np.log(np.where(up, hi - lo, hi) / top_hi)
    gaps = np.log(np.concatenate(([1.0], hi - lo, [1.0])))  # the segments either side
    # a segment's parts in z: the two w-ranges above lo, its body, the two below hi
    owner, anchor, near, far, past, pi_at = np.concatenate((
        owner, owner, owner, owner, owner, lo, lo, 0.0 * lo, hi, hi,
        _END_FLOOR * lo, split_lo, start, -split_hi, -_END_FLOOR * hi,
        split_lo, top_lo, stop, -top_hi, -split_hi,
        past_lo + _END_SPLIT, past_lo, past_body, past_hi, past_hi + _END_SPLIT,
        gaps[:-2], gaps[:-2], 0.5 * (np.log(start) + np.log(stop)), gaps[2:], gaps[2:],
    )).reshape(6, 5, -1).transpose(0, 2, 1)[:, np.array((up, up, body, down, down)).T]
    # the Bernstein ellipse through xi + i eta (the part on [-1, 1]) has rho =
    # a + sqrt(a^2 - 1), a half the summed distance from xi + i eta to -1 and 1
    log_near, length = np.log(np.abs(near)), np.log(far / near)
    xi = np.array([1.0 + 2.0 * past / length, 2.0 * (pi_at - log_near) / length - 1.0])
    eta = np.array([[0.0], [2.0 * math.pi]]) / length
    log_rho = np.arccosh(0.5 * (np.hypot(xi + 1.0, eta) + np.hypot(xi - 1.0, eta))).min(axis=0)
    need = _DIGITS / (2.0 * np.minimum(log_rho, math.log(_MAX_RHO)))
    # size 0: no rule is long enough, or a ratio of the part's ends overflowed
    sizes = np.append(_RULE_SIZES, 0)[np.searchsorted(_RULE_SIZES, need)]
    return owner.astype(int), anchor, near, far, sizes


@functools.lru_cache(maxsize=64)
def _core_weights(s: float) -> np.ndarray:
    """Weights of the product rule int_0^1 g(t) k(t) dt ~ sum_i w_i g(t_i) on
    the Gauss nodes t_i of [0, 1], exact for g of degree < 12, with
    k(t) = (1 - t^a)/a + (t - t^a)/(2s), a = 1 - 2s.  w_i is the Gauss weight
    times sum_j (2j+1) mu_j P_j(2 t_i - 1), mu_j the moment of k against
    P_j(2t - 1), closed by int_0^1 P_j(2t - 1) t^b dt = prod_{m<j} (b - m) /
    prod_{m<=j} (b + m + 1): a cancels from every mu_j, so s = 1/2 is plain."""
    a = 1.0 - 2.0 * s
    mu = [0.5 / (a + 1.0), -(a + 4.0) / (6.0 * (a + 1.0) * (a + 2.0))] + [
        math.prod(a - m for m in range(2, j)) / math.prod(a + m + 1.0 for m in range(j + 1))
        for j in range(2, _GX.size)]
    legendre, prev, total = np.ones_like(_GX), np.zeros_like(_GX), mu[0]
    for j in range(1, _GX.size):
        legendre, prev = ((2 * j - 1) * _GX * legendre - (j - 1) * prev) / j, legendre
        total = total + (2 * j + 1) * mu[j] * legendre
    return 0.5 * _GW * total


def _middle_integrals(u: ScalarField, xs: np.ndarray, uxs: np.ndarray, parts, s: float):
    """int_{z0}^{r_out} (u(x+z) + u(x-z) - 2 u(x)) z^(-1-2s) dz at each point
    x of ``xs``, on its ``parts``, in blocks of at most _BLOCK_NODES nodes,
    each evaluated at x + z and x - z in one field call."""
    owner, anchor, near, far, size = parts
    half, x_of, twice_ux_of = 0.5 * np.log(far / near), xs[owner], 2.0 * uxs[owner]
    ends, sums, a = np.cumsum(size), np.empty(size.size), 0
    while a < size.size:
        b = int(np.searchsorted(ends, ends[a] - size[a] + _BLOCK_NODES, side="right"))
        t, tw = (np.concatenate(c) for c in zip(*(_legendre(n) for n in size[a:b].tolist())))
        at = np.repeat(np.arange(a, b), size[a:b])
        e = near[at] * np.exp(half[at] * (1.0 + t))
        z, y = anchor[at] + e, x_of[at]
        # (u(x+z) + u(x-z) - 2 u(x)) w z^(-1-2s), in place, to keep the
        # temporaries few and small
        both = u.evaluate(np.concatenate((y + z, y - z)))
        delta2 = both[:z.size] + both[z.size:]
        delta2 -= twice_ux_of[at]
        root = z ** -s  # z^(-2s) in two factors, so none underflows before delta2 does
        delta2 *= half[at] * tw * np.abs(e) / z * root
        delta2 *= root
        sums[a:b] = np.add.reduceat(delta2, ends[a:b] - size[a:b] - ends[a] + size[a])
        a = b
    # one fsum per point over its part sums rounds it once
    bounds = np.cumsum(np.bincount(owner, minlength=xs.size)).tolist()
    return [math.fsum(sums[i:j].tolist()) for i, j in zip([0] + bounds, bounds)]


@np.errstate(over="ignore", invalid="ignore")  # what overflows is refused by name
def frac_apply_1d(u: ScalarField, xs: np.ndarray, params: "OperatorParams"):
    """(-Delta)^s u and u'' at each point of the 1-D array ``xs``, as a pair
    of arrays: u'' comes from the field call that samples the core.

    The field must carry its second derivative; a hat interpolant, which has
    none, is imaged in closed form by ``GridFunction.frac_image``.  Each
    point gets its own core radius, middle-zone parts and tail, laid out as
    arrays for a chunk of at most _CHUNK_POINTS points at a time.  A point no
    rule is long enough for is refused, and so is one whose image overflows.
    """
    if not isinstance(u, ScalarField):
        raise DomainError("dimension 1 requires a ScalarField")
    if u.second_derivative is None:
        raise DomainError(f"field {u.name!r} has no second derivative; image a hat "
                          "interpolant with GridFunction.frac_image")
    s, c = params.s, params.c_ns
    # each finite support end is a break; seen from x, the field is nonzero
    # below its offset when x is on the support's side of it, else above
    finite = np.isfinite(u.support)
    ends, side = np.asarray(u.support)[finite], np.array([-1.0, 1.0])[finite]
    breaks = np.concatenate((np.asarray(u.kinks, dtype=float), ends))
    r_c2 = np.full(xs.size, math.inf)  # distance to the nearest kink
    for k in u.kinks:
        np.minimum(r_c2, np.abs(xs - k), out=r_c2)
    # a point is refused within _MIN_C2_ZONE of a kink, and so far from one that
    # the core's scale (r/8)^(2-2s) overflows: u'' of x_+^p, p < 2s, is subnormal there
    far = np.isfinite(r_c2) & ((2.0 - 2.0 * s) * np.log2(np.maximum(r_c2, 8.0) / 8.0) >= 1023.0)
    for bad, where in ((r_c2 < _MIN_C2_ZONE, f"within {_MIN_C2_ZONE} of"), (far, "too far from")):
        if bad.any():
            raise DomainError(f"evaluation point {float(xs[bad][0])} is {where} a smoothness break")
    if u.tail.max_power() >= 2.0 * s:
        raise TailDivergenceError("field grows at least like |x|^(2s); "
                                  "the defining integral diverges")

    uxs = u.evaluate(xs)
    out, upps = np.empty(xs.size), np.empty(xs.size)
    for i in range(0, xs.size, _CHUNK_POINTS):
        chunk = slice(i, i + _CHUNK_POINTS)
        x, ux, r = xs[chunk], uxs[chunk], r_c2[chunk]
        # the C^2 zone reaches half the way to the nearest kink, and the core
        # (0, z0] its first quarter, integrated by parts on u'' at x +- z0 t
        r_in = np.where(np.isfinite(r), 0.5 * r, _INNER_RADIUS)
        z0 = 0.25 * r_in
        dz = z0[:, None] * np.concatenate((_CORE_NODES, -_CORE_NODES))
        upp = u.second_derivative(np.concatenate((x, (x[:, None] + dz).ravel())))
        upps[chunk] = upp[:x.size]
        pair = upp[x.size:].reshape(-1, 2, _GX.size).sum(axis=1)
        cores = -c * z0 ** (2.0 - 2.0 * s) * np.sum(pair * _core_weights(s), axis=1)

        # the middle zone, out to where the field's tail is exact on both
        # sides and its series ratio |x| / r_out is <= 1/2
        r_out = np.maximum(2.0 * np.abs(x) + 2.0, u.tail.cutoff + np.abs(x) + 1.0)
        off = side * (ends - x[:, None])  # > 0: the field is nonzero below |off|
        parts = _part_layout(z0, r_in, np.abs(breaks - x[:, None]),
                             np.where(off > 0.0, off, np.nan),
                             np.where(off < 0.0, -off, np.nan), r_out)
        unsized = parts[4] == 0
        if unsized.any():
            raise AccuracyError(f"evaluation point {float(x[parts[0][unsized][0]])} has a middle-"
                                f"zone part no rule of up to {_RULE_SIZES[-1]} nodes resolves")
        middles = _middle_integrals(u, x, ux, parts, s)
        tails = -c * _tail_contributions(u, x, ux, r_out, s)
        out[chunk] = [math.fsum((core, -c * middle, tail)) for core, middle, tail
                      in zip(cores.tolist(), middles, tails.tolist())]
    if not np.isfinite(out).all():
        raise DomainError(f"evaluation point {float(xs[~np.isfinite(out)][0])} has a non-finite "
                          "image: the field's samples overflow")
    return out, upps


# ---------------------------------------------------------------------------
# fractional Laplacian, radial fields in dimension 2 and 3
# ---------------------------------------------------------------------------


def _line_field(u: RadialField, r: float, phi: float) -> ScalarField:
    """g(t) = u(|x + t theta|), |x| = r, on the line through x at the angle
    phi to x: |x + t theta| = sqrt((t - t0)^2 + b^2), t0 = -r cos(phi),
    b = r sin(phi); at x = 0 it is t -> u(|t|) for every phi.  Its kinks
    are where the line crosses a kink sphere, and it vanishes off the chord
    of the support ball, whose ends are the only graded breaks."""
    t0, b = -r * math.cos(phi), r * math.sin(phi)

    def d2(t):
        # chain rule: u''(rho) (1 - b^2/rho^2) + u'(rho) b^2/rho^3, u''(|t|) on the axis
        rho = np.hypot(t - t0, b)
        if b == 0.0:
            return u.dd_profile(rho)
        q = (b / rho) ** 2
        return u.dd_profile(rho) * (1.0 - q) + u.d_profile(rho) * q / rho

    half = math.sqrt(max(u.support_radius**2 - b * b, 0.0))
    lo, hi = t0 - half, t0 + half  # hypot can round inside the support past them
    return ScalarField(
        evaluate=lambda t: np.where((lo < t) & (t < hi), u.profile(np.hypot(t - t0, b)), 0.0),
        second_derivative=d2,
        kinks=tuple(t0 + sign * math.sqrt(k * k - b * b)
                    for k in u.kinks if k > b for sign in (-1.0, 1.0)),
        tail=TailExpansion(abs(t0) + half),
        name=f"{u.name} on a line",
        support=(lo, hi),
    )


def _direction_panels(r: float, kinks, support_radius: float) -> np.ndarray:
    """Ends of the Gauss panels in the angle phi on [0, pi/2]: 0, the
    tangency angles asin(k/r) of the kink spheres and the support sphere
    inside r, and pi/2, which is dropped when the support sphere is inside r,
    since the lines past its tangency angle miss the support.  A segment is
    graded 4 halvings deep into each tangency end it has, split at its middle
    first when it has two, and split once when it has none."""
    tangent = sorted(math.asin(k / r) for k in {*kinks, support_radius} if k < r)
    ends = [0.0, *tangent] if r > support_radius else [0.0, *tangent, 0.5 * math.pi]
    breaks = [0.0]
    for i, (a, b) in enumerate(zip(ends[:-1], ends[1:])):
        into_a, into_b = i > 0, i < len(tangent)
        m = 0.5 * (a + b) if into_a == into_b else (b if into_a else a)
        if into_a:
            breaks += [a + (m - a) * 2.0**-j for j in (4, 3, 2, 1)]
        if a < m < b:
            breaks.append(m)
        if into_b:
            breaks += [b - (b - m) * 2.0**-j for j in (1, 2, 3, 4)]
        breaks.append(b)
    return np.array(breaks)


def frac_apply_radial(u: RadialField, x, params: "OperatorParams") -> float:
    """(-Delta)^s of a compactly supported radial field at the point x.

    In polar coordinates about x the operator is (1/2) int over the unit
    sphere of c_{N,s} I(theta), I the one-dimensional operator, unnormalized,
    of the line restriction t -> u(|x + t theta|); :func:`frac_apply_1d`
    under the N-dimensional params returns c_{N,s} I.  The sphere folds onto
    the angle phi in [0, pi/2] to x, with weight |S^{N-2}| sin^{N-2}(phi).
    """
    n = params.n_dim
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != n:
        raise DomainError("point dimension does not match operator dimension")
    r = float(np.linalg.norm(x))
    if u.c2_distance(r) < _MIN_C2_ZONE:
        raise DomainError("evaluation radius sits on a smoothness break")

    breaks = _direction_panels(r, u.kinks, u.support_radius)
    phi, w = _gauss_nodes(breaks[:-1], breaks[1:])
    lines = np.array([frac_apply_1d(_line_field(u, r, p), np.zeros(1), params)[0][0]
                      for p in phi.tolist()])
    return _SPHERE_AREA[n - 1] * math.fsum((w * np.sin(phi) ** (n - 2) * lines).tolist())


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
        xs = np.asarray(x, dtype=float)
        out = frac_apply_1d(u, xs.reshape(-1), params)[0]
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)
    if not isinstance(u, RadialField):
        raise DomainError("dimensions 2 and 3 require a RadialField")
    return frac_apply_radial(u, x, params)


def mixed_apply(u: Field, x, params: OperatorParams, quad: QuadratureSpec = QuadratureSpec()):
    """-Delta u(x) + (-Delta)^s u(x).

    Accepts an array of points in dimension 1, as :func:`frac_apply` does;
    there u'' is evaluated once, for the core of the fractional part and
    the local part both.
    """
    if params.n_dim == 1:
        xs = np.asarray(x, dtype=float)
        frac, lap = frac_apply_1d(u, xs.reshape(-1), params)
        frac, lap = frac.reshape(xs.shape), lap.reshape(xs.shape)
    else:
        frac = frac_apply(u, x, params, quad)
        lap = u.laplacian(np.linalg.norm(np.asarray(x, dtype=float)), params.n_dim)
    out = -lap + frac
    return float(out) if out.ndim == 0 else out
