"""Pointwise evaluation of the fractional Laplacian and the mixed operator.

The fractional Laplacian is evaluated through its regularized
second-difference form

    (-Delta)^s u(x) = -(c_{N,s}/2) * int (u(x+z) + u(x-z) - 2 u(x)) / |z|^{N+2s} dz,

which removes the principal value for C^2 integrands.  In one dimension the
integral is split into a core (0, z0] inside the point's C^2 zone, which
two integrations by parts put on the field's u'' (the local form of the du'
definition: Kwasnicki, Fract. Calc. Appl. Anal. 20, 2017), a graded-panel
Gauss zone out to where the field's :class:`~mixlap.fields.TailExpansion`
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

from .errors import DomainError, TailDivergenceError
from .fields import RadialField, ScalarField, TailExpansion

_MIN_C2_ZONE = 1e-12


def _legendre_rule(nodes: str, weights: str):
    """The Gauss-Legendre rule on [-1, 1] mirrored from the float.hex digits of
    its positive nodes, ascending, and their weights: bit for bit the
    symmetrised rule of numpy's Legendre module, with no eigenvalue solve."""
    x, w = (np.array([float.fromhex(v) for v in t.split()]) for t in (nodes, weights))
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


_GX, _GW = _legendre_rule(
    "0x1.007a5f8f630e4p-3 0x1.78a8d20a8b19dp-2 0x1.2cb4f05c077f9p-1"
    " 0x1.8a30aeed88f36p-1 0x1.cee874ffb88b3p-1 0x1.f68f1d8e42e81p-1",
    "0x1.fe40ce6d4f022p-3 0x1.de3155c256aaep-3 0x1.a0163e6b1ab6bp-3"
    " 0x1.47d7258f22d96p-3 0x1.b60602bce61afp-4 0x1.8275d9dea6d53p-5")
_GAUSS_ORDER = _GX.size
_CORE_NODES = 0.5 + 0.5 * _GX  # the Gauss nodes on [0, 1]
# 1D evaluation lays out the panels of up to _CHUNK_POINTS points at once and
# evaluates the field on up to _BLOCK_NODES Gauss nodes a call.  On barrier
# fields (up to 63 panels a point: 29 KB of panel ends a chunk, 32 KB of
# field values a call) every temporary so stays under glibc's 128 KB mmap
# threshold and is reused from the heap, not mapped and faulted in anew.
_CHUNK_POINTS = 64
_BLOCK_NODES = 2**12
_MAX_HALVINGS = 48

_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
_INNER_RADIUS = 0.25  # where the core zone ends on a field with no kink


@dataclass(frozen=True)
class QuadratureSpec:
    """The tolerance of the singular quadrature, its one setting, which
    reaches no computation: the 1D panel layout and core rule are fixed (see
    :func:`frac_apply_1d`), and a radial field is imaged through the same 1D
    quadrature.  ``frac_apply`` and ``mixed_apply`` still accept one.
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
    if n_dim not in (1, 2, 3):
        raise DomainError("only dimensions 1, 2, 3 are supported")
    return (s * 4.0**s * math.gamma(0.5 * n_dim + s)
            / (math.pi ** (0.5 * n_dim) * math.gamma(1.0 - s)))


# ---------------------------------------------------------------------------
# panel machinery
# ---------------------------------------------------------------------------


def _halvings(gap: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """How many of gap/2, gap/4, ... exceed floor, at most _MAX_HALVINGS:
    the dyadic points graded into a panel of length gap.  The log2 estimate
    is corrected by exact power-of-two comparisons."""
    n = np.maximum(np.ceil(np.log2(gap / floor)).astype(int) - 1, 0)
    n -= (n > 0) & (np.ldexp(gap, -n) <= floor)
    n += np.ldexp(gap, -n - 1) > floor
    return np.minimum(n, _MAX_HALVINGS)


def _ramp(n: np.ndarray):
    """Each index i repeated n[i] times, alongside the counter 1..n[i]."""
    i = np.repeat(np.arange(n.size), n)
    return i, np.arange(1, i.size + 1) - np.repeat(np.cumsum(n) - n, n)


def _panel_layout(z0, r_in, offsets, below, above, r_out):
    """Gauss panels (lo, hi) of a chunk of points, in point order, and the
    panel count of each point.  Row i holds one point's core radius z0, core
    zone end r_in, break offsets, offsets graded from below and from above,
    and tail radius r_out.  Its breaks are z0, r_in, each offset in
    (z0, r_out) over 1e-13 relative past the last break kept, and r_out,
    which replaces that break when it does not clear it.  Gaps are split
    geometrically, one panel per factor of 2 at most; the panel next to a
    break is graded dyadically into it from each side it is graded from."""
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
    from_below, from_above = ((pts[:, :, None] == g[:, None, :]).any(axis=2)[keep]
                              for g in (below, above))

    # one segment per pair of consecutive breakpoints of a point
    owner = np.nonzero(keep)[0]
    pts = pts[keep]
    same = owner[1:] == owner[:-1]
    lo, hi = pts[:-1][same], pts[1:][same]
    q = hi / lo
    # np.log(q) / log 2, not np.log2(q): the two round apart near q = 2^j,
    # and k places the nodes
    k = np.where(q > 2.0, np.ceil(np.log(q) / math.log(2.0)), 1.0)
    # libm's pow, not numpy's: a last-bit change in the step grows j-fold in
    # the point lo step^j
    step = np.array(list(map(math.pow, q.tolist(), (1.0 / k).tolist())))
    gap_lo = np.where(k > 1.0, lo * step, hi) - lo
    n_lo = np.where(from_above[:-1][same], _halvings(gap_lo, 1e-12 * np.maximum(1.0, lo)), 0)
    gap_hi = hi - np.where(k > 1.0, lo * step ** (k - 1.0),
                           np.where(n_lo > 0, lo + 0.5 * gap_lo, lo))
    n_hi = np.where(from_below[1:][same], _halvings(gap_hi, 1e-12 * np.maximum(1.0, hi)), 0)

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


def _gauss_nodes(lo, hi):
    """Gauss nodes/weights for the panels [lo[i], hi[i]]."""
    a, b = np.asarray(lo)[:, None], np.asarray(hi)[:, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * _GX).ravel(), (half * _GW).ravel()


def _tail_power_moments(p: float, shift: np.ndarray, radius: np.ndarray,
                        s: float) -> np.ndarray:
    """int_R^inf (t + shift)^p t^(-1-2s) dt at each shift, R = radius, for
    |shift| <= R/2 and p < 2s: R^(p-2s) sum_k C(p,k) q^k / (2s+k-p) with
    q = shift/R.  Each point sums its terms with |q|^k >= 2^-60 (at most 60)
    by Horner's rule, so its value does not depend on the call's other points.
    """
    q = shift / radius
    n = np.ceil(-60.0 / np.log2(np.maximum(np.abs(q), 2.0**-60))).astype(int)
    k = np.arange(float(n.max()))
    coef = np.cumprod(np.concatenate(([1.0], (p - k[1:] + 1.0) / k[1:]))) / (2.0 * s + k - p)
    total = np.zeros(q.size)
    for j in range(k.size - 1, -1, -1):
        total = np.where(j < n, coef[j] + q * total, 0.0)
    return radius ** (p - 2.0 * s) * total


def _tail_contributions(u: ScalarField, xs: np.ndarray, uxs: np.ndarray,
                        radius: np.ndarray, s: float) -> np.ndarray:
    """int_R^inf (u(x+t) + u(x-t) - 2 u(x)) t^(-1-2s) dt at each x of xs,
    R = radius, u(x) = uxs, resummed exactly."""
    plus = sum(c * _tail_power_moments(p, xs, radius, s) for c, p in u.tail.plus_terms)
    minus = sum(c * _tail_power_moments(p, -xs, radius, s) for c, p in u.tail.minus_terms)
    # the p = 0 moment as the series gives it, so a constant cancels exactly
    return plus + minus - 2.0 * uxs * (radius ** (-2.0 * s) * (1.0 / (2.0 * s)))


# ---------------------------------------------------------------------------
# fractional Laplacian, one dimension
# ---------------------------------------------------------------------------


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
        for j in range(2, _GAUSS_ORDER)]
    legendre, prev, total = np.ones(_GAUSS_ORDER), np.zeros(_GAUSS_ORDER), mu[0]
    for j in range(1, _GAUSS_ORDER):
        legendre, prev = ((2 * j - 1) * _GX * legendre - (j - 1) * prev) / j, legendre
        total = total + (2 * j + 1) * mu[j] * legendre
    return 0.5 * _GW * total


def _on_support(u: ScalarField, y: np.ndarray) -> np.ndarray:
    """u at each node of y, evaluated only strictly inside ``u.support``:
    0.0 is the field's exact value at and beyond either end."""
    lo, hi = u.support
    inside = (lo < y) & (y < hi)
    if inside.all():
        return u.evaluate(y)
    out = np.zeros_like(y)
    out[inside] = u.evaluate(y[inside])
    return out


def _middle_integrals(u: ScalarField, xs: np.ndarray, uxs: np.ndarray, lo, hi,
                      counts, s: float):
    """int_{z0}^{r_out} (u(x+z) + u(x-z) - 2 u(x)) z^(-1-2s) dz at each point
    x of ``xs``, on its ``counts`` panels [lo, hi], in blocks of at most
    _BLOCK_NODES Gauss nodes.  Nodes outside the field's support are not
    evaluated: on a field supported on (0, inf), every node past z = x of a
    point x > 0 has u(x - z) = 0."""
    ends = np.cumsum(counts)
    panel_sums = np.empty(lo.size)
    step = _BLOCK_NODES // _GAUSS_ORDER
    for i in range(0, lo.size, step):
        z, w = _gauss_nodes(lo[i:i + step], hi[i:i + step])
        at = np.searchsorted(ends, np.arange(i, i + z.size // _GAUSS_ORDER), side="right")
        y = np.repeat(xs[at], _GAUSS_ORDER)
        # (u(x+z) + u(x-z) - 2 u(x)) w z^(-1-2s), from two half-size field
        # calls and in place, to keep the temporaries few and small
        delta2 = _on_support(u, y + z) + _on_support(u, y - z)
        delta2 -= 2.0 * np.repeat(uxs[at], _GAUSS_ORDER)
        delta2 *= w
        delta2 *= z ** (-1.0 - 2.0 * s)
        panel_sums[i:i + step] = delta2.reshape(-1, _GAUSS_ORDER).sum(axis=1)
    # one fsum per point over its panel sums keeps the inner-to-outer
    # summation order explicit
    ends = ends.tolist()
    return [math.fsum(panel_sums[a:b].tolist()) for a, b in zip([0] + ends, ends)]


def frac_apply_1d(u: ScalarField, xs: np.ndarray, params: "OperatorParams"):
    """(-Delta)^s u and u'' at each point of the 1-D array ``xs``, as a pair
    of arrays: u'' comes from the field call that samples the core.

    The field must carry its second derivative; a hat interpolant, which has
    none, is imaged in closed form by ``GridFunction.frac_image``.  Each
    point gets its own core radius, panels and tail.  They are laid out as
    arrays for a chunk of at most _CHUNK_POINTS points at a time, and the
    field is evaluated on blocks of at most _BLOCK_NODES nodes.
    """
    if not isinstance(u, ScalarField):
        raise DomainError("dimension 1 requires a ScalarField")
    if u.second_derivative is None:
        raise DomainError(f"field {u.name!r} has no second derivative; image a hat "
                          "interpolant with GridFunction.frac_image")
    s = params.s
    c = params.c_ns
    # each finite support end is a break; seen from x, the field is nonzero
    # below its offset when x is on the support's side of it, else above
    finite = np.isfinite(u.support)
    ends, side = np.asarray(u.support)[finite], np.array([-1.0, 1.0])[finite]
    breaks = np.concatenate((np.asarray(u.kinks, dtype=float), ends))
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
        pair = upp[x.size:].reshape(-1, 2, _GAUSS_ORDER).sum(axis=1)
        cores = -c * z0 ** (2.0 - 2.0 * s) * np.sum(pair * _core_weights(s), axis=1)

        # panels: [z0, r_in], then break offsets out to where the field's tail
        # is exact on both sides and its series ratio |x| / r_out is <= 1/2
        r_out = np.maximum(2.0 * np.abs(x) + 2.0, u.tail.cutoff + np.abs(x) + 1.0)
        off = side * (ends - x[:, None])  # > 0: the field is nonzero below |off|
        lo, hi, counts = _panel_layout(z0, r_in, np.abs(breaks - x[:, None]),
                                       np.where(off > 0.0, off, np.nan),
                                       np.where(off < 0.0, -off, np.nan), r_out)
        middles = _middle_integrals(u, x, ux, lo, hi, counts, s)
        tails = -c * _tail_contributions(u, x, ux, r_out, s)
        out[chunk] = [math.fsum((core, -c * middle, tail)) for core, middle, tail
                      in zip(cores.tolist(), middles, tails.tolist())]
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
    return ScalarField(
        evaluate=lambda t: u.profile(np.hypot(t - t0, b)),
        second_derivative=d2,
        kinks=tuple(t0 + sign * math.sqrt(k * k - b * b)
                    for k in u.kinks if k > b for sign in (-1.0, 1.0)),
        tail=TailExpansion(abs(t0) + half),
        name=f"{u.name} on a line",
        support=(t0 - half, t0 + half),
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
        if not isinstance(u, RadialField):
            raise DomainError("dimensions 2 and 3 require a RadialField")
        frac = frac_apply(u, x, params, quad)
        lap = u.laplacian(np.linalg.norm(np.asarray(x, dtype=float)), params.n_dim)
    out = -lap + frac
    return float(out) if out.ndim == 0 else out
