"""Independent reference computations used only by the test suite.

These deliberately avoid the library's own quadrature machinery: the
normalization constants come from high-precision quadrature of the defining
integrals, with the oscillatory tail in closed form through the incomplete
gamma function in 1D and 3D and on a contour turned into the upper
half-plane in 2D (and the classical closed form), the power-function
kernel constants from a brute-force regularized integral with Richardson
extrapolation, the images of powers and truncated powers from mpmath
quadrature split at their kink offsets, and the stiffness entries from iterated adaptive quadrature
of the double integral, folded onto the triangle y < x by the symmetry of
its integrand so that the diagonal singularity is an endpoint of the inner
integral.  The closed-form image of a hat interpolant is checked twice: against
the mpmath sum of its power terms, and by pairing it with a hat by mpmath
quadrature, which must give the stiffness row.  Radial images are checked
against Dyda's hypergeometric closed form, and in dimension 3 against the
intertwining identity, the one reference here that calls the library: its
1D quadrature on a single odd function, not the radial path.  The 1D core's
product-rule weights are checked against tanh-sinh integrals of its kernel,
the tail series against Euler's hypergeometric form, and the barrier's
mixed image against its second-difference form with the field written out
again.
"""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as _gamma

from mixlap.fields import ScalarField, TailExpansion
from mixlap.kernel import OperatorParams, frac_apply


def closed_form_constant(n_dim: int, s: float) -> float:
    """Classical closed form 2^{2s} s Gamma((N+2s)/2) / (pi^{N/2} Gamma(1-s))."""
    return (2.0 ** (2.0 * s) * s * _gamma((n_dim + 2.0 * s) / 2.0)
            / (math.pi ** (n_dim / 2.0) * _gamma(1.0 - s)))


def _body_quad(f, k: int = 8):
    """int_0^1 f(t) dt through t = u^k.

    The bodies below carry the weight's t^{1-2s} at t = 0; as s -> 1 it
    nears t^{-1}, and tanh-sinh quadrature of it stalled at 1.4e-7 relative
    at s = 0.9.  After the substitution the integrand is u^{k(2-2s)-1} times
    a smooth factor, bounded for every s <= 1 - 1/(2k).
    """
    return mp.quad(lambda u: f(u**k) * k * u ** (k - 1), [0, 1])


def norm_const_oracle_1d(s: float, dps: int = 40) -> float:
    """c_{1,s} by high-order quadrature of the defining integral on [0, 1].

    The body writes 1 - cos t as 2 sin^2(t/2): near t = 0 the difference
    cancels to nothing at the working precision, and the weight t^{-1-2s}
    amplifies that noise (9e-13 relative at s = 3/4).  The tail
    int_1^inf cos(t) t^{a-1} dt, a = -2s, is Re of
    int_1^inf e^{it} t^{a-1} dt = e^{i pi a/2} Gamma(a, -i).
    """
    with mp.workdps(dps):
        s_ = mp.mpf(s)
        body = _body_quad(lambda t: 2 * mp.sin(t / 2) ** 2 / t ** (1 + 2 * s_))
        osc = mp.re(mp.expjpi(-s_) * mp.gammainc(-2 * s_, -1j))
        integral = 2 * (body + 1 / (2 * s_) - osc)
        return float(1 / integral)


def norm_const_oracle_2d(s: float, dps: int = 30) -> float:
    """c_{2,s} through the polar reduction to a Bessel-transform integral.

    The body writes 1 - J_0(r) as (r^2/4) 1F2(1; 2, 2; -r^2/4), which does
    not cancel near r = 0 (the difference lost 3.8e-10 relative at s = 3/4).
    The oscillatory tail int_1^inf J_0(r) r^{-1-2s} dr is Re of the same
    integral of H_0^(1), which decays like e^{-Im z} in the upper half-plane;
    the contour is turned onto the vertical ray z = 1 + i t.
    """
    with mp.workdps(dps):
        s_ = mp.mpf(s)
        body = _body_quad(lambda r: mp.hyp1f2(1, 2, 2, -r * r / 4) / (4 * r ** (2 * s_ - 1)))
        osc = mp.re(1j * mp.quad(
            lambda t: mp.hankel1(0, 1 + 1j * t) * (1 + 1j * t) ** (-1 - 2 * s_),
            [0, mp.inf]))
        integral = 2 * mp.pi * (body + 1 / (2 * s_) - osc)
        return float(1 / integral)


def norm_const_oracle_3d(s: float, dps: int = 30) -> float:
    """c_{3,s} through the spherical reduction
    1 / (4 pi int_0^inf (1 - sin r / r) r^{-1-2s} dr).

    The body writes 1 - sin r / r as (r^2/6) 1F2(1; 2, 5/2; -r^2/4), which
    does not cancel near r = 0.  The tail int_1^inf sin(r) r^{a-1} dr,
    a = -1 - 2s, is Im of int_1^inf e^{ir} r^{a-1} dr = e^{i pi a/2} Gamma(a, -i).
    """
    with mp.workdps(dps):
        s_ = mp.mpf(s)
        body = _body_quad(lambda r: mp.hyp1f2(1, 2, mp.mpf(5) / 2, -r * r / 4)
                          * r ** (1 - 2 * s_) / 6)
        a = -1 - 2 * s_
        osc = mp.im(mp.expjpi(a / 2) * mp.gammainc(a, -1j))
        integral = 4 * mp.pi * (body + 1 / (2 * s_) - osc)
        return float(1 / integral)


def mp_frac_power(alpha: float, s: float, x: float = 1.0, dps: int = 40) -> float:
    """(-Delta)^s x_+^alpha at x > 0 in high precision.

    Series resummation of the second difference near zero (to sidestep
    cancellation), tanh-sinh quadrature in the body, binomial tail.
    """
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        s_ = mp.mpf(s)
        x_ = mp.mpf(x)
        c1s = (2 ** (2 * s_) * s_ * mp.gamma((1 + 2 * s_) / 2)
               / (mp.sqrt(mp.pi) * mp.gamma(1 - s_)))

        def u(t):
            return mp.power(t, a) if t > 0 else mp.mpf(0)

        def f(z):
            return (u(x_ + z) + u(x_ - z) - 2 * u(x_)) / mp.power(z, 1 + 2 * s_)

        delta = x_ * mp.mpf("1e-5")
        core = mp.mpf(0)
        for k in range(1, 40):
            term = (2 * mp.binomial(a, 2 * k) * mp.power(x_, a - 2 * k)
                    * mp.power(delta, 2 * k - 2 * s_) / (2 * k - 2 * s_))
            core += term
            if abs(term) < mp.mpf("1e-50") * max(abs(core), mp.mpf(1)):
                break
        T = 8 * x_
        body = mp.quad(f, [delta, x_, 2 * x_, T])
        tail = mp.mpf(0)
        for k in range(0, 200):
            term = (mp.binomial(a, k) * mp.power(x_, k)
                    * mp.power(T, a - k - 2 * s_) / (2 * s_ + k - a))
            tail += term
            if k > 2 and abs(term) < mp.mpf("1e-50") * max(abs(tail), mp.mpf("1e-300")):
                break
        tail -= 2 * mp.power(x_, a) * mp.power(T, -2 * s_) / (2 * s_)
        return float(-c1s * (core + body + tail))


def _binom(p: float, k: int) -> float:
    out = 1.0
    for i in range(1, k + 1):
        out *= (p - i + 1) / i
    return out


def richardson_kappa(alpha: float, s: float, c1s: float) -> float:
    """Brute-force regularized integral with Richardson extrapolation.

    Midpoint rule in log z on [z_min, 32] plus the exact binomial tail; the
    lower truncation error scales like z_min^(2-2s) then z_min^(4-2s), which
    two Richardson levels on a halving sequence remove.
    """
    Z = 32.0

    def body(z_min, pts_per_decade=4000):
        ylo, yhi = math.log(z_min), math.log(Z)
        n = int((yhi - ylo) / math.log(10) * pts_per_decade)
        y = ylo + (np.arange(n) + 0.5) * (yhi - ylo) / n
        z = np.exp(y)
        lower = np.where(z < 1.0, np.maximum(1.0 - z, 0.0), 0.0) ** alpha
        lower = np.where(z < 1.0, lower, 0.0)
        vals = (1.0 + z) ** alpha + lower - 2.0
        return float(np.sum(vals * z ** (-2.0 * s))) * (yhi - ylo) / n

    tail = 0.0
    for k in range(0, 120):
        term = _binom(alpha, k) * Z ** (alpha - k - 2.0 * s) / (2.0 * s + k - alpha)
        tail += term
        if k > 2 and abs(term) < 1e-18 * abs(tail):
            break
    tail -= 2.0 * Z ** (-2.0 * s) / (2.0 * s)
    seq = [body(z0) + tail for z0 in (1e-2, 5e-3, 2.5e-3)]
    p1 = 2.0 - 2.0 * s
    r1 = [seq[i + 1] + (seq[i + 1] - seq[i]) / (2.0**p1 - 1.0) for i in range(2)]
    p2 = 4.0 - 2.0 * s
    r2 = r1[1] + (r1[1] - r1[0]) / (2.0**p2 - 1.0)
    return -c1s * r2


def _hat(mesh, i):
    xi = mesh.nodes[i]
    h = mesh.h

    def f(x):
        return max(0.0, 1.0 - abs(x - xi) / h)

    return f


def nonlocal_entry_oracle(mesh, params, i: int, j: int) -> float:
    """Stiffness entry by iterated adaptive quadrature, with the exterior
    strips integrated against their analytic weight.

    The integrand F(x, y) = (phi_i(x) - phi_i(y)) (phi_j(x) - phi_j(y))
    |x - y|^(-1-2s) is symmetric in x and y, so the integral over the square
    [a, b]^2 is twice the integral over the triangle y < x.  The inner
    integral then runs over [a, x], with the mesh nodes below x as break
    points, and the diagonal singularity y = x is its upper endpoint, which
    the extrapolation in QUADPACK's QAGS handles directly.
    """
    s = params.s
    a, b = mesh.a, mesh.b
    pi, pj = _hat(mesh, i), _hat(mesh, j)
    nodes = list(mesh.nodes)

    def inner(x):
        px, qx = pi(x), pj(x)

        def g(y):
            d = x - y
            if d <= 0.0:
                return 0.0
            return (px - pi(y)) * (qx - pj(y)) * d ** (-1.0 - 2.0 * s)

        pts = [p for p in nodes if a < p < x]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v, _ = quad(g, a, x, points=pts, epsabs=1e-12, epsrel=1e-10,
                        limit=300)
        return v

    def wext(x):
        return ((x - a) ** (-2.0 * s) + (b - x) ** (-2.0 * s)) / (2.0 * s)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        body, _ = quad(inner, a, b, points=nodes, epsabs=1e-11, epsrel=1e-9,
                       limit=300)
        ext, _ = quad(lambda x: pi(x) * pj(x) * wext(x), a, b, points=nodes,
                      epsabs=1e-12, epsrel=1e-10, limit=300)
    return params.c_ns * (body + ext)


def row_moment_oracle(s: float, m: int, dps: int = 60) -> float:
    """G(m) = delta^4 |m|^{3-2s} / ((3-2s)(2-2s)(1-2s)(2s)) at ``dps`` digits.

    The central fourth difference is taken directly in high precision, where
    its cancellation costs nothing; at s = 1/2 it is the limit
    delta^4 [m^2 log|m|] / 2.  The stiffness entry at offset m is
    c_{1,s} h^{1-2s} G(m).
    """
    with mp.workdps(dps):
        s_ = mp.mpf(s)
        if s == 0.5:
            def f(t):
                return t * t * mp.log(abs(t)) if t != 0 else mp.mpf(0)
            k_s = mp.mpf(1) / 2
        else:
            def f(t):
                return abs(mp.mpf(t)) ** (3 - 2 * s_)
            k_s = 1 / ((3 - 2 * s_) * (2 - 2 * s_) * (1 - 2 * s_) * (2 * s_))
        d4 = f(m + 2) - 4 * f(m + 1) + 6 * f(m) - 4 * f(m - 1) + f(m - 2)
        return float(k_s * d4)


def spline_moment_oracle(s: float, m: int, dps: int = 30) -> float:
    """G(m) for m >= 2 from its definition, with no closed form.

    G(m) = int_0^inf t^{-1-2s} [2 Q(m) - Q(t - m) - Q(t + m)] dt with Q the
    hat-hat correlation, the cubic B-spline on [-2, 2]; for m >= 2 only
    -Q(t - m) survives, a smooth integrand on [m - 2, m + 2].
    """
    with mp.workdps(dps):
        s_ = mp.mpf(s)

        def q(tau):
            a = abs(tau)
            return 2 * mp.mpf(1) / 3 - a * a + a ** 3 / 2 if a < 1 else (2 - a) ** 3 / 6

        return float(-mp.quad(lambda t: q(t - m) * t ** (-1 - 2 * s_),
                              [m - 2, m - 1, m, m + 1, m + 2]))


def ring_image_oracle(r: float, s: float, x: float, dps: int = 30) -> float:
    """-L phi(x) for the even C^2 ring well phi, |x| < r+1, by mpmath.

    phi is 0 on |y| <= r+1, -S(|y|-r-1) up to r+2, -1 up to r+3 and
    -S(r+4-|y|) up to r+4, with the quintic smoothstep S(t) = t^3 (10 - 15t
    + 6t^2); phi and phi'' vanish near x, so -L phi(x) = c_{1,s} int phi(y)
    |x-y|^{-1-2s} dy.  Quadrature is split at the kinks r+1, ..., r+4 and
    the constant is the classical closed form, evaluated in mpmath.
    """
    with mp.workdps(dps):
        r_, s_, x_ = mp.mpf(r), mp.mpf(s), mp.mpf(x)
        c = s_ * 4**s_ * mp.gamma(mp.mpf(1) / 2 + s_) / (mp.sqrt(mp.pi) * mp.gamma(1 - s_))

        def step(t):
            return t**3 * (10 - 15 * t + 6 * t**2)

        def phi(y):
            if y < r_ + 2:
                return -step(y - r_ - 1)
            if y <= r_ + 3:
                return mp.mpf(-1)
            return -step(r_ + 4 - y)

        def integrand(y):
            return phi(y) * ((y - x_) ** (-1 - 2 * s_) + (y + x_) ** (-1 - 2 * s_))

        return float(c * mp.quad(integrand, [r_ + 1, r_ + 2, r_ + 3, r_ + 4]))


def mp_frac_truncated_power(alpha: float, L: float, s: float, x: float,
                            dps: int = 30) -> float:
    """(-Delta)^s of x_+^alpha capped at (2L)^alpha from 2L on, at 0 < x < L.

    In the second-difference form the integrand in z is split where x - z
    meets the kink at 0 and x + z the cap at 2L: at z = x and z = 2L - x.
    Below delta = x / 100 the binomial series of the second difference is
    integrated term by term; past 2L - x both shifted values are constant,
    so the tail is exact.  The constant is the classical closed form.
    """
    with mp.workdps(dps):
        a, L_, s_, x_ = mp.mpf(alpha), mp.mpf(L), mp.mpf(s), mp.mpf(x)
        c = s_ * 4**s_ * mp.gamma(mp.mpf(1) / 2 + s_) / (mp.sqrt(mp.pi) * mp.gamma(1 - s_))
        cap = (2 * L_) ** a

        def u(t):
            if t <= 0:
                return mp.mpf(0)
            return t**a if t < 2 * L_ else cap

        def f(z):
            return (u(x_ + z) + u(x_ - z) - 2 * u(x_)) * z ** (-1 - 2 * s_)

        delta = x_ / 100
        core = mp.mpf(0)
        for k in range(1, 60):
            term = (2 * mp.binomial(a, 2 * k) * x_ ** (a - 2 * k)
                    * delta ** (2 * k - 2 * s_) / (2 * k - 2 * s_))
            core += term
            if abs(term) < mp.mpf(10) ** (-dps - 5) * max(abs(core), 1):
                break
        T = 2 * L_ - x_
        body = mp.quad(f, [delta, x_, T])
        tail = (cap - 2 * u(x_)) * T ** (-2 * s_) / (2 * s_)
        return float(-c * (core + body + tail))


def mp_frac_truncated_power_left(alpha: float, L: float, s: float, x: float,
                                 dps: int = 30) -> float:
    """(-Delta)^s of x_+^alpha capped at (2L)^alpha from 2L on, at x < 0.

    There u(x) = 0 and no kink is near, so the image is the plain integral
    -c int_0^inf u(y) (y - x)^(-1-2s) dy: tanh-sinh on the power piece
    [0, 2L], whose endpoint singularity it absorbs, and the cap's share
    (2L)^alpha (2L - x)^(-2s) / (2s) in closed form."""
    with mp.workdps(dps):
        a, L_, s_, x_ = mp.mpf(alpha), mp.mpf(L), mp.mpf(s), mp.mpf(x)
        c = s_ * 4**s_ * mp.gamma(mp.mpf(1) / 2 + s_) / (mp.sqrt(mp.pi) * mp.gamma(1 - s_))
        body = mp.quad(lambda y: y**a * (y - x_) ** (-1 - 2 * s_), [0, 2 * L_])
        cap = (2 * L_) ** a * (2 * L_ - x_) ** (-2 * s_) / (2 * s_)
        return float(-c * (body + cap))


def mp_frac_cap_outside(p: float, s: float, x: float, dps: int = 30) -> float:
    """(-Delta)^s (1 - y^2)_+^p at |x| > 1 in one dimension: u(x) = 0, so the
    image is -c int_{-1}^{1} (1 - y^2)^p |x - y|^(-1-2s) dy, by tanh-sinh,
    which absorbs the algebraic singularities at y = +-1."""
    with mp.workdps(dps):
        p_, s_, x_ = mp.mpf(p), mp.mpf(s), mp.mpf(x)
        c = s_ * 4**s_ * mp.gamma(mp.mpf(1) / 2 + s_) / (mp.sqrt(mp.pi) * mp.gamma(1 - s_))
        body = mp.quad(lambda y: (1 - y * y) ** p_ * abs(x_ - y) ** (-1 - 2 * s_), [-1, 1])
        return float(-c * body)


def _bernstein_rho(zeta: complex) -> float:
    """The parameter of the Bernstein ellipse of [-1, 1] through zeta."""
    return abs(zeta + cmath.sqrt(zeta - 1) * cmath.sqrt(zeta + 1))


def _rule_size(near, far, past, pi_at, sizes):
    """The first of ``sizes`` with rho^(-2n) <= 2^(-1.2 * 53) on the part
    from near to far in log |e|, rho <= 6 the Bernstein ellipse through a
    singular point ``past`` log-units past the part on the axis and one pi
    off the axis at log |e| = pi_at (None: a body's middle)."""
    length = math.log(far / near)
    rho = 6.0
    if past < math.inf:
        rho = min(rho, _bernstein_rho(1 + 2 * past / length))
    center = 0.0 if pi_at is None else (2 * (pi_at - math.log(abs(near))) - length) / length
    if center < math.inf:
        rho = min(rho, _bernstein_rho(complex(center, 2 * math.pi / length)))
    need = 1.2 * 53 * math.log(2.0) / (2 * math.log(rho))
    return next(n for n in sizes if n >= need)


def assemble_parts(z0, r_in, offsets, r_out, below, above, sizes):
    """Scalar reference for one point's middle-zone parts, in z order, each
    as (anchor b, near, far, rule size), near and far its ends in e = z - b.

    ``offsets`` are the sorted break offsets; ``below`` and ``above`` are the
    sets of offsets graded from below and from above.  The breaks are z0,
    r_in, every offset over 1e-13 relative past the last one kept and short
    of r_out, and r_out.  A break graded from below takes the factor 2 of
    its segment below it (all of it when narrower, half of it when the
    segment is also graded at its lower end and narrower than a factor 4)
    in log |e| down to |e| = 2^-60 b, split 3 units below its top, and one
    graded from above likewise the segment above; the rest is one part in
    log z.  Singular points: graded breaks, on the axis in a w-part's
    own segment and pi off it in the neighbouring one, z = 0 for a w-part
    (on the axis below b, pi off above), a factor 2 past the body of the
    first segment or next to a graded end, and the strip about a body.
    """
    tol = 1.0 + 1e-13
    pts = [z0, r_in]
    for b in offsets:
        if z0 < b and b > pts[-1] * tol and b * tol < r_out:
            pts.append(b)
    pts.append(r_out)
    floor, cut = 2.0**-60, math.exp(-3.0)
    parts = []
    for i, (lo, hi) in enumerate(zip(pts[:-1], pts[1:])):
        up, down = lo in above, hi in below
        width = hi - lo
        if up and down:
            body = hi > 4 * lo
            top_lo, top_hi = (lo, hi / 2) if body else (width / 2, width / 2)
        else:
            body = hi > 2 * lo if (up or down) else True
            top_lo, top_hi = (lo, hi / 2) if body else (width, width)
        if up:
            past = math.log(width / top_lo) if down else math.inf
            pi_at = math.log(lo - pts[i - 1])
            for near, far, extra in ((floor * lo, top_lo * cut, 3.0), (top_lo * cut, top_lo, 0.0)):
                parts.append((lo, near, far, _rule_size(near, far, past + extra, pi_at, sizes)))
        if body:
            start, stop = (2 * lo if up else lo), (hi / 2 if down else hi)
            past = math.log(2.0) if (up or down or i == 0) else math.inf
            parts.append((0.0, start, stop, _rule_size(start, stop, past, None, sizes)))
        if down:
            past = math.log((width if up else hi) / top_hi)
            pi_at = math.log(pts[i + 2] - hi) if i + 2 < len(pts) else math.inf
            for near, far, extra in ((top_hi * cut, top_hi, 0.0), (floor * hi, top_hi * cut, 3.0)):
                parts.append((hi, -near, -far, _rule_size(near, far, past + extra, pi_at, sizes)))
    return parts


def tail_power_moment(p: float, shift: float, radius: float, s: float,
                      dps: int = 30) -> float:
    """int_R^inf (t + shift)^p t^(-1-2s) dt, R = radius, for |shift| < R and
    p < 2s: with t = R/v it is R^(p-2s) int_0^1 v^(2s-p-1) (1 + q v)^p dv,
    q = shift/R, which is Euler's integral
    R^(p-2s) / (2s-p) 2F1(-p, 2s-p; 2s-p+1; -q)."""
    with mp.workdps(dps):
        return float(_mp_tail_moment(mp.mpf(p), mp.mpf(shift), mp.mpf(radius), mp.mpf(s)))


def mp_dyda_power(p: float, s: float, x: float, dps: int = 30) -> float:
    """(-Delta)^s x_+^p at x > 0 in Dyda's closed form kappa x^(p-2s),
    kappa = Gamma(1+p) Gamma(2s-p) sin(pi (s-p)) / pi (Fract. Calc. Appl.
    Anal. 15, 2012), for -1 < p < 2s."""
    with mp.workdps(dps):
        p_, s_ = mp.mpf(p), mp.mpf(s)
        kappa = mp.gamma(1 + p_) * mp.gamma(2 * s_ - p_) * mp.sin(mp.pi * (s_ - p_)) / mp.pi
        return float(kappa * mp.mpf(x) ** (p_ - 2 * s_))


def mp_core_integrals(s: float, dps: int = 30) -> list:
    """int_0^1 g(t) k(t) dt for g = 1, e^t and 1/(t + 4), with the core
    kernel k(t) = (1 - t^a)/a + (t - t^a)/(2s), a = 1 - 2s (-log t + t - 1
    at s = 1/2).  k ~ t^a near 0 is nearly non-integrable at s -> 1, so
    tanh-sinh runs in v = t^(1+a), where dt = t^(-a) dv / (1 + a) makes the
    integrand bounded."""
    with mp.workdps(dps):
        s_ = mp.mpf(s)
        a = 1 - 2 * s_

        def k(t):
            first = (1 - t**a) / a if a else -mp.log(t)
            return first + (t - t**a) / (2 * s_)

        def integral(g):
            def f(v):
                t = v ** (1 / (1 + a))
                return g(t) * k(t) * t ** (-a) / (1 + a)
            return float(mp.quad(f, [0, 1]))

        return [integral(g) for g in (lambda t: 1, mp.exp, lambda t: 1 / (t + 4))]


def mp_frac_plateau(s: float, x: float, dps: int = 30) -> float:
    """(-Delta)^s of helpers.plateau(-2, -1, 1, 3, depth=1.5) at x: quintic
    smoothstep ramps on [-2, -1] and [1, 3].  Below z = 1e-4 the second
    difference is its two-term Taylor series (u^(2) and u^(4) by mp.diff;
    the next term is below 1e-20 of the image); tanh-sinh takes the body,
    split where x +- z meets a ramp end, out to z = 10, past which both
    shifted points are off the support."""
    def step(t):
        return 0 if t <= 0 else (1 if t >= 1 else t**3 * (10 - 15 * t + 6 * t * t))

    with mp.workdps(dps):
        s_, x_, d = mp.mpf(s), mp.mpf(x), mp.mpf(10) ** -4
        c = s_ * 4**s_ * mp.gamma(mp.mpf(1) / 2 + s_) / (mp.sqrt(mp.pi) * mp.gamma(1 - s_))

        def u(y):
            return mp.mpf(1.5) * step(y + 2) * step((3 - y) / 2)

        core = (mp.diff(u, x_, 2) * d ** (2 - 2 * s_) / (2 - 2 * s_)
                + mp.diff(u, x_, 4) / 12 * d ** (4 - 2 * s_) / (4 - 2 * s_))
        breaks = sorted({d, *(abs(x_ - k) for k in (-2, -1, 1, 3)), mp.mpf(10)})
        body = mp.quad(lambda z: (u(x_ + z) + u(x_ - z) - 2 * u(x_)) * z ** (-1 - 2 * s_),
                       breaks)
        return float(-c * (core + body - 2 * u(x_) * mp.mpf(10) ** (-2 * s_) / (2 * s_)))


def _mp_tail_moment(p, shift, T, s):
    """int_T^inf (t + shift)^p t^(-1-2s) dt in Euler's closed form (see
    :func:`tail_power_moment`), on mpf arguments."""
    b = 2 * s - p
    return T ** (-b) / b * mp.hyp2f1(-p, b, b + 1, -shift / T)


def mp_barrier_mixed_image(p, x: float, dps: int = 40) -> float:
    """-beta'' + (-Delta)^s beta at 0 < x < d for the barrier parameters p,
    from the second-difference form with every piece of beta written out
    again: beta = sum_{j<=J} c_j y^alpha_j + c_top min(y, 2)^alpha_top
    - C# W(y) for y > 0, 0 below, where W = y^2 (3 - 2 log y)/4
    + sum_{j>=1} (2 c_j / C#) y^alpha_j on (0, d], times the quintic fade
    1 - S((y - d)/d) on (d, 2d), and 0 from 2d on.

    On z < delta = (d - x)/4 both shifted points stay in (0, d), where beta
    is analytic, and the Taylor series of its second difference is
    integrated term by term (its derivatives are closed).  Tanh-sinh takes
    the body, split where x + z meets d, 2d and 2 and where x - z meets 0;
    past 2 - x the field is its monomials plus a constant, in closed form."""
    with mp.workdps(dps):
        s_, x_, d, cs_ = mp.mpf(p.ladder.s), mp.mpf(x), mp.mpf(p.d), mp.mpf(p.C_sharp)
        J, alphas, cs = p.ladder.J, [mp.mpf(a) for a in p.ladder.alphas], [mp.mpf(c) for c in p.cs]
        c1s = s_ * 4**s_ * mp.gamma(mp.mpf(1) / 2 + s_) / (mp.sqrt(mp.pi) * mp.gamma(1 - s_))
        # beta on (0, d]: powers minus C# times the log potential
        powers = ([(cs[j], alphas[j]) for j in range(J + 2)]
                  + [(-2 * cs[j], alphas[j]) for j in range(1, J + 2)])

        def log_potential(y):
            return y * y * max(3 - 2 * mp.log(y), 0) / 4

        def beta(y):
            if y <= 0:
                return mp.mpf(0)
            out = sum(c * y**a for c, a in zip(cs[:J + 1], alphas))
            out += cs[J + 1] * min(y, 2) ** alphas[J + 1]
            if y < 2 * d:
                w = log_potential(y) + sum(2 * cs[j] / cs_ * y ** alphas[j]
                                           for j in range(1, J + 2))
                if y > d:
                    t = (y - d) / d
                    w *= 1 - t**3 * (10 - 15 * t + 6 * t * t)
                out -= cs_ * w
            return out

        def derivative(n, y):  # of beta on (0, d), n >= 2
            out = sum(c * mp.ff(a, n) * y ** (a - n) for c, a in powers)
            pot = -mp.log(y) if n == 2 else (-1) ** n * mp.factorial(n - 3) * y ** (2 - n)
            return out - cs_ * pot

        delta = (d - x_) / 4
        core, k = mp.mpf(0), 1
        while True:
            term = (2 * derivative(2 * k, x_) / mp.factorial(2 * k)
                    * delta ** (2 * k - 2 * s_) / (2 * k - 2 * s_))
            core += term
            if abs(term) < mp.mpf(10) ** (-dps) * abs(core):
                break
            k += 1
        bx, T = beta(x_), 2 - x_
        body = mp.quad(lambda z: (beta(x_ + z) + beta(x_ - z) - 2 * bx) * z ** (-1 - 2 * s_),
                       [delta, d - x_, x_, 2 * d - x_, T])
        tail = (sum(c * _mp_tail_moment(a, x_, T, s_) for c, a in zip(cs[:J + 1], alphas))
                + (cs[J + 1] * 2 ** alphas[J + 1] - 2 * bx) * T ** (-2 * s_) / (2 * s_))
        return float(-derivative(2, x_) - c1s * (core + body + tail))


def mp_frac_hat(knots, values, s: float, xs, dps: int = 30) -> list:
    """(-Delta)^s at each point of ``xs`` of the piecewise-linear field
    through (knots, values), zero beyond the first and last knot, whose
    values must be 0.

    Such a field is (1/2) sum_j kappa_j |x - x_j| with kappa_j the slope
    jump at x_j, and (-Delta)^s |x| = -2c |x|^(1-2s) for s != 1/2, so the
    image is -c sum_j kappa_j |x - x_j|^(1-2s) with
    c = Gamma(s - 1/2) / (4^(1-s) sqrt(pi) Gamma(1 - s)).  Knots and values
    enter as the exact binary numbers they are.
    """
    if s == 0.5:
        raise ValueError("s = 1/2 has a logarithmic kernel")
    with mp.workdps(dps):
        s_ = mp.mpf(s)
        knots = [mp.mpf(t) for t in knots]
        us = [mp.mpf(v) for v in values]
        slopes = ([mp.mpf(0)] + [(u1 - u0) / (x1 - x0) for x0, x1, u0, u1
                                 in zip(knots[:-1], knots[1:], us[:-1], us[1:])]
                  + [mp.mpf(0)])
        jumps = [right - left for left, right in zip(slopes[:-1], slopes[1:])]
        c = mp.gamma(s_ - mp.mpf(1) / 2) / (4 ** (1 - s_) * mp.sqrt(mp.pi) * mp.gamma(1 - s_))
        return [float(-c * mp.fsum(k * abs(mp.mpf(x) - xj) ** (1 - 2 * s_)
                                   for xj, k in zip(knots, jumps))) for x in xs]


def hat_pairing(image, center: float, h: float, s: float, cut: float = 1e-8) -> float:
    """int phi(x) image(x) dx for the hat phi that is 1 at ``center`` and 0
    at center +- h, by mpmath quadrature of the float function ``image``.

    Against the image of a hat interpolant this is a Galerkin stiffness
    entry.  That image is singular like |x - x_j|^(1-2s) (log|x - x_j| at
    s = 1/2) at every knot x_j, and may be refused near one.  So each
    half-element is integrated from its knot end, t = |x - knot|: on
    [cut h, h/2] by mp.quad, and on [0, cut h] with the image replaced by
    A + B t^(1-2s) (A + B log t), fitted to it at t = cut h and cut h / 2.
    """
    p = 1 - 2 * mp.mpf(s)

    def g(t):
        return mp.log(t) if p == 0 else t**p

    total = mp.mpf(0)
    t0 = mp.mpf(cut) * h
    for knot, phi0, toward in ((center - h, 0, 1), (center, 1, -1),
                               (center, 1, 1), (center + h, 0, -1)):
        slope = (1 - 2 * phi0) / mp.mpf(h)  # phi = phi0 + slope t on the half

        def f(t):
            return (phi0 + slope * t) * image(knot + toward * float(t))

        i1, i2 = image(knot + toward * float(t0)), image(knot + toward * float(t0 / 2))
        b = (i1 - i2) / (g(t0) - g(t0 / 2))
        a = i1 - b * g(t0)
        total += (mp.quad(f, [t0, mp.mpf(h) / 2])
                  + mp.quad(lambda t: (phi0 + slope * t) * (a + b * g(t)), [0, t0]))
    return float(total)


def mp_dyda_cap(n_dim: int, s: float, p: float, r: float, dps: int = 30) -> float:
    """(-Delta)^s (1 - |x|^2)_+^p at |x| = r < 1 in dimension N, in closed
    form (Dyda, Fract. Calc. Appl. Anal. 15, 2012):
    4^s Gamma(N/2+s) Gamma(p+1) / (Gamma(N/2) Gamma(p+1-s))
    2F1(N/2+s, s-p; N/2; r^2), by mpmath."""
    with mp.workdps(dps):
        half, s_, p_ = mp.mpf(n_dim) / 2, mp.mpf(s), mp.mpf(p)
        c = 4**s_ * mp.gamma(half + s_) * mp.gamma(p_ + 1) / (mp.gamma(half) * mp.gamma(p_ + 1 - s_))
        return float(c * mp.hyp2f1(half + s_, s_ - p_, half, mp.mpf(r) ** 2))


def intertwined_image_3d(u, s: float, r: float) -> float:
    """(-Delta)^s of the radial field u in dimension 3 at |x| = r > 0, by the
    intertwining identity (-Delta_{R^3})^s u(r) = (1/r) (-Delta_R)^s v(r) for
    the odd function v(t) = t u(|t|).  The 1D image is the library's
    ``frac_apply`` on one line, with none of the radial path's line
    restrictions or direction panels."""
    def d2(t):
        a = np.abs(t)
        return np.sign(t) * (2.0 * u.d_profile(a) + a * u.dd_profile(a))

    R = u.support_radius
    v = ScalarField(
        evaluate=lambda t: t * u.profile(np.abs(t)), second_derivative=d2,
        kinks=tuple(sorted({-k for k in u.kinks} | set(u.kinks))),
        tail=TailExpansion(R), name=f"t {u.name}(|t|)", support=(-R, R))
    return frac_apply(v, r, OperatorParams(1, s)) / r
