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
integral.
"""

import math
import warnings

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as _gamma


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
    """Breakpoints on [lo, hi] accumulating dyadically toward one endpoint."""
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


def assemble_breaks(z0, r_in, offsets, r_out, panels, graded):
    """Scalar reference for one point's panel breakpoints, as the kernel laid
    them out one point at a time with Python lists.

    ``offsets`` are the sorted kink offsets in (z0, r_out) and ``graded`` the
    set of graded offsets.  Every offset is a panel break (dropped within
    1e-13 relative of the last one kept, r_out replacing the last one kept
    likewise); the graded ones also get dyadic accumulation from both sides.
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


def tail_power_moment(p: float, shift: float, radius: float, s: float) -> float:
    """Scalar reference for int_R^inf (t + shift)^p t^(-1-2s) dt, the
    binomial series summed term by term as the kernel summed it per point."""
    total, binom = 0.0, 1.0
    for k in range(0, 120):
        if k:
            binom *= (p - k + 1) / k
        term = binom * shift**k * radius ** (p - k - 2.0 * s) / (2.0 * s + k - p)
        total += term
        if k > 2 and abs(term) < 1e-18 * max(abs(total), 1e-300):
            break
    return total
