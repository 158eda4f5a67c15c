"""Construction and certification of the boundary barrier pipeline.

The lower barrier is produced in stages:

1. an exponent ladder ``alpha_j = 1 + 2 j (1 - s)`` whose truncated index
   keeps every power below the fractional order ``2s``;
2. kernel constants ``kappa_j`` (the fractional Laplacian acts on each
   admissible power as ``kappa_j x^(alpha_j - 2s)`` by homogeneity), in
   Dyda's closed form ``Gamma(1+alpha) Gamma(2s-alpha) sin(pi (s-alpha)) / pi``,
   negative for every ``1 <= alpha < 2s``;
3. recursion coefficients ``c_j = -kappa_{j-1} c_{j-1} / (alpha_j (alpha_j - 1))``
   that make each monomial's nonlocal output cancel against the Laplacian of
   the next one (telescoping);
4. a capped top power (:func:`~mixlap.fields.truncated_power`) so the sum
   stays bounded, a logarithmic corrector that absorbs the cap's nonlocal
   residue, and a window size d shrunk until the corrector is small relative
   to the window;
5. a convex parabolic deduction and a scaling M that turn the bounded-below
   inequality into a certified "mixed operator >= 1 near the boundary".

Existential constants are replaced by measured grid extrema with a 25%
safety margin; every built parameter set carries its own certificate of the
grid inequalities it was checked against.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import AccuracyError, ConstructionError, DomainError
from .fields import RadialField, ScalarField, TailExpansion, smoothstep
from .fields import _smoothstep_d1, _smoothstep_d2, truncated_power
from .kernel import _MIN_C2_ZONE, OperatorParams, frac_apply, mixed_apply

_INTEGER_TOL = 1e-9
# the window gate d <= 1/(4 C1 C2) first reads the top end of the C2 grid,
# where every failing window measured so far had its deciding maximum; it
# rejects d = 1/2 at s <= 1/2, which no closed form decides
_PROBE_POINTS = 8
# points of each grid a window is measured and certified on, as the certificate records them
_GRID_SIZES = {"c_sharp": 64, "c1": 128, "c2": 400, "lgamma": 200}


@dataclass(frozen=True)
class ExponentLadder:
    """Powers 1 + 2 j (1 - s), j = 0..J+1; all but the capped last stay below 2s."""

    s: float
    J: int
    alphas: Tuple[float, ...]
    case: str  # "high_s" or "low_s", from the sign of J


def build_ladder(s: float) -> ExponentLadder:
    if not (0.0 < s < 1.0):
        raise DomainError("s must lie in (0, 1)")
    rho = (2.0 * s - 1.0) / (2.0 * (1.0 - s))
    near = round(rho)
    if abs(rho - near) < _INTEGER_TOL and near >= 1:
        J = near - 1
    else:
        J = math.ceil(rho) - 1  # floor(rho) off the integers; -1 for s <= 1/2
    alphas = tuple(1.0 + 2.0 * j * (1.0 - s) for j in range(J + 2))
    ladder = ExponentLadder(s, J, alphas, "high_s" if J >= 0 else "low_s")
    for a in alphas[:-1]:
        if a >= 2.0 * s - 1e-12:
            raise AccuracyError("ladder exponent reached 2s prematurely")
    if alphas[-1] < 2.0 * s - 1e-9:
        raise AccuracyError("capped exponent fell below 2s")
    return ladder


def kappa(alpha: float, s: float) -> float:
    """Multiplier in (-Delta)^s x_+^alpha = kappa * x^(alpha - 2s), x > 0.

    Requires 1 <= alpha < 2s so the untruncated power is admissible.  Closed
    form Gamma(1 + alpha) Gamma(2s - alpha) sin(pi (s - alpha)) / pi (Dyda,
    Fract. Calc. Appl. Anal. 15, 2012); s - alpha lies in (-1, 0), so
    kappa < 0.
    """
    if not (1.0 <= alpha < 2.0 * s):
        raise DomainError("kappa needs 1 <= alpha < 2s")
    return (math.gamma(1.0 + alpha) * math.gamma(2.0 * s - alpha)
            * math.sin(math.pi * (s - alpha)) / math.pi)


def coefficients(ladder: ExponentLadder, kappas) -> Tuple[float, ...]:
    """c_0 = 1 and c_j = -kappa_{j-1} c_{j-1} / (alpha_j (alpha_j - 1))."""
    kappas = tuple(float(k) for k in kappas)
    if len(kappas) != ladder.J + 1:
        raise DomainError("need one kernel constant per uncapped ladder rung")
    if any(k >= 0.0 for k in kappas):
        raise DomainError("kernel constants must all be negative")
    cs = [1.0]
    for j in range(1, ladder.J + 2):
        aj = ladder.alphas[j]
        denom = aj * (aj - 1.0)
        assert denom > 0.0, "ladder exponents above the first exceed 1"
        cs.append(-kappas[j - 1] * cs[-1] / denom)
    return tuple(cs)


@dataclass(frozen=True)
class _Beta:
    """What the corrected barrier beta is built from, each value measured or exact."""

    ladder: ExponentLadder
    kappas: Tuple[float, ...]
    cs: Tuple[float, ...]
    d: float
    C_sharp: float


@dataclass(frozen=True)
class BarrierParams(_Beta):
    """Certificate-carrying parameter set for the barrier pair (beta, gamma); ``gamma_grid``
    and ``lgamma`` are results: the grid Lgamma >= 1 was certified on, and Lgamma there."""

    C2: float
    C0: float
    C1: float
    ell: float
    M: float
    R: float
    c_gamma: float
    S_d: float
    gamma_grid: Tuple[float, ...] = ()
    lgamma: Tuple[float, ...] = ()
    certificate: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# corrector and barrier evaluators
# ---------------------------------------------------------------------------


def _log_potential(x):
    """x^2 (3 - 2 log x)_+ / 4; second derivative is -log x where active."""
    x = np.asarray(x, dtype=float)
    pos = x > 0.0
    xx = np.where(pos, x, 1.0)
    val = xx * xx * np.maximum(3.0 - 2.0 * np.log(xx), 0.0) / 4.0
    return np.where(pos, val, 0.0)


def _monomial_derivative(mono, x, k: int):
    """k-th derivative of sum coef x^a over the (coef, a) pairs, at x > 0."""
    terms = (math.prod([c] + [a - j for j in range(k)]) * x ** (a - k) for c, a in mono)
    return sum(terms, np.zeros_like(x))


class _Corrector:
    """W: equals the explicit potential up to d, decays to 0 at 2d."""

    def __init__(self, d: float, mono: Tuple[Tuple[float, float], ...]):
        self.d = d
        self.mono = mono  # (coef, alpha) pairs of (2/C#) sum c_j x^alpha_j

    def w_tilde(self, x):
        x = np.asarray(x, dtype=float)
        out = _log_potential(x)
        xp = np.maximum(x, 0.0)
        for coef, a in self.mono:
            out = out + coef * xp**a
        return out

    def w_tilde_d(self, x, k: int):
        """k-th derivative (k = 1, 2) of W~ at each x > 0; the potential's,
        x (1 - log x) or -log x, is active below e^1.5."""
        x = np.asarray(x, dtype=float)
        pot = x * (1.0 - np.log(x)) if k == 1 else -np.log(x)
        return np.where(x < math.exp(1.5), pot, 0.0) + _monomial_derivative(self.mono, x, k)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        live = ~((x <= 0.0) | (x >= 2.0 * self.d))  # W vanishes off (0, 2d)
        out[live] = self.w_tilde(x[live])
        fade = live & (x > self.d)  # the fade is exactly 1 on (0, d]
        out[fade] *= 1.0 - smoothstep((x[fade] - self.d) / self.d)
        return out

    def d2(self, x):
        """W'' at each x: (W~ fade)'' on (0, 2d), 0 elsewhere.  On (0, d] the
        fade is exactly 1 and its derivatives -0, which leaves W~''."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        live = (x > 0.0) & (x < 2.0 * self.d)
        xl = x[live]
        t = (xl - self.d) / self.d
        fade = 1.0 - smoothstep(t)
        f1 = -_smoothstep_d1(t) / self.d
        f2 = -_smoothstep_d2(t) / self.d**2
        out[live] = (self.w_tilde_d(xl, 2) * fade + 2.0 * self.w_tilde_d(xl, 1) * f1
                     + self.w_tilde(xl) * f2)
        return out


def _barrier_monomials(p: _Beta) -> Tuple[Tuple[float, float], ...]:
    """(coef, power) pairs of the uncapped part of the barrier sum."""
    return tuple((p.cs[j], p.ladder.alphas[j]) for j in range(p.ladder.J + 1))


def _corrector_for(p: _Beta) -> _Corrector:
    mono = tuple(
        (2.0 * p.cs[j] / p.C_sharp, p.ladder.alphas[j])
        for j in range(1, len(p.cs))
    )
    return _Corrector(p.d, mono)


def _barrier_field(p: _Beta, name, ev, d2, kinks, scale=1.0, drop=0.0):
    """Zero on x <= 0, graded at 0; past x = 2, scale (monomials + cap - drop)."""
    top = p.cs[-1] * 2.0 ** p.ladder.alphas[-1] - drop
    plus = tuple((scale * c, a) for c, a in _barrier_monomials(p)) + ((scale * top, 0.0),)
    return ScalarField(ev, d2, kinks, TailExpansion(2.0, plus, ()), name,
                       support=(0.0, math.inf))


def beta_sharp_field(p: _Beta) -> ScalarField:
    """The uncorrected barrier: ladder monomials plus the capped top power."""
    mono = _barrier_monomials(p)
    c_top = p.cs[-1]
    a_top = p.ladder.alphas[-1]
    cap = 2.0**a_top

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        live = ~(x <= 0.0)  # the field vanishes on x <= 0
        xp = x[live]
        out[live] = (sum((coef * xp**a for coef, a in mono), np.zeros_like(xp))
                     + c_top * np.where(xp >= 2.0, cap, xp**a_top))
        return out

    def d2(x):
        x = np.asarray(x, dtype=float)
        xp = np.where(x > 0.0, x, 1.0)
        top = np.where(xp < 2.0, c_top * a_top * (a_top - 1.0) * xp ** (a_top - 2.0), 0.0)
        return np.where(x > 0.0, _monomial_derivative(mono, xp, 2) + top, 0.0)

    return _barrier_field(p, "beta_sharp", ev, d2, (0.0, 2.0))


def beta_field(p: _Beta) -> ScalarField:
    """The corrected barrier: beta = beta_sharp - C_sharp * W."""
    sharp = beta_sharp_field(p)
    W = _corrector_for(p)
    cs_ = p.C_sharp

    def ev(x):
        x = np.asarray(x, dtype=float)
        return sharp.evaluate(x) - cs_ * W(x)

    def d2(x):
        return sharp.second_derivative(x) - cs_ * W.d2(x)

    return _barrier_field(p, "beta", ev, d2, (0.0, p.d, 2.0 * p.d, 2.0))


def _beta_star(x, p: BarrierParams):
    """The convex parabolic deduction: 0, C2 x^2, its tangent line, a constant."""
    x = np.asarray(x, dtype=float)
    c2, ell, d = p.C2, p.ell, p.d
    out = np.where(
        x <= 0.0, 0.0,
        np.where(
            x < ell, c2 * x * x,
            np.where(x <= d, 2.0 * c2 * ell * x - c2 * ell**2,
                     c2 * ell * (2.0 * d - ell)),
        ),
    )
    return out


def gamma_field(p: BarrierParams) -> ScalarField:
    bf = beta_field(p)
    M = p.M

    def ev(x):
        x = np.asarray(x, dtype=float)
        return M * (bf.evaluate(x) - _beta_star(x, p))

    def d2(x):
        x = np.asarray(x, dtype=float)
        return M * (bf.second_derivative(x) - np.where((0.0 < x) & (x < p.ell), 2.0 * p.C2, 0.0))

    return _barrier_field(p, "gamma", ev, d2, (0.0, p.ell, p.d, 2.0 * p.d, 2.0),
                          scale=M, drop=p.C2 * p.ell * (2.0 * p.d - p.ell))


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------


class _AttemptFailed(Exception):
    pass


def build_barrier(s: float) -> BarrierParams:
    """Assemble and certify the full barrier parameter set for the order s.

    The window d is halved from 1/2 until all shrink conditions hold
    simultaneously, down to the floor where the certification grids' lower
    end d 1e-6 meets the kernel's kink guard.  A window whose ladder
    monomials alone break the corrector-size gate is skipped without imaging
    anything.  Measured constants carry a 25% margin and are re-certified on
    finer grids before the parameters are returned.
    """
    # the kernel's kink guard needs the grids' lower end d 1e-6 >= _MIN_C2_ZONE
    d_floor = _MIN_C2_ZONE / 1e-6
    if 0.5 < s < 1.0:
        # every term of S(d) is positive, so the first rung must fit alone:
        # 2 c_1 d^(3-2s) <= d/4 with c_1 = -kappa(1, s) / ((3-2s)(2-2s)),
        # checked before the ladder, which has ~1/(2-2s) rungs, is built
        c_1 = -kappa(1.0, s) / ((3.0 - 2.0 * s) * (2.0 - 2.0 * s))
        if 8.0 * c_1 * d_floor ** (2.0 - 2.0 * s) > 1.0:
            log2_bound = -math.log2(8.0 * c_1) / (2.0 - 2.0 * s)
            raise ConstructionError(f"the first ladder rung needs d <= 2^{log2_bound:.4g}, "
                                    f"below the window floor {d_floor:.3g}")
    ladder = build_ladder(s)
    params_op = OperatorParams(1, s)
    kappas = tuple(kappa(a, s) for a in ladder.alphas[: ladder.J + 1])
    cs = coefficients(ladder, kappas)
    a_top = ladder.alphas[-1]
    c_top = cs[-1]
    w_top = truncated_power(a_top, 1.0)

    trace = []
    d = 0.5
    while d >= d_floor:
        # C# S(d) = C# logpot(d) + 2 sum_{j>=1} c_j d^alpha_j with C# logpot(d) > 0,
        # so S(d) <= d/(4 C#) fails wherever the monomial part exceeds d/4
        mono = 2.0 * math.fsum(c * d**a for c, a in zip(cs[1:], ladder.alphas[1:]))
        if mono > 0.25 * d * (1.0 + 1e-9):
            trace.append(f"d={d:.6g}: 2 Σ c_j d^α_j = {mono:.3g} > d/4 = {0.25 * d:.3g}")
        else:
            try:
                return _attempt_build(s, params_op, ladder, kappas, cs, w_top, c_top, d)
            except _AttemptFailed as exc:
                trace.append(f"d={d:.6g}: {exc}")
        d *= 0.5
    raise ConstructionError(
        f"barrier construction failed at every window down to the floor {d_floor:.3g}",
        trace=trace)


def _attempt_build(s, params_op, ladder, kappas, cs, w_top, c_top, d) -> BarrierParams:
    # C_sharp: log-normalized bound of the capped power's nonlocal output
    grid = np.geomspace(d * 1e-6, d * 0.999, _GRID_SIZES["c_sharp"])
    c_sharp = 1.25 * float(np.max(np.abs(c_top * frac_apply(w_top, grid, params_op))
                                  / (1.0 + np.abs(np.log(grid)))))

    beta = _Beta(ladder, kappas, cs, d, c_sharp)
    corr = _corrector_for(beta)

    # the explicit potential is increasing on (0, d] for d < 1, so its
    # maximum over (-inf, d] sits at d
    s_d = float(corr.w_tilde(np.asarray(d)))
    if corr.w_tilde_d(d, 1) <= 0.0:
        raise _AttemptFailed("corrector potential not increasing at the window edge")
    if s_d > d / (4.0 * c_sharp):
        raise _AttemptFailed(f"corrector size S(d)={s_d:.3g} exceeds "
                             f"d/(4 C#)={d / (4 * c_sharp):.3g}")
    blend_grid = np.linspace(d, 2.0 * d, 257)
    w_on_blend = corr(blend_grid)
    if float(np.max(w_on_blend)) > 2.0 * s_d * (1.0 + 1e-12):
        raise _AttemptFailed("corrector blend exceeds its allowed range")
    if float(np.min(w_on_blend)) < -1e-15:
        raise _AttemptFailed("corrector blend went negative")

    bf = beta_field(beta)

    # sandwich constant C1 on (0, d)
    bgrid = np.geomspace(d * 1e-6, d * 0.999, _GRID_SIZES["c1"])
    bvals = bf.evaluate(bgrid)
    if float(np.min(bvals)) <= 0.0:
        raise _AttemptFailed("corrected barrier lost positivity inside the window")
    c1 = 1.25 * float(max(np.max(bvals / bgrid), np.max(bgrid / bvals)))

    # C0 = d/2: floor past the window
    far_grid = np.concatenate((np.linspace(d, 4.0, 64), np.geomspace(4.0, 64.0, 16)))
    if float(np.min(bf.evaluate(far_grid))) < d / 2.0:
        raise _AttemptFailed("barrier dips below d/2 past the window")

    # C2: measured lower bound of the mixed operator on the window
    def c2_of(vals):
        return max(1.25 * float(np.max(np.maximum(-vals, 0.0))), 0.05)

    # d > 1/(4 C1 C2) only gets truer as C2 grows, so the grid's top
    # _PROBE_POINTS points, imaged first, can reject the window on their own;
    # a point's image does not depend on the points that share its call
    lgrid = np.geomspace(d * 1e-6, d * 0.999, _GRID_SIZES["c2"])
    top = mixed_apply(bf, lgrid[-_PROBE_POINTS:], params_op)
    c2_lb = c2_of(top)
    if d > 1.0 / (4.0 * c1 * c2_lb):
        raise _AttemptFailed(f"C2 ≥ {c2_lb:.3g} on the top {_PROBE_POINTS} grid points puts "
                             f"1/(4 C1 C2) ≤ {1.0 / (4 * c1 * c2_lb):.3g} below the window {d:.3g}")
    lbeta = np.concatenate((mixed_apply(bf, lgrid[:-_PROBE_POINTS], params_op), top))
    c2 = c2_of(lbeta)

    ell = min(d / 4.0, 0.999 / (2.0 * c1 * c2))
    if d > 1.0 / (4.0 * c1 * c2):
        raise _AttemptFailed(f"window {d:.3g} exceeds 1/(4 C1 C2) = {1.0 / (4 * c1 * c2):.3g}")
    convex_bound = 2.0 * params_op.c_ns * ell * (2.0 * d - ell) / (s * (d - ell) ** (2.0 * s))
    if convex_bound > 0.5:
        raise _AttemptFailed("convex-deduction tail bound exceeds 1/2")

    M = max(2.0 / c2, 2.0 * c1 / ell)
    c_gamma = min(M / (2.0 * c1), 1.0 / (M * c1))
    assert 0.0 < c_gamma < 1.0

    p = BarrierParams(ladder, kappas, cs, d, c_sharp, C2=c2, C0=d / 2.0, C1=c1, ell=ell, M=M,
                      R=8.0, c_gamma=c_gamma, S_d=s_d)

    # certification grids
    gf = gamma_field(p)
    ggrid = np.geomspace(ell * 1e-3, ell * 0.99, _GRID_SIZES["lgamma"])
    lgamma = mixed_apply(gf, ggrid, params_op)
    lgamma_min = float(np.min(lgamma))
    if lgamma_min < 1.0 - 1e-6:
        raise _AttemptFailed(f"mixed operator on gamma dipped to {lgamma_min:.6g}")
    gvals = gf.evaluate(ggrid)
    sandwich_lo = float(np.min(gvals / ggrid))
    sandwich_hi = float(np.max(gvals / ggrid))
    if sandwich_lo < c_gamma or sandwich_hi > 1.0 / c_gamma:
        raise _AttemptFailed("linear sandwich on gamma failed")
    plateau_grid = np.concatenate((np.linspace(ell, 4.0, 64), np.geomspace(4.0, 8.0 * p.R, 16)))
    gamma_floor = float(np.min(gf.evaluate(plateau_grid)))
    if gamma_floor < 1.0:
        raise _AttemptFailed("gamma dropped below 1 past the boundary layer")

    # what the parameters do not already hold
    cert = {
        "lbeta_min": float(np.min(lbeta)),
        "lgamma_min": lgamma_min,
        "sandwich_lo": sandwich_lo,
        "sandwich_hi": sandwich_hi,
        "gamma_floor_past_ell": gamma_floor,
        "grid_sizes": dict(_GRID_SIZES),
    }
    return dataclasses.replace(p, gamma_grid=tuple(ggrid.tolist()), lgamma=tuple(lgamma.tolist()),
                               certificate=cert)


# ---------------------------------------------------------------------------
# truncation helpers
# ---------------------------------------------------------------------------


def radial_cutoff(R: float) -> RadialField:
    """C^2 radial plateau: 1 on |x| <= R, quintic decay, 0 beyond 2R."""
    if R <= 0:
        raise DomainError("cutoff radius must be positive")

    def prof(r):
        r = np.asarray(r, dtype=float)
        return 1.0 - smoothstep((r - R) / R)

    def d1(r):
        return -_smoothstep_d1((r - R) / R) / R

    def d2(r):
        return -_smoothstep_d2((r - R) / R) / R**2

    return RadialField(
        profile=prof, d_profile=d1, dd_profile=d2, support_radius=2.0 * R,
        kinks=(R, 2.0 * R), name=f"cutoff(R={R})",
    )
