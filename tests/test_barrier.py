import dataclasses
import math

import numpy as np
import pytest

from mixlap import barrier, fields
from mixlap.assembly import GridFunction, build_mesh
from mixlap.barrier import (_AttemptFailed, _attempt_build, _beta_star,
                            _corrector_for, _log_potential, beta_field,
                            beta_sharp_field, build_barrier, build_ladder,
                            coefficients, gamma_field, kappa, radial_cutoff)
from mixlap.errors import ConstructionError, DomainError
from mixlap.kernel import OperatorParams, frac_apply, mixed_apply

import oracles
from helpers import beta, gamma, pure_power, tail_integral, tail_kappa, theta

# brute-force Richardson oracle output, frozen from tests/oracles.py
_KAPPA_12_09_ORACLE = -0.42253461123528113


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------


def test_ladder_s075():
    lad = build_ladder(0.75)
    assert lad.case == "high_s"
    assert lad.J == 0
    assert lad.alphas == pytest.approx((1.0, 1.5))
    assert lad.alphas[-1] == pytest.approx(2.0 * 0.75)


def test_ladder_s09():
    lad = build_ladder(0.9)
    assert lad.J == 3
    assert np.allclose(lad.alphas, (1.0, 1.2, 1.4, 1.6, 1.8))


def test_ladder_s06_noninteger_rho():
    lad = build_ladder(0.6)
    assert lad.J == 0
    assert lad.alphas == pytest.approx((1.0, 1.8))
    assert lad.alphas[-1] >= 2.0 * 0.6


def test_ladder_low_order_degenerates():
    lad = build_ladder(0.3)
    assert lad.case == "low_s"
    assert lad.alphas == (1.0,)


def test_ladder_high_case_invariants():
    for s in (0.55, 0.6, 0.75, 0.8, 0.9, 0.95):
        lad = build_ladder(s)
        assert all(a < 2.0 * s for a in lad.alphas[:-1])
        assert lad.alphas[-1] >= 2.0 * s - 1e-9
        assert lad.alphas[0] == 1.0


@pytest.mark.parametrize("s", [1e-6, 0.05, 0.3, 0.5])
def test_low_order_ladder_has_no_uncapped_rung(s):
    # s <= 1/2 is the general ladder with J = -1: only the capped x_+
    lad = build_ladder(s)
    assert lad.J == -1
    assert lad.alphas == (1.0,)
    assert lad.case == "low_s"
    assert coefficients(lad, ()) == (1.0,)


def test_ladder_gains_its_first_uncapped_rung_just_above_one_half():
    lad = build_ladder(0.5 + 1e-6)
    assert lad.J == 0
    assert lad.case == "high_s"


# ---------------------------------------------------------------------------
# kernel constants and recursion
# ---------------------------------------------------------------------------


def test_kappa_negative_and_homogeneous(quad):
    k = kappa(1.0, 0.75)
    assert k < 0.0
    u = pure_power(1.0)
    p = OperatorParams(1, 0.75)
    v2 = frac_apply(u, 2.0, p, quad)
    assert abs(k * 2.0 ** (1.0 - 1.5) - v2) <= 10.0 * quad.tolerance * (1.0 + abs(k))


def test_kappa_matches_brute_force_oracle():
    k = kappa(1.2, 0.9)
    assert k == pytest.approx(_KAPPA_12_09_ORACLE, rel=1e-7)


@pytest.mark.parametrize("s, alpha", [(0.6, 1.1), (0.75, 1.0), (0.9, 1.2),
                                      (0.9, 1.6), (0.55, 1.05), (0.95, 1.85)])
def test_kappa_matches_high_precision_oracle(s, alpha):
    assert kappa(alpha, s) == pytest.approx(oracles.mp_frac_power(alpha, s),
                                            rel=1e-14, abs=0.0)


def test_kappa_rejects_inadmissible_exponent():
    with pytest.raises(DomainError):
        kappa(1.5, 0.7)  # alpha >= 2s
    with pytest.raises(DomainError):
        kappa(0.9, 0.75)  # alpha < 1


def test_coefficients_single_rung():
    lad = build_ladder(0.75)
    k0 = kappa(1.0, 0.75)
    cs = coefficients(lad, (k0,))
    assert cs[0] == 1.0
    assert cs[1] == pytest.approx(-k0 / (1.5 * 0.5))
    assert all(c > 0.0 for c in cs)


def test_coefficients_scale_linearly():
    lad = build_ladder(0.75)
    k0 = kappa(1.0, 0.75)
    c_single = coefficients(lad, (k0,))[1]
    c_double = coefficients(lad, (2.0 * k0,))[1]
    assert c_double == pytest.approx(2.0 * c_single, rel=1e-15)


def test_coefficients_all_positive_s09():
    lad = build_ladder(0.9)
    ks = tuple(kappa(a, 0.9) for a in lad.alphas[:-1])
    cs = coefficients(lad, ks)
    assert all(c > 0.0 for c in cs)
    for j in range(1, len(cs)):
        aj = lad.alphas[j]
        assert cs[j] == -ks[j - 1] * cs[j - 1] / (aj * (aj - 1.0))


# ---------------------------------------------------------------------------
# capped power
# ---------------------------------------------------------------------------


def test_w_alpha_values():
    assert fields.truncated_power(1.5, 1.0)(-1.0) == 0.0
    assert fields.truncated_power(1.5, 1.0)(3.0) == 2.0**1.5
    assert fields.truncated_power(1.5, 1.0)(1.0) == 1.0
    L = 0.7
    assert fields.truncated_power(2.2, L)(3.0 * L) == (2.0 * L) ** 2.2


@pytest.mark.parametrize("ramp", [fields.smoothstep, fields._smoothstep_d1,
                                  fields._smoothstep_d2])
def test_smoothstep_scalar_path_matches_array_path(ramp):
    ts = [-1.0, 0.0, 0.3, 0.5, 1.0, 2.0]
    scalar = np.array([ramp(t) for t in ts])
    assert scalar.tobytes() == ramp(np.array(ts)).tobytes()
    assert math.isnan(ramp(math.nan)) and np.isnan(ramp(np.array([math.nan])))[0]


# ---------------------------------------------------------------------------
# built barriers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def p075():
    return build_barrier(0.75)


@pytest.fixture(scope="module")
def p03():
    return build_barrier(0.3)


@pytest.fixture(scope="module")
def p09():
    return build_barrier(0.9)


def test_barrier_type_invariants(p075):
    assert p075.cs[0] == 1.0
    assert all(k < 0.0 for k in p075.kappas)
    assert all(c > 0.0 for c in p075.cs)
    for j in range(1, len(p075.cs)):
        aj = p075.ladder.alphas[j]
        assert p075.cs[j] == -p075.kappas[j - 1] * p075.cs[j - 1] / (aj * (aj - 1.0))
    assert 0.0 < p075.ell < p075.d / 2.0
    assert 0.0 < p075.c_gamma < 1.0


def test_certificate_holds_what_the_fields_do_not(p075):
    # the measured constants are fields of the parameters; the certificate
    # holds the grid extrema and sizes, and the certified Lgamma grid is kept
    assert set(p075.certificate) == {"lbeta_min", "lgamma_min", "sandwich_lo", "sandwich_hi",
                                     "gamma_floor_past_ell", "grid_sizes"}
    grid = np.array(p075.gamma_grid)
    assert grid.tobytes() == np.geomspace(p075.ell * 1e-3, p075.ell * 0.99, 200).tobytes()
    lgamma = mixed_apply(gamma_field(p075), grid, OperatorParams(1, 0.75))
    assert lgamma.tobytes() == np.array(p075.lgamma).tobytes()
    assert min(p075.lgamma) == p075.certificate["lgamma_min"]


def test_beta_vanishes_left_of_zero(p075):
    assert beta(-0.5, p075) == 0.0
    assert gamma(-1.0, p075) == 0.0


def test_beta_linear_sandwich(p075):
    for frac in (0.25, 0.5, 0.75):
        x = frac * p075.d
        val = float(beta(x, p075))
        assert x / p075.C1 <= val <= p075.C1 * x


def test_beta_floor_past_window(p075):
    for x in (p075.d, 2.0 * p075.d, 1.0, 5.0):
        assert float(beta(x, p075)) >= p075.C0


def test_gamma_sandwich_and_plateau(p075):
    x = p075.ell / 2.0
    val = float(gamma(x, p075))
    assert p075.c_gamma * x <= val <= x / p075.c_gamma
    assert float(gamma(10.0, p075)) >= 1.0
    assert float(gamma(p075.ell, p075)) >= 1.0 - 1e-12


def test_gamma_certified_inequality(p075, quad):
    # spot-check the certified grid: L gamma >= 1 on the boundary layer
    params = OperatorParams(1, 0.75)
    gf = gamma_field(p075)
    for x in np.geomspace(p075.ell * 1e-3, p075.ell * 0.98, 20):
        assert mixed_apply(gf, float(x), params, quad) >= 1.0 - 10.0 * quad.tolerance
    assert p075.certificate["lgamma_min"] >= 1.0 - 1e-6


def test_low_order_barrier_certified(p03, quad):
    params = OperatorParams(1, 0.3)
    gf = gamma_field(p03)
    for x in np.geomspace(p03.ell * 1e-3, p03.ell * 0.98, 20):
        assert mixed_apply(gf, float(x), params, quad) >= 1.0 - 10.0 * quad.tolerance


def test_certified_lower_bound_on_beta(p075, quad):
    params = OperatorParams(1, 0.75)
    bf = beta_field(p075)
    for x in np.geomspace(p075.d * 1e-4, p075.d * 0.98, 25):
        assert mixed_apply(bf, float(x), params, quad) >= -p075.C2 - 10.0 * quad.tolerance


def _c2_grid_image(p):
    """The C2 grid of p and Lbeta on it, as the builder images them."""
    xs = np.geomspace(p.d * 1e-6, p.d * 0.999, 400)
    return xs, mixed_apply(beta_field(p), xs, OperatorParams(1, p.ladder.s))


@pytest.mark.parametrize("s, rel", [(0.6, 5e-11), (0.75, 3e-10), (0.9, 1e-8)])
def test_image_that_sets_c2_matches_the_mpmath_oracle(s, rel, request):
    # Lbeta at the grid point that sets C2, x = 0.999 d, 0.001 d below the
    # corrector's fade, against the 40-digit oracle: within 8.4e-12,
    # 4.1e-11 and 2.2e-9 (off by 5.1e-10, 3.4e-9 and 2.6e-7 before the core
    # was integrated by parts).  What is left at s = 0.9 grows as the core
    # radius shrinks: the second difference's roundoff on the first rules
    p = request.getfixturevalue("p09") if s == 0.9 else build_barrier(s)
    xs, lbeta = _c2_grid_image(p)
    i = int(np.argmax(-lbeta))
    assert lbeta[i] == pytest.approx(oracles.mp_barrier_mixed_image(p, float(xs[i])),
                                     rel=rel, abs=0.0)


@pytest.mark.parametrize("s", [0.9, 0.91])
def test_c2_is_well_conditioned_in_c_sharp(s, request):
    # one ulp of C# moves C2 by 2.6e-10 at s = 0.9 and 8.6e-11 at 0.91
    # (2.6e-8 and 4.7e-8 before the core was integrated by parts)
    p = request.getfixturevalue("p09") if s == 0.9 else build_barrier(s)
    moved = dataclasses.replace(p, C_sharp=float(np.nextafter(p.C_sharp, math.inf)))
    lbeta = _c2_grid_image(moved)[1]
    c2 = max(1.25 * float(np.max(np.maximum(-lbeta, 0.0))), 0.05)
    assert c2 == pytest.approx(p.C2, rel=1e-9, abs=0.0)


def test_telescoping_cancellation(p075, quad):
    # the nonlocal output of each monomial is annihilated by the Laplacian
    # of the next corrector; the residual of the uncorrected barrier reduces
    # to the capped power's own nonlocal image
    params = OperatorParams(1, 0.75)
    sharp = beta_sharp_field(p075)
    w_top = fields.truncated_power(p075.ladder.alphas[-1], 1.0)
    c_top = p075.cs[-1]
    for x in np.geomspace(p075.d * 1e-3, p075.d * 0.9, 10):
        lhs = mixed_apply(sharp, float(x), params, quad)
        wv = frac_apply(w_top, float(x), params, quad)
        mono = 2.0 * sum(
            p075.cs[j] * p075.ladder.alphas[j] * (p075.ladder.alphas[j] - 1.0)
            * x ** (p075.ladder.alphas[j] - 2.0)
            for j in range(1, len(p075.cs))
        )
        scale = 1.0 + abs(lhs) + abs(c_top * wv) + abs(mono)
        assert abs(lhs - c_top * wv + mono) <= 100.0 * quad.tolerance * scale


def test_barrier_membership_integrals(p075):
    params = OperatorParams(1, 0.75)
    assert math.isfinite(tail_integral(beta_field(p075), params))
    assert math.isfinite(tail_integral(gamma_field(p075), params))


def _whole_array_fields(p):
    """beta, gamma and W by formulas applied to the whole node array: the
    reference for the evaluators that compute only on their support."""
    mono = () if p.ladder.case == "low_s" else tuple(
        (p.cs[j], p.ladder.alphas[j]) for j in range(p.ladder.J + 1))
    c_top, a_top = p.cs[-1], p.ladder.alphas[-1]
    w_mono = tuple((2.0 * p.cs[j] / p.C_sharp, p.ladder.alphas[j])
                   for j in range(1, len(p.cs)))

    def sharp(x):
        xp = np.maximum(x, 0.0)
        out = np.zeros_like(xp)
        for coef, a in mono:
            out = out + coef * xp**a
        return out + c_top * np.where(x >= 2.0, 2.0**a_top, xp**a_top)

    def w_tilde(x):
        out = _log_potential(x)
        xp = np.maximum(x, 0.0)
        for coef, a in w_mono:
            out = out + coef * xp**a
        return out

    def corrector(x):
        t = np.clip((x - p.d) / p.d, 0.0, 1.0)
        fade = 1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t))
        return np.where(x <= p.d, w_tilde(x),
                        np.where(x >= 2.0 * p.d, 0.0, w_tilde(x) * fade))

    def beta_ref(x):
        return sharp(x) - p.C_sharp * corrector(x)

    def gamma_ref(x):
        return p.M * (beta_ref(x) - _beta_star(x, p))

    return beta_ref, gamma_ref, corrector


@pytest.mark.parametrize("which", ["p03", "p09"])
def test_support_evaluators_match_whole_array_formulas(which, request):
    p = request.getfixturevalue(which)
    d = p.d
    x = np.concatenate((
        [-3.0, -1.0, -1e-300, 0.0, 1e-300, d, 2.0 * d, 2.0, 2.5, 70.0, p.ell],
        np.geomspace(p.ell * 1e-3, 3.0 * d, 41), np.linspace(-2.0 * d, 4.0, 37)))
    beta_ref, gamma_ref, corrector = _whole_array_fields(p)
    pairs = ((beta_field(p), beta_ref), (gamma_field(p), gamma_ref),
             (_corrector_for(p), corrector))
    for new, ref in pairs:
        want = ref(x)
        assert new(x).tobytes() == want.tobytes()
        assert np.array([new(float(t)) for t in x]).tobytes() == want.tobytes()


def test_barrier_fields_grade_only_the_origin(p075):
    # the quadrature grades a field's finite support ends, here 0 alone
    assert beta_sharp_field(p075).support == (0.0, math.inf)
    assert beta_field(p075).support == (0.0, math.inf)
    assert gamma_field(p075).support == (0.0, math.inf)


@pytest.mark.parametrize("which", ["p03", "p09"])
@pytest.mark.parametrize("make", [beta_sharp_field, beta_field, gamma_field])
def test_barrier_tail_is_exact_past_its_cutoff(make, which, request):
    # the kernel images everything past the cutoff by these terms alone
    u = make(request.getfixturevalue(which))
    assert u.tail.minus_terms == ()
    for x in (2.0002, 2.5, 7.0, 70.0, 1e3):
        assert x > u.tail.cutoff
        want = sum(c * x**a for c, a in u.tail.plus_terms)
        assert abs(u(x) - want) <= 4.0 * np.finfo(float).eps * abs(want)


def _grid_cases(p):
    """(field, grid clear of its kinks, a kink) for the array-path tests."""
    mesh = build_mesh(-1.0, 1.0, 15)
    hat = GridFunction(mesh, 1.0 - mesh.nodes**2)
    return {
        "beta": (beta_field(p), np.geomspace(p.d * 1e-3, 1.5 * p.d, 9), p.d),
        "gamma": (gamma_field(p), np.geomspace(p.ell * 1e-3, 0.9 * p.ell, 9), p.ell),
        "truncated power": (fields.truncated_power(1.4, 1.0),
                            np.array([-0.5, 0.01, 0.3, 1.2, 2.5]), 2.0),
        "hat": (hat, mesh.nodes[:-1] + 0.3 * mesh.h, mesh.nodes[3]),
    }


@pytest.mark.parametrize("name", ["beta", "gamma", "truncated power", "hat"])
def test_frac_apply_grid_matches_points(name, p075, quad):
    u, xs, kink = _grid_cases(p075)[name]
    params = OperatorParams(1, 0.75)
    # a hat is imaged in closed form, every other field by quadrature
    if name == "hat":
        apply = lambda x: u.frac_image(x, params)  # noqa: E731
    else:
        apply = lambda x: frac_apply(u, x, params, quad)  # noqa: E731
    one = [apply(float(x)) for x in xs]
    assert all(type(v) is float for v in one)
    grid = apply(xs)
    assert isinstance(grid, np.ndarray) and grid.shape == xs.shape
    # not bitwise: SIMD power may round 0-d and 1-d arrays differently
    np.testing.assert_allclose(grid, one, rtol=1e-14, atol=0.0)
    square = xs[:4].reshape(2, 2)
    assert apply(square).shape == (2, 2)
    with pytest.raises(DomainError):
        apply(np.append(xs, kink + 1e-13))


@pytest.mark.parametrize("name", ["beta", "gamma", "truncated power"])
def test_mixed_apply_grid_adds_pointwise_local_part(name, p075, quad):
    u, xs, _ = _grid_cases(p075)[name]
    params = OperatorParams(1, 0.75)
    lap = np.array([u.second_derivative(float(x)) for x in xs])
    mixed = mixed_apply(u, xs, params, quad)
    assert mixed.shape == xs.shape
    assert mixed.tobytes() == (-lap + frac_apply(u, xs, params, quad)).tobytes()
    assert type(mixed_apply(u, float(xs[0]), params, quad)) is float


def test_build_barrier_rejects_bad_order():
    with pytest.raises(DomainError):
        build_ladder(1.2)


def test_failed_construction_traces_every_window():
    # at s = 0.95 the ladder monomials alone break the S(d) gate at every
    # window from 1/2 down to the floor 1e-6 where the grids' lower end
    # d 1e-6 meets the kernel's kink guard; each window still gets a line
    with pytest.raises(ConstructionError, match="floor 1e-06") as info:
        build_barrier(0.95)
    trace = info.value.trace
    assert [line.split(":")[0] for line in trace] == [
        f"d={0.5 * 2.0**-k:.6g}" for k in range(19)]
    assert 0.5 * 2.0**-18 >= 1e-6 > 0.5 * 2.0**-19
    assert all("2 Σ c_j d^α_j = " in line and " > d/4 = " in line for line in trace)


@pytest.mark.parametrize("s, log2_d", [(0.92, -14), (0.93, -16), (0.94, -19),
                                       (0.5001, -14), (0.50001, -17)])
def test_barrier_certifies_near_both_ends_of_the_order_range(s, log2_d):
    # the skipped windows cost no image, so the window may fall to the floor
    p = build_barrier(s)
    assert p.d == 2.0**log2_d
    assert p.certificate["lgamma_min"] >= 1.0 - 1e-6


def _last_skipped_window(s):
    """The ladder, its coefficients and the least window the monomials skip."""
    lad = build_ladder(s)
    cs = coefficients(lad, tuple(kappa(a, s) for a in lad.alphas[: lad.J + 1]))
    windows = (0.5 * 2.0**-k for k in range(19))
    d = min(d for d in windows if 2.0 * math.fsum(
        c * d**a for c, a in zip(cs[1:], lad.alphas[1:])) > 0.25 * d * (1.0 + 1e-9))
    return lad, cs, d


@pytest.mark.parametrize("s", [0.55, 0.75, 0.9, 0.915, 0.5001])
def test_skipped_window_fails_the_imaged_corrector_gate(s):
    # the skip is conservative: C# logpot(d) > 0 only adds to what it tests
    lad, cs, d = _last_skipped_window(s)
    kappas = tuple(kappa(a, s) for a in lad.alphas[: lad.J + 1])
    with pytest.raises(_AttemptFailed, match="corrector size S\\(d\\)"):
        _attempt_build(s, OperatorParams(1, s), lad, kappas, cs,
                       fields.truncated_power(lad.alphas[-1], 1.0), cs[-1], d)


def test_unfit_first_rung_is_refused_before_the_ladder(monkeypatch):
    # at s = 1 - 1e-6 the ladder would have about 5e5 rungs
    def no_ladder(s):
        raise AssertionError("build_ladder called")

    monkeypatch.setattr(barrier, "build_ladder", no_ladder)
    with pytest.raises(ConstructionError, match="first ladder rung .* floor 1e-06"):
        build_barrier(0.999999)


def test_probe_rejects_the_window_from_the_top_of_the_c2_grid():
    # at s = 0.3 the window d = 1/2 fails d <= 1/(4 C1 C2) on the top 8
    # points of the 400-point beta image; build_barrier then halves d
    s = 0.3
    with pytest.raises(_AttemptFailed, match="C2 ≥ .* on the top 8 grid points"):
        _attempt_build(s, OperatorParams(1, s), build_ladder(s), (), (1.0,),
                       fields.truncated_power(1.0, 1.0), 1.0, 0.5)
    assert build_barrier(s).d == 0.25


# ---------------------------------------------------------------------------
# truncation helpers
# ---------------------------------------------------------------------------


def test_theta_equals_gamma_inside_plateau(p075):
    cut = radial_cutoff(p075.R)
    x = np.array([0.003])
    assert theta(x, p075, cut) == pytest.approx(float(gamma(0.003, p075)), rel=1e-14)


def test_theta_rejects_small_truncation(p075):
    cut = radial_cutoff(p075.R / 4.0)
    with pytest.raises(DomainError):
        theta(np.array([0.0]), p075, cut)


def test_tail_kappa_zero_field():
    # the cap's tail is empty past 1: zero beyond R = 4, with no quadrature
    params = OperatorParams(1, 0.5)
    assert tail_kappa(4.0, fields.parabola_cap(), params) == 0.0


def test_tail_kappa_bounded_field_decays():
    params = OperatorParams(1, 0.5)
    g = fields.constant(3.0)
    k1 = tail_kappa(4.0, g, params)
    k2 = tail_kappa(8.0, g, params)
    s = params.s
    assert k1 <= 3.0 * 2.0 / (2.0 * s) * 4.0 ** (-2.0 * s) + 1e-10
    assert k2 < k1


def test_tail_kappa_compact_support_vanishes():
    params = OperatorParams(1, 0.5)
    g = fields.parabola_cap()
    assert tail_kappa(2.0, g, params) == 0.0
