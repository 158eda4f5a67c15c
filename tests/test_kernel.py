import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mixlap import fields, kernel
from mixlap.assembly import GridFunction, build_mesh, grid_interpolant
from mixlap.barrier import (beta_field, beta_sharp_field, build_barrier, gamma_field,
                            radial_cutoff)
from mixlap.errors import AccuracyError, DomainError, TailDivergenceError
from mixlap.kernel import (OperatorParams, QuadratureSpec, frac_apply,
                           mixed_apply, normalization_constant)
from mixlap.verify import _radial_counterexample_profile

import oracles
from helpers import (linear_combination, mollifier_bump, plateau, pure_power, ring_well,
                     scaled, tail_integral, translated)


# ---------------------------------------------------------------------------
# normalization constant
# ---------------------------------------------------------------------------


def test_constant_positive_finite_1d():
    for s in (0.05, 0.3, 0.5, 0.77, 0.95):
        c = normalization_constant(1, s)
        assert c > 0.0 and math.isfinite(c)


def test_constant_known_values():
    assert normalization_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-10)
    assert normalization_constant(2, 0.5) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-10)


_CONSTANT_ORACLES = {1: oracles.norm_const_oracle_1d, 2: oracles.norm_const_oracle_2d,
                     3: oracles.norm_const_oracle_3d}


@pytest.mark.parametrize("n_dim", [1, 2, 3])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_constant_vs_closed_form(n_dim, s):
    # the closed form against quadrature of the defining integral
    c = normalization_constant(n_dim, s)
    ref = _CONSTANT_ORACLES[n_dim](s)
    assert c == pytest.approx(ref, rel=1e-10)


def test_constant_vs_direct_quadrature_oracles():
    assert normalization_constant(1, 0.5) == pytest.approx(
        oracles.norm_const_oracle_1d(0.5), rel=1e-8)
    assert normalization_constant(2, 0.5) == pytest.approx(
        oracles.norm_const_oracle_2d(0.5), rel=1e-8)


# frozen outputs of the same oracles with each tail summed by mpmath.quadosc
# instead: period 2 pi at 40 digits in 1D, exact zeros of J_0 at 30 in 2D;
# the s = 3/4 pair was refrozen when the bodies stopped cancelling (the old
# pair carried the bodies' 9.1e-13 and 3.75e-10 relative errors)
_QUADOSC_CONSTANTS = {
    0.25: (0.19947114020071635, 0.08324198387542507),
    0.5: (0.3183098861837907, 0.15915494309189535),
    0.75: (0.2992067103010745, 0.17116712969055234),
}


@pytest.mark.parametrize("s", sorted(_QUADOSC_CONSTANTS))
def test_oracle_tails_match_quadosc(s):
    c1, c2 = _QUADOSC_CONSTANTS[s]
    o1, o2 = oracles.norm_const_oracle_1d(s), oracles.norm_const_oracle_2d(s)
    assert o1 == pytest.approx(c1, rel=1e-13, abs=0.0)
    assert o2 == pytest.approx(c2, rel=1e-13, abs=0.0)
    # and the bodies keep all their digits: the oracles meet the closed form
    assert o1 == pytest.approx(oracles.closed_form_constant(1, s), rel=1e-15, abs=0.0)
    assert o2 == pytest.approx(oracles.closed_form_constant(2, s), rel=1e-15, abs=0.0)


def test_constant_domain_errors():
    for bad_s in (0.0, 1.0, 1.2, -0.3):
        with pytest.raises(DomainError):
            normalization_constant(1, bad_s)
    with pytest.raises(DomainError):
        normalization_constant(0, 0.5)
    with pytest.raises(DomainError):
        normalization_constant(4, 0.5)


def test_operator_params_caches_constant():
    p = OperatorParams(1, 0.6)
    assert p.c_ns == pytest.approx(normalization_constant(1, 0.6), rel=1e-12)
    with pytest.raises(DomainError):
        OperatorParams(1, 1.5)


# ---------------------------------------------------------------------------
# frac_apply
# ---------------------------------------------------------------------------


def test_constant_field_maps_to_zero(quad):
    p = OperatorParams(1, 0.6)
    for x in (-2.0, 0.3, 5.0):
        assert frac_apply(fields.constant(4.2), x, p, quad) == 0.0


def test_capped_parabola_bound(quad):
    # |(-Delta)^s f| <= c_{1,s} 2^{2-2s} (1-s) / (s (1-2s)) inside the well
    f = fields.parabola_cap()
    for s in (0.1, 0.25, 0.4):
        p = OperatorParams(1, s)
        bound = p.c_ns * 2.0 ** (2.0 - 2.0 * s) * (1.0 - s) / (s * (1.0 - 2.0 * s))
        for x in np.linspace(-0.9, 0.9, 13):
            assert abs(frac_apply(f, float(x), p, quad)) <= bound + 1e-8


def test_truncated_power_bounded_above_order(quad):
    # alpha > 2s: the image stays bounded toward the kink
    w = fields.truncated_power(1.0, 1.0)
    p = OperatorParams(1, 0.3)
    xs = np.geomspace(1e-4, 0.9, 10)
    vals = [abs(frac_apply(w, float(x), p, quad)) for x in xs]
    assert max(vals[:5]) <= 3.0 * max(vals[5:]) + 1.0


def test_truncated_power_log_growth_at_order(quad):
    # alpha = 2s: growth no worse than 1 + |log x|
    w = fields.truncated_power(1.0, 1.0)
    p = OperatorParams(1, 0.5)
    xs = np.geomspace(1e-5, 0.9, 12)
    ratios = [abs(frac_apply(w, float(x), p, quad)) / (1.0 + abs(math.log(x)))
              for x in xs]
    assert max(ratios) < 10.0 * (min(ratios) + 1e-3)


def test_tail_divergence_rejected(quad):
    p = OperatorParams(1, 0.4)
    with pytest.raises(TailDivergenceError):
        frac_apply(pure_power(0.8), 1.0, p, quad)  # exponent == 2s


def test_kink_evaluation_rejected(quad):
    p = OperatorParams(1, 0.5)
    with pytest.raises(DomainError):
        frac_apply(pure_power(1.0), 0.0, p, quad)


def test_truncated_power_refuses_an_overflowing_cap():
    with pytest.raises(DomainError, match=r"alpha=1\.5, L=1e\+250"):
        fields.truncated_power(1.5, 1e250)


@pytest.mark.parametrize("n_dim", [2, 3])
def test_radial_mixed_image_adds_the_laplacian(n_dim):
    # the local part of a radial field in dimension 2 or 3 is its radial
    # Laplacian at |x|; the point sits in the cutoff's decay, 1 < |x| < 2
    u, params = radial_cutoff(1.0), OperatorParams(n_dim, 0.4)
    x = np.array([1.2, 0.5, 0.3][:n_dim])
    lap = u.laplacian(np.linalg.norm(x), n_dim)
    assert lap != 0.0
    assert mixed_apply(u, x, params) == -lap + frac_apply(u, x, params)


@pytest.mark.parametrize("n_dim", [2, 3])
def test_radial_image_refuses_a_bad_point(n_dim):
    u, params = radial_cutoff(1.0), OperatorParams(n_dim, 0.4)
    with pytest.raises(DomainError, match="point dimension does not match"):
        frac_apply(u, np.full(n_dim + 1, 0.3), params)
    on_kink = np.zeros(n_dim)
    on_kink[-1] = 1.0  # the cutoff's kink sphere |x| = 1
    with pytest.raises(DomainError, match="radius sits on a smoothness break"):
        frac_apply(u, on_kink, params)


def test_tail_series_far_out_converges_or_refuses(quad):
    # (-Delta)^s x_+^alpha = kappa x^(alpha - 2s) (Dyda) at every scale: the
    # core, the middle zone's rules and the tail series take only lengths
    # relative to x, and at 1e200, where R^(-2s) underflows, the tail takes
    # it in two factors.  Measured within 1.3e-14
    for s, alpha in ((0.6, 1.1), (0.9, 1.2), (0.95, 1.5)):
        for x in (1e-11, 1e-6, 1.0, 1e6, 1e12, 1e100, 1e200):
            assert frac_apply(pure_power(alpha), x, OperatorParams(1, s), quad) == pytest.approx(
                oracles.mp_dyda_power(alpha, s, x), rel=1e-13, abs=0.0), (s, alpha, x)
    # at 1e250, measured within 1.6e-15, where x_+^0.5 at s = 0.3 is refused
    # with no numpy warning: its core's scale (x/8)^(2-2s) would overflow,
    # and its u'' has underflowed to 0
    for s, alpha in ((0.6, 1.1), (0.9, 1.2)):
        assert frac_apply(pure_power(alpha), 1e250, OperatorParams(1, s), quad) == pytest.approx(
            oracles.mp_dyda_power(alpha, s, 1e250), rel=1e-13, abs=0.0), (s, alpha)
    for u in (pure_power(0.5), fields.truncated_power(0.5, 1e300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"point 1e\+250 is too far"):
                frac_apply(u, 1e250, OperatorParams(1, 0.3), quad)
    # where the field's own samples overflow, the image is refused by name
    # with no numpy warning, not returned as nan
    for s, alpha, x in ((0.95, 1.5, 1e250), (0.6, 1.1, 1e300), (0.9, 1.2, 1e300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(f"point {x:g} has a non-finite image")):
                frac_apply(pure_power(alpha), x, OperatorParams(1, s), quad)


@pytest.mark.parametrize("s", [0.1, 0.3, 0.6, 0.9])
@pytest.mark.parametrize("x", [1e-11, 1e-8])
def test_middle_zone_past_the_longest_rule_is_refused(x, s):
    # the body from near x out to the cap of x_+^0.5 at 2e300 is so long
    # that the ratio of its ends overflows, which leaves it no rule size
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match=re.escape(f"point {x:g} has a middle-zone part")):
            frac_apply(fields.truncated_power(0.5, 1e300), x, OperatorParams(1, s))


@pytest.mark.parametrize("n_dim", [2, 3])
@pytest.mark.parametrize("s", [1e-7, 5e-8, 1e-8, 1e-9])
def test_radial_image_at_tiny_order_is_finite_and_silent(s, n_dim):
    # the radial core once took a noise floor 10 eps scale / (2 s tol) raised
    # to 1/(2s), which overflows below s ~ 1.1e-7; the image must stay
    # finite, with no warning, at every order the CLI accepts
    x = np.zeros(n_dim)
    x[0] = 1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = frac_apply(_radial_counterexample_profile(n_dim), x, OperatorParams(n_dim, s))
    assert math.isfinite(val)


@pytest.mark.parametrize("alpha,s", [(1.0, 0.75), (1.2, 0.9), (1.0, 0.6),
                                     (1.3, 0.7), (1.0, 0.51)])
def test_power_values_match_high_precision_oracle(alpha, s, quad):
    p = OperatorParams(1, s)
    mine = frac_apply(pure_power(alpha), 1.0, p, quad)
    ref = oracles.mp_frac_power(alpha, s)
    assert mine == pytest.approx(ref, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("alpha,s", [(1.0, 0.3), (1.8, 0.9), (1.2, 0.6)])
def test_truncated_power_matches_mpmath_oracle(alpha, s, quad):
    # the cap at 2L is an ungraded kink: plain rules end there
    xs = np.array([0.01, 0.2, 0.5])
    mine = frac_apply(fields.truncated_power(alpha, 1.0), xs, OperatorParams(1, s), quad)
    for x, v in zip(xs, mine):
        ref = oracles.mp_frac_truncated_power(alpha, 1.0, s, float(x))
        assert v == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("s", [0.3, 0.9])
def test_plateau_matches_mpmath_oracle_near_its_ramp_ends(s, quad):
    # the ramp ends are kinks, so the core stays inside each point's C^2
    # zone and rules end at them: within 8.8e-12, the second difference's
    # roundoff near x = 1.02, where undeclared ends left errors of 1e-2 at
    # s = 0.9
    xs = np.array([-1.03, -0.98, -0.5, 0.97, 1.02, 2.5])
    mine = frac_apply(plateau(-2.0, -1.0, 1.0, 3.0, depth=1.5), xs,
                      OperatorParams(1, s), quad)
    for x, v in zip(xs.tolist(), mine.tolist()):
        assert v == pytest.approx(oracles.mp_frac_plateau(s, x), rel=1e-10, abs=0.0), x


@pytest.mark.parametrize("s", [0.01, 0.3, 0.6, 0.9, 0.99])
def test_truncated_power_meets_the_tolerance_near_its_kink(s):
    # near the graded support end 0, u^(k) grows like x^(alpha-k), so the
    # core's product rule and the rules graded into 0 decide the error
    tol = QuadratureSpec.tolerance
    for alpha in (1.0, 1.2, 1.5, 1.8):
        for x in (1e-6, 1e-3, 0.5):
            mine = frac_apply(fields.truncated_power(alpha, 1.0), x, OperatorParams(1, s))
            ref = oracles.mp_frac_truncated_power(alpha, 1.0, s, x)
            assert mine == pytest.approx(ref, rel=tol, abs=0.0), (alpha, x)


def test_tolerance_does_not_move_a_taylor_core():
    # the core radius r_in/4 and its product rule are the same at any tolerance
    u, p = fields.truncated_power(1.8, 1.0), OperatorParams(1, 0.9)
    tight = frac_apply(u, 0.05, p, QuadratureSpec(tolerance=1e-12))
    assert np.float64(tight).tobytes() == np.float64(frac_apply(u, 0.05, p)).tobytes()


@pytest.mark.parametrize("n", [31, 255])
@pytest.mark.parametrize("s", [0.01, 0.25, 0.5 - 1e-9, 0.5 + 1e-12, 0.5 + 1e-9, 0.75, 0.99])
def test_hat_interpolant_matches_closed_form(n, s):
    # the closed form in expm1 terms; near s = 1/2 the naive sum of
    # |x - x_j|^(1-2s) / (1-2s) fails this bound
    mesh = build_mesh(-1.0, 1.0, n)
    vals = np.sin(np.arange(1.0, n + 1.0)) + 1.5
    knots = mesh.element_edges()
    mids = 0.5 * (knots[:-1] + knots[1:])
    image = GridFunction(mesh, vals).frac_image(mids, OperatorParams(1, s))
    ref = np.array(oracles.mp_frac_hat(knots, np.concatenate(([0.0], vals, [0.0])), s,
                                       mids.tolist()))
    assert np.max(np.abs(image - ref)) <= 1e-10 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# mixed_apply
# ---------------------------------------------------------------------------


def test_mixed_zero_field(quad):
    p = OperatorParams(1, 0.5)
    assert mixed_apply(fields.constant(0.0), 0.2, p, quad) == 0.0


def test_mixed_requires_second_derivative(quad):
    p = OperatorParams(1, 0.5)
    bare = fields.ScalarField(evaluate=lambda x: np.zeros_like(np.asarray(x, float)))
    with pytest.raises(DomainError):
        mixed_apply(bare, 0.0, p, quad)


@pytest.mark.parametrize("apply", [frac_apply, mixed_apply])
def test_field_without_second_derivative_is_refused(apply):
    # the 1D quadrature has one core, integrated by parts on u''; a hat
    # interpolant, which has no u'', is imaged in closed form instead
    mesh = build_mesh(-1.0, 1.0, 15)
    hat = grid_interpolant(mesh, 1.0 - mesh.nodes**2)
    with pytest.raises(DomainError, match="GridFunction.frac_image"):
        apply(hat, np.array([0.01, 0.3]), OperatorParams(1, 0.5))


def test_mixed_names_the_field_kind_dimension_1_needs(quad):
    # a radial field at N = 1 is refused as frac_apply refuses it, not for a
    # missing second derivative
    u = _radial_counterexample_profile(2)
    for apply in (frac_apply, mixed_apply):
        with pytest.raises(DomainError, match="dimension 1 requires a ScalarField"):
            apply(u, 0.2, OperatorParams(1, 0.5), quad)


def test_wrong_sign_scaled_parabola_lower_bound(quad):
    # the wrong-sign image Delta u + (-Delta)^s u of the scaled well
    # dominates the stated bound
    s = 0.25
    p = OperatorParams(1, s)
    eps = 0.5
    f_eps = scaled(fields.parabola_cap(), eps)
    floor = (2.0 / eps**2) * (
        1.0 - eps ** (2.0 - 2.0 * s) * 2.0 ** (1.0 - 2.0 * s) * p.c_ns
        * (1.0 - s) / (s * (1.0 - 2.0 * s))
    )
    for x in np.linspace(-0.9 * eps, 0.9 * eps, 9):
        image = f_eps.second_derivative(x) + frac_apply(f_eps, float(x), p, quad)
        assert image >= floor - 1e-8


# ---------------------------------------------------------------------------
# tail integral
# ---------------------------------------------------------------------------


def test_tail_integral_zero_and_compact():
    p = OperatorParams(1, 0.5)
    assert tail_integral(fields.constant(0.0), p) == 0.0
    val = tail_integral(fields.parabola_cap(), p)
    assert 0.0 < val < math.inf


def test_tail_integral_divergent_sentinel():
    p = OperatorParams(1, 0.5)
    assert tail_integral(pure_power(1.0), p) == math.inf  # exponent = 2s


# ---------------------------------------------------------------------------
# support ends: the breaks graded from the side where the field is nonzero
# ---------------------------------------------------------------------------

WHOLE_LINE = (-math.inf, math.inf)


def test_constructors_declare_their_support():
    assert fields.truncated_power(1.5, 1.0).support == (0.0, math.inf)
    assert pure_power(1.5).support == (0.0, math.inf)
    assert fields.parabola_cap().support == WHOLE_LINE
    assert mollifier_bump(0.0, 1.0).support == (-1.0, 1.0)
    assert grid_interpolant(build_mesh(-1.0, 1.0, 7), np.ones(7)).support == WHOLE_LINE
    assert _radial_counterexample_profile(1).support == WHOLE_LINE
    assert ring_well(2.0).support == WHOLE_LINE


def test_support_follows_scaling_translation_and_sums():
    w = fields.truncated_power(1.5, 1.0)
    bump = mollifier_bump(0.0, 1.0)
    cap = fields.parabola_cap()
    assert scaled(w, 0.5).support == (0.0, math.inf)
    assert scaled(translated(w, 0.5), 0.5).support == (0.25, math.inf)
    assert scaled(bump, 0.5).support == (-0.5, 0.5)
    assert translated(cap, 0.3).support == WHOLE_LINE
    assert translated(w, 0.25).support == (0.25, math.inf)
    assert translated(bump, 0.5).support == (-0.5, 1.5)
    # a sum vanishes only where every term does
    assert linear_combination([1.0, 2.0], [w, cap]).support == WHOLE_LINE
    assert linear_combination([1.0, 1.0], [w, bump]).support == (-1.0, math.inf)
    assert linear_combination([1.0, 1.0], [bump, translated(bump, 0.5)]).support == (-1.0, 1.5)


def test_support_end_is_graded_from_inside_only(monkeypatch):
    # at x = 0.3 the lower end 0 of x_+^1.5 sits at offset 0.3: u(x - z) is
    # singular as z rises to 0.3 and 0 past it, so the segment (0.15, 0.3),
    # a factor 2 wide, is taken whole by rules in log(0.3 - z), from 0.15
    # down to 2^-60 0.3 and split 3 units below the top; (0.3, 1.7), up to
    # the cap's offset, is one body in log z, and no rule runs in log(z - 0.3)
    real, layouts = kernel._part_layout, []

    def spy(*args):
        layouts.append(real(*args))
        return layouts[-1]

    monkeypatch.setattr(kernel, "_part_layout", spy)
    frac_apply(fields.truncated_power(1.5, 1.0), 0.3, OperatorParams(1, 0.6))
    owner, anchor, near, far, size = layouts[0]
    assert owner.tolist() == [0] * owner.size
    at_end = anchor == 0.3
    assert at_end.sum() == 2
    np.testing.assert_array_equal(far[at_end], [-0.15, -0.15 * math.exp(-3.0)])
    np.testing.assert_array_equal(near[at_end], [-0.15 * math.exp(-3.0), -0.3 * 2.0**-60])
    assert np.all(anchor[~at_end] == 0.0)
    np.testing.assert_array_equal(near[~at_end], [0.0375, 0.3, 1.7])
    np.testing.assert_array_equal(far[~at_end], [0.15, 1.7, 3.3])


@pytest.mark.parametrize("which", ["barrier_03", "barrier_09"])
def test_fields_are_exactly_zero_beyond_their_support(which, request):
    # the 1D middle zone evaluates a field at every node its rules lay out,
    # also past a finite support end, and takes the value there as it comes:
    # each library field with such an end gives exactly 0.0 at it and beyond
    # it, from the end itself out to 10 (1 + |end|), with no numpy warning
    p = request.getfixturevalue(which)
    line_fields = [kernel._line_field(radial, r, phi)
                   for radial in (radial_cutoff(0.5), _radial_counterexample_profile(3))
                   for r in (0.0, 0.3, 1.5, 4.0) for phi in (0.0, 0.7, 0.5 * math.pi)]
    for u in [fields.truncated_power(1.5, 1.0), fields.truncated_power(0.3, 1e3),
              beta_sharp_field(p), beta_field(p), gamma_field(p), *line_fields]:
        for end, side in zip(u.support, (-1.0, 1.0)):
            if not math.isfinite(end):
                continue
            offsets = np.concatenate(([0.0], np.geomspace(1e-17, 10.0 * (1.0 + abs(end)), 80)))
            ys = end + side * offsets
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = u.evaluate(ys)
            assert values.tobytes() == np.zeros_like(ys).tobytes(), (u.name, end)


@pytest.mark.parametrize("alpha,s", [(1.0, 0.3), (1.5, 0.6), (1.8, 0.9)])
def test_truncated_power_left_of_its_support_matches_mpmath_oracle(alpha, s):
    # the lower end 0 is graded from above its offset |x|: u(x + z) is 0
    # below it and singular as z falls to it
    xs = np.array([-3.0, -0.4, -1e-3])
    mine = frac_apply(fields.truncated_power(alpha, 1.0), xs, OperatorParams(1, s))
    for x, v in zip(xs, mine):
        ref = oracles.mp_frac_truncated_power_left(alpha, 1.0, s, float(x))
        assert v == pytest.approx(ref, rel=1e-10, abs=0.0), x


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_homogeneity(quad):
    for (alpha, s) in [(0.5, 0.6), (1.0, 0.75), (1.3, 0.8)]:
        p = OperatorParams(1, s)
        u = pure_power(alpha)
        base = frac_apply(u, 1.0, p, quad)
        for x in (0.5, 2.0):
            v = frac_apply(u, x, p, quad)
            assert abs(v - base * x ** (alpha - 2.0 * s)) <= \
                10.0 * quad.tolerance * (1.0 + abs(base))


def test_s_harmonic_power_annihilated(quad):
    # x_+^s is in the kernel of the operator on the half line
    for s in (0.3, 0.5, 0.75, 0.9):
        p = OperatorParams(1, s)
        u = pure_power(s)
        for x in (0.7, 1.0, 1.9):
            assert abs(frac_apply(u, x, p, quad)) < 1e-8


def test_sign_of_convex_powers(quad):
    for (alpha, s) in [(1.0, 0.6), (1.0, 0.9), (1.4, 0.8)]:
        p = OperatorParams(1, s)
        u = pure_power(alpha)
        for x in (0.25, 1.0, 3.0):
            assert frac_apply(u, x, p, quad) < 0.0


def test_linearity(quad):
    p = OperatorParams(1, 0.7)
    g1 = fields.parabola_cap()
    g2 = mollifier_bump(0.2, 0.5, 1.0)
    combo = linear_combination([2.0, -3.0], [g1, g2])
    x = 0.33
    lhs = frac_apply(combo, x, p, quad)
    rhs = 2.0 * frac_apply(g1, x, p, quad) - 3.0 * frac_apply(g2, x, p, quad)
    assert lhs == pytest.approx(rhs, abs=3.0 * quad.tolerance * (1.0 + abs(rhs)))


def test_translation_invariance(quad):
    p = OperatorParams(1, 0.6)
    u = fields.parabola_cap()
    ut = translated(u, 0.8)
    for x in (-0.4, 0.1, 0.6):
        a = frac_apply(u, x, p, quad)
        b = frac_apply(ut, x + 0.8, p, quad)
        assert a == pytest.approx(b, abs=10.0 * quad.tolerance * (1.0 + abs(a)))


def test_convex_tail_bound(quad):
    # bounded function, convex left of d: the image on (0, ell) obeys
    # 2 c_{1,s} sup|v| / (s (d - ell)^{2s})
    d, ell = 1.5, 0.5
    anchor = d - 2.0

    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.minimum(np.maximum(x - anchor, 0.0) ** 2, 9.0)

    v = fields.ScalarField(
        evaluate=ev,
        second_derivative=lambda x: np.where((anchor < x) & (x < anchor + 3.0), 2.0, 0.0),
        kinks=(anchor, anchor + 3.0),
        tail=fields.TailExpansion(anchor + 3.0, ((9.0, 0.0),), ()),
    )
    for s in (0.3, 0.6, 0.85):
        p = OperatorParams(1, s)
        bound = 2.0 * p.c_ns * 9.0 / (s * (d - ell) ** (2.0 * s))
        for x in np.linspace(0.01, 0.49, 9):
            assert frac_apply(v, float(x), p, quad) <= bound + quad.tolerance


# ---------------------------------------------------------------------------
# radial evaluation
# ---------------------------------------------------------------------------


def test_radial_constant_region_matches_laplacian_free_value(quad):
    # radial capped paraboloid: at the center the nonlocal image must agree
    # between dimensions when computed from the profile symmetry (smoke-level
    # consistency with the 1D engine for the even field)
    from mixlap.verify import _radial_counterexample_profile

    s = 0.5
    u1 = _radial_counterexample_profile(1)
    u2 = _radial_counterexample_profile(2)
    p1 = OperatorParams(1, s)
    p2 = OperatorParams(2, s)
    v1 = frac_apply(u1, 0.3, p1, quad)
    v2 = frac_apply(u2, np.array([0.3, 0.0]), p2, quad)
    # different dimensions give different values; both must be finite and
    # negative well inside the well (the function is subharmonic there)
    assert math.isfinite(v1) and math.isfinite(v2)
    assert v1 < 0.0 and v2 < 0.0


@pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.75, 0.99])
def test_radial_3d_matches_the_intertwined_1d_image(s):
    # (-Delta_3)^s u(r) = (1/r) (-Delta_1)^s [t u(|t|)](r), through no radial code
    u = _radial_counterexample_profile(3)
    params = OperatorParams(3, s)
    for r in (0.3, 0.9, 1.5, 2.2, 4.0):
        ref = oracles.intertwined_image_3d(u, s, r)
        val = frac_apply(u, np.array([r, 0.0, 0.0]), params)
        assert val == pytest.approx(ref, rel=1e-10, abs=0.0), r


def test_radial_rejects_plain_field(quad):
    p = OperatorParams(2, 0.5)
    with pytest.raises(DomainError):
        frac_apply(fields.parabola_cap(), np.array([0.1, 0.0]), p, quad)


@pytest.mark.parametrize("n_dim", [2, 3])
def test_mixed_apply_rejects_plain_field_through_frac_apply(n_dim, quad):
    # mixed_apply leaves the refusal to frac_apply, which raises before
    # the field's missing laplacian is read
    with pytest.raises(DomainError, match="^dimensions 2 and 3 require a RadialField$"):
        mixed_apply(fields.parabola_cap(), np.full(n_dim, 0.1), OperatorParams(n_dim, 0.5), quad)


def test_evaluation_is_bitwise_deterministic(quad):
    # fixed node placement and compensated summation give reproducible bits
    p = OperatorParams(1, 0.6)
    u = fields.parabola_cap()
    vals = {frac_apply(u, 0.37, p, quad) for _ in range(5)}
    assert len(vals) == 1


# ---------------------------------------------------------------------------
# middle-zone parts
# ---------------------------------------------------------------------------


def _assert_layout_matches_scalar(z0, r_in, offsets, below, above, r_out):
    """The array layout of a chunk of points against the scalar reference:
    the same parts per point in the same order, each with its anchor and
    its ends equal to 4 ulp and its rule size equal."""
    z0, r_in, r_out = (np.asarray(a, dtype=float) for a in (z0, r_in, r_out))
    offsets, below, above = (np.asarray(a, dtype=float).reshape(z0.size, -1)
                             for a in (offsets, below, above))
    owner, anchor, near, far, size = kernel._part_layout(z0, r_in, offsets, below, above, r_out)
    assert np.all(np.diff(owner) >= 0)
    for i in range(z0.size):
        ref = oracles.assemble_parts(float(z0[i]), float(r_in[i]), sorted(offsets[i].tolist()),
                                     float(r_out[i]), set(below[i].tolist()),
                                     set(above[i].tolist()), kernel._RULE_SIZES.tolist())
        mine = owner == i
        assert mine.sum() == len(ref), i
        for got, want in zip((anchor[mine], near[mine], far[mine]), list(zip(*ref))[:3]):
            np.testing.assert_array_max_ulp(got, np.array(want), maxulp=4)
        assert size[mine].tolist() == [n for *_, n in ref], i


def _field_layout_inputs(u, xs):
    """Each point's layout inputs, as frac_apply_1d derives them: a lower
    support end lo is graded from below its offset at x > lo and from above
    at x < lo, an upper end hi from below at x < hi and from above at x > hi."""
    lo = u.support[0]
    ends = [e for e in u.support if math.isfinite(e)]
    r_c2 = np.array([u.c2_distance(x) for x in xs])
    r_in = np.where(np.isfinite(r_c2), 0.5 * r_c2, kernel._INNER_RADIUS)
    z0 = 0.25 * r_in
    r_out = np.maximum(2.0 * np.abs(xs) + 2.0, u.tail.cutoff + np.abs(xs) + 1.0)
    offsets = [[abs(k - x) for k in (*u.kinks, *ends)] for x in xs.tolist()]
    below = [[abs(e - x) if (e == lo) == (x > e) else math.nan for e in ends]
             for x in xs.tolist()]
    above = [[abs(e - x) if (e == lo) == (x < e) else math.nan for e in ends]
             for x in xs.tolist()]
    return z0, r_in, offsets, below, above, r_out


@pytest.fixture(scope="module")
def barrier_03():
    return build_barrier(0.3)


def test_layout_matches_scalar_on_barrier_fields(barrier_03):
    p = barrier_03
    for u, xs in ((beta_field(p), np.geomspace(p.d * 1e-6, 0.999 * p.d, 400)),
                  (gamma_field(p), np.geomspace(p.ell * 1e-3, 0.99 * p.ell, 200)),
                  (gamma_field(p), np.linspace(-1.5, 3.0, 91) + 1e-3)):
        _assert_layout_matches_scalar(*_field_layout_inputs(u, xs))


def test_layout_matches_scalar_on_truncated_power_and_hat():
    xs = np.linspace(-3.0, 3.0, 301) + 1e-3
    _assert_layout_matches_scalar(*_field_layout_inputs(fields.truncated_power(1.4, 1.0), xs))
    # a hat's 33 kinks, with the zero u'' the core needs
    mesh = build_mesh(-1.0, 1.0, 31)
    hat = dataclasses.replace(grid_interpolant(mesh, np.sin(np.arange(31.0))),
                              second_derivative=np.zeros_like)
    xs = np.linspace(-1.2, 1.2, 97) + 1e-4
    _assert_layout_matches_scalar(*_field_layout_inputs(hat, xs))
    # a hat that declares its support: its end knots graded from inside
    hat = dataclasses.replace(hat, support=(mesh.a, mesh.b))
    _assert_layout_matches_scalar(*_field_layout_inputs(hat, xs))
    # a bump's two support ends, from inside, outside and between them
    _assert_layout_matches_scalar(*_field_layout_inputs(mollifier_bump(0.2, 0.5), xs))


@pytest.mark.parametrize("offsets,graded", [
    # a segment graded at both ends is halved between them when narrower
    # than a factor 4, and keeps a body when wider
    ([1.0, 1.2], [1.0, 1.2]),
    ([0.3, 0.33, 5.0], [0.3, 0.33]),
    ([0.5, 2.5], [0.5, 2.5]),
    # symmetric kinks give equal offsets; grading either grades the break
    ([0.5, 0.5, 2.0], [0.5]),
    # offsets within 1e-13 relative of the last one kept are dropped, their
    # grading with them; the third is kept against the first, not the second
    ([1.0, 1.0 + 5e-14, 3.0], [1.0 + 5e-14]),
    ([1.0, 1.0 + 6e-14, 1.0 + 1.2e-13], [1.0 + 6e-14, 1.0 + 1.2e-13]),
    # so is an offset within 1e-13 relative below r_out
    ([1.0, 64.0 * (1.0 - 5e-14)], [1.0, 64.0 * (1.0 - 5e-14)]),
    # offsets outside (z0, r_out) are not breaks
    ([1e-9, 0.7, 80.0], [1e-9, 0.7, 80.0]),
])
def test_layout_edge_cases_match_scalar(offsets, graded):
    # each graded offset graded from both sides
    _assert_layout_matches_scalar([1e-4, 2e-5], [0.25, 0.2], [offsets, offsets],
                                  [graded, graded], [graded, graded], [64.0, 64.0])


@pytest.mark.parametrize("offsets,below,above", [
    # a segment narrower than a factor 2 whose ends are graded away from
    # it, and one whose ends are graded into it, which one end takes whole
    ([1.0, 1.2], [1.0], [1.2]),
    ([1.0, 1.2], [1.2], [1.0]),
    # one break graded from one side, then from the other
    ([0.3, 5.0], [0.3], [math.nan]),
    ([0.3, 5.0], [math.nan], [0.3]),
    # equal offsets, one from each side
    ([0.5, 0.5, 2.0], [0.5], [0.5]),
])
def test_one_sided_layout_edge_cases_match_scalar(offsets, below, above):
    _assert_layout_matches_scalar([1e-4, 2e-5], [0.25, 0.2], [offsets, offsets],
                                  [below, below], [above, above], [64.0, 64.0])


@pytest.mark.parametrize("n", [6, *kernel._RULE_SIZES.tolist()])  # 6: the load rule
def test_generated_rules_are_gauss_legendre(n):
    # each rule integrates every Legendre polynomial of degree < 2n exactly
    # (measured within 4.1 eps), and up to n = 512 its nodes are numpy's
    # within 3 ulp; numpy's weights are the less exact: they differ from
    # these by up to 88 eps, and their degree-0 sum is renormalized to 2
    x, w = kernel._legendre(n)
    eps = np.finfo(float).eps
    assert x.size == n and np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    assert abs(w.sum() - 2.0) <= 8 * eps
    prev, p = np.ones(n), x
    for k in range(1, 2 * n):
        assert abs(np.sum(w * p)) <= 8 * eps, k
        prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
    if n <= 512:
        from numpy.polynomial.legendre import leggauss

        ref_x, ref_w = leggauss(n)
        np.testing.assert_array_max_ulp(x, ref_x, maxulp=4)
        np.testing.assert_allclose(w, ref_w, rtol=0.0, atol=128 * eps)


@pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_core_weights_match_mpmath_kernel_integrals(s):
    # the 12-node product rule for int_0^1 g k, k(t) = (1 - t^a)/a +
    # (t - t^a)/(2s), on g = 1, e^t and 1/(t + 4); measured within 1.9e-14,
    # at s = 0.99, where int k = 1/(4 - 4s) = 25
    t, w = kernel._CORE_NODES, kernel._core_weights(s)
    mine = [np.sum(w), np.sum(w * np.exp(t)), np.sum(w / (t + 4.0))]
    np.testing.assert_allclose(mine, oracles.mp_core_integrals(s), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("s,p", [(0.3, 0.5), (0.6, 1.0), (0.9, 1.2), (0.99, 1.7)])
def test_tail_series_matches_scalar(s, p):
    # the chunk's tail series against the hypergeometric closed form, at
    # ratios |shift| / radius up to 0.49
    xs = np.linspace(-40.0, 40.0, 161)
    radius = np.maximum(64.0, 2.0 * np.abs(xs) + 2.0)
    ref = [oracles.tail_power_moment(p, x, r, s) for x, r in zip(xs.tolist(), radius.tolist())]
    np.testing.assert_allclose(kernel._tail_power_moments(p, xs, radius, s), ref,
                               rtol=4 * np.finfo(float).eps, atol=0.0)


def test_barrier_image_temporaries_stay_small(barrier_03):
    # panels are laid out a chunk of points at a time and the field is
    # evaluated on blocks of nodes, so every temporary stays small: 913 KiB
    # at the peak here with 128-point chunks, 833 KiB with 64-point ones
    p = barrier_03
    bf = beta_field(p)
    xs = np.geomspace(p.d * 1e-6, 0.999 * p.d, 400)
    params = OperatorParams(1, 0.3)
    mixed_apply(bf, xs, params)
    tracemalloc.start()
    try:
        mixed_apply(bf, xs, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_mixed_image_evaluates_the_second_derivative_once(barrier_03):
    # u''(x) serves the local part, and u'' at x +- z0 t on the core's 12
    # nodes t serves the fractional core: 25 points a point, in one call per
    # chunk of points
    p = barrier_03
    bf = beta_field(p)
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return bf.second_derivative(x)

    xs = np.geomspace(p.d * 1e-6, 0.999 * p.d, 400)
    params = OperatorParams(1, 0.3)
    image = mixed_apply(dataclasses.replace(bf, second_derivative=counted), xs, params)
    assert image.tobytes() == mixed_apply(bf, xs, params).tobytes()
    assert sum(sizes) == (1 + 2 * kernel._GX.size) * xs.size
    assert len(sizes) == math.ceil(xs.size / kernel._CHUNK_POINTS)


@pytest.fixture(scope="module")
def barrier_09():
    return build_barrier(0.9)


@pytest.mark.parametrize("s,nodes", [(0.3, 118_756), (0.9, 120_168)])
def test_barrier_build_evaluates_few_nodes(s, nodes, monkeypatch):
    # the Gauss nodes a build lays out, each evaluated at x + z and at x - z,
    # may not grow: 118,756 at s = 0.3 and 120,168 at s = 0.9 when this bound was set
    real, seen = kernel._part_layout, []

    def counted(*args):
        parts = real(*args)
        seen.append(2 * int(parts[4].sum()))
        return parts

    monkeypatch.setattr(kernel, "_part_layout", counted)
    build_barrier(s)
    assert sum(seen) <= 2 * nodes


def test_middle_zone_evaluates_the_field_once_a_node_block(barrier_09, monkeypatch):
    # the parts are taken in order into blocks of at most _BLOCK_NODES nodes,
    # and each block is one field call on its nodes' x + z and x - z
    bf = beta_field(barrier_09)
    xs = np.geomspace(barrier_09.d * 1e-6, 0.999 * barrier_09.d, 400)
    params = OperatorParams(1, 0.9)
    expected = frac_apply(bf, xs, params)
    real, blocks, calls = kernel._part_layout, [], []

    def counted(*args):
        parts = real(*args)
        room = 0
        for n in parts[4].tolist():
            if n > room:
                blocks.append(0)
                room = kernel._BLOCK_NODES
            blocks[-1] += n
            room -= n
        return parts

    def spy(x):
        calls.append(np.size(x))
        return bf.evaluate(x)

    monkeypatch.setattr(kernel, "_part_layout", counted)
    image = frac_apply(dataclasses.replace(bf, evaluate=spy), xs, params)
    assert image.tobytes() == expected.tobytes()
    # the first call is u at the points themselves
    assert len(blocks) > 1 and calls == [xs.size] + [2 * n for n in blocks]


def _barrier_grid_cases(p):
    """(field, grid) pairs on the grids the barrier builder measures."""
    return {
        "beta": (beta_field(p), np.geomspace(p.d * 1e-6, p.d * 0.999, 400)),
        "gamma": (gamma_field(p), np.geomspace(p.ell * 1e-3, p.ell * 0.99, 200)),
        "truncated power": (fields.truncated_power(p.ladder.alphas[-1], 1.0),
                            np.geomspace(p.d * 1e-6, p.d * 0.999, 64)),
    }


@pytest.mark.parametrize("which", ["barrier_03", "barrier_09"])
@pytest.mark.parametrize("name", ["beta", "gamma", "truncated power"])
@pytest.mark.parametrize("apply", [frac_apply, mixed_apply])
def test_grid_image_is_the_concatenation_of_its_slices(which, name, apply, request):
    # a point's image does not depend on the points that share its call:
    # the barrier builder probes the top of a grid first and relies on it
    p = request.getfixturevalue(which)
    u, xs = _barrier_grid_cases(p)[name]
    params = OperatorParams(1, p.ladder.s)
    whole = apply(u, xs, params)
    for cut in (xs.size - 8, 37):
        parts = np.concatenate((apply(u, xs[:cut], params), apply(u, xs[cut:], params)))
        assert parts.tobytes() == whole.tobytes()
