import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mixlap import fields, kernel
from mixlap.assembly import build_mesh, grid_interpolant
from mixlap.barrier import beta_field, build_barrier, gamma_field
from mixlap.cli import _load_field
from mixlap.errors import AccuracyError, DomainError, TailDivergenceError
from mixlap.kernel import (LocalSign, OperatorParams, QuadratureSpec,
                           frac_apply, mixed_apply, normalization_constant,
                           tail_integral)
from mixlap.verify import _radial_counterexample_profile, _ring_well

import oracles
from helpers import pure_power


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


def test_tail_series_far_out_converges_or_refuses(quad):
    # the tail series of x_+^1.2 converges before shift^k overflows at
    # x = 1e7, though later terms of its block do; at 1e9 it cannot
    p = OperatorParams(1, 0.9)
    assert math.isfinite(frac_apply(pure_power(1.2), 1e7, p, quad))
    with pytest.raises(AccuracyError):
        frac_apply(pure_power(1.2), 1e9, p, quad)


@pytest.mark.parametrize("s", [1e-7, 5e-8, 1e-8, 1e-9])
def test_noise_floor_at_tiny_order_does_not_overflow(s):
    # the base 10 eps scale / (2 s tol) passes 1 below s ~ 1.1e-7, and its
    # power 1/(2s) then overflows; the floor is infinite, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel._noise_floor(s, 1e-8, 1.0) == math.inf


@pytest.mark.parametrize("alpha,s", [(1.0, 0.75), (1.2, 0.9), (1.0, 0.6),
                                     (1.3, 0.7), (1.0, 0.51)])
def test_power_values_match_high_precision_oracle(alpha, s, quad):
    p = OperatorParams(1, s)
    mine = frac_apply(pure_power(alpha), 1.0, p, quad)
    ref = oracles.mp_frac_power(alpha, s)
    assert mine == pytest.approx(ref, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("alpha,s", [(1.0, 0.3), (1.8, 0.9), (1.2, 0.6)])
def test_truncated_power_matches_mpmath_oracle(alpha, s, quad):
    # the cap at 2L is an ungraded kink: plain panels end there
    xs = np.array([0.01, 0.2, 0.5])
    mine = frac_apply(fields.truncated_power(alpha, 1.0), xs, OperatorParams(1, s), quad)
    for x, v in zip(xs, mine):
        ref = oracles.mp_frac_truncated_power(alpha, 1.0, s, float(x))
        assert v == pytest.approx(ref, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# mixed_apply
# ---------------------------------------------------------------------------


def test_mixed_zero_field(quad):
    p = OperatorParams(1, 0.5, LocalSign.PLUS)
    assert mixed_apply(fields.zero(), 0.2, p, quad) == 0.0


def test_mixed_requires_second_derivative(quad):
    p = OperatorParams(1, 0.5)
    bare = fields.ScalarField(evaluate=lambda x: np.zeros_like(np.asarray(x, float)))
    with pytest.raises(DomainError):
        mixed_apply(bare, 0.0, p, quad)


def test_wrong_sign_scaled_parabola_lower_bound(quad):
    # the wrong-sign image of the scaled well dominates the stated bound
    s = 0.25
    p = OperatorParams(1, s, LocalSign.PLUS)
    eps = 0.5
    f_eps = fields.scaled(fields.parabola_cap(), eps)
    floor = (2.0 / eps**2) * (
        1.0 - eps ** (2.0 - 2.0 * s) * 2.0 ** (1.0 - 2.0 * s) * p.c_ns
        * (1.0 - s) / (s * (1.0 - 2.0 * s))
    )
    for x in np.linspace(-0.9 * eps, 0.9 * eps, 9):
        assert mixed_apply(f_eps, float(x), p, quad) >= floor - 1e-8


# ---------------------------------------------------------------------------
# tail integral
# ---------------------------------------------------------------------------


def test_tail_integral_zero_and_compact():
    p = OperatorParams(1, 0.5)
    assert tail_integral(fields.zero(), p) == 0.0
    val = tail_integral(fields.parabola_cap(), p)
    assert 0.0 < val < math.inf


def test_tail_integral_divergent_sentinel():
    p = OperatorParams(1, 0.5)
    assert tail_integral(pure_power(1.0), p) == math.inf  # exponent = 2s


# ---------------------------------------------------------------------------
# graded kinks
# ---------------------------------------------------------------------------


def test_constructors_declare_graded_kinks(tmp_path):
    assert fields.truncated_power(1.5, 1.0).graded_kinks == (0.0,)
    assert pure_power(1.5).graded_kinks == (0.0,)
    assert fields.parabola_cap().graded_kinks == ()
    assert fields.mollifier_bump(0.0, 1.0).graded_kinks is None
    assert grid_interpolant(build_mesh(-1.0, 1.0, 7), np.ones(7)).graded_kinks == ()
    sample = tmp_path / "load.csv"
    sample.write_text("x,u\n-0.5,1\n0.5,2\n")
    assert _load_field(f"csv:{sample}", (-1.0, 1.0)).graded_kinks == ()
    assert _radial_counterexample_profile(1).graded_kinks == ()
    assert _ring_well(2.0).graded_kinks == ()


def test_graded_kinks_follow_scaling_translation_and_sums():
    w = fields.truncated_power(1.5, 1.0)
    bump = fields.mollifier_bump(0.0, 1.0)
    cap = fields.parabola_cap()
    assert fields.scaled(w, 0.5).graded_kinks == (0.0,)
    assert fields.scaled(fields.translated(w, 0.5), 0.5).graded_kinks == (0.25,)
    assert fields.scaled(bump, 0.5).graded_kinks is None
    assert fields.translated(cap, 0.3).graded_kinks == ()
    assert fields.translated(w, 0.25).graded_kinks == (0.25,)
    assert fields.translated(bump, 0.3).graded_kinks is None
    # None grades every kink of its field, so a sum with one takes them all
    assert fields.linear_combination([1.0, 2.0], [w, cap]).graded_kinks == (0.0,)
    assert fields.linear_combination([1.0, 1.0], [w, bump]).graded_kinks == (-1.0, 0.0, 1.0)
    assert fields.linear_combination([1.0, 1.0], [bump, bump]).graded_kinks is None


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
    g2 = fields.mollifier_bump(0.2, 0.5, 1.0)
    combo = fields.linear_combination([2.0, -3.0], [g1, g2])
    x = 0.33
    lhs = frac_apply(combo, x, p, quad)
    rhs = 2.0 * frac_apply(g1, x, p, quad) - 3.0 * frac_apply(g2, x, p, quad)
    assert lhs == pytest.approx(rhs, abs=3.0 * quad.tolerance * (1.0 + abs(rhs)))


def test_translation_invariance(quad):
    p = OperatorParams(1, 0.6)
    u = fields.parabola_cap()
    ut = fields.translated(u, 0.8)
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
        second_derivative=lambda x: 2.0 if anchor < x < anchor + 3.0 else 0.0,
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


def test_radial_rejects_plain_field(quad):
    p = OperatorParams(2, 0.5)
    with pytest.raises(DomainError):
        frac_apply(fields.parabola_cap(), np.array([0.1, 0.0]), p, quad)


def test_evaluation_is_bitwise_deterministic(quad):
    # fixed node placement and compensated summation give reproducible bits
    p = OperatorParams(1, 0.6)
    u = fields.parabola_cap()
    vals = {frac_apply(u, 0.37, p, quad) for _ in range(5)}
    assert len(vals) == 1


# ---------------------------------------------------------------------------
# panel layout
# ---------------------------------------------------------------------------


def _assert_layout_matches_scalar(z0, r_in, offsets, graded, r_out):
    """The array layout of a chunk of points against the scalar reference:
    the same number of panels per point, and breaks equal to 4 ulp."""
    z0, r_in, r_out = (np.asarray(a, dtype=float) for a in (z0, r_in, r_out))
    offsets, graded = (np.asarray(a, dtype=float).reshape(z0.size, -1)
                       for a in (offsets, graded))
    panels = QuadratureSpec().panels
    lo, hi, counts = kernel._panel_layout(z0, r_in, offsets, graded, r_out, panels)
    first = 0
    for i in range(z0.size):
        inside = sorted({b for b in offsets[i].tolist() if z0[i] < b < r_out[i]})
        ref = oracles.assemble_breaks(float(z0[i]), float(r_in[i]), inside,
                                      float(r_out[i]), panels, set(graded[i].tolist()))
        assert counts[i] == len(ref) - 1, i
        np.testing.assert_array_max_ulp(lo[first:first + counts[i]], ref[:-1], maxulp=4)
        np.testing.assert_array_max_ulp(hi[first:first + counts[i]], ref[1:], maxulp=4)
        first += counts[i]
    assert first == lo.size


def _field_layout_inputs(u, xs):
    """Each point's layout inputs, as frac_apply_1d derives them."""
    quad = QuadratureSpec()
    kinks = np.asarray(u.kinks, dtype=float)
    graded = kinks if u.graded_kinks is None else np.asarray(u.graded_kinks)
    r_c2 = np.array([u.c2_distance(x) for x in xs])
    r_in = np.minimum(quad.inner_radius, 0.5 * r_c2)
    z0 = kernel._noise_floor(0.6, quad.tolerance, 1.0 + np.abs(u.evaluate(xs)))
    z0 = np.minimum(np.maximum(z0, 1e-8 * r_in), r_in / 8.0)
    r_out = np.maximum(np.maximum(quad.outer_radius, 2.0 * np.abs(xs) + 2.0),
                       u.tail.cutoff + np.abs(xs) + 1.0)
    return z0, r_in, np.abs(kinks - xs[:, None]), np.abs(graded - xs[:, None]), r_out


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
    mesh = build_mesh(-1.0, 1.0, 31)
    hat = grid_interpolant(mesh, np.sin(np.arange(31.0)))
    xs = np.linspace(-1.2, 1.2, 97) + 1e-4
    _assert_layout_matches_scalar(*_field_layout_inputs(hat, xs))
    # a hat whose every kink is graded
    hat = fields.ScalarField(evaluate=hat.evaluate, kinks=hat.kinks, tail=hat.tail)
    _assert_layout_matches_scalar(*_field_layout_inputs(hat, xs))


@pytest.mark.parametrize("offsets,graded", [
    # both ends of a gap narrower than one geometric step (k = 1) graded
    ([1.0, 1.2], [1.0, 1.2]),
    ([0.3, 0.33, 5.0], [0.3, 0.33]),
    # symmetric kinks give equal offsets; grading either grades the break
    ([0.5, 0.5, 2.0], [0.5]),
    # offsets within 1e-13 relative of the last one kept are dropped, their
    # grading with them; the third is kept against the first, not the second
    ([1.0, 1.0 + 5e-14, 3.0], [1.0 + 5e-14]),
    ([1.0, 1.0 + 6e-14, 1.0 + 1.2e-13], [1.0 + 6e-14, 1.0 + 1.2e-13]),
    # r_out replaces an offset within 1e-13 relative below it
    ([1.0, 64.0 * (1.0 - 5e-14)], [1.0, 64.0 * (1.0 - 5e-14)]),
    # offsets outside (z0, r_out) are not breaks
    ([1e-9, 0.7, 80.0], [1e-9, 0.7, 80.0]),
])
def test_layout_edge_cases_match_scalar(offsets, graded):
    _assert_layout_matches_scalar([1e-4, 2e-5], [0.25, 0.2], [offsets, offsets],
                                  [graded, graded], [64.0, 64.0])


@pytest.mark.parametrize("s,p", [(0.3, 0.5), (0.6, 1.0), (0.9, 1.2), (0.99, 1.7)])
def test_tail_series_matches_scalar(s, p):
    # the chunk's tail series sums the scalar series' terms in its order;
    # only numpy's pow may differ in the last bit
    xs = np.linspace(-40.0, 40.0, 161)
    radius = np.maximum(64.0, 2.0 * np.abs(xs) + 2.0)
    ref = [oracles.tail_power_moment(p, x, r, s) for x, r in zip(xs.tolist(), radius.tolist())]
    np.testing.assert_allclose(kernel._tail_power_moments(p, xs, radius, s), ref,
                               rtol=4 * np.finfo(float).eps, atol=0.0)


def test_barrier_image_temporaries_stay_small(barrier_03):
    # panels are laid out a chunk of points at a time and the field is
    # evaluated on blocks of nodes, so every temporary stays small: 655 KiB
    # at the peak here, against 2102 KiB with all 400 points in one chunk
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
