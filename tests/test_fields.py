"""The array contract of field callables.

Every second derivative, radial derivative and radial Laplacian takes an
array of any shape and returns an array of that shape, warns nowhere (at
kinks, at 0, at negative points, beyond the support) and agrees with central
differences of the evaluator away from the kinks.
"""

import warnings

import numpy as np
import pytest

from mixlap import fields
from mixlap.barrier import (_corrector_for, beta_field, beta_sharp_field,
                            build_barrier, gamma_field, radial_cutoff)
from mixlap.verify import _radial_counterexample_profile

from helpers import (linear_combination, mollifier_bump, plateau, pure_power, ring_well, scaled,
                     translated)
from test_exact_solutions import _cap_profile_1d, _cap_profile_radial

_EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def barrier_075():
    return build_barrier(0.75)


def _corrector_field(p) -> fields.ScalarField:
    corr = _corrector_for(p)
    return fields.ScalarField(evaluate=corr, second_derivative=corr.d2,
                              kinks=(0.0, p.d, 2.0 * p.d))


def _barrier_smooth_points(p):
    """Points between the kinks 0, ell, d, 2d and 2 of the barrier fields."""
    return [0.5 * p.ell, 0.5 * (p.ell + p.d), 1.5 * p.d, 1.0, 3.0]


# name -> (field, points away from its kinks and smoothness joins)
SCALAR_CASES = {
    "constant": lambda p: (fields.constant(2.5), [-1.0, 0.5, 3.0]),
    "truncated_power": lambda p: (fields.truncated_power(1.4, 1.0), [0.3, 1.1, 1.9]),
    "truncated_power below 1": lambda p: (fields.truncated_power(0.6, 0.5), [0.2, 0.7]),
    "parabola_cap": lambda p: (fields.parabola_cap(), [-0.5, 0.2, 0.9]),
    "scaled": lambda p: (scaled(fields.truncated_power(1.4, 1.0), 0.5), [0.2, 0.7]),
    "translated": lambda p: (translated(fields.parabola_cap(), 0.3), [0.0, 0.8]),
    "linear_combination": lambda p: (
        linear_combination([1.0, -2.0], [fields.parabola_cap(), mollifier_bump(0.5, 1.0)]),
        [-0.7, 0.2, 1.2]),
    "mollifier_bump": lambda p: (mollifier_bump(0.5, 1.0, 2.0), [-0.2, 0.5, 1.1]),
    "plateau": lambda p: (plateau(-2.0, -1.0, 1.0, 3.0, depth=1.5), [-1.7, 0.0, 1.6, 2.5]),
    "_Corrector": lambda p: (_corrector_field(p), [0.5 * p.d, 1.5 * p.d]),
    "beta_sharp_field": lambda p: (beta_sharp_field(p), _barrier_smooth_points(p)),
    "beta_field": lambda p: (beta_field(p), _barrier_smooth_points(p)),
    "gamma_field": lambda p: (gamma_field(p), _barrier_smooth_points(p)),
    "_radial_counterexample_profile": lambda p: (_radial_counterexample_profile(1),
                                                 [-1.5, -0.5, 0.3, 1.5]),
    "_ring_well": lambda p: (ring_well(2.0), [-5.7, -3.3, 3.2, 4.5, 5.8]),
    "pure_power": lambda p: (pure_power(1.3), [0.5, 3.0]),
    "cap profile": lambda p: (_cap_profile_1d(0.5), [-0.6, 0.1, 0.8]),
}

RADIAL_CASES = {
    "radial_cutoff": (lambda: radial_cutoff(1.0), [0.5, 1.3, 1.8]),
    "_radial_counterexample_profile": (lambda: _radial_counterexample_profile(2), [0.5, 1.5]),
    "cap profile": (lambda: _cap_profile_radial(0.5), [0.3, 0.7]),
}


def _probe_points(kinks) -> np.ndarray:
    """The kinks, 0, negative points and points beyond the support."""
    top = max(kinks, default=0.0)
    return np.array(sorted(kinks) + [0.0, -7.5, -0.25, top + 1.0, 1e3, 1e12])


def _assert_array_contract(fn, probe):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = fn(probe)
        grid = fn(np.resize(probe, 6).reshape(2, 3))
        point = fn(np.float64(probe[0]))
    assert flat.shape == probe.shape
    assert grid.shape == (2, 3)
    assert grid.tobytes() == fn(np.resize(probe, 6)).tobytes()
    assert np.shape(point) == () and np.all(np.isfinite(flat))


def _assert_matches_second_difference(d2, ev, x, h):
    """d2 within 1e-5 relative of the central second difference of ev at x,
    up to the difference's roundoff."""
    u0 = ev(x)
    fd = (ev(x + h) - 2.0 * u0 + ev(x - h)) / h**2
    roundoff = 1e3 * _EPS * np.abs(u0) / h**2
    assert np.all(np.abs(d2 - fd) <= 1e-5 * np.abs(fd) + roundoff), (d2, fd)
    return fd


def _step(x, kinks):
    """A step of 1e-3 times the distance to the nearest kink (or 1)."""
    dist = np.min(np.abs(np.subtract.outer(x, np.asarray(kinks))), axis=1) if kinks else 1.0
    return 1e-3 * np.minimum(dist, 1.0)


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
def test_second_derivative_array_contract(name, barrier_075):
    u, smooth = SCALAR_CASES[name](barrier_075)
    _assert_array_contract(u.second_derivative, _probe_points(u.kinks))
    x = np.array(smooth)
    _assert_matches_second_difference(u.second_derivative(x), u.evaluate, x, _step(x, u.kinks))


@pytest.mark.parametrize("name", sorted(RADIAL_CASES))
def test_radial_derivatives_array_contract(name):
    make, smooth = RADIAL_CASES[name]
    u = make()
    probe = _probe_points(u.kinks)
    for fn in (u.d_profile, u.dd_profile, lambda r: u.laplacian(r, 2),
               lambda r: u.laplacian(r, 3)):
        _assert_array_contract(fn, probe)

    r = np.array(smooth)
    h = _step(r, u.kinks)
    d1 = (u.profile(r + h) - u.profile(r - h)) / (2.0 * h)
    np.testing.assert_allclose(u.d_profile(r), d1, rtol=1e-5)
    dd = _assert_matches_second_difference(u.dd_profile(r), u.profile, r, h)
    # the profile is even, so at the center its second difference is
    # 2 (u(h) - u(0)) / h^2, and the Laplacian is N u''(0)
    h0 = 1e-3
    dd0 = 2.0 * (u.profile(np.array(h0)) - u.profile(np.array(0.0))) / h0**2
    for n_dim in (2, 3):
        np.testing.assert_allclose(u.laplacian(r, n_dim), dd + (n_dim - 1) * d1 / r,
                                   rtol=1e-5)
        center = u.laplacian(np.zeros((2, 1)), n_dim)
        assert center.shape == (2, 1)
        assert np.all(center == n_dim * u.dd_profile(0.0))
        np.testing.assert_allclose(center, n_dim * dd0, rtol=1e-5, atol=1e-8)
