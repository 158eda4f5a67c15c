"""Anchors against the classical closed-form profile (1 - |x|^2)^s_+.

Its fractional image is the constant 2^{2s} Gamma(s+1) Gamma((N+2s)/2) /
Gamma(N/2) inside the unit ball, which exercises the kernel engines (1D and
radial) and, through the zero-exterior solve with a constant load, the whole
assembly/solve pipeline against an exact solution.  The radial image of
(1 - |x|^2)^p_+ at other exponents p is checked against Dyda's closed form.
"""

import math

import numpy as np
import pytest
from scipy.special import gamma as _gamma

from mixlap import fields
from mixlap.assembly import build_mesh, build_system
from mixlap.kernel import OperatorParams, frac_apply
from mixlap.solve import solve_dirichlet

import oracles
from helpers import without


def _image_constant(n_dim: int, s: float) -> float:
    return (2.0 ** (2.0 * s) * _gamma(s + 1.0) * _gamma((n_dim + 2.0 * s) / 2.0)
            / _gamma(n_dim / 2.0))


def _cap_d2(p: float, x):
    """Second derivative of (1 - x^2)^p_+ at each x, 0 off (-1, 1)."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    g = np.where(inside, 1.0 - x * x, 1.0)
    d2 = -2.0 * p * g ** (p - 1.0) + 4.0 * p * (p - 1.0) * x * x * g ** (p - 2.0)
    return np.where(inside, d2, 0.0)


def _cap_profile_1d(s: float) -> fields.ScalarField:
    def ev(x):
        x = np.asarray(x, dtype=float)
        g = np.maximum(1.0 - x * x, 0.0)
        return g**s

    return fields.ScalarField(
        evaluate=ev, second_derivative=lambda x: _cap_d2(s, x), kinks=(-1.0, 1.0),
        tail=fields.TailExpansion(1.0), name=f"(1-x^2)^{s}", support=(-1.0, 1.0),
    )


def _cap_profile_radial(p: float) -> fields.RadialField:
    """(1 - r^2)^p_+; the exponent p = s gives the constant image."""
    def prof(r):
        r = np.asarray(r, dtype=float)
        g = np.maximum(1.0 - r * r, 0.0)
        return g**p

    def d1(r):
        r = np.asarray(r, dtype=float)
        inside = np.abs(r) < 1.0
        g = np.where(inside, 1.0 - r * r, 1.0)
        return np.where(inside, -2.0 * p * r * g ** (p - 1.0), 0.0)

    return fields.RadialField(
        profile=prof, d_profile=d1, dd_profile=lambda r: _cap_d2(p, r), support_radius=1.0,
        kinks=(1.0,), name=f"(1-r^2)^{p}",
    )


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_profile_image_is_constant_1d(s, quad):
    params = OperatorParams(1, s)
    u = _cap_profile_1d(s)
    lam = _image_constant(1, s)
    for x in (-0.8, -0.3, 0.0, 0.45, 0.9):
        val = frac_apply(u, x, params, quad)
        assert val == pytest.approx(lam, rel=1e-8)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_profile_image_outside_the_support_1d(s):
    # from x = 1.5 the end 1 is graded from above its offset 0.5 and the
    # end -1 from below its offset 2.5, and the other way round at -1.5
    params = OperatorParams(1, s)
    u = _cap_profile_1d(s)
    for x in (-1.5, 1.5):
        ref = oracles.mp_frac_cap_outside(s, s, x)
        assert frac_apply(u, x, params) == pytest.approx(ref, rel=1e-10, abs=0.0), x


@pytest.mark.parametrize("n_dim", [2, 3])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.75, 0.9])
def test_profile_image_is_constant_radial(n_dim, s, quad):
    params = OperatorParams(n_dim, s)
    u = _cap_profile_radial(s)
    lam = _image_constant(n_dim, s)
    for r in (0.0, 0.35, 0.7):
        x = np.zeros(n_dim)
        x[0] = r
        val = frac_apply(u, x, params, quad)
        assert val == pytest.approx(lam, rel=1e-8)


@pytest.mark.parametrize("n_dim", [2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 2.5])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_cap_power_image_matches_dyda(n_dim, p, s):
    # Dyda's 2F1 closed form for (1 - |x|^2)_+^p inside the unit ball
    params = OperatorParams(n_dim, s)
    u = _cap_profile_radial(p)
    for r in (0.0, 0.2, 0.5, 0.8, 0.95):
        x = np.zeros(n_dim)
        x[0] = r
        ref = oracles.mp_dyda_cap(n_dim, s, p, r)
        assert abs(frac_apply(u, x, params) - ref) <= 1e-10 * max(1.0, abs(ref)), r


def test_pure_fractional_solve_converges_to_profile():
    # zero-exterior solve of the pure fractional operator with unit load:
    # the exact solution is the cap profile over its image constant
    s = 0.5
    lam = _image_constant(1, s)
    params = OperatorParams(1, s)
    errors = []
    for n in (63, 127, 255):
        mesh = build_mesh(-1.0, 1.0, n)
        sys_ = without(build_system(mesh, params), "local_row")
        rep = solve_dirichlet(sys_, fields.constant(1.0))
        exact = (1.0 - mesh.nodes**2) ** s / lam
        errors.append(float(np.max(np.abs(rep.solution.coeffs - exact))))
    assert errors[0] > errors[1] > errors[2]
    # the boundary-limited uniform-mesh rate is about h^(1/2) at this order
    for e0, e1 in zip(errors[:-1], errors[1:]):
        assert 1.2 < e0 / e1 < 2.5
    assert errors[-1] < 6e-3
