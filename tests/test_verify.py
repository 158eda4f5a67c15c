import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mixlap import assembly, barrier, fields, verify
from mixlap.assembly import build_mesh, build_system
from mixlap.errors import DomainError
from mixlap.kernel import OperatorParams, frac_apply, mixed_apply
from mixlap.solve import solve_dirichlet
from mixlap.verify import (check_boundary_lipschitz, check_linf_bound, check_weak_mp,
                           counterexample_boundary_only, counterexample_ces,
                           counterexample_general, fit_boundary_exponent, run_suite)

import helpers
import oracles
from helpers import (check_strong_mp_contact, lstsq_boundary_exponent, mollifier_bump,
                     residual_check, scaled, sobolev_index, without)


@pytest.fixture(scope="module")
def sys_05_255():
    return build_system(build_mesh(-1.0, 1.0, 255), OperatorParams(1, 0.5))


# ---------------------------------------------------------------------------
# weak principle
# ---------------------------------------------------------------------------


def test_weak_mp_constant_load(sys_05_255):
    rep = solve_dirichlet(sys_05_255, fields.constant(1.0))
    r = check_weak_mp(rep)
    assert r.passed
    assert r.measured >= r.threshold


def test_weak_mp_zero_load(sys_05_255):
    rep = solve_dirichlet(sys_05_255, fields.constant(0.0))
    r = check_weak_mp(rep)
    assert r.passed and r.measured == 0.0


def test_weak_mp_random_nonnegative_loads(sys_05_255):
    rng = np.random.default_rng(42)
    mesh = sys_05_255.mesh
    for _ in range(20):
        f = assembly.grid_interpolant(mesh, np.abs(rng.standard_normal(mesh.n)))
        assert check_weak_mp(solve_dirichlet(sys_05_255, f)).passed


def test_weak_mp_digest_ignores_last_bits_of_the_solution(sys_05_255):
    rep = solve_dirichlet(sys_05_255, fields.constant(1.0))
    coeffs = np.nextafter(rep.solution.coeffs, np.inf)
    moved = replace(rep, solution=assembly.GridFunction(rep.solution.mesh, coeffs))
    assert check_weak_mp(moved).inputs_digest == check_weak_mp(rep).inputs_digest


# ---------------------------------------------------------------------------
# strong principle (guarded)
# ---------------------------------------------------------------------------


def test_strong_mp_zero_function():
    p = OperatorParams(1, 0.5)
    r = check_strong_mp_contact(fields.constant(0.0), p, x0=0.3)
    assert r.passed


def test_strong_mp_barrier_is_inconclusive():
    # gamma vanishes on the negative axis but its image is negative there,
    # so the supersolution guard must flag the check as not applicable
    p = barrier.build_barrier(0.6)
    gf = barrier.gamma_field(p)
    params = OperatorParams(1, 0.6)
    r = check_strong_mp_contact(gf, params, x0=-1.0, omega=(-2.0, 2.0))
    assert r.passed and "inconclusive" in r.notes


def test_strong_mp_contrapositive_on_positive_solve(sys_05_255):
    rep = solve_dirichlet(sys_05_255, fields.constant(1.0))
    interp = assembly.grid_interpolant(rep.solution.mesh, rep.solution.coeffs)
    params = OperatorParams(1, 0.5)
    x0 = float(rep.solution.mesh.nodes[0])
    r = check_strong_mp_contact(interp, params, x0)
    assert r.passed
    assert "contrapositive" in r.notes or "inconclusive" in r.notes


def test_strong_mp_hat_interpolant_with_interior_contact_is_not_evaluable():
    # a hat interpolant has no u''; mixed_apply refuses it, and the check
    # reports that refusal as its one "not evaluable" note
    mesh = build_mesh(-1.0, 1.0, 7)
    coeffs = np.array([0.5, 1.0, 0.5, 0.0, 0.5, 1.0, 0.5])
    x0 = float(mesh.nodes[3])
    r = check_strong_mp_contact(assembly.grid_interpolant(mesh, coeffs),
                                OperatorParams(1, 0.5), x0)
    assert r.passed
    assert r.notes == "inconclusive: operator not evaluable on the domain grid"


def _strong_record(domain):
    # run_suite reads the strong principle off its 255-node solve alone: it
    # images no hat interpolant, and verify has no contact check to call
    assert not hasattr(verify, "check_strong_mp_contact")
    reports = run_suite(0.5, 31, 0, domain=domain)
    (r,) = [r for r in reports if r.check_name == "strong_maximum_principle"]
    rep = solve_dirichlet(build_system(build_mesh(*domain, 255), OperatorParams(1, 0.5)),
                          fields.constant(1.0))
    assert r.measured == float(np.min(rep.solution.coeffs))
    assert r.passed and r.threshold == 1e-12
    return r


def test_suite_strong_mp_on_a_tiny_domain_is_inconclusive():
    # on (0, 1e-7) the positive solve's interior minimum is 1.9e-17
    r = _strong_record((0.0, 1e-7))
    assert r.measured <= 1e-12
    assert r.notes == "inconclusive: min u <= 1e-12 cannot be told from contact"


def test_suite_strong_mp_contrapositive_on_the_default_domain():
    r = _strong_record((-1.0, 1.0))
    assert r.measured > 1e-12
    assert r.notes == "positive load gives strictly positive interior; contrapositive holds"


# ---------------------------------------------------------------------------
# uniform bound and boundary growth
# ---------------------------------------------------------------------------


def _family(s, f, ns=(63, 127, 255)):
    params = OperatorParams(1, s)
    return [solve_dirichlet(build_system(build_mesh(-1.0, 1.0, n), params), f)
            for n in ns]


def test_linf_bound_constant_family():
    r = check_linf_bound(_family(0.5, fields.constant(1.0)))
    assert r.passed


def test_linf_bound_scaling_invariance():
    fam1 = _family(0.5, fields.constant(1.0), ns=(63, 127))
    fam10 = _family(0.5, fields.constant(10.0), ns=(63, 127))
    r1 = check_linf_bound(fam1)
    r10 = check_linf_bound(fam10)
    assert r1.measured == pytest.approx(r10.measured, abs=1e-9)


def test_linf_bound_zero_load_skipped():
    fam = _family(0.5, fields.constant(0.0), ns=(63, 127))
    r = check_linf_bound(fam)
    assert r.passed and "inconclusive" in r.notes


def test_boundary_lipschitz_family():
    fam = _family(0.75, fields.constant(1.0), ns=(63, 127, 255))
    r = check_boundary_lipschitz(fam, band=0.1)
    assert r.passed
    assert "exponent" in r.notes


def test_boundary_lipschitz_zero_solution():
    fam = _family(0.5, fields.constant(0.0), ns=(63,))
    r = check_boundary_lipschitz(fam, band=0.1)
    assert r.passed and r.measured == 0.0


def test_boundary_lipschitz_band_guard():
    fam = _family(0.5, fields.constant(1.0), ns=(63,))
    with pytest.raises(DomainError):
        check_boundary_lipschitz(fam, band=1.0)


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_boundary_exponents_at_32767(s):
    # mixed solutions grow like dist^1 at the boundary, fractional-only ones
    # like dist^s (Ros-Oton & Serra, J. Math. Pures Appl. 101, 2014)
    mesh = build_mesh(-1.0, 1.0, 32767)
    params = OperatorParams(1, s)
    f = fields.constant(1.0)
    mixed = solve_dirichlet(build_system(mesh, params), f)
    frac = solve_dirichlet(without(build_system(mesh, params), "local_row"), f)
    assert abs(fit_boundary_exponent(mixed, 0.01) - 1.0) <= 0.03
    assert abs(fit_boundary_exponent(frac, 0.01) - s) <= 0.01


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 3.0)])
@pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.75, 0.99])
def test_boundary_exponent_is_the_lstsq_slope(s, a, b):
    band = (b - a) / 20.0  # the band run_suite fits over
    for n in (63, 127, 255):
        rep = solve_dirichlet(build_system(build_mesh(a, b, n), OperatorParams(1, s)),
                              fields.constant(1.0))
        ref = lstsq_boundary_exponent(rep, band)
        assert abs(fit_boundary_exponent(rep, band) - ref) <= 1e-13 * abs(ref)


def test_boundary_exponent_is_nan_below_four_band_points():
    rep = _family(0.5, fields.constant(1.0), ns=(63,))[0]
    assert np.isnan(fit_boundary_exponent(rep, 1.5 / 32))  # one node a side


def test_boundary_exponent_is_nan_silently_without_spread():
    # four values at one distance from the boundary: no slope to fit
    mesh = SimpleNamespace(a=0.0, b=1.0, n=4, h=0.2, nodes=np.full(4, 0.1))
    rep = SimpleNamespace(solution=assembly.GridFunction(mesh, np.arange(1.0, 5.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(fit_boundary_exponent(rep, 0.2))


# ---------------------------------------------------------------------------
# counterexamples
# ---------------------------------------------------------------------------


def test_ces_counterexample(monkeypatch):
    calls = []

    def counted(u, x, params):
        calls.append(np.size(x))
        return frac_apply(u, x, params)

    monkeypatch.setattr(verify, "frac_apply", counted)
    # the scaled image needs no mixed_apply, and verify does not import it
    assert not hasattr(verify, "mixed_apply")
    r = counterexample_ces(0.25)
    # the certification grid alone: the true-sign load interpolates its image
    assert calls == [99]
    assert r.passed
    assert "eps0=" in r.notes
    assert "weak principle passed" in r.notes


def test_ces_function_center_value():
    f = fields.parabola_cap()
    assert f(0.0) == -1.0
    eps = 0.25
    assert scaled(f, eps)(0.0) == -1.0


def test_ces_rejects_large_order():
    with pytest.raises(DomainError):
        counterexample_ces(0.6)


def test_general_counterexample_1d():
    r = counterexample_general(0.75, 1)
    assert r.passed


def _halving_exponent(s, excess):
    """The halving loop the closed form replaced, without its 2^-40 cap."""
    eps0, k = 0.5, 1
    while 1.0 - eps0 ** (2.0 - 2.0 * s) * excess <= 0.0:
        eps0 *= 0.5
        k += 1
    return k


def test_scale_exponent_matches_the_halving_loop():
    for s in np.linspace(0.0, 0.5, 502)[1:-1]:
        c1s = OperatorParams(1, s).c_ns
        coeff = 2.0 ** (1.0 - 2.0 * s) * c1s * (1.0 - s) / (s * (1.0 - 2.0 * s))
        assert verify._scale_exponent(s, coeff)[0] == _halving_exponent(s, coeff), s
    for excess in (0.5, 1.0, 2.6, 5.5):
        for s in np.linspace(0.0, 1.0, 502)[1:-1]:
            k, w = verify._scale_exponent(s, excess)
            assert k == _halving_exponent(s, excess), (s, excess)
            assert w == 2.0 ** (-k * (2.0 - 2.0 * s))


@pytest.mark.parametrize("s, k", [(0.75, 3), (0.9, 11), (0.96, 29)])
def test_general_counterexample_keeps_its_scale(s, k):
    r = counterexample_general(s, 1)
    assert r.passed
    assert f"eps0={2.0 ** -k};" in r.notes
    assert r.inputs_digest == verify._digest(s=s, N=1, eps0=2.0 ** -k)


def test_general_counterexample_at_tiny_order_keeps_its_scale_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = counterexample_general(1e-9, 1)
    assert r.passed
    assert "eps0=0.5;" in r.notes
    assert r.inputs_digest == verify._digest(s=1e-9, N=1, eps0=0.5)
    assert r.inputs_digest == "faccdb54594e9f4af061c922ef0cd04c773d63c0ad94b07fe3ae69973c7240c6"


def test_ces_counterexample_keeps_its_scale():
    r = counterexample_ces(0.49)
    assert r.passed
    assert "eps0=0.0625;" in r.notes
    assert r.inputs_digest == verify._digest(s=0.49, eps0=0.0625)


@pytest.mark.parametrize("s", [0.97, 0.99, 0.999])
def test_general_counterexample_near_order_one(s):
    r = counterexample_general(s, 1)
    assert r.passed
    assert "weak principle passed" in r.notes
    assert ("eps0=2^-" in r.notes) == (s == 0.999)


def test_general_counterexample_center_value():
    u = verify._radial_counterexample_profile(1)
    assert float(u(0.0)) == -1.0


def test_general_counterexample_2d():
    r = counterexample_general(0.5, 2)
    assert r.passed
    assert "true-sign side not measured in dimension 2" in r.notes


def test_general_counterexample_3d():
    r = counterexample_general(0.5, 3)
    assert r.passed
    assert "N=3, eps0=0.5; sup |(-D)^s u| = 2.773; min wrong-sign image=18.45" in r.notes
    # the 1D solver does not run the true-sign half here; the note says so
    assert "true-sign side not measured in dimension 3" in r.notes


def test_boundary_only_counterexample():
    r = counterexample_boundary_only(2.0, 0.5, 255)
    assert r.passed
    assert r.measured < -1e-6  # the interior minimum is genuinely negative
    assert "v(+-1)=" in r.notes


@pytest.mark.parametrize("s", [1e-4, 0.01, 0.5, 0.99, 0.999])
def test_boundary_only_gate_follows_the_load(s):
    # the gate is 1% of the load's L^2 norm: no looser than the former
    # absolute -1e-6 across these orders, and well clear of the minimum
    r = counterexample_boundary_only(2.0, s, 63)
    assert r.passed
    assert r.threshold <= -1e-6
    assert r.measured < 10.0 * r.threshold


def test_boundary_only_value_on_annulus():
    # where the ring well vanishes, v equals the reflected minimum exactly
    phi = verify._ring_well(2.0)
    ys = np.linspace(1.1, 2.0, 7)
    assert np.all(phi(ys) == 0.0)


@pytest.mark.parametrize("r", [1.01, 2.0, 5.0, 5e15])
def test_ring_well_values_match_the_test_side_field_to_the_bit(r):
    # verify keeps only the ring well's values; the field with its second
    # derivative lives beside the tests, and _ring_load's cross-check against
    # mixed_apply of that field holds only while the two agree in every bit
    kinks = np.array([r + 1.0, r + 2.0, r + 3.0, r + 4.0])
    inside = np.concatenate(([0.0, 0.5 * kinks[0]], 0.5 * (kinks[:-1] + kinks[1:]),
                             kinks, [kinks[-1] + 0.5, 2.0 * kinks[-1], 1e300]))
    xs = np.concatenate((inside, -inside, np.nextafter(kinks, 0.0), np.nextafter(kinks, np.inf)))
    mine = verify._ring_well(r)(xs)
    assert mine.tobytes() == helpers.ring_well(r).evaluate(xs).tobytes()
    assert np.any(mine == -1.0) and np.any(mine == 0.0)
    # at 5e15 the doubles are 1 apart: no ramp holds a double strictly inside
    assert r > 1e15 or np.any((-1.0 < mine) & (mine < 0.0))


def test_boundary_only_rejects_bad_radius():
    with pytest.raises(DomainError):
        counterexample_boundary_only(0.5, 0.5, 63)
    # past about 1e16 the ring's kinks r+1 ... r+4 are not four distinct doubles
    for r in (1e16, 1e300, float("inf")):
        with pytest.raises(DomainError, match="annulus radius"):
            counterexample_boundary_only(r, 0.5, 3)


@pytest.mark.parametrize("n", [1023, 4095])
def test_boundary_only_passes_at_large_n_without_the_dense_matrix(monkeypatch, n):
    def refuse(row):
        raise AssertionError("a dense matrix was built")

    # every dense stiffness matrix is expanded from its row by _toeplitz
    monkeypatch.setattr(assembly, "_toeplitz", refuse)
    r = counterexample_boundary_only(2.0, 0.5, n)
    assert r.passed, r.notes
    assert "backward error=" in r.notes


@pytest.mark.parametrize("r", [1.01, 2.0, 5.0])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 0.99])
def test_ring_load_matches_oracle_and_mixed_apply(quad, s, r):
    params = OperatorParams(1, s)
    xs = np.array([-0.999, -0.6, -0.1, 0.0, 0.35, 0.8, 0.999])
    load = verify._ring_load(r, params).evaluate(xs)
    ref = np.array([oracles.ring_image_oracle(r, s, float(x)) for x in xs])
    assert np.all(np.abs(load - ref) <= 1e-14 * np.abs(ref))
    phi = helpers.ring_well(r)
    adaptive = np.array([-mixed_apply(phi, float(x), params, quad) for x in xs])
    assert np.all(np.abs(load - adaptive) <= 1e-13 * np.abs(adaptive))


def test_ring_load_refuses_points_where_its_identity_fails():
    load = verify._ring_load(2.0, OperatorParams(1, 0.5))
    for x in (3.0, -3.0, np.array([0.0, 3.0])):
        with pytest.raises(DomainError):
            load.evaluate(x)


# ---------------------------------------------------------------------------
# pointwise residual
# ---------------------------------------------------------------------------


def _manufactured_field(params, quad):
    u_man = mollifier_bump(0.0, 0.7, 1.0)
    cache = {}

    def f_eval(x):
        arr = np.asarray(x, dtype=float)
        out = np.empty(arr.size)
        for i, t in enumerate(arr.ravel()):
            t = float(t)
            if t not in cache:
                cache[t] = mixed_apply(u_man, t, params, quad)
            out[i] = cache[t]
        return out.reshape(arr.shape)

    return fields.ScalarField(evaluate=f_eval, name="manufactured image")


def test_residual_decay_manufactured(quad):
    params = OperatorParams(1, 0.6)
    f = _manufactured_field(params, quad)
    reps = [solve_dirichlet(build_system(build_mesh(-1.0, 1.0, n), params), f)
            for n in (63, 127, 255)]
    r = residual_check(reps, f, params)
    assert r.passed


def test_residual_zero_load():
    params = OperatorParams(1, 0.5)
    f = fields.constant(0.0)
    reps = [solve_dirichlet(build_system(build_mesh(-1.0, 1.0, n), params), f)
            for n in (31, 63, 127)]
    r = residual_check(reps, f, params)
    assert r.passed
    assert r.measured <= 1e-12


def test_residual_decay_constant_load():
    # unit load, measured on the middle half of the interval only
    params = OperatorParams(1, 0.5)
    f = fields.constant(1.0)
    reps = [solve_dirichlet(build_system(build_mesh(-1.0, 1.0, n), params), f)
            for n in (63, 127, 255)]
    r = residual_check(reps, f, params)
    assert r.passed


@pytest.mark.parametrize("s", [0.3, 0.75])
def test_midpoint_residual_images_in_one_call_match_the_point_loop(s):
    # the kept midpoints are imaged as one array; point by point, with the
    # same stencil, gives the same bits and skips
    params = OperatorParams(1, s)
    f = fields.constant(1.0)
    targets = np.linspace(-0.97, 0.97, 17)  # the outer ones touch the boundary
    stencil = np.array([-5.0, 39.0, -34.0, -34.0, 39.0, -5.0])
    for n in (31, 63):
        rep = solve_dirichlet(build_system(build_mesh(-1.0, 1.0, n), params), f)
        mesh, vals = rep.solution.mesh, np.pad(rep.solution.coeffs, 1)
        worst, skipped = 0.0, 0
        for t in targets:
            k = int(np.floor((t - mesh.a) / mesh.h))
            if not 3 <= k <= n - 3:  # the six nodes around element k touch a or b
                skipped += 1
                continue
            x = float(mesh.a + (k + 0.5) * mesh.h)
            upp = np.sum(vals[k - 2:k + 4] * stencil) / (48.0 * mesh.h**2)
            image = rep.solution.frac_image(x, params) - upp
            worst = max(worst, abs(image - float(f(x))))
        got = helpers._midpoint_residual(rep, targets, f, params)
        assert skipped > 0
        assert np.float64(got[0]).tobytes() == np.float64(worst).tobytes()
        assert got[1] == skipped


def test_midpoint_stencil_is_the_fitted_quintics_curvature():
    # u'' at the midpoint of the quintic through six unit-spaced values
    rng = np.random.default_rng(5)
    loc = np.arange(-2.5, 3.0)
    for vals in rng.standard_normal((20, 6)):
        fitted = 2.0 * np.polyfit(loc, vals, 5)[-3]
        assert helpers._MIDPOINT_CURVATURE @ vals / 48.0 == pytest.approx(fitted, rel=1e-12,
                                                                          abs=1e-12)


def test_residual_needs_three_meshes():
    params = OperatorParams(1, 0.5)
    f = fields.constant(1.0)
    reps = [solve_dirichlet(build_system(build_mesh(-1.0, 1.0, 31), params), f)]
    with pytest.raises(DomainError):
        residual_check(reps, f, params)


# ---------------------------------------------------------------------------
# embedding index
# ---------------------------------------------------------------------------


def test_sobolev_index_cases():
    assert sobolev_index(4, 2) == 2      # integer gap: one order lost
    assert sobolev_index(2, 3) == 0      # fractional gap: floor
    assert sobolev_index(1, 2) is None   # nonpositive gap: no conclusion
    assert sobolev_index(3, 2) == 1
    assert sobolev_index(5, 3) == 3
    with pytest.raises(DomainError):
        sobolev_index(-1, 2)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_suite_runs_and_passes():
    reports = run_suite(0.5, 63, seed=7)
    assert all(r.passed for r in reports)
    names = {r.check_name for r in reports}
    assert "weak_maximum_principle" in names
    assert "counterexample_boundary_only" in names


def test_reports_are_reproducible():
    a = run_suite(0.5, 63, seed=7)
    b = run_suite(0.5, 63, seed=7)
    assert [r.line() for r in a] == [r.line() for r in b]
    assert all(x.inputs_digest == y.inputs_digest for x, y in zip(a, b))
