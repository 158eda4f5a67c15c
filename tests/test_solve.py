import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg as sla

from mixlap import fields, solve, verify
from mixlap.assembly import StiffnessSystem, _odd_rfft, build_mesh, build_system, load_vector
from mixlap.errors import DomainError, NumericalError
from mixlap.kernel import OperatorParams
from mixlap.solve import export_report, export_solution_csv, solve_dirichlet

from helpers import lift_nonhomogeneous, lp_norm, mollifier_bump, plateau, without

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def sys_05_255():
    return build_system(build_mesh(-1.0, 1.0, 255), OperatorParams(1, 0.5))


def test_zero_load_gives_zero_solution(sys_05_255):
    rep = solve_dirichlet(sys_05_255, fields.constant(0.0))
    assert np.all(rep.solution.coeffs == 0.0)
    assert rep.energy == 0.0
    assert rep.ratio_energy == 0.0


def test_constant_load_nonnegative_and_symmetric(sys_05_255):
    rep = solve_dirichlet(sys_05_255, fields.constant(1.0))
    u = rep.solution.coeffs
    assert float(np.min(u)) >= -1e-10
    assert float(np.max(np.abs(u - u[::-1]))) <= 1e-10


def test_nonlocal_part_lowers_the_peak():
    mesh = build_mesh(-1.0, 1.0, 255)
    params = OperatorParams(1, 0.25)
    mixed = solve_dirichlet(build_system(mesh, params), fields.constant(1.0))
    pure = solve_dirichlet(without(build_system(mesh, params), "nonlocal_row"),
                           fields.constant(1.0))
    assert mixed.solution.coeffs.max() <= pure.solution.coeffs.max() + 1e-12


def test_solves_are_bitwise_deterministic(sys_05_255):
    a = solve_dirichlet(sys_05_255, fields.constant(1.0))
    b = solve_dirichlet(sys_05_255, fields.constant(1.0))
    assert np.array_equal(a.solution.coeffs, b.solution.coeffs)


def test_energy_identity(sys_05_255):
    f = fields.constant(1.0)
    rep = solve_dirichlet(sys_05_255, f)
    b = load_vector(f, rep.solution.mesh)
    assert rep.energy == pytest.approx(float(b @ rep.solution.coeffs), rel=1e-9)


def test_energy_dominates_gradient_norm(sys_05_255):
    rep = solve_dirichlet(sys_05_255, fields.constant(1.0))
    assert rep.energy >= rep.x_norm**2 - 1e-12


def test_solution_linearity(sys_05_255):
    r1 = solve_dirichlet(sys_05_255, fields.constant(1.0))
    r10 = solve_dirichlet(sys_05_255, fields.constant(10.0))
    assert np.allclose(r10.solution.coeffs, 10.0 * r1.solution.coeffs, rtol=1e-12)


def test_ratio_energy_stable_under_refinement():
    params = OperatorParams(1, 0.5)
    ratios = []
    for n in (63, 127, 255, 511):
        rep = solve_dirichlet(build_system(build_mesh(-1.0, 1.0, n), params),
                              fields.constant(1.0))
        ratios.append(rep.ratio_energy)
    assert max(ratios) / min(ratios) < 1.1


def _cholesky(sys_, f):
    A = sla.toeplitz(sys_.row)
    return sla.cho_solve(sla.cho_factor(A), load_vector(f, sys_.mesh))


def _smooth_load():
    return fields.ScalarField(
        evaluate=lambda x: 1.0 + np.cos(np.pi * np.asarray(x, dtype=float) + 1.0) ** 2)


@pytest.mark.parametrize("n", [2047, 3071])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_solves_where_the_residual_gate_refused(n, s):
    rep = solve_dirichlet(build_system(build_mesh(-1.0, 1.0, n), OperatorParams(1, s)),
                          _smooth_load())
    assert rep.backward_error <= n * EPS
    assert float(np.min(rep.solution.coeffs)) > 0.0
    assert 0 < rep.iterations < solve.MAX_ITERATIONS
    assert rep.to_dict()["solver"] == "toeplitz-pcg"


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_matches_dense_cholesky_at_1023(s):
    sys_ = build_system(build_mesh(-1.0, 1.0, 1023), OperatorParams(1, s))
    ref = _cholesky(sys_, _smooth_load())
    u = solve_dirichlet(sys_, _smooth_load()).solution.coeffs
    assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("parts", [("nonlocal_row",), ("local_row",)])
def test_matches_dense_cholesky_on_one_part_alone(parts):
    sys_ = without(build_system(build_mesh(-1.0, 1.0, 511), OperatorParams(1, 0.5)), *parts)
    ref = _cholesky(sys_, _smooth_load())
    rep = solve_dirichlet(sys_, _smooth_load())
    assert np.max(np.abs(rep.solution.coeffs - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert rep.backward_error <= 511 * EPS


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_meshes(n):
    for s in (0.05, 0.5, 0.99):
        sys_ = build_system(build_mesh(-1.0, 1.0, n), OperatorParams(1, s))
        rep = solve_dirichlet(sys_, _smooth_load())
        ref = _cholesky(sys_, _smooth_load())
        assert np.allclose(rep.solution.coeffs, ref, rtol=1e-13, atol=0.0)
        assert rep.x_norm**2 == pytest.approx(
            float(ref @ sla.toeplitz(sys_.local_row) @ ref), rel=1e-12)


def test_backward_error_gate_rejects_a_corrupted_solution(monkeypatch, sys_05_255):
    f = fields.constant(1.0)
    clean = solve_dirichlet(sys_05_255, f)
    assert clean.backward_error <= 255 * EPS
    rng = np.random.default_rng(11)
    pcg = solve._pcg

    def corrupted(sys_, b):
        u, _, iterations = pcg(sys_, b)
        bad = u * (1.0 + 1e-8 * rng.standard_normal(u.size))
        return bad, sys_.apply(bad), iterations

    monkeypatch.setattr(solve, "_pcg", corrupted)
    with pytest.raises(NumericalError, match="backward error"):
        solve_dirichlet(sys_05_255, f)


def test_underflowing_data_raise_numerical_error():
    # on (0, 1e-300) u is about L^2/8 = 1e-601, below the normal range
    sys_ = build_system(build_mesh(0.0, 1e-300, 3), OperatorParams(1, 0.5))
    with pytest.raises(NumericalError, match="left the double range") as info:
        solve_dirichlet(sys_, fields.constant(1.0))
    assert info.value.eigenvalue_estimate is None


def test_backward_error_stays_out_of_the_report_dict(sys_05_255):
    rep = solve_dirichlet(sys_05_255, fields.constant(1.0))
    doc = rep.to_dict()
    assert "backward_error" not in doc
    assert doc["iterations"] == rep.iterations
    assert doc["solver"] == "toeplitz-pcg"


# ---------------------------------------------------------------------------
# nonhomogeneous lift
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 31, 255])
def test_a_solve_samples_its_load_once(n):
    # a plain field, with no cache of its own: the load vector and ||f||_2
    # share one evaluation at the 6 (n + 1) Gauss points
    calls = []

    def load(x):
        calls.append(np.size(x))
        return 1.0 + np.cos(3.0 * np.asarray(x)) ** 2

    sys_ = build_system(build_mesh(-1.0, 1.0, n), OperatorParams(1, 0.5))
    f = fields.ScalarField(evaluate=load, name="counted")
    rep = solve_dirichlet(sys_, f)
    assert calls == [6 * (n + 1)]
    assert rep.l2_f_norm == lp_norm(f, sys_.mesh, 2.0)


@pytest.mark.parametrize("n", [1, 2, 255, 511])
@pytest.mark.parametrize("s", [0.05, 0.5, 0.99])
@pytest.mark.parametrize("load", ["ring", "smooth"])
def test_a_negated_load_gives_the_negated_solution_to_the_bit(load, s, n):
    # the boundary counterexample reads its full-exterior-data solve as -u:
    # the load vector and every PCG step are odd in the load, and rounding
    # to nearest is symmetric, so the two solves agree in every bit
    params = OperatorParams(1, s)
    sys_ = build_system(build_mesh(-1.0, 1.0, n), params)
    f = verify._ring_load(2.0, params) if load == "ring" else _smooth_load()
    rep = solve_dirichlet(sys_, f)
    neg = solve_dirichlet(sys_, fields.ScalarField(evaluate=lambda x: -f.evaluate(x)))
    assert neg.solution.coeffs.tobytes() == (-rep.solution.coeffs).tobytes()
    assert (neg.l2_f_norm, neg.backward_error, neg.iterations) == (
        rep.l2_f_norm, rep.backward_error, rep.iterations)


def test_lift_with_zero_datum_matches_plain_solve():
    sys_ = build_system(build_mesh(-1.0, 1.0, 63), OperatorParams(1, 0.5))
    plain = solve_dirichlet(sys_, fields.constant(1.0))
    lifted = lift_nonhomogeneous(sys_, fields.constant(1.0), fields.constant(0.0))
    assert np.allclose(lifted.solution.coeffs, plain.solution.coeffs, atol=1e-12)


def test_lift_exterior_bump_nonnegative():
    sys_ = build_system(build_mesh(-1.0, 1.0, 63), OperatorParams(1, 0.5))
    g = mollifier_bump(2.0, 0.5, 1.0)  # supported outside the closure
    rep = lift_nonhomogeneous(sys_, fields.constant(0.0), g)
    assert float(np.min(rep.solution.coeffs)) >= -1e-10


def test_lift_far_plateau_is_nearly_constant():
    sys_ = build_system(build_mesh(-1.0, 1.0, 63), OperatorParams(1, 0.5))
    g = plateau(-60.0, -50.0, 50.0, 60.0, depth=1.0)
    rep = lift_nonhomogeneous(sys_, fields.constant(0.0), g)
    assert np.all(np.abs(rep.solution.coeffs - 1.0) < 5e-3)


def test_lift_rejects_datum_without_curvature():
    sys_ = build_system(build_mesh(-1.0, 1.0, 15), OperatorParams(1, 0.5))
    bare = fields.ScalarField(evaluate=lambda x: np.zeros_like(np.asarray(x, float)))
    with pytest.raises(DomainError):
        lift_nonhomogeneous(sys_, fields.constant(0.0), bare)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_solution_csv_shape(tmp_path, sys_05_255):
    rep = solve_dirichlet(sys_05_255, fields.constant(1.0))
    path = tmp_path / "solution.csv"
    export_solution_csv(path, rep)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == 1 + 255


def test_report_json_fields(tmp_path, sys_05_255):
    rep = solve_dirichlet(sys_05_255, fields.constant(1.0))
    path = tmp_path / "report.json"
    export_report(path, rep)
    doc = json.loads(path.read_text())
    for key in ("energy", "x_norm", "l2_f_norm", "ratio_energy", "residual_norm"):
        assert key in doc
    assert doc["n"] == 255


@pytest.mark.parametrize("n", [2047, 65535, 262143])
def test_local_only_system_is_its_own_tau_preconditioner(n):
    sys_ = without(build_system(build_mesh(-1.0, 1.0, n), OperatorParams(1, 0.5)),
                   "nonlocal_row")
    rep = solve_dirichlet(sys_, _smooth_load())
    assert rep.iterations <= 2
    assert rep.backward_error <= n * EPS


@pytest.mark.parametrize("parts", [(), ("local_row",)])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 0.99])
def test_iteration_count_stays_small_at_65535(s, parts):
    sys_ = without(build_system(build_mesh(-1.0, 1.0, 65535), OperatorParams(1, s)), *parts)
    rep = solve_dirichlet(sys_, fields.constant(1.0))
    assert rep.iterations <= 10
    assert rep.backward_error <= 65535 * EPS


def test_every_small_system_solves():
    parts = ((), ("nonlocal_row",), ("local_row",))
    for n in range(1, 65):
        mesh = build_mesh(-1.0, 1.0, n)
        for s in (0.05, 0.5, 0.99):
            for part in parts:
                rep = solve_dirichlet(without(build_system(mesh, OperatorParams(1, s)), *part),
                                      _smooth_load())
                assert rep.backward_error <= n * EPS, (n, s, part)


def test_indefinite_row_raises_on_the_tau_spectrum():
    sys_ = build_system(build_mesh(-1.0, 1.0, 31), OperatorParams(1, 0.5))
    row = np.zeros(31)
    row[:2] = 1.0
    bad = dataclasses.replace(sys_, local_row=row, nonlocal_row=np.zeros(31))
    with pytest.raises(NumericalError, match="tau spectrum") as info:
        solve_dirichlet(bad, fields.constant(1.0))
    assert info.value.eigenvalue_estimate < 0.0


def test_a_system_derives_its_tau_spectrum_once(monkeypatch):
    # run_suite solves several loads on one system: the DST of the tau
    # column is taken on the first solve and read back on the next
    calls = []
    spectrum = StiffnessSystem.tau.func

    def counted(sys_):
        calls.append(sys_)
        return spectrum(sys_)

    monkeypatch.setattr(StiffnessSystem.tau, "func", counted)
    sys_ = build_system(build_mesh(-1.0, 1.0, 255), OperatorParams(1, 0.25))
    first = solve_dirichlet(sys_, fields.constant(1.0))
    second = solve_dirichlet(sys_, _smooth_load())
    assert calls == [sys_]
    fresh = solve_dirichlet(build_system(sys_.mesh, sys_.params), _smooth_load())
    assert second.solution.coeffs.tobytes() == fresh.solution.coeffs.tobytes()
    assert first.iterations > 0 and second.iterations > 0
    # the spectrum a solve formerly computed for itself, to the bit
    row, n = sys_.row, sys_.row.size
    ext = np.zeros(2 * n + 2)
    ext[1:n + 1] = row - np.concatenate([row[2:], np.zeros(2)])
    lam = -_odd_rfft(ext, n) / (2.0 * np.sin(np.pi * np.arange(1, n + 1) / (n + 1)))
    assert sys_.tau.tobytes() == lam.tobytes()
